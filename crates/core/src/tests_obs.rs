//! Tests for the observability layer: the durable run ledger, regression
//! edge cases, the units heuristic, the whole-ledger scan, and the
//! failed-experiment gate.

use crate::{
    append_run, detect_regression, gate_failed_experiments, load_ledger, lower_is_better_units,
    scan_regressions, RegressionReport, RequestTrace, RunRecord,
};
use benchpark_ramble::{ExperimentResult, ExperimentStatus, FomValue};
use benchpark_telemetry::TelemetrySink;

fn temp_ledger(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("benchpark-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("ledger.jsonl")
}

fn result(fom: &str, value: f64, units: &str, status: ExperimentStatus) -> ExperimentResult {
    ExperimentResult {
        experiment: "exp_1".to_string(),
        application: "stream".to_string(),
        workload: "stream".to_string(),
        status,
        foms: vec![FomValue {
            name: fom.to_string(),
            value: value.to_string(),
            units: units.to_string(),
            context: Default::default(),
        }],
        criteria: vec![("found_fom".to_string(), true)],
        variables: [("n_threads".to_string(), "8".to_string())].into(),
        profile: vec![("kernel".to_string(), 1.5)],
        cached: false,
    }
}

fn record(value: f64) -> RunRecord {
    RunRecord::from_run(
        "cts1",
        "stream",
        "openmp",
        "manifest: stream/openmp on cts1",
        &[result("triad_bw", value, "MB/s", ExperimentStatus::Success)],
        None,
    )
}

// ---------------------------------------------------------------------------
// Ledger persistence
// ---------------------------------------------------------------------------

#[test]
fn ledger_record_round_trips_through_json() {
    let sink = TelemetrySink::recording();
    sink.incr("cache.hit", 4);
    sink.observe("queue.depth", 2.0);
    sink.observe_volatile("install.makespan_seconds", 9.0);
    let report = sink.report().unwrap();
    let mut original = RunRecord::from_run(
        "ats2",
        "amg2023",
        "cuda",
        "manifest text\nwith two lines",
        &[result("fom_a", 42.5, "GB/s", ExperimentStatus::Success)],
        Some(&report),
    );
    original.sequence = 7;
    let parsed = RunRecord::parse_line(&original.to_json_line()).expect("round trip");
    assert_eq!(parsed.sequence, 7);
    assert_eq!(parsed.system, "ats2");
    assert_eq!(parsed.benchmark, "amg2023");
    assert_eq!(parsed.variant, "cuda");
    assert_eq!(parsed.manifest, original.manifest);
    assert_eq!(parsed.counters, original.counters);
    assert_eq!(parsed.counter("cache.hit"), 4);
    // volatile observation stream excluded by construction
    assert!(original
        .observations
        .iter()
        .all(|(n, _)| n == "queue.depth"));
    assert_eq!(parsed.observations, original.observations);
    let r = &parsed.results[0];
    assert_eq!(r.status, ExperimentStatus::Success);
    assert_eq!(r.foms[0].name, "fom_a");
    assert_eq!(r.foms[0].value, "42.5");
    assert_eq!(r.criteria, vec![("found_fom".to_string(), true)]);
    assert_eq!(r.variables["n_threads"], "8");
    assert_eq!(r.profile, vec![("kernel".to_string(), 1.5)]);
    // deterministic serialization: emitting the parsed record is byte-identical
    assert_eq!(parsed.to_json_line(), original.to_json_line());
}

#[test]
fn ledger_append_stamps_consecutive_sequences() {
    let path = temp_ledger("append");
    for expected in 1..=3u64 {
        let mut rec = record(100.0);
        let got = append_run(&path, &mut rec).expect("append");
        assert_eq!(got, expected);
        assert_eq!(rec.sequence, expected);
    }
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count(), 3);
}

#[test]
fn ledger_load_skips_corrupt_and_unknown_schema_lines() {
    let path = temp_ledger("corrupt");
    let mut first = record(100.0);
    append_run(&path, &mut first).unwrap();
    // a truncated append and a future schema version land between two
    // good records
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    writeln!(file, "{{\"schema\":1,\"sequence\":99,\"trunc").unwrap();
    writeln!(file, "{{\"schema\":999,\"sequence\":2}}").unwrap();
    drop(file);
    let mut last = record(90.0);
    append_run(&path, &mut last).unwrap();

    let sink = TelemetrySink::recording();
    let load = load_ledger(&path, &sink).expect("load survives corruption");
    assert_eq!(load.runs.len(), 2);
    assert_eq!(load.skipped, 2);
    assert_eq!(sink.report().unwrap().counter("obs.ledger.skipped"), 2);
    // survivors are re-stamped with consecutive sequences
    assert_eq!(load.runs[0].sequence, 1);
    assert_eq!(load.runs[1].sequence, 2);
}

#[test]
fn ledger_replay_feeds_regression_scan() {
    let path = temp_ledger("replay");
    for value in [100.0, 100.0, 100.0, 50.0] {
        let mut rec = record(value);
        append_run(&path, &mut rec).unwrap();
    }
    let load = load_ledger(&path, &TelemetrySink::noop()).unwrap();
    let reports = scan_regressions(&load.runs, 0.10);
    assert_eq!(reports.len(), 1);
    let report = &reports[0];
    assert_eq!(
        (report.benchmark.as_str(), report.fom.as_str()),
        ("stream", "triad_bw")
    );
    assert!(report.regressed, "{}", report.render());
}

// ---------------------------------------------------------------------------
// Regression edge cases
// ---------------------------------------------------------------------------

/// An in-process run of `benchmark` on `system` with one result.
fn run_of(system: &str, benchmark: &str, result: ExperimentResult) -> RunRecord {
    RunRecord::from_run(system, benchmark, "openmp", "m", &[result], None)
}

/// A stream/cts1 run whose one result reports `triad_bw`.
fn triad(value: f64, status: ExperimentStatus) -> RunRecord {
    run_of("cts1", "stream", result("triad_bw", value, "MB/s", status))
}

#[test]
fn regression_zero_baseline_std_flags_any_real_drop() {
    // byte-identical baseline runs have zero variance; the 2-sigma noise
    // band degenerates to "any difference", and the threshold alone decides
    let ok = ExperimentStatus::Success;
    let runs = [
        triad(100.0, ok),
        triad(100.0, ok),
        triad(100.0, ok),
        triad(88.0, ok),
    ];
    let report = detect_regression(&runs, "stream", "cts1", "triad_bw", true, 0.10).unwrap();
    assert_eq!(report.baseline_std, 0.0);
    assert!(report.regressed, "{}", report.render());
}

#[test]
fn regression_quiet_on_identical_reruns() {
    let runs = vec![triad(100.0, ExperimentStatus::Success); 4];
    let report = detect_regression(&runs, "stream", "cts1", "triad_bw", true, 0.10).unwrap();
    assert!(!report.regressed, "{}", report.render());
    assert_eq!(report.change, 0.0);
}

#[test]
fn regression_ignores_failed_experiments() {
    let ok = ExperimentStatus::Success;
    // an all-failed run contributes nothing: still only 2 usable sequences,
    // so no verdict
    let mut runs = vec![
        triad(100.0, ok),
        triad(100.0, ok),
        triad(1.0, ExperimentStatus::Failed),
    ];
    assert!(detect_regression(&runs, "stream", "cts1", "triad_bw", true, 0.10).is_none());
    // one more success: the failed run is skipped, not treated as latest
    runs.push(triad(100.0, ok));
    let report = detect_regression(&runs, "stream", "cts1", "triad_bw", true, 0.10).unwrap();
    assert!(!report.regressed, "{}", report.render());
}

#[test]
fn units_heuristic_classifies_directions() {
    // table-driven: (units, lower_is_better)
    let cases = [
        // plain time units, smallest to largest, with common spellings
        ("s", true),
        ("sec", true),
        ("secs", true),
        ("seconds", true),
        ("Seconds", true),
        ("ms", true),
        ("msecs", true),
        ("us", true),
        ("usec", true),
        ("usecs", true),
        ("microseconds", true),
        ("ns", true),
        ("nsecs", true),
        ("min", true),
        ("mins", true),
        ("minutes", true),
        ("h", true),
        ("hr", true),
        ("hours", true),
        ("total_seconds", true),
        ("p99_latency", true),
        // time per unit of work is a cost
        ("s/iter", true),
        ("ms/op", true),
        ("usec/call", true),
        ("Sec/Step", true),
        ("minutes/rep", true),
        // work per unit of time is a rate
        ("MB/s", false),
        ("GB/s", false),
        ("iter/s", false),
        ("iterations/sec", false),
        ("ops/ms", false),
        // unknown denominators stay higher-is-better
        ("s/node", false),
        // not time at all
        ("count", false),
        ("", false),
        ("FLOPS", false),
        ("minsize", false),
        ("hours_of_uptime", false),
    ];
    for (units, lower) in cases {
        assert_eq!(
            lower_is_better_units(units),
            lower,
            "`{units}` should be lower_is_better={lower}"
        );
    }
}

#[test]
fn scan_inverts_direction_for_minutes_and_per_iteration_units() {
    // a walltime in `minutes` that doubles, and an `ms/op` cost that
    // doubles: both must be flagged as regressions, not improvements
    let runs = |fom: &str, units: &str| -> Vec<RunRecord> {
        [10.0, 10.0, 10.0, 20.0]
            .map(|value| {
                let walltime = result(fom, value, units, ExperimentStatus::Success);
                run_of("cts1", "lulesh", walltime)
            })
            .to_vec()
    };
    for units in ["minutes", "ms/op"] {
        let reports = scan_regressions(&runs("walltime", units), 0.10);
        assert_eq!(reports.len(), 1);
        assert!(
            reports[0].regressed,
            "`{units}` increase must regress: {}",
            reports[0].render()
        );
    }
    // the same doubling in a throughput unit is an improvement
    let reports = scan_regressions(&runs("rate", "iter/s"), 0.10);
    assert_eq!(reports.len(), 1);
    assert!(!reports[0].regressed, "{}", reports[0].render());
}

#[test]
fn scan_uses_units_to_infer_direction_and_skips_pipeline_telemetry() {
    let mut runs = Vec::new();
    // latency in `us`: an increase is a regression
    for value in [10.0, 10.0, 10.0, 25.0] {
        let latency = result("avg_latency", value, "us", ExperimentStatus::Success);
        runs.push(run_of("cts1", "osu-bcast", latency));
        // pipeline pseudo-benchmark history that would "regress" if scanned
        let skipped = result(
            "obs.ledger.skipped",
            value,
            "count",
            ExperimentStatus::Success,
        );
        runs.push(run_of("cts1", "benchpark-pipeline", skipped));
    }
    let reports = scan_regressions(&runs, 0.10);
    assert_eq!(reports.len(), 1, "pipeline telemetry must be excluded");
    assert_eq!(reports[0].fom, "avg_latency");
    assert!(reports[0].regressed, "{}", reports[0].render());
}

// ---------------------------------------------------------------------------
// Failed-experiment gate
// ---------------------------------------------------------------------------

#[test]
fn gate_passes_clean_runs_and_names_failures() {
    let ok = [result("x", 1.0, "s", ExperimentStatus::Success)];
    assert!(gate_failed_experiments(&ok, false).is_ok());

    let mixed = [
        result("x", 1.0, "s", ExperimentStatus::Success),
        result("x", 1.0, "s", ExperimentStatus::Failed),
        result("x", 1.0, "s", ExperimentStatus::JobError),
    ];
    let err = gate_failed_experiments(&mixed, false).unwrap_err();
    assert!(err.contains("Failed"), "{err}");
    assert!(err.contains("JobError"), "{err}");
    assert!(err.contains("--allow-failed"), "{err}");
    assert!(gate_failed_experiments(&mixed, true).is_ok());
}

// ---------------------------------------------------------------------------
// Ledger schema 2/3: fingerprints, cached markers, request traces, parse hardening
// ---------------------------------------------------------------------------

#[test]
fn ledger_schema2_round_trips_fingerprints_and_cached_marker() {
    let mut rec = record(100.0).with_fingerprints(vec![
        ("exp_b".to_string(), "00000000000000ff".to_string()),
        ("exp_1".to_string(), "deadbeefdeadbeef".to_string()),
    ]);
    rec.sequence = 3;
    rec.results[0].cached = true;
    let line = rec.to_json_line();
    assert!(line.starts_with("{\"schema\":3,"), "{line}");
    let parsed = RunRecord::parse_line(&line).expect("schema-2 line parses");
    // with_fingerprints sorts by experiment name for deterministic emission
    assert_eq!(
        parsed.fingerprints,
        vec![
            ("exp_1".to_string(), "deadbeefdeadbeef".to_string()),
            ("exp_b".to_string(), "00000000000000ff".to_string()),
        ]
    );
    assert!(parsed.results[0].cached);
    assert_eq!(parsed.to_json_line(), line);
}

#[test]
fn ledger_loads_mixed_schema1_and_schema2_lines() {
    let path = temp_ledger("mixed-schema");
    // a schema-1 line (pre-fingerprint era) followed by a schema-2 line
    let schema1 = record(100.0)
        .to_json_line()
        .replacen("{\"schema\":3,", "{\"schema\":1,", 1);
    let mut rec2 =
        record(90.0).with_fingerprints(vec![("exp_1".to_string(), "1111111111111111".to_string())]);
    std::fs::write(&path, format!("{schema1}\n{}\n", rec2.to_json_line())).unwrap();

    let load = load_ledger(&path, &TelemetrySink::noop()).expect("mixed schemas load");
    assert_eq!(load.runs.len(), 2);
    assert_eq!(load.skipped, 0);
    // the schema-1 record simply has no fingerprints
    assert!(load.runs[0].fingerprints.is_empty());
    assert_eq!(load.runs[1].fingerprints.len(), 1);
    let _ = &mut rec2;
}

#[test]
fn ledger_schema3_round_trips_request_trace() {
    let mut rec = record(100.0).with_request(RequestTrace {
        tenant: "alice".to_string(),
        request_id: 17,
        submit_tick: 3,
        queue_wait_ticks: 9,
        schedule_ticks: 1,
        execute_ticks: 812,
        commit_ticks: 2,
    });
    rec.sequence = 1;
    let line = rec.to_json_line();
    assert!(line.contains("\"request\":{\"tenant\":\"alice\""), "{line}");
    let parsed = RunRecord::parse_line(&line).expect("schema-3 line parses");
    let trace = parsed.request.as_ref().expect("trace survives");
    assert_eq!(trace.tenant, "alice");
    assert_eq!(trace.request_id, 17);
    assert_eq!(trace.queue_wait_ticks, 9);
    assert_eq!(trace.execute_ticks, 812);
    assert_eq!(parsed.to_json_line(), line);
    // negative tick values are corruption, not data
    let bad = line.replace("\"execute_ticks\":812", "\"execute_ticks\":-1");
    assert!(RunRecord::parse_line(&bad).is_err());
}

#[test]
fn ledger_loads_mixed_schema123_with_absent_stage_timings() {
    let path = temp_ledger("mixed-schema123");
    // history written by three generations of the tool: schema 1 (no
    // fingerprints), schema 2 (fingerprints, no request trace), schema 3
    // (request trace from the serve daemon)
    let schema1 = record(100.0)
        .to_json_line()
        .replacen("{\"schema\":3,", "{\"schema\":1,", 1);
    let schema2 = record(95.0)
        .with_fingerprints(vec![("exp_1".to_string(), "2222222222222222".to_string())])
        .to_json_line()
        .replacen("{\"schema\":3,", "{\"schema\":2,", 1);
    let schema3 = record(90.0)
        .with_request(RequestTrace {
            tenant: "bob".to_string(),
            request_id: 1,
            submit_tick: 0,
            queue_wait_ticks: 2,
            schedule_ticks: 0,
            execute_ticks: 400,
            commit_ticks: 1,
        })
        .to_json_line();
    std::fs::write(&path, format!("{schema1}\n{schema2}\n{schema3}\n")).unwrap();

    let load = load_ledger(&path, &TelemetrySink::noop()).expect("mixed schemas load");
    assert_eq!(load.runs.len(), 3);
    assert_eq!(load.skipped, 0);
    // old records report absent stage timings rather than failing
    assert!(load.runs[0].request.is_none());
    assert!(load.runs[1].request.is_none());
    assert_eq!(
        load.runs[2].request.as_ref().map(|t| t.queue_wait_ticks),
        Some(2)
    );
    // and the mixed file still answers history/regress queries: the scan
    // flags the 10% triad_bw drop across all three generations
    let scan = scan_regressions(&load.runs, 0.05);
    assert!(
        scan.iter().any(|r| r.fom == "triad_bw"),
        "expected the cross-generation drop to be flagged: {scan:?}"
    );
}

#[test]
fn ledger_rejects_negative_counter_totals_and_sequences() {
    // a negative counter total is corruption and must fail the line, not be
    // clamped into a plausible-looking zero
    let good = record(100.0).to_json_line();
    let line = good.replacen(
        "\"telemetry\":{\"counters\":{}",
        "\"telemetry\":{\"counters\":{\"retry.attempts\":-3}",
        1,
    );
    assert_ne!(line, good, "replacement must have applied");
    let err = RunRecord::parse_line(&line).unwrap_err();
    assert!(err.contains("negative"), "{err}");

    let line = good.replacen("\"sequence\":0,", "\"sequence\":-7,", 1);
    assert_ne!(line, good);
    let err = RunRecord::parse_line(&line).unwrap_err();
    assert!(err.contains("negative"), "{err}");

    // and the corrupt line is skipped (not fatal) on load
    let path = temp_ledger("neg-counter");
    let bad = good.replacen(
        "\"telemetry\":{\"counters\":{}",
        "\"telemetry\":{\"counters\":{\"retry.attempts\":-3}",
        1,
    );
    std::fs::write(&path, format!("{good}\n{bad}\n")).unwrap();
    let load = load_ledger(&path, &TelemetrySink::noop()).unwrap();
    assert_eq!((load.runs.len(), load.skipped), (1, 1));
}

#[test]
fn ledger_append_counts_only_valid_records() {
    // garbage lines must not inflate the next sequence stamp: the stamp
    // counts records load_ledger will actually keep
    let path = temp_ledger("valid-count");
    let mut first = record(100.0);
    append_run(&path, &mut first).unwrap();
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    writeln!(file, "half a rec").unwrap();
    writeln!(file, "{{\"schema\":999}}").unwrap();
    writeln!(file).unwrap();
    drop(file);

    let mut next = record(90.0);
    let sequence = append_run(&path, &mut next).unwrap();
    assert_eq!(sequence, 2, "2 garbage lines must not count as records");
    // the stamp agrees with what a load re-stamps
    let load = load_ledger(&path, &TelemetrySink::noop()).unwrap();
    assert_eq!(load.runs.len(), 2);
    assert_eq!(load.runs.last().unwrap().sequence, 2);
}

// ---------------------------------------------------------------------------
// Fingerprints: builder framing and the ledger-backed index
// ---------------------------------------------------------------------------

#[test]
fn fingerprint_builder_is_deterministic_and_framing_sensitive() {
    use crate::FingerprintBuilder;
    let base = || {
        FingerprintBuilder::new()
            .field("template", "x: 1")
            .field("system", "cts1")
    };
    assert_eq!(base().finish(), base().finish());
    assert_eq!(base().finish().hex().len(), 16);

    // any value edit changes the hash
    assert_ne!(
        base().finish(),
        FingerprintBuilder::new()
            .field("template", "x: 2")
            .field("system", "cts1")
            .finish()
    );
    // field order matters (the driver feeds a fixed order)
    assert_ne!(
        base().finish(),
        FingerprintBuilder::new()
            .field("system", "cts1")
            .field("template", "x: 1")
            .finish()
    );
    // framing: ("ab","c") must not collide with ("a","bc"), nor an empty
    // value with a missing field
    assert_ne!(
        FingerprintBuilder::new()
            .field("k", "ab")
            .field("k", "c")
            .finish(),
        FingerprintBuilder::new()
            .field("k", "a")
            .field("k", "bc")
            .finish()
    );
    assert_ne!(
        FingerprintBuilder::new().field("k", "").finish(),
        FingerprintBuilder::new().finish()
    );
    // fields() labels each pair under the prefix
    assert_ne!(
        FingerprintBuilder::new()
            .fields("var", [("n", "1")])
            .finish(),
        FingerprintBuilder::new()
            .fields("env", [("n", "1")])
            .finish()
    );
}

#[test]
fn fingerprint_index_skips_failures_and_splices_and_prefers_latest() {
    use crate::FingerprintIndex;
    let path = temp_ledger("index");
    let fp = |hex: &str| vec![("exp_1".to_string(), hex.to_string())];

    // run 1: success @ fp aaaa… ; run 2: FAILURE @ fp bbbb… ; run 3: a
    // spliced (cached) replay @ fp cccc… ; run 4: success @ fp aaaa… again
    // with a different value (a --force re-measurement)
    let mut r1 = record(100.0).with_fingerprints(fp("aaaaaaaaaaaaaaaa"));
    append_run(&path, &mut r1).unwrap();
    let mut r2 = RunRecord::from_run(
        "cts1",
        "stream",
        "openmp",
        "m",
        &[result("triad_bw", 1.0, "MB/s", ExperimentStatus::Failed)],
        None,
    )
    .with_fingerprints(fp("bbbbbbbbbbbbbbbb"));
    append_run(&path, &mut r2).unwrap();
    let mut r3 = record(100.0).with_fingerprints(fp("cccccccccccccccc"));
    r3.results[0].cached = true;
    append_run(&path, &mut r3).unwrap();
    let mut r4 = record(250.0).with_fingerprints(fp("aaaaaaaaaaaaaaaa"));
    append_run(&path, &mut r4).unwrap();

    let load = load_ledger(&path, &TelemetrySink::noop()).unwrap();
    let index = FingerprintIndex::from_ledger(&load);
    assert_eq!(index.len(), 1, "failure and splice must not be indexed");
    assert!(index.lookup_hex("bbbbbbbbbbbbbbbb").is_none());
    assert!(index.lookup_hex("cccccccccccccccc").is_none());
    let entry = index.lookup_hex("aaaaaaaaaaaaaaaa").expect("hit");
    // the later measurement superseded the earlier one
    assert_eq!(entry.sequence, 4);
    assert_eq!(entry.result.foms[0].value, "250");
    assert!(!entry.result.cached);
}

#[test]
fn driver_plan_incremental_skips_hits_and_honors_force() {
    use crate::{Benchpark, FingerprintIndex};

    let base = std::env::temp_dir().join(format!("benchpark-inc-unit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // measure once, persist with fingerprints (what `trace --export` does)
    let benchpark = Benchpark::new();
    let mut ws = benchpark
        .setup_workspace("saxpy", "openmp", "cts1", base.join("ws1"))
        .unwrap();
    ws.run().unwrap();
    let analysis = ws.analyze(&benchpark).unwrap();
    let fingerprints: Vec<(String, String)> = ws
        .fingerprints
        .iter()
        .map(|(name, fp)| (name.clone(), fp.hex()))
        .collect();
    assert_eq!(fingerprints.len(), analysis.results.len());
    let ledger = base.join("ledger.jsonl");
    let mut rec = RunRecord::from_run("cts1", "saxpy", "openmp", "m", &analysis.results, None)
        .with_fingerprints(fingerprints);
    append_run(&ledger, &mut rec).unwrap();

    let load = load_ledger(&ledger, &TelemetrySink::noop()).unwrap();
    let index = FingerprintIndex::from_ledger(&load);

    // a second workspace in a different directory: identical fingerprints,
    // so the whole run is served from the ledger
    let mut ws2 = benchpark
        .setup_workspace("saxpy", "openmp", "cts1", base.join("ws2"))
        .unwrap();
    assert_eq!(ws.fingerprints, ws2.fingerprints, "path-independent hashes");
    let plan = ws2.plan_incremental(&index, false);
    assert!(plan.all_cached());
    assert_eq!(plan.hits, analysis.results.len());
    assert_eq!(plan.to_run(), 0);
    let spliced = plan.splice(Vec::new());
    assert_eq!(spliced.len(), analysis.results.len());
    assert!(spliced.iter().all(|r| r.cached));
    // splicing preserves the measured FOMs exactly
    for (cached, measured) in spliced.iter().zip(&analysis.results) {
        assert_eq!(cached.experiment, measured.experiment);
        assert_eq!(cached.foms.len(), measured.foms.len());
        for (a, b) in cached.foms.iter().zip(&measured.foms) {
            assert_eq!(
                (a.name.as_str(), a.value.as_str()),
                (b.name.as_str(), b.value.as_str())
            );
        }
    }
    // with everything pruned, running the workspace is a setup error
    assert!(ws2.run().is_err());

    // --force: hits become forced work, nothing is spliced
    let mut ws3 = benchpark
        .setup_workspace("saxpy", "openmp", "cts1", base.join("ws3"))
        .unwrap();
    let plan = ws3.plan_incremental(&index, true);
    assert!(!plan.all_cached());
    assert_eq!(plan.hits, 0);
    assert_eq!(plan.forced, analysis.results.len());
    assert!(plan.cached.is_empty());
    // the forced workspace still runs in full
    ws3.run().unwrap();
    let rerun = ws3.analyze(&benchpark).unwrap();
    assert_eq!(rerun.results.len(), analysis.results.len());
}

// ---------------------------------------------------------------------------
// Crash safety and the sharded multi-tenant layout
// ---------------------------------------------------------------------------

/// A process killed mid-append leaves a torn line with no trailing newline.
/// The next `append_run` must contain the fragment in its own line (never
/// splice the new record onto it), and the load must count exactly one
/// skipped line.
#[test]
fn append_contains_torn_tail_from_killed_writer() {
    let path = temp_ledger("torn-tail");
    let mut first = record(100.0);
    append_run(&path, &mut first).unwrap();

    // simulate a writer killed mid-line: a truncated JSON prefix, no newline
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    write!(file, "{{\"schema\":2,\"sequence\":9,\"sys").unwrap();
    drop(file);

    let mut next = record(90.0);
    let sequence = append_run(&path, &mut next).unwrap();
    assert_eq!(sequence, 2, "the torn fragment is not a record");

    let load = load_ledger(&path, &TelemetrySink::noop()).unwrap();
    assert_eq!(load.runs.len(), 2, "both real records survive");
    assert_eq!(load.skipped, 1, "the torn fragment is one skipped line");
    assert_eq!(load.runs[1].sequence, 2);
}

/// Shard discovery: `<root>/<tenant>/<system>.jsonl` files load sorted by
/// `(tenant, system)`, the merged view re-stamps 1-based sequences in that
/// order, and `tenant_view` exposes exactly one tenant's runs.
#[test]
fn sharded_ledger_discovers_and_merges_per_tenant_shards() {
    use crate::{shard_path, ShardedLedger};
    let root = temp_ledger("shards");
    let root = root.parent().unwrap().join("ledger");

    // append out of discovery order to prove sorting is by name, not mtime
    for (tenant, system, value) in [
        ("zoe", "cts1", 10.0),
        ("amy", "ats2", 20.0),
        ("amy", "cts1", 30.0),
        ("amy", "cts1", 40.0),
    ] {
        let path = shard_path(&root, tenant, system);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let mut rec = record(value);
        rec.system = system.to_string();
        append_run(&path, &mut rec).unwrap();
    }

    let sink = TelemetrySink::noop();
    let sharded = ShardedLedger::load(&root, &sink).unwrap();
    assert_eq!(sharded.tenant_names(), ["amy", "zoe"]);
    assert_eq!(sharded.shards.len(), 3, "one shard per (tenant, system)");
    assert_eq!(sharded.len(), 4);

    // merged order: amy/ats2, amy/cts1 (x2), zoe/cts1 — re-stamped 1..=4
    let sequences: Vec<u64> = sharded.merged.runs.iter().map(|r| r.sequence).collect();
    assert_eq!(sequences, [1, 2, 3, 4]);
    let systems: Vec<&str> = sharded
        .merged
        .runs
        .iter()
        .map(|r| r.system.as_str())
        .collect();
    assert_eq!(systems, ["ats2", "cts1", "cts1", "cts1"]);

    let amy = sharded.tenant_view("amy");
    assert_eq!(amy.runs.len(), 3, "tenant view holds only amy's runs");
    let zoe = sharded.tenant_view("zoe");
    assert_eq!(zoe.runs.len(), 1);
    assert_eq!(zoe.runs[0].system, "cts1");

    // a missing root is an empty ledger, not an error
    let empty = ShardedLedger::load(&root.join("nope"), &sink).unwrap();
    assert!(empty.is_empty());
    assert!(empty.tenant_names().is_empty());
}

// ---------------------------------------------------------------------------
// Equivalence: the one-pass scan against the per-triple scan it replaced
// ---------------------------------------------------------------------------

/// The per-triple series the scan used to re-query (and copy) from the
/// runs for every `(benchmark, system, fom)`, keyed by sequence point.
fn reference_sequence_means(
    runs: &[RunRecord],
    benchmark: &str,
    system: &str,
    fom: &str,
) -> Vec<(u64, f64)> {
    let mut by_seq: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for (sequence, run) in (1u64..).zip(runs) {
        if run.benchmark != benchmark || run.system != system {
            continue;
        }
        for result in &run.results {
            if result.status != ExperimentStatus::Success {
                continue;
            }
            for f in &result.foms {
                if f.name == fom {
                    if let Some(v) = f.as_f64() {
                        by_seq.entry(sequence).or_default().push(v);
                    }
                }
            }
        }
    }
    by_seq
        .into_iter()
        .filter(|(_, vs)| !vs.is_empty())
        .map(|(seq, vs)| (seq, vs.iter().sum::<f64>() / vs.len() as f64))
        .collect()
}

/// The per-triple `detect_regression` the one-pass grouping replaced.
fn reference_detect(
    runs: &[RunRecord],
    benchmark: &str,
    system: &str,
    fom: &str,
    higher_is_better: bool,
    threshold: f64,
) -> Option<RegressionReport> {
    let means = reference_sequence_means(runs, benchmark, system, fom);
    if means.len() < 3 {
        return None;
    }
    let (_, latest_mean) = *means.last().expect("len >= 3");
    let baseline: Vec<f64> = means[..means.len() - 1].iter().map(|(_, m)| *m).collect();
    let verdict = crate::baseline_verdict(&baseline, latest_mean, higher_is_better, threshold);
    Some(RegressionReport {
        benchmark: benchmark.to_string(),
        system: system.to_string(),
        fom: fom.to_string(),
        baseline_mean: verdict.baseline_mean,
        baseline_std: verdict.baseline_std,
        latest_mean,
        change: verdict.change,
        regressed: verdict.regressed,
        history_len: baseline.len(),
    })
}

/// The per-triple `scan_regressions` the one-pass scan replaced.
fn reference_scan(runs: &[RunRecord], threshold: f64) -> Vec<RegressionReport> {
    let mut triples: std::collections::BTreeMap<(String, String, String), String> =
        Default::default();
    for run in runs {
        if run.benchmark == "benchpark-pipeline" {
            continue;
        }
        for result in &run.results {
            if result.status != ExperimentStatus::Success {
                continue;
            }
            for fom in &result.foms {
                if fom.as_f64().is_some() {
                    let key = (run.benchmark.clone(), run.system.clone(), fom.name.clone());
                    triples.insert(key, fom.units.clone());
                }
            }
        }
    }
    triples
        .into_iter()
        .filter_map(|((benchmark, system, fom), units)| {
            let higher_is_better = !lower_is_better_units(&units);
            reference_detect(runs, &benchmark, &system, &fom, higher_is_better, threshold)
        })
        .collect()
}

/// Every field of a report, floats by their bits.
type ReportBits = (String, String, String, [u64; 4], bool, usize);

fn report_bits(r: &RegressionReport) -> ReportBits {
    (
        r.benchmark.clone(),
        r.system.clone(),
        r.fom.clone(),
        [
            r.baseline_mean.to_bits(),
            r.baseline_std.to_bits(),
            r.latest_mean.to_bits(),
            r.change.to_bits(),
        ],
        r.regressed,
        r.history_len,
    )
}

const EQ_BENCHMARKS: [&str; 3] = ["stream", "amg2023", "benchpark-pipeline"];
const EQ_SYSTEMS: [&str; 2] = ["cts1", "ats2"];
const EQ_FOMS: [&str; 3] = ["bw", "time", "iters"];

fn eq_fom() -> impl proptest::strategy::Strategy<Value = FomValue> {
    use proptest::prelude::*;
    let value = prop_oneof![
        (0.5f64..200.0).prop_map(|v| format!("{v:.3}")),
        prop::sample::select(vec!["50", "0", "-0", "NaN", "n/a", ""]).prop_map(String::from),
    ];
    (
        prop::sample::select(EQ_FOMS.to_vec()),
        value,
        prop::sample::select(vec!["MB/s", "s", "count", "ms/iter"]),
    )
        .prop_map(|(name, value, units)| FomValue {
            name: name.to_string(),
            value,
            units: units.to_string(),
            context: Default::default(),
        })
}

/// One run: one analysis batch, one sequence point.
fn eq_run() -> impl proptest::strategy::Strategy<Value = RunRecord> {
    use proptest::prelude::*;
    let status = prop::sample::select(vec![
        ExperimentStatus::Success,
        ExperimentStatus::Success,
        ExperimentStatus::Success,
        ExperimentStatus::Failed,
        ExperimentStatus::JobError,
    ]);
    let result = (status, prop::collection::vec(eq_fom(), 0..4)).prop_map(|(status, foms)| {
        let mut r = result("f", 1.0, "s", status);
        r.foms = foms;
        r
    });
    // weighted toward one (benchmark, system), so its series grow long
    (
        prop::sample::select(vec![
            "stream",
            "stream",
            "stream",
            "amg2023",
            "benchpark-pipeline",
        ]),
        prop::sample::select(vec!["cts1", "cts1", "ats2"]),
        prop::collection::vec(result, 1..4),
    )
        .prop_map(|(benchmark, system, results)| {
            RunRecord::from_run(system, benchmark, "openmp", "m", &results, None)
        })
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

    /// The one-pass scan and the regrouped `detect_regression` agree with
    /// the per-triple reference on every report field, bit for bit: failed
    /// results, non-numeric FOMs, pipeline records, a FOM name repeated in
    /// one sequence, units changing between sightings, and series of one
    /// to several sequences.
    #[test]
    fn one_pass_scan_matches_the_per_triple_reference(
        runs in proptest::prelude::prop::collection::vec(eq_run(), 1..20),
        threshold in proptest::prelude::prop::sample::select(vec![0.0, 0.05, 0.10]),
    ) {
        let got: Vec<ReportBits> = scan_regressions(&runs, threshold).iter().map(report_bits).collect();
        let want: Vec<ReportBits> = reference_scan(&runs, threshold).iter().map(report_bits).collect();
        proptest::prop_assert_eq!(got, want);
        for benchmark in EQ_BENCHMARKS {
            for system in EQ_SYSTEMS {
                for fom in EQ_FOMS {
                    for higher_is_better in [true, false] {
                        let got = detect_regression(&runs, benchmark, system, fom, higher_is_better, threshold);
                        let want = reference_detect(&runs, benchmark, system, fom, higher_is_better, threshold);
                        proptest::prop_assert_eq!(got.as_ref().map(report_bits), want.as_ref().map(report_bits));
                    }
                }
            }
        }
    }
}

/// The generator reaches the cases the equivalence property is about:
/// flagged regressions, series of every length from 1 to 5 sequences, and
/// units that change between sightings of one series.
#[test]
fn one_pass_scan_generator_covers_long_series_and_regressions() {
    use proptest::strategy::Strategy as _;
    let mut rng = proptest::test_runner::TestRng::from_seed(19);
    let strategy = proptest::prelude::prop::collection::vec(eq_run(), 1..20);
    let (mut regressed, mut lengths, mut unit_changes) = (0, [0usize; 6], 0);
    for _ in 0..256 {
        let runs = strategy.generate(&mut rng);
        regressed += scan_regressions(&runs, 0.05)
            .iter()
            .filter(|r| r.regressed)
            .count();
        for b in EQ_BENCHMARKS {
            for s in EQ_SYSTEMS {
                for f in EQ_FOMS {
                    if let Some(n) = lengths.get_mut(reference_sequence_means(&runs, b, s, f).len())
                    {
                        *n += 1;
                    }
                    let mut units: Vec<&str> = runs
                        .iter()
                        .filter(|run| run.benchmark == b && run.system == s)
                        .flat_map(|run| &run.results)
                        .filter(|r| r.status == ExperimentStatus::Success)
                        .flat_map(|r| &r.foms)
                        .filter(|x| x.name == f && x.as_f64().is_some())
                        .map(|x| x.units.as_str())
                        .collect();
                    units.dedup();
                    unit_changes += (units.len() > 1) as usize;
                }
            }
        }
    }
    assert!(regressed > 0, "no regression generated");
    assert!(
        lengths[1..].iter().all(|&n| n > 0),
        "series lengths {lengths:?}"
    );
    assert!(unit_changes > 0, "no units change between sightings");
}

// ---------------------------------------------------------------------------
// `parse_line` parity: round trips per schema and the error text per fault
// ---------------------------------------------------------------------------

/// A record using every field the ledger persists.
fn full_record() -> RunRecord {
    let sink = TelemetrySink::recording();
    sink.incr("cache.hit", 4);
    sink.observe("queue.depth", 2.5);
    let mut first = result("triad_bw", 42.5, "MB/s", ExperimentStatus::Success);
    first.foms[0].context = [("rank".to_string(), "0".to_string())].into();
    first.foms.push(FomValue {
        name: "status".to_string(),
        value: "converged".to_string(),
        units: String::new(),
        context: Default::default(),
    });
    let mut second = result("triad_bw", 40.0, "MB/s", ExperimentStatus::Failed);
    second.experiment = "exp_2".to_string();
    second.criteria.push(("exit_zero".to_string(), false));
    second.profile.push(("halo".to_string(), 0.25));
    let mut rec = RunRecord::from_run(
        "cts1",
        "stream",
        "openmp",
        "manifest: stream/openmp on cts1",
        &[first, second],
        sink.report().as_ref(),
    );
    rec.sequence = 4;
    rec
}

fn assert_round_trips(line: &str, expected: &RunRecord) {
    let parsed = RunRecord::parse_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    assert_eq!(format!("{parsed:?}"), format!("{expected:?}"));
    assert_eq!(parsed.to_json_line(), expected.to_json_line());
}

#[test]
fn parse_line_round_trips_schema_1_2_and_3_records() {
    // schema 1: no fingerprints, no cached markers, no request trace
    let schema1 = full_record();
    let line = schema1
        .to_json_line()
        .replacen("{\"schema\":3,", "{\"schema\":1,", 1)
        .replace("\"cached\":false,", "")
        .replacen("\"fingerprints\":{},", "", 1);
    assert!(!line.contains("cached") && !line.contains("fingerprints"));
    assert_round_trips(&line, &schema1);

    // schema 2: fingerprints and a cached marker, no request trace
    let mut schema2 = full_record().with_fingerprints(vec![
        ("exp_2".to_string(), "00000000000000ff".to_string()),
        ("exp_1".to_string(), "deadbeefdeadbeef".to_string()),
    ]);
    schema2.results[1].cached = true;
    let line = schema2
        .to_json_line()
        .replacen("{\"schema\":3,", "{\"schema\":2,", 1);
    assert_round_trips(&line, &schema2);

    // schema 3: everything, request trace included
    let schema3 = schema2.clone().with_request(RequestTrace {
        tenant: "alice".to_string(),
        request_id: 17,
        submit_tick: 3,
        queue_wait_ticks: 9,
        schedule_ticks: 1,
        execute_ticks: 812,
        commit_ticks: 2,
    });
    assert_round_trips(&schema3.to_json_line(), &schema3);
}

/// Each line carries one fault; the error names it in the same words the
/// ledger has always used.
#[test]
fn parse_line_reports_each_fault_in_its_own_words() {
    let good = full_record()
        .with_fingerprints(vec![("exp_1".to_string(), "deadbeefdeadbeef".to_string())])
        .with_request(RequestTrace {
            tenant: "alice".to_string(),
            request_id: 17,
            submit_tick: 3,
            queue_wait_ticks: 9,
            schedule_ticks: 1,
            execute_ticks: 812,
            commit_ticks: 2,
        })
        .to_json_line();
    RunRecord::parse_line(&good).expect("the unfaulted line parses");
    let cases: &[(&str, &str, &str)] = &[
        // missing keys
        ("{\"schema\":3,", "{", "record lacks `schema`"),
        ("\"sequence\":4,", "", "record lacks `sequence`"),
        ("\"system\":\"cts1\",", "", "record lacks `system`"),
        ("\"benchmark\":\"stream\",", "", "record lacks `benchmark`"),
        ("\"variant\":\"openmp\",", "", "record lacks `variant`"),
        (
            "\"manifest\":\"manifest: stream/openmp on cts1\",",
            "",
            "record lacks `manifest`",
        ),
        ("\"results\":[", "\"other\":[", "record lacks `results`"),
        (
            "\"experiment\":\"exp_1\",",
            "",
            "experiment result lacks `experiment`",
        ),
        (
            "\"application\":\"stream\",",
            "",
            "experiment result lacks `application`",
        ),
        (
            "\"workload\":\"stream\",",
            "",
            "experiment result lacks `workload`",
        ),
        (
            "\"status\":\"Success\",",
            "",
            "experiment result lacks `status`",
        ),
        (
            "\"foms\":[",
            "\"other\":[",
            "experiment result lacks `foms`",
        ),
        ("\"name\":\"triad_bw\",", "", "fom lacks `name`"),
        ("\"value\":\"42.5\",", "", "fom lacks `value`"),
        (
            "\"units\":\"MB/s\"",
            "\"other\":\"MB/s\"",
            "fom lacks `units`",
        ),
        (
            "{\"tenant\":\"alice\",",
            "{",
            "request trace lacks `tenant`",
        ),
        (
            "\"submit_tick\":3,",
            "",
            "request trace lacks `submit_tick`",
        ),
        // wrong types
        (
            "{\"schema\":3,",
            "{\"schema\":\"3\",",
            "record lacks `schema`",
        ),
        (
            "\"sequence\":4,",
            "\"sequence\":4.5,",
            "record lacks `sequence`",
        ),
        (
            "\"system\":\"cts1\",",
            "\"system\":7,",
            "record lacks `system`",
        ),
        (
            "\"results\":[",
            "\"results\":{},\"x\":[",
            "record lacks `results`",
        ),
        (
            "\"status\":\"Success\",",
            "\"status\":true,",
            "experiment result lacks `status`",
        ),
        (
            "\"value\":\"42.5\",",
            "\"value\":42.5,",
            "fom lacks `value`",
        ),
        ("\"deadbeefdeadbeef\"", "5", "fingerprint must be a string"),
        (
            "\"cache.hit\":4",
            "\"cache.hit\":4.5",
            "counter total must be an integer",
        ),
        (
            "\"queue.depth\":2.5",
            "\"queue.depth\":\"2.5\"",
            "observation mean must be numeric",
        ),
        (
            "[\"kernel\",1.5]",
            "[\"kernel\",\"slow\"]",
            "profile seconds must be numeric",
        ),
        (
            "\"tenant\":\"alice\"",
            "\"tenant\":1",
            "request trace lacks `tenant`",
        ),
        (
            "\"request_id\":17,",
            "\"request_id\":\"17\",",
            "request trace lacks `request_id`",
        ),
        // negative counters, ticks and sequences
        (
            "\"cache.hit\":4",
            "\"cache.hit\":-4",
            "counter `cache.hit` total -4 is negative",
        ),
        (
            "\"execute_ticks\":812",
            "\"execute_ticks\":-1",
            "request trace `execute_ticks` -1 is negative",
        ),
        (
            "\"sequence\":4,",
            "\"sequence\":-7,",
            "sequence -7 is negative",
        ),
        // bad criterion and profile pairs
        (
            "[\"found_fom\",true]",
            "[\"found_fom\",\"yes\"]",
            "criterion must be a [name, ok] pair",
        ),
        (
            "[\"found_fom\",true]",
            "\"found_fom\"",
            "criterion must be a [name, ok] pair",
        ),
        (
            "[\"found_fom\",true]",
            "[\"found_fom\",true,true]",
            "criterion must be a [name, ok] pair",
        ),
        (
            "[\"kernel\",1.5]",
            "[1.5,\"kernel\"]",
            "profile entry must be [name, seconds]",
        ),
        (
            "[\"kernel\",1.5]",
            "[\"kernel\"]",
            "profile entry must be [name, seconds]",
        ),
        (
            "[\"kernel\",1.5]",
            "\"kernel\"",
            "profile entry must be [name, seconds]",
        ),
        // unknown status and schema
        (
            "\"status\":\"Success\",",
            "\"status\":\"Crashed\",",
            "unknown experiment status `Crashed`",
        ),
        (
            "{\"schema\":3,",
            "{\"schema\":9,",
            "unknown ledger schema version 9",
        ),
        // a field named twice in one object
        (
            "{\"schema\":3,",
            "{\"schema\":3,\"schema\":3,",
            "duplicate key `schema` at byte 12",
        ),
    ];
    for (needle, replacement, expected) in cases {
        assert!(good.contains(needle), "fixture drifted: {needle}");
        let line = good.replacen(needle, replacement, 1);
        assert_eq!(
            RunRecord::parse_line(&line).err().as_deref(),
            Some(*expected),
            "{needle} -> {replacement}"
        );
    }
    // malformed JSON surfaces the JSON parser's own error
    let torn = &good[..good.len() / 2];
    assert_eq!(
        RunRecord::parse_line(torn).unwrap_err(),
        benchpark_yamlite::parse_json(torn).unwrap_err()
    );
    // a line that is not an object lacks everything, the schema first
    assert_eq!(
        RunRecord::parse_line("[1,2]").unwrap_err(),
        "record lacks `schema`"
    );
}
