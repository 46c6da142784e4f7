//! Integration: the observability pipeline end-to-end — `benchpark trace
//! --export` accumulating a durable run ledger across process lifetimes,
//! `benchpark history` / `benchpark regress` replaying it, and the
//! byte-identity of canonical exports across `--jobs` counts.

mod common;

use benchpark::core::RunRecord;
use benchpark::yamlite::{parse_json, Value};
use common::TempDir;
use std::path::Path;
use std::process::Command;

fn temp_base(tag: &str) -> TempDir {
    let dir = TempDir::new(&format!("benchpark-obs-e2e-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the CLI, returning (exit_ok, stdout, stderr).
fn benchpark(args: &[&str]) -> (bool, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_benchpark"))
        .args(args)
        .output()
        .expect("benchpark binary runs");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// One `trace --export` invocation into `export`, with a fresh workspace at
/// `ws` (removed first so reruns see identical paths and content).
fn trace_run(ws: &Path, export: &Path, extra: &[&str]) {
    let _ = std::fs::remove_dir_all(ws);
    let mut args = vec![
        "trace",
        "saxpy/openmp",
        "cts1",
        ws.to_str().unwrap(),
        "--export",
        export.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    let (ok, stdout, stderr) = benchpark(&args);
    assert!(ok, "trace failed:\n{stdout}\n{stderr}");
}

#[test]
fn ledger_accumulates_runs_and_regress_flags_seeded_slowdown() {
    let base = temp_base("ledger");
    let ws = base.join("ws");
    let export = base.join("export");
    let ledger = export.join("ledger.jsonl");

    // one faulted run (the resilience layer recovers it) and two clean
    // reruns, all appending to the same ledger across process lifetimes.
    // The second clean rerun would be satisfied from the fingerprint cache
    // (identical inputs), so `--force` makes it re-execute and append.
    trace_run(&ws, &export, &["--faults"]);
    trace_run(&ws, &export, &[]);
    trace_run(&ws, &export, &["--force"]);

    let ledger_path = ledger.to_str().unwrap();
    let (ok, stdout, _) = benchpark(&["history", ledger_path]);
    assert!(ok);
    assert_eq!(stdout.matches("saxpy/openmp on cts1").count(), 3);
    assert!(stdout.contains("#1 "));
    assert!(stdout.contains("8/8 experiments ok"));
    // the faulted run carries its resilience counters into the ledger
    assert!(stdout.contains("retry.attempts="), "{stdout}");

    // identical reruns: quiet
    let (ok, stdout, stderr) = benchpark(&["regress", ledger_path]);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(!stdout.contains("REGRESSION"), "{stdout}");
    assert!(stdout.contains("ok"), "{stdout}");

    // seed a slowdown: append a fourth run whose lower-is-better FOMs
    // doubled, as a hardware fault would
    let text = std::fs::read_to_string(&ledger).unwrap();
    let last = text.lines().rfind(|l| !l.trim().is_empty()).unwrap();
    let mut degraded = RunRecord::parse_line(last).expect("ledger line parses");
    for result in &mut degraded.results {
        for fom in &mut result.foms {
            if fom.name == "kernel_time" {
                let value: f64 = fom.value.parse().unwrap();
                fom.value = (value * 2.0).to_string();
            }
        }
    }
    benchpark::core::append_run(&ledger, &mut degraded).unwrap();
    assert_eq!(degraded.sequence, 4);

    let (ok, stdout, stderr) = benchpark(&["regress", ledger_path]);
    assert!(!ok, "seeded slowdown must fail the scan:\n{stdout}");
    assert!(stdout.contains("REGRESSION"), "{stdout}");
    assert!(stderr.contains("regressed"), "{stderr}");
}

#[test]
fn canonical_exports_are_byte_identical_across_jobs() {
    let base = temp_base("jobs");
    let ws = base.join("ws");
    let out1 = base.join("jobs1");
    let out8 = base.join("jobs8");
    trace_run(&ws, &out1, &["--jobs", "1"]);
    trace_run(&ws, &out8, &["--jobs", "8"]);

    for name in ["trace.json", "flame.folded", "metrics.prom", "ledger.jsonl"] {
        let a = std::fs::read(out1.join(name)).unwrap();
        let b = std::fs::read(out8.join(name)).unwrap();
        assert_eq!(a, b, "{name} differs between --jobs 1 and --jobs 8");
    }

    // the canonical trace is valid Perfetto-loadable JSON with span and
    // counter events, including the per-package install spans
    let trace = std::fs::read_to_string(out1.join("trace.json")).unwrap();
    let doc = parse_json(&trace).expect("trace.json parses");
    let events = doc.get("traceEvents").and_then(Value::as_seq).unwrap();
    assert!(!events.is_empty());
    let phase = |e: &Value| e.get("ph").and_then(Value::as_str).map(String::from);
    assert!(events.iter().any(|e| phase(e).as_deref() == Some("B")));
    assert!(events.iter().any(|e| phase(e).as_deref() == Some("C")));
    assert!(
        events.iter().any(|e| e
            .get("name")
            .and_then(Value::as_str)
            .is_some_and(|n| n.starts_with("install.pkg."))),
        "install DAG spans missing from canonical trace"
    );

    // the flamegraph covers the pipeline phases, the exposition the counters
    let flame = std::fs::read_to_string(out1.join("flame.folded")).unwrap();
    assert!(flame.lines().any(|l| l.starts_with("pipeline.setup")));
    let prom = std::fs::read_to_string(out1.join("metrics.prom")).unwrap();
    assert!(prom.contains("# TYPE benchpark_engine_tasks_success_total counter"));
    assert!(!prom.contains("makespan"), "volatile metric leaked: {prom}");
}

#[test]
fn trace_format_json_emits_one_parseable_document() {
    let base = temp_base("json");
    let ws = base.join("ws");
    let (ok, stdout, stderr) = benchpark(&[
        "trace",
        "saxpy/openmp",
        "cts1",
        ws.to_str().unwrap(),
        "--format",
        "json",
    ]);
    assert!(ok, "{stderr}");
    let doc = parse_json(stdout.trim()).expect("stdout is one JSON document");
    assert_eq!(doc.get("schema").and_then(Value::as_int), Some(1));
    assert!(doc
        .get("spans")
        .and_then(Value::as_seq)
        .is_some_and(|s| !s.is_empty()));
    assert!(doc.get("counters").is_some());
    assert!(doc
        .get("journal_events")
        .and_then(Value::as_int)
        .is_some_and(|n| n > 0));
}

#[test]
fn regress_reports_missing_and_empty_ledgers() {
    let base = temp_base("empty");
    let missing = base.join("nope.jsonl");
    let (ok, _, stderr) = benchpark(&["regress", missing.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("cannot read ledger"), "{stderr}");

    // a ledger of only corrupt lines: loadable, but no runs to judge
    let garbled = base.join("garbled.jsonl");
    std::fs::write(&garbled, "not json at all\n{\"schema\":42}\n").unwrap();
    let (ok, _, stderr) = benchpark(&["regress", garbled.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("no readable runs"), "{stderr}");
    assert!(stderr.contains("skipped 2"), "{stderr}");
}
