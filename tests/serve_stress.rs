//! Integration: the `benchpark serve` stress harness — ≥1000 replayed
//! requests across 4 tenants and 2 systems through the daemon CLI, with the
//! throughput report, typed over-quota rejections, spool round-trips, and
//! the determinism contract: per-tenant FOM transcripts byte-identical to
//! the same requests run serially through the one-shot driver path, and the
//! whole output tree byte-identical at `--jobs 1` and `--jobs 8`.

mod common;

use benchpark::core::{Benchpark, RunSpec};
use benchpark::serve::fom_transcript;
use benchpark::yamlite::parse_json;
use common::TempDir;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const TENANTS: [&str; 4] = ["alice", "bob", "carol", "dave"];
const SYSTEMS: [&str; 2] = ["cts1", "ats2"];
const EXPERIMENTS: [(&str, &str); 2] = [("saxpy", "openmp"), ("stream", "openmp")];

fn temp_base(tag: &str) -> TempDir {
    let dir = TempDir::new(&format!("benchpark-serve-e2e-{tag}"));
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

/// The stress workload: `n` valid request lines cycling tenants, systems,
/// and experiments deterministically, so every tenant submits to both
/// systems and most submissions repeat an earlier spec (the fingerprint
/// fastpath's bread and butter).
fn stress_lines(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let tenant = TENANTS[i % TENANTS.len()];
            let (benchmark, variant) = EXPERIMENTS[(i / TENANTS.len()) % EXPERIMENTS.len()];
            let system = SYSTEMS[(i / (TENANTS.len() * EXPERIMENTS.len())) % SYSTEMS.len()];
            format!("{tenant} {benchmark}/{variant} {system}")
        })
        .collect()
}

/// Reads every file under `dir` (recursively) into sorted
/// (relative-path, bytes) pairs, for whole-tree byte comparison.
fn tree_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        entries.sort();
        for entry in entries {
            if entry.is_dir() {
                walk(root, &entry, out);
            } else {
                let rel = entry.strip_prefix(root).unwrap().display().to_string();
                out.push((rel, std::fs::read(&entry).unwrap()));
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out);
    out
}

/// ≥1000 requests across 4 tenants and 2 systems: the daemon completes all
/// of them with zero rejections, reports nonzero throughput and a high
/// fingerprint hit rate, shards the ledger per tenant/system, and its
/// per-tenant FOM transcripts are byte-identical to the same requests run
/// serially through the one-shot `run_request` path.
#[test]
fn stress_1000_requests_matches_serial_driver_byte_for_byte() {
    let base = temp_base("stress");
    let lines = stress_lines(1000);
    let replay = base.join("replay.txt");
    std::fs::write(&replay, lines.join("\n") + "\n").unwrap();

    let root = base.join("root");
    let report_path = base.join("report.json");
    let (ok, stdout, stderr) = benchpark(&[
        "serve",
        "--root",
        root.to_str().unwrap(),
        "--replay",
        replay.to_str().unwrap(),
        "--jobs",
        "8",
        "--report",
        report_path.to_str().unwrap(),
    ]);
    assert!(ok, "serve succeeds\nstdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("1000 admitted, 0 rejected"), "{stdout}");

    // the machine-readable throughput report
    let report = parse_json(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
    assert_eq!(report.get("admitted").and_then(|v| v.as_int()), Some(1000));
    assert_eq!(report.get("rejected").and_then(|v| v.as_int()), Some(0));
    assert_eq!(report.get("completed").and_then(|v| v.as_int()), Some(1000));
    assert_eq!(report.get("failed").and_then(|v| v.as_int()), Some(0));
    let throughput = report
        .get("throughput_rps")
        .and_then(|v| v.as_float())
        .unwrap();
    assert!(throughput > 0.0, "throughput {throughput} must be nonzero");
    let hit_rate = report
        .get("fingerprint_hit_rate")
        .and_then(|v| v.as_float())
        .unwrap();
    assert!(
        hit_rate > 0.5,
        "most of 1000 repeats of 4 specs must hit the cache (got {hit_rate})"
    );

    // the ledger is sharded per tenant/system, and every shard is readable
    for tenant in TENANTS {
        for system in SYSTEMS {
            let shard = root
                .join("ledger")
                .join(tenant)
                .join(format!("{system}.jsonl"));
            assert!(shard.exists(), "missing shard {}", shard.display());
        }
    }
    let (ok, history, _) = benchpark(&["history", root.to_str().unwrap()]);
    assert!(ok, "history over the shard root succeeds");
    assert!(
        !history.contains("skipped"),
        "no torn or corrupt shard lines:\n{history}"
    );

    // serial reference: run each distinct spec once through the one-shot
    // driver (the pre-daemon path), then expand per request. Repeats are
    // valid because cache splices are byte-identical to fresh runs.
    let mut reference: BTreeMap<String, String> = BTreeMap::new();
    for (benchmark, variant) in EXPERIMENTS {
        for system in SYSTEMS {
            let workdir = base.join(format!("serial-{benchmark}-{system}"));
            let spec = RunSpec::new(benchmark, variant, system, &workdir);
            let collected = Benchpark::new()
                .run_request(&spec, None, false)
                .expect("serial run succeeds");
            reference.insert(
                format!("{benchmark}/{variant}@{system}"),
                fom_transcript(&collected.results),
            );
        }
    }
    let mut expected: BTreeMap<&str, String> = BTreeMap::new();
    let mut tenant_seq: BTreeMap<&str, u64> = BTreeMap::new();
    for (i, _) in lines.iter().enumerate() {
        let tenant = TENANTS[i % TENANTS.len()];
        let (benchmark, variant) = EXPERIMENTS[(i / TENANTS.len()) % EXPERIMENTS.len()];
        let system = SYSTEMS[(i / (TENANTS.len() * EXPERIMENTS.len())) % SYSTEMS.len()];
        let seq = tenant_seq.entry(tenant).or_default();
        *seq += 1;
        let transcript = expected.entry(tenant).or_default();
        transcript.push_str(&format!(
            "=== {tenant}#{seq} {benchmark}/{variant} @ {system}\n"
        ));
        transcript.push_str(&reference[&format!("{benchmark}/{variant}@{system}")]);
        transcript.push('\n');
    }
    for tenant in TENANTS {
        let got = std::fs::read_to_string(root.join("foms").join(format!("{tenant}.txt")))
            .expect("per-tenant transcript exists");
        assert_eq!(
            got, expected[tenant],
            "daemon transcript for {tenant} must match the serial driver byte-for-byte"
        );
    }
}

/// The same replay at `--jobs 1` and `--jobs 8` leaves byte-identical
/// `foms/` and `ledger/` trees — and, since every service-observability
/// quantity lives on the queue's virtual clock, byte-identical
/// `status.json` (stage latencies, windows, SLO verdicts) and
/// `metrics.prom` (including the latency histograms): batch composition is
/// a pure function of queue state and commits are serialized in pick
/// order, so parallelism only changes wall-clock.
#[test]
fn jobs_1_and_jobs_8_trees_are_byte_identical() {
    let base = temp_base("jobs");
    let lines = stress_lines(200);
    let replay = base.join("replay.txt");
    std::fs::write(&replay, lines.join("\n") + "\n").unwrap();
    let slo = base.join("slo.txt");
    std::fs::write(
        &slo,
        "p99_queue_wait <= 2048 ticks\nreject_rate <= 0.01\nhit_rate >= 0.5\n",
    )
    .unwrap();

    let mut trees = Vec::new();
    for jobs in ["1", "8"] {
        // each run gets its own cwd with the same *relative* root, so the
        // workspace paths recorded inside ledger lines are identical and
        // the trees can be compared byte-for-byte
        let cwd = base.join(format!("j{jobs}"));
        std::fs::create_dir_all(&cwd).unwrap();
        let output = Command::new(env!("CARGO_BIN_EXE_benchpark"))
            .current_dir(&cwd)
            .args([
                "serve",
                "--root",
                "root",
                "--replay",
                replay.to_str().unwrap(),
                "--jobs",
                jobs,
                "--slo",
                slo.to_str().unwrap(),
                "--status-out",
                "live-status.json",
            ])
            .output()
            .expect("benchpark binary runs");
        assert!(
            output.status.success(),
            "serve --jobs {jobs} succeeds\n{}\n{}",
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr)
        );
        let root = cwd.join("root");
        assert!(
            cwd.join("live-status.json").exists(),
            "--status-out writes the live snapshot"
        );
        trees.push((
            tree_bytes(&root.join("foms")),
            tree_bytes(&root.join("ledger")),
            std::fs::read(root.join("status.json")).expect("status.json written"),
            std::fs::read(root.join("metrics.prom")).expect("metrics.prom written"),
        ));
    }
    assert_eq!(trees[0].0, trees[1].0, "foms/ trees differ across --jobs");
    assert_eq!(trees[0].1, trees[1].1, "ledger/ trees differ across --jobs");
    assert_eq!(trees[0].2, trees[1].2, "status.json differs across --jobs");
    assert_eq!(trees[0].3, trees[1].3, "metrics.prom differs across --jobs");

    // the snapshot carries the observability surface end to end
    let status = String::from_utf8(trees[0].2.clone()).unwrap();
    assert!(status.contains("\"queue_wait\""), "{status}");
    assert!(status.contains("\"verdict\":\"PASS\""), "{status}");
    let prom = String::from_utf8(trees[0].3.clone()).unwrap();
    assert!(
        prom.contains("benchpark_serve_stage_execute_bucket"),
        "{prom}"
    );
    assert!(prom.contains("le=\"+Inf\""), "{prom}");

    // `benchpark status` renders the table and the SLO verdicts
    let (ok, stdout, stderr) =
        benchpark(&["status", base.join("j1").join("root").to_str().unwrap()]);
    assert!(ok, "status renders\n{stdout}\n{stderr}");
    assert!(
        stdout.contains("stage latencies (virtual ticks):"),
        "{stdout}"
    );
    assert!(stdout.contains("PASS p99_queue_wait <= 2048"), "{stdout}");
    for tenant in TENANTS {
        assert!(
            stdout.contains(tenant),
            "tenant {tenant} row missing:\n{stdout}"
        );
    }
    // --format json re-emits the snapshot verbatim
    let (ok, json_out, _) = benchpark(&[
        "status",
        base.join("j1").join("root").to_str().unwrap(),
        "--format",
        "json",
    ]);
    assert!(ok);
    assert_eq!(json_out.trim_end().as_bytes(), &trees[0].2[..]);
}

/// A seeded fault plan inflates virtual execute latency deterministically;
/// an SLO tight enough to pass the clean run fails the faulted one, and
/// `benchpark status --check` turns that into a non-zero exit.
#[test]
fn seeded_faults_breach_the_execute_slo_and_fail_check() {
    let base = temp_base("slo");
    let slo = base.join("slo.txt");
    // clean saxpy/cts1 executes in ~338 virtual ticks; the seeded
    // node-failure plan stretches it past 600 — 512 splits the two
    std::fs::write(&slo, "p95_execute <= 512 ticks\n").unwrap();

    let mut verdicts = Vec::new();
    for (tag, faults) in [("clean", ""), ("faulted", " faults")] {
        let replay = base.join(format!("replay-{tag}.txt"));
        let lines: Vec<String> = TENANTS
            .iter()
            .map(|t| format!("{t} saxpy/openmp cts1{faults}"))
            .collect();
        std::fs::write(&replay, lines.join("\n") + "\n").unwrap();
        let root = base.join(format!("root-{tag}"));
        let (ok, stdout, stderr) = benchpark(&[
            "serve",
            "--root",
            root.to_str().unwrap(),
            "--replay",
            replay.to_str().unwrap(),
            "--slo",
            slo.to_str().unwrap(),
        ]);
        assert!(ok, "serve ({tag}) succeeds\n{stdout}\n{stderr}");
        let (check_ok, stdout, stderr) = benchpark(&["status", root.to_str().unwrap(), "--check"]);
        verdicts.push((check_ok, stdout, stderr));
    }

    let (clean_ok, clean_out, _) = &verdicts[0];
    assert!(clean_ok, "clean run passes --check:\n{clean_out}");
    assert!(clean_out.contains("PASS p95_execute <= 512"), "{clean_out}");

    let (faulted_ok, faulted_out, faulted_err) = &verdicts[1];
    assert!(!faulted_ok, "faulted run must fail --check:\n{faulted_out}");
    assert!(
        faulted_out.contains("FAIL p95_execute <= 512"),
        "{faulted_out}"
    );
    assert!(faulted_err.contains("SLO check failed"), "{faulted_err}");

    // without --check the exit stays zero even on a breach (status is a
    // viewer; the gate is opt-in)
    let (ok, _, _) = benchpark(&["status", base.join("root-faulted").to_str().unwrap()]);
    assert!(ok, "plain status never gates");
}

/// Schema-3 ledger shards carry the request trace; `history` over the
/// shard root replays them cleanly.
#[test]
fn serve_ledger_records_carry_request_traces() {
    let base = temp_base("trace");
    let replay = base.join("replay.txt");
    std::fs::write(&replay, "alice saxpy/openmp cts1\nbob saxpy/openmp cts1\n").unwrap();
    let root = base.join("root");
    let (ok, _, stderr) = benchpark(&[
        "serve",
        "--root",
        root.to_str().unwrap(),
        "--replay",
        replay.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let shard = root.join("ledger").join("alice").join("cts1.jsonl");
    let line = std::fs::read_to_string(&shard).unwrap();
    assert!(line.starts_with("{\"schema\":3,"), "{line}");
    assert!(line.contains("\"request\":{\"tenant\":\"alice\""), "{line}");
    assert!(line.contains("\"queue_wait_ticks\":"), "{line}");
    let (ok, history, _) = benchpark(&["history", root.to_str().unwrap()]);
    assert!(ok, "history replays schema-3 shards");
    assert!(!history.contains("skipped"), "{history}");
}

/// Saturating one tenant's queue yields typed `tenant-queue-full`
/// rejections with the configured limit in the detail, and the surviving
/// requests still complete.
#[test]
fn over_quota_submissions_are_rejected_with_typed_reasons() {
    let base = temp_base("quota");
    let lines: Vec<String> = (0..50)
        .map(|_| "alice saxpy/openmp cts1".to_string())
        .collect();
    let replay = base.join("replay.txt");
    std::fs::write(&replay, lines.join("\n") + "\n").unwrap();

    let root = base.join("root");
    let report_path = base.join("report.json");
    let (ok, stdout, stderr) = benchpark(&[
        "serve",
        "--root",
        root.to_str().unwrap(),
        "--replay",
        replay.to_str().unwrap(),
        "--max-queued",
        "8",
        "--report",
        report_path.to_str().unwrap(),
    ]);
    assert!(ok, "serve succeeds despite rejections\n{stdout}\n{stderr}");
    assert!(stdout.contains("8 admitted, 42 rejected"), "{stdout}");
    assert!(stdout.contains("tenant-queue-full"), "{stdout}");

    let report = parse_json(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
    assert_eq!(report.get("admitted").and_then(|v| v.as_int()), Some(8));
    assert_eq!(report.get("rejected").and_then(|v| v.as_int()), Some(42));
    assert_eq!(report.get("completed").and_then(|v| v.as_int()), Some(8));
    let rejections = report.get("rejections").and_then(|v| v.as_seq()).unwrap();
    assert_eq!(rejections.len(), 42);
    for rejection in rejections {
        assert_eq!(
            rejection.get("code").and_then(|v| v.as_str()),
            Some("tenant-queue-full")
        );
        assert_eq!(
            rejection.get("tenant").and_then(|v| v.as_str()),
            Some("alice")
        );
    }
}

/// `submit` validates and spools; `drain` consumes the spool, completes the
/// requests, and removes it.
#[test]
fn submit_then_drain_round_trips_the_spool() {
    let base = temp_base("spool");
    let root = base.join("root");
    let root_str = root.to_str().unwrap().to_string();

    for line in [
        ["alice", "saxpy/openmp", "cts1"],
        ["bob", "stream/openmp", "ats2"],
    ] {
        let (ok, stdout, stderr) =
            benchpark(&["submit", "--root", &root_str, line[0], line[1], line[2]]);
        assert!(ok, "submit succeeds\n{stdout}\n{stderr}");
        assert!(stdout.contains("spooled"), "{stdout}");
    }
    assert!(root.join("queue").exists(), "spool holds the submissions");

    // invalid submissions are rejected before ever touching the spool
    let (ok, _, stderr) = benchpark(&["submit", "--root", &root_str, "alice", "nope", "cts1"]);
    assert!(!ok, "malformed submission fails");
    assert!(stderr.contains("must be <benchmark>/<variant>"), "{stderr}");

    let (ok, stdout, stderr) = benchpark(&["drain", "--root", &root_str]);
    assert!(ok, "drain succeeds\n{stdout}\n{stderr}");
    assert!(stdout.contains("2 admitted, 0 rejected"), "{stdout}");
    assert!(
        !root.join("queue").exists(),
        "the spool is consumed after drain"
    );
    assert!(root.join("foms").join("alice.txt").exists());
    assert!(root.join("foms").join("bob.txt").exists());

    // a second drain over the empty spool is a clean no-op
    let (ok, stdout, _) = benchpark(&["drain", "--root", &root_str]);
    assert!(ok);
    assert!(stdout.contains("0 admitted"), "{stdout}");
}

/// A claim left by an interrupted drain is drained first, then the live
/// spool: each request runs exactly once, in spool order, and both files
/// are gone afterwards.
#[test]
fn drain_takes_a_leftover_claim_before_the_new_spool() {
    let base = temp_base("leftover-claim");
    let root = base.join("root");
    std::fs::create_dir_all(&root).unwrap();
    std::fs::write(root.join("queue.claimed"), "alice saxpy/openmp cts1\n").unwrap();
    std::fs::write(root.join("queue"), "alice stream/openmp cts1\n").unwrap();
    let root_str = root.to_str().unwrap().to_string();

    let (ok, stdout, stderr) = benchpark(&["drain", "--root", &root_str]);
    assert!(ok, "drain succeeds\n{stdout}\n{stderr}");
    assert!(stdout.contains("2 admitted, 0 rejected"), "{stdout}");
    assert!(!root.join("queue").exists() && !root.join("queue.claimed").exists());
    let shard = std::fs::read_to_string(root.join("ledger/alice/cts1.jsonl")).unwrap();
    let benchmarks: Vec<&str> = shard
        .lines()
        .map(|line| {
            let at = line.find("\"benchmark\":\"").unwrap() + 13;
            &line[at..at + line[at..].find('"').unwrap()]
        })
        .collect();
    assert_eq!(
        benchmarks,
        ["saxpy", "stream"],
        "the leftover claim ran first"
    );

    // exactly once: nothing is left to drain
    let (ok, stdout, _) = benchpark(&["drain", "--root", &root_str]);
    assert!(ok);
    assert!(stdout.contains("0 admitted"), "{stdout}");
}
