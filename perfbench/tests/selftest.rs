//! Tiny-scale self-test of the benchmark: every workload runs at minimal
//! size and prints every end-to-end metric with its unit and no failed op,
//! and each traced run's calls plus `unattributed_ms` add up to the op
//! total.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use std::path::PathBuf;
use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["pipeline_fresh", "serve_replay", "ledger_ingest"];

const END_TO_END: [(&str, &str); 5] = [
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The timed calls of the traced op, plus the unattributed rest.
const CALLS: [&str; 12] = [
    "core.stage_setup_ms",
    "cluster.run_ms",
    "ramble.analyze_ms",
    "core.collect_ms",
    "core.ledger_append_ms",
    "serve.intake_ms",
    "serve.drain_ms",
    "core.ledger_load_ms",
    "core.to_database_ms",
    "core.regress_scan_ms",
    "core.fingerprint_index_ms",
    "unattributed_ms",
];

fn perfbench(args: &[&str]) -> Output {
    // each run gets its own working directory for its scratch files
    let cwd = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(args.join("_").replace('-', ""));
    std::fs::create_dir_all(&cwd).expect("create the working directory");
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(&cwd)
        .output()
        .expect("run perfbench")
}

fn run_tiny(workload: &str, trace: &str) -> (String, String) {
    let out = perfbench(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0.1",
        "--trace",
        trace,
        "--tiny",
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output").to_string();
    (stdout, last)
}

/// The value and unit of `name` in the result line.
fn metric(json: &str, name: &str) -> Option<(f64, String)> {
    let rest = &json[json.find(&format!("\"{name}\": {{\"value\": "))? + name.len() + 14..];
    let (value, rest) = rest.split_once(", \"unit\": \"")?;
    let (unit, _) = rest.split_once('"')?;
    Some((value.parse().ok()?, unit.to_string()))
}

#[test]
fn every_workload_prints_every_end_to_end_metric_without_failures() {
    for workload in WORKLOADS {
        let (stdout, json) = run_tiny(workload, "0");
        assert!(
            json.starts_with("{\"correct\": true, ") && json.contains("\"failed\": 0,"),
            "{workload}: {json}"
        );
        assert!(stdout.contains(", failed 0, error_rate 0\n"), "{stdout}");
        for (name, unit) in END_TO_END {
            let (value, got) =
                metric(&json, name).unwrap_or_else(|| panic!("{workload}: no {name} in {json}"));
            assert_eq!(got, unit, "{workload}: {name}");
            assert!(value > 0.0, "{workload}: {name} = {value}");
            assert!(
                stdout.contains(&format!("  {name} ")),
                "{workload}: table lacks {name}"
            );
        }
    }
}

#[test]
fn traced_calls_add_up_to_the_op_total() {
    for workload in WORKLOADS {
        let (_, json) = run_tiny(workload, "1");
        assert!(
            json.starts_with("{\"correct\": true, "),
            "{workload}: {json}"
        );
        let value = |name: &str| {
            metric(&json, name)
                .unwrap_or_else(|| panic!("{workload}: no {name} in {json}"))
                .0
        };
        let total = value("traced_op_ms");
        let sum: f64 = CALLS.iter().map(|name| value(name)).sum();
        assert!(total > 0.0, "{workload}: empty op");
        assert!(
            (sum - total).abs() <= 1e-9 * total,
            "{workload}: calls sum to {sum}, op total {total}"
        );
        assert!(value("traced_ops") >= 4.0, "{workload}: too few traced ops");
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1"][..],
        &["--workload", "ledger_ingest", "--seconds", "1"][..],
        &[
            "--workload",
            "ledger_ingest",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let out = perfbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
