//! Integration: incremental re-benchmarking end-to-end — content-addressed
//! experiment fingerprints letting `benchpark trace` splice cached results
//! from the run ledger instead of re-executing, across process lifetimes
//! and workspace directories, with any input change forcing a re-run.

mod common;

use common::TempDir;
use std::path::Path;
use std::process::Command;

fn temp_base(tag: &str) -> TempDir {
    let dir = TempDir::new(&format!("benchpark-inc-e2e-{tag}"));
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

/// One `trace --export` run; the workspace dir is NOT removed first — every
/// call here uses a fresh one, proving fingerprints are workspace-path
/// independent.
fn trace(ws: &Path, export: &Path, extra: &[&str]) -> (bool, String, String) {
    let mut args = vec![
        "trace",
        "saxpy/openmp",
        "cts1",
        ws.to_str().unwrap(),
        "--export",
        export.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    benchpark(&args)
}

/// The FOM lines of a trace's stdout (`    name = value units`).
fn fom_lines(stdout: &str) -> Vec<&str> {
    stdout.lines().filter(|l| l.contains(" = ")).collect()
}

fn ledger_lines(ledger: &Path) -> usize {
    std::fs::read_to_string(ledger)
        .unwrap()
        .lines()
        .filter(|l| !l.trim().is_empty())
        .count()
}

#[test]
fn second_run_splices_from_ledger_and_is_byte_identical() {
    let base = temp_base("splice");
    let export = base.join("export");
    let ledger = export.join("ledger.jsonl");

    let (ok, first, err) = trace(&base.join("ws1"), &export, &[]);
    assert!(ok, "{err}");
    assert!(err.contains("appended run #1"), "{err}");
    assert!(
        !first.contains("[cached]"),
        "first run has nothing to splice:\n{first}"
    );
    assert_eq!(ledger_lines(&ledger), 1);

    // second run, different workspace directory, same inputs: every
    // experiment is served from the ledger, nothing is appended, and the
    // FOM output is byte-identical to the measured run's
    let (ok, second, err) = trace(&base.join("ws2"), &export, &[]);
    assert!(ok, "{err}");
    assert!(
        second.contains("fingerprints: 8 hit(s), 0 miss(es), 0 forced"),
        "{second}"
    );
    assert_eq!(second.matches("[cached]").count(), 8, "{second}");
    assert!(err.contains("every experiment was cached"), "{err}");
    assert_eq!(ledger_lines(&ledger), 1, "cached splice must not append");
    assert_eq!(fom_lines(&first), fom_lines(&second));

    // the prom exposition carries the hit counter
    let prom = std::fs::read_to_string(export.join("metrics.prom")).unwrap();
    assert!(prom.contains("benchpark_fp_hits_total 8"), "{prom}");

    // results.json marks every result as spliced and keyed by fingerprint
    use benchpark::yamlite::{parse_json, Value};
    let doc = parse_json(&std::fs::read_to_string(export.join("results.json")).unwrap()).unwrap();
    let entries = doc.get("results").and_then(Value::as_seq).unwrap();
    assert_eq!(entries.len(), 8);
    for entry in entries {
        assert_eq!(entry.get("cached").and_then(Value::as_bool), Some(true));
        let fp = entry.get("fingerprint").and_then(Value::as_str).unwrap();
        assert_eq!(fp.len(), 16, "fingerprint must be 16 hex digits: {fp}");
    }
}

#[test]
fn force_reexecutes_and_appends() {
    let base = temp_base("force");
    let export = base.join("export");
    let ledger = export.join("ledger.jsonl");

    let (ok, _, _) = trace(&base.join("ws1"), &export, &[]);
    assert!(ok);
    let (ok, stdout, err) = trace(&base.join("ws2"), &export, &["--force"]);
    assert!(ok, "{err}");
    assert!(
        stdout.contains("fingerprints: 0 hit(s), 0 miss(es), 8 forced"),
        "{stdout}"
    );
    assert!(!stdout.contains("[cached]"), "{stdout}");
    assert!(err.contains("appended run #2"), "{err}");
    assert_eq!(ledger_lines(&ledger), 2);

    // the forced re-measurement superseded the original record; a third
    // plain run still hits (latest record wins)
    let (ok, stdout, _) = trace(&base.join("ws3"), &export, &[]);
    assert!(ok);
    assert!(
        stdout.contains("fingerprints: 8 hit(s), 0 miss(es), 0 forced"),
        "{stdout}"
    );
    assert_eq!(ledger_lines(&ledger), 2);
}

#[test]
fn template_edit_invalidates_every_affected_fingerprint() {
    let base = temp_base("invalidate");
    let export = base.join("export");
    let ledger = export.join("ledger.jsonl");

    // dump the built-in template and run with it: identical bytes, so the
    // fingerprints match the builtin-template run exactly
    let (ok, template, _) = benchpark(&["template", "saxpy/openmp"]);
    assert!(ok);
    let tpl = base.join("ramble.yaml");
    std::fs::write(&tpl, &template).unwrap();

    let (ok, _, _) = trace(&base.join("ws1"), &export, &[]);
    assert!(ok);
    let (ok, stdout, _) = trace(
        &base.join("ws2"),
        &export,
        &["--template", tpl.to_str().unwrap()],
    );
    assert!(ok);
    assert!(stdout.contains("8 hit(s)"), "{stdout}");

    // any byte changed in the template — even trailing whitespace — misses
    std::fs::write(&tpl, format!("{template}\n# tuned\n")).unwrap();
    let (ok, stdout, err) = trace(
        &base.join("ws3"),
        &export,
        &["--template", tpl.to_str().unwrap()],
    );
    assert!(ok, "{err}");
    assert!(
        stdout.contains("fingerprints: 0 hit(s), 8 miss(es), 0 forced"),
        "{stdout}"
    );
    assert!(err.contains("appended run #2"), "{err}");
    assert_eq!(ledger_lines(&ledger), 2);
}

#[test]
fn failed_records_never_satisfy_a_lookup() {
    use benchpark::core::RunRecord;
    use benchpark::ramble::ExperimentStatus;

    let base = temp_base("failed");
    let export = base.join("export");
    let ledger = export.join("ledger.jsonl");

    let (ok, _, _) = trace(&base.join("ws1"), &export, &[]);
    assert!(ok);

    // rewrite the ledger so every persisted result is a failure: the
    // fingerprints are still present, but a crash is not a cacheable result
    let text = std::fs::read_to_string(&ledger).unwrap();
    let mut record = RunRecord::parse_line(text.trim()).unwrap();
    for result in &mut record.results {
        result.status = ExperimentStatus::Failed;
    }
    std::fs::write(&ledger, format!("{}\n", record.to_json_line())).unwrap();

    let (ok, stdout, _) = trace(&base.join("ws2"), &export, &["--allow-failed"]);
    assert!(ok);
    assert!(
        stdout.contains("fingerprints: 0 hit(s), 8 miss(es), 0 forced"),
        "{stdout}"
    );

    // ... and the fingerprints listing agrees there is nothing reusable in
    // the failure-only prefix (the rerun just appended 8 fresh records)
    let (ok, listing, _) = benchpark(&["fingerprints", ledger.to_str().unwrap()]);
    assert!(ok);
    assert!(
        listing.contains("8 reusable experiment record(s)"),
        "{listing}"
    );
}

#[test]
fn explicit_ledger_flag_works_without_export() {
    let base = temp_base("ledgerflag");
    let export = base.join("export");
    let ledger = export.join("ledger.jsonl");

    let (ok, _, _) = trace(&base.join("ws1"), &export, &[]);
    assert!(ok);

    // no --export on the reader side: the ledger alone drives the splice
    let (ok, stdout, _) = benchpark(&[
        "trace",
        "saxpy/openmp",
        "cts1",
        base.join("ws2").to_str().unwrap(),
        "--ledger",
        ledger.to_str().unwrap(),
    ]);
    assert!(ok);
    assert!(
        stdout.contains("fingerprints: 8 hit(s), 0 miss(es), 0 forced"),
        "{stdout}"
    );
}

#[test]
fn fingerprints_are_identical_across_jobs_counts() {
    let base = temp_base("jobs");
    let export = base.join("export");

    let (ok, _, _) = trace(&base.join("ws1"), &export, &["--jobs", "1"]);
    assert!(ok);
    // a different worker count must not perturb a single fingerprint
    let (ok, stdout, _) = trace(&base.join("ws2"), &export, &["--jobs", "8"]);
    assert!(ok);
    assert!(
        stdout.contains("fingerprints: 8 hit(s), 0 miss(es), 0 forced"),
        "{stdout}"
    );
}
