//! Integration: the bench trajectory end-to-end — the tiny-scale hot-path
//! suite through the library, then the `benchpark bench` and
//! `benchpark regress --bench` CLI surface the CI perf smoke step drives
//! (`docs/perf/methodology.md`).

use benchpark::bench::{run_suite, suite_names, Scale, SuiteConfig};
use benchpark::core::BenchReport;
use std::path::PathBuf;
use std::process::Command;

fn temp_base(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("benchpark-bench-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
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

/// The tiny-scale suite exercises every bench the full suite has, emits a
/// valid report, and the report survives a byte-identical round trip.
#[test]
fn tiny_suite_runs_every_bench_and_round_trips() {
    let config = SuiteConfig::tiny("2026-08-08");
    let mut progressed = Vec::new();
    let report = run_suite(&config, |line| progressed.push(line.to_string()));

    let expected = suite_names(Scale::Tiny);
    let got: Vec<String> = report.results.iter().map(|r| r.name.clone()).collect();
    assert_eq!(got, expected, "every bench ran, sorted by name");
    assert_eq!(progressed.len(), expected.len(), "one progress line each");

    for r in &report.results {
        assert!(r.median_ns.is_finite() && r.median_ns > 0.0, "{}", r.name);
        assert!(r.std_ns.is_finite() && r.std_ns >= 0.0, "{}", r.name);
        assert_eq!(r.samples, config.samples);
        assert_eq!(r.units, "ns/iter");
        assert!(!r.group.is_empty());
    }

    // tiny sizes are baked into names: never comparable with full scale
    assert!(got.iter().any(|n| n == "engine.plan.lpt.2k"));
    assert!(!suite_names(Scale::Full).contains(&"engine.plan.lpt.2k".to_string()));

    let json = report.to_json();
    let parsed = BenchReport::parse(&json).expect("suite output parses");
    assert_eq!(parsed.to_json(), json, "emission is deterministic");
    assert_eq!(parsed.file_name(), "BENCH_2026-08-08.json");
}

/// The filter narrows the suite without renaming anything.
#[test]
fn suite_filter_selects_by_substring() {
    let mut config = SuiteConfig::tiny("2026-08-08");
    config.filter = Some("concretize".to_string());
    let report = run_suite(&config, |_| {});
    let names: Vec<&str> = report.results.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "concretize.env7.unify",
            "concretize.repo_500.cold",
            "concretize.repo_500.incr",
            "concretize.single"
        ]
    );
}

/// Incremental re-propagation on the synthetic stress repo must beat a cold
/// solve — that is the whole point of keeping the session warm. The 2×
/// floor is asserted on the solver's deterministic work counts (worklist
/// steps and nodes finalized), not on wall time, so host noise cannot
/// decide it; the suite's `concretize.repo_10k.{cold,incr}` benches gate
/// the wall time.
#[test]
fn incremental_repropagation_beats_cold_solve() {
    use benchpark::bench::{deep_package_name, synth_repo};
    use benchpark::concretizer::{Concretizer, SiteConfig};
    use benchpark::spec::{Spec, VersionConstraint};

    let repo = synth_repo(500, 25);
    let site = SiteConfig::example_cts();
    let root: Spec = "synth-root".parse().unwrap();
    let cz = Concretizer::new(&repo, &site);
    let mut session = cz.session(&root).unwrap();
    let target = deep_package_name(500, 25);
    let constraint = VersionConstraint::exactly("2.0.0".parse().unwrap());

    // correctness: editing a *direct* dependency of the root must match the
    // cold solve with the edit folded into the root spec (a `^dep` user
    // constraint adds a root edge, so only direct deps have an equivalent
    // cold formulation); `synth-l000-p000` is layer 0, always a root dep
    let incremental = session
        .resolve_version("synth-l000-p000", &constraint)
        .unwrap();
    let cold_edit: Spec = "synth-root ^synth-l000-p000@=2.0.0".parse().unwrap();
    let cold_spec = Concretizer::new(&repo, &site)
        .concretize(&cold_edit)
        .unwrap();
    assert_eq!(
        incremental.dag_hash(),
        cold_spec.dag_hash(),
        "incremental edit diverged from cold solve"
    );

    let (cold_result, cold) = Concretizer::new(&repo, &site).concretize_traced(&root);
    cold_result.unwrap();
    session.resolve_version(&target, &constraint).unwrap();
    let incr = session.trace();
    assert!(
        incr.steps * 2 < cold.steps,
        "incremental re-propagation not measurably cheaper: {} worklist steps cold vs {} incremental",
        cold.steps,
        incr.steps
    );
    assert!(
        incr.finalized * 2 < cold.finalized,
        "incremental re-propagation not measurably cheaper: {} nodes finalized cold vs {} incremental",
        cold.finalized,
        incr.finalized
    );
}

/// `benchpark bench --list` names the full-scale suite without measuring.
#[test]
fn cli_bench_list_names_the_suite() {
    let (ok, stdout, _) = benchpark(&["bench", "--list"]);
    assert!(ok);
    for name in suite_names(Scale::Full) {
        assert!(stdout.contains(&name), "missing {name}");
    }
}

/// `benchpark bench --out DIR` writes `BENCH_<date>.json` into the
/// directory and the file parses; stdout stays clean for redirection.
#[test]
fn cli_bench_writes_parseable_report() {
    let dir = temp_base("bench-out");
    let (ok, stdout, stderr) = benchpark(&[
        "bench",
        "--samples",
        "2",
        "--filter",
        "concretize.single",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(ok, "bench failed: {stderr}");
    assert!(stdout.is_empty(), "--out keeps stdout clean: {stdout}");
    assert!(stderr.contains("concretize.single"), "progress on stderr");

    let files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(files.len(), 1);
    assert!(
        files[0].starts_with("BENCH_") && files[0].ends_with(".json"),
        "conventional name, got {files:?}"
    );

    let text = std::fs::read_to_string(dir.join(&files[0])).unwrap();
    let report = BenchReport::parse(&text).expect("CLI output parses");
    assert_eq!(report.results.len(), 1);
    assert_eq!(report.results[0].name, "concretize.single");
    assert_eq!(report.env.profile, "debug");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bad flags fail loudly instead of silently measuring the wrong thing.
#[test]
fn cli_bench_rejects_bad_flags() {
    let (ok, _, stderr) = benchpark(&["bench", "--samples", "1"]);
    assert!(!ok);
    assert!(stderr.contains("at least 2"), "got: {stderr}");
    let (ok, _, stderr) = benchpark(&["bench", "--frobnicate"]);
    assert!(!ok, "unknown flag must fail: {stderr}");
}

fn write_report(dir: &std::path::Path, name: &str, median: f64) -> String {
    let path = dir.join(name);
    let body = format!(
        r#"{{
  "schema": 1,
  "suite": "hotpath",
  "created": "2026-08-08",
  "env": {{"os":"linux","arch":"x86_64","cpus":1,"version":"0.1.0","profile":"release"}},
  "results": [
    {{"name": "engine.plan.lpt.100k", "group": "engine", "iters": 1, "samples": 7, "median_ns": {median}, "mean_ns": {median}, "std_ns": 100.0, "units": "ns/iter"}}
  ]
}}
"#
    );
    std::fs::write(&path, body).unwrap();
    path.to_str().unwrap().to_string()
}

fn write_multi(dir: &std::path::Path, name: &str, scale: f64) -> String {
    let path = dir.join(name);
    let (a, b) = (1_000_000.0 * scale, 10_000_000.0 * scale);
    let body = format!(
        r#"{{
  "schema": 1,
  "suite": "hotpath",
  "created": "2026-08-08",
  "env": {{"os":"linux","arch":"x86_64","cpus":1,"version":"0.1.0","profile":"release"}},
  "results": [
    {{"name": "engine.plan.lpt.100k", "group": "engine", "iters": 1, "samples": 7, "median_ns": {a}, "mean_ns": {a}, "std_ns": 100.0, "units": "ns/iter"}},
    {{"name": "ledger.replay.10k", "group": "ledger", "iters": 1, "samples": 7, "median_ns": {b}, "mean_ns": {b}, "std_ns": 100.0, "units": "ns/iter"}}
  ]
}}
"#
    );
    std::fs::write(&path, body).unwrap();
    path.to_str().unwrap().to_string()
}

/// A uniformly 1.5× slower run (a different machine, a throttled runner)
/// passes the default calibrated gate with the shift reported as a speed
/// factor, and fails only under `--absolute`.
#[test]
fn cli_regress_bench_calibrates_machine_speed() {
    let dir = temp_base("regress-calibrated");
    let baseline = write_multi(&dir, "BENCH_2026-08-01.json", 1.0);
    let slower_machine = write_multi(&dir, "BENCH_2026-08-02.json", 1.5);

    let (ok, stdout, _) = benchpark(&["regress", "--bench", &baseline, &slower_machine]);
    assert!(ok, "uniform shift must calibrate out: {stdout}");
    assert!(
        stdout.contains("machine speed vs baseline: 0.67x"),
        "got: {stdout}"
    );

    let (ok, stdout, stderr) = benchpark(&[
        "regress",
        "--bench",
        "--absolute",
        &baseline,
        &slower_machine,
    ]);
    assert!(!ok, "raw comparison must flag the shift");
    assert!(
        !stdout.contains("machine speed"),
        "no factor line: {stdout}"
    );
    assert!(stderr.contains("2 of 2"), "got: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `regress --bench` over a crafted trajectory: steady is ok (exit 0), a
/// clear slowdown fails (exit nonzero) and names the bench, and a clear
/// speedup is reported as improved.
#[test]
fn cli_regress_bench_gates_the_trajectory() {
    let dir = temp_base("regress-bench");
    let baseline = write_report(&dir, "BENCH_2026-08-01.json", 1_000_000.0);
    let steady = write_report(&dir, "BENCH_2026-08-02.json", 1_030_000.0);
    let slow = write_report(&dir, "BENCH_2026-08-03.json", 1_500_000.0);
    let fast = write_report(&dir, "BENCH_2026-08-04.json", 700_000.0);

    // within the default 10% bench threshold: ok
    let (ok, stdout, _) = benchpark(&["regress", "--bench", &baseline, &steady]);
    assert!(ok, "steady trajectory must pass: {stdout}");
    assert!(stdout.contains("within 10% of baseline"), "got: {stdout}");

    // 50% slower: fails and names the regression
    let (ok, stdout, stderr) = benchpark(&["regress", "--bench", &baseline, &slow]);
    assert!(!ok, "regression must fail the gate");
    assert!(stdout.contains("REGRESSION"), "got: {stdout}");
    assert!(stderr.contains("regressed beyond 10%"), "got: {stderr}");

    // 30% faster: passes and counts the improvement
    let (ok, stdout, _) = benchpark(&["regress", "--bench", &baseline, &fast]);
    assert!(ok);
    assert!(stdout.contains("(1 improved)"), "got: {stdout}");

    // a single file has nothing to compare against
    let (ok, _, stderr) = benchpark(&["regress", "--bench", &baseline]);
    assert!(!ok);
    assert!(stderr.contains("at least two"), "got: {stderr}");

    // a custom threshold tightens the gate: 2% flags the 3% slip
    let (ok, stdout, _) = benchpark(&[
        "regress",
        "--bench",
        "--threshold",
        "0.02",
        &baseline,
        &steady,
    ]);
    assert!(!ok, "2% gate must flag a 3% slip: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
