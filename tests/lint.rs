//! Integration tests for `benchpark lint`.
//!
//! Two suites:
//!
//! 1. **Builtin compositions are clean** — every experiment template composed
//!    with every builtin system profile must produce zero diagnostics, which
//!    is what keeps the warn-only pre-`workspace setup` hook silent (and the
//!    pipeline FOMs untouched) for stock configurations.
//! 2. **Fixture corpus** — `tests/lint_fixtures/bad/<rule>/` contains one
//!    seeded violation per rule with an `EXPECT` file recording the exact
//!    `CODE artifact:line:col` findings (snapshot-style), and
//!    `tests/lint_fixtures/good/<rule>/` holds the corrected artifact that
//!    must lint fully clean.
//!
//! Plus one CLI case: a config nested far past the parser's depth bound is
//! a diagnostic, not a crash.

use std::fs;
use std::path::Path;
use std::process::Command;

use benchpark::core::{available_experiments, experiment_template, Benchpark, SystemProfile};
use benchpark::lint::{ArtifactSet, Linter};
use benchpark::yamlite::MAX_JSON_DEPTH;

#[test]
fn builtin_compositions_lint_clean() {
    let bp = Benchpark::new();
    for profile in SystemProfile::all() {
        for (benchmark, variant) in available_experiments() {
            let template = experiment_template(benchmark, variant)
                .unwrap_or_else(|| panic!("no template for {benchmark}/{variant}"));
            let report = bp.lint_composition(&template, &profile);
            assert!(
                report.is_empty(),
                "lint findings for {benchmark}/{variant} on {}:\n{}",
                profile.name,
                report.render()
            );
        }
    }
}

/// Load every YAML artifact in a fixture directory (sorted by file name,
/// skipping the `EXPECT` / `EXPECT.json` snapshots) into one [`ArtifactSet`].
fn load_fixture_set(dir: &Path) -> ArtifactSet {
    let mut names: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| !n.starts_with("EXPECT"))
        .collect();
    names.sort();
    let mut set = ArtifactSet::new();
    for name in &names {
        let text = fs::read_to_string(dir.join(name)).unwrap();
        set.add(name, &text);
    }
    set
}

fn fixture_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lint_fixtures")
}

fn sorted_subdirs(path: &Path) -> Vec<std::path::PathBuf> {
    let mut dirs: Vec<_> = fs::read_dir(path)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    dirs
}

/// The `bp05xx` fixtures exercise the solver rules, which only run on a
/// solve-enabled linter (`benchpark lint --solve`).
fn linter_for(dir: &Path) -> Linter {
    let solve = dir
        .file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with("bp05"));
    Linter::new().with_solve(solve)
}

#[test]
fn fixture_corpus_good_artifacts_are_clean() {
    let mut failures = String::new();
    for dir in sorted_subdirs(&fixture_root().join("good")) {
        let report = linter_for(&dir).lint(&load_fixture_set(&dir));
        if !report.is_empty() {
            failures.push_str(&format!("{}:\n{}\n", dir.display(), report.render()));
        }
    }
    assert!(
        failures.is_empty(),
        "good fixtures produced findings:\n{failures}"
    );
}

#[test]
fn docs_lint_table_matches_registry() {
    let doc = fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/LINT.md"))
        .expect("docs/LINT.md");
    let doc_rows: Vec<(String, String, String, String)> = doc
        .lines()
        .filter(|l| l.starts_with("| BP"))
        .map(|l| {
            let cells: Vec<&str> = l.trim_matches('|').split('|').map(str::trim).collect();
            assert_eq!(cells.len(), 4, "malformed row: {l}");
            (
                cells[0].to_string(),
                cells[1].to_string(),
                cells[2].to_string(),
                cells[3].to_string(),
            )
        })
        .collect();
    let registry_rows: Vec<(String, String, String, String)> = benchpark::lint::RULES
        .iter()
        .map(|r| {
            (
                r.code.to_string(),
                r.severity.label().to_string(),
                r.name.to_string(),
                r.summary.to_string(),
            )
        })
        .collect();
    assert_eq!(
        doc_rows, registry_rows,
        "docs/LINT.md rule table diverged from benchpark_lint::registry::RULES"
    );
}

#[test]
fn fixture_corpus_bad_artifacts_match_expected_findings() {
    let mut failures = String::new();
    let dirs = sorted_subdirs(&fixture_root().join("bad"));
    assert!(
        dirs.len() >= 31,
        "expected a fixture per rule, found {}",
        dirs.len()
    );
    for dir in dirs {
        let report = linter_for(&dir).lint(&load_fixture_set(&dir));
        let actual: Vec<String> = report
            .diagnostics
            .iter()
            .map(|d| match &d.span {
                Some(s) => format!("{} {}:{}:{}", d.code, d.artifact, s.line, s.col),
                None => format!("{} {}", d.code, d.artifact),
            })
            .collect();
        let expect_path = dir.join("EXPECT");
        let expected: Vec<String> = fs::read_to_string(&expect_path)
            .unwrap_or_default()
            .lines()
            .map(|l| l.trim().to_string())
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        if actual != expected {
            failures.push_str(&format!(
                "{}:\n  expected: {:?}\n  actual:   {:?}\n",
                dir.display(),
                expected,
                actual
            ));
        }
        // Every bad fixture must trip the rule it is named after.
        let rule_code = dir.file_name().unwrap().to_str().unwrap().to_uppercase();
        if !actual.iter().any(|l| l.starts_with(&rule_code)) {
            failures.push_str(&format!(
                "{}: no {} finding among {:?}\n",
                dir.display(),
                rule_code,
                actual
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "bad fixtures diverged from EXPECT:\n{failures}"
    );
}

/// A `ramble.yaml` holding 200,000 nested flow sequences is an ordinary
/// parse diagnostic: `benchpark lint` exits 1 instead of overflowing the
/// stack.
#[test]
fn lint_reports_deep_nesting_instead_of_crashing() {
    let dir = std::env::temp_dir().join(format!("benchpark-lint-deep-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let levels = 200_000;
    let yaml = format!(
        "ramble:\n  variables:\n    n: {}{}\n",
        "[".repeat(levels),
        "]".repeat(levels)
    );
    fs::write(dir.join("ramble.yaml"), yaml).unwrap();
    let lint = |format: &str| {
        Command::new(env!("CARGO_BIN_EXE_benchpark"))
            .arg("lint")
            .arg(&dir)
            .args(["--format", format])
            .output()
            .expect("benchpark binary runs")
    };
    let (json, text) = (lint("json"), lint("text"));
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(json.status.code(), Some(1), "{json:?}");
    let stdout = String::from_utf8_lossy(&json.stdout);
    let message = format!("nesting deeper than {MAX_JSON_DEPTH}");
    assert!(
        stdout.contains(r#""code": "BP0001""#) && stdout.contains(&message),
        "{stdout}"
    );
    // the text report echoes a window of the 400,000-character line, not
    // all of it
    assert_eq!(text.status.code(), Some(1), "{text:?}");
    assert!(text.stdout.len() < 4096, "{} bytes", text.stdout.len());
    let stdout = String::from_utf8_lossy(&text.stdout);
    assert!(
        stdout.contains("error[BP0001]") && stdout.contains("ramble.yaml:3:"),
        "{stdout}"
    );
}
