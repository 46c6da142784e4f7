use crate::{ArtifactSet, Linter, Severity};

fn lint(texts: &[(&str, &str)]) -> crate::LintReport {
    Linter::new().lint(&ArtifactSet::from_texts(texts.iter().copied()))
}

fn codes(report: &crate::LintReport) -> Vec<&'static str> {
    report.diagnostics.iter().map(|d| d.code).collect()
}

fn diag<'a>(report: &'a crate::LintReport, code: &str) -> &'a crate::Diagnostic {
    report
        .diagnostics
        .iter()
        .find(|d| d.code == code)
        .unwrap_or_else(|| panic!("expected a {code} diagnostic, got {:?}", codes(report)))
}

const COMPILERS: &str = "compilers:\n- compiler:\n    spec: gcc@12.1.1\n";

#[test]
fn clean_composition_is_clean() {
    let ramble = "\
ramble:
  variables:
    n_ranks: '4'
  applications:
    saxpy:
      workloads:
        problem:
          variables:
            n: ['512', '1024']
          experiments:
            saxpy_{n}_{n_ranks}:
              variables:
                n_nodes: '1'
  spack:
    packages:
      gcc1211:
        spack_spec: gcc@12.1.1
      saxpy:
        spack_spec: saxpy@1.0.0 +openmp
        compiler: gcc1211
    environments:
      saxpy:
        packages:
        - saxpy
";
    let variables = "\
variables:
  mpi_command: 'mpirun -n {n_ranks}'
  batch_submit: 'sbatch {execute_experiment}'
";
    let packages = "\
packages:
  mpi:
    externals:
    - spec: mvapich2@2.3.7
      prefix: /usr
    buildable: false
";
    let ci = "\
stages: [build, bench]
build-job:
  stage: build
  script: ['echo build']
bench-job:
  stage: bench
  script: ['echo bench']
  needs: [build-job]
";
    let report = lint(&[
        ("ramble.yaml", ramble),
        ("variables.yaml", variables),
        ("packages.yaml", packages),
        ("compilers.yaml", COMPILERS),
        (".gitlab-ci.yml", ci),
    ]);
    assert!(
        report.is_empty(),
        "expected clean, got:\n{}",
        report.render()
    );
    assert!(report.is_clean(true));
    assert_eq!(report.summary(), "lint: clean");
}

#[test]
fn bp0001_parse_error() {
    let report = lint(&[("bad.yaml", "a: [1\n")]);
    let d = diag(&report, "BP0001");
    assert_eq!(d.severity, Severity::Error);
    assert!(!report.is_clean(false));
}

#[test]
fn bp0002_unrecognized_artifact() {
    let report = lint(&[("mystery.yaml", "foo: 1\n")]);
    let d = diag(&report, "BP0002");
    assert_eq!(d.severity, Severity::Note);
    // notes never fail a run
    assert!(report.is_clean(true));
}

#[test]
fn bp0101_unknown_package() {
    let report = lint(&[(
        "spack.yaml",
        "spack:\n  packages:\n    ghost:\n      spack_spec: nosuchpkg@1.0\n",
    )]);
    diag(&report, "BP0101");
    // a virtual dependency is not an unknown package
    let report = lint(&[(
        "spack.yaml",
        "spack:\n  packages:\n    hpl:\n      spack_spec: hpl@2.3 ^lapack\n",
    )]);
    assert!(!codes(&report).contains(&"BP0101"), "{}", report.render());
}

#[test]
fn bp0102_unknown_compiler_for_system() {
    // %clang is not in compilers.yaml
    let report = lint(&[
        (
            "spack.yaml",
            "spack:\n  packages:\n    saxpy:\n      spack_spec: saxpy@1.0.0 %clang\n",
        ),
        ("compilers.yaml", COMPILERS),
    ]);
    diag(&report, "BP0102");
    // a compiler-as-package whose version disagrees with the toolchain
    let report = lint(&[
        (
            "spack.yaml",
            "spack:\n  packages:\n    gcc99:\n      spack_spec: gcc@99.0\n",
        ),
        ("compilers.yaml", COMPILERS),
    ]);
    diag(&report, "BP0102");
    // without a compilers.yaml in the set the rule stays silent
    let report = lint(&[(
        "spack.yaml",
        "spack:\n  packages:\n    saxpy:\n      spack_spec: saxpy@1.0.0 %clang\n",
    )]);
    assert!(!codes(&report).contains(&"BP0102"));
}

#[test]
fn bp0103_unsatisfiable_version() {
    let report = lint(&[(
        "spack.yaml",
        "spack:\n  packages:\n    cm:\n      spack_spec: cmake@9.9.9\n",
    )]);
    let d = diag(&report, "BP0103");
    assert!(d.message.contains("cmake"), "{}", d.message);
    // a series request headed by a known version is satisfiable
    let report = lint(&[(
        "spack.yaml",
        "spack:\n  packages:\n    mpi:\n      spack_spec: mvapich2@2.3.7-gcc12.1.1\n",
    )]);
    assert!(!codes(&report).contains(&"BP0103"), "{}", report.render());
}

#[test]
fn bp0104_unknown_variant() {
    let report = lint(&[(
        "spack.yaml",
        "spack:\n  packages:\n    sx:\n      spack_spec: saxpy@1.0.0 +hyperdrive\n",
    )]);
    let d = diag(&report, "BP0104");
    assert!(d.message.contains("hyperdrive"));
    assert_eq!(d.span.unwrap().line, 4);
}

#[test]
fn bp0105_conflicting_variants() {
    let report = lint(&[(
        "spack.yaml",
        "spack:\n  packages:\n    sx:\n      spack_spec: saxpy@1.0.0 +openmp ~openmp\n",
    )]);
    diag(&report, "BP0105");
    // conflicting settings on different nodes are fine
    let report = lint(&[(
        "spack.yaml",
        "spack:\n  packages:\n    sx:\n      spack_spec: saxpy@1.0.0 +openmp ^hypre@2.25.0 ~openmp\n",
    )]);
    assert!(!codes(&report).contains(&"BP0105"));
}

#[test]
fn bp0106_dangling_compiler_ref() {
    let report = lint(&[(
        "spack.yaml",
        "spack:\n  packages:\n    sx:\n      spack_spec: saxpy@1.0.0\n      compiler: nodef\n",
    )]);
    let d = diag(&report, "BP0106");
    assert!(d.message.contains("nodef"));
    assert_eq!(d.span.unwrap(), crate::Span::new(5, 17));
}

#[test]
fn bp0107_dangling_env_package() {
    let report = lint(&[(
        "spack.yaml",
        "spack:\n  packages:\n    sx:\n      spack_spec: saxpy@1.0.0\n  environments:\n    e1:\n      packages:\n      - ghost\n",
    )]);
    let d = diag(&report, "BP0107");
    assert!(d.message.contains("ghost"));
    assert_eq!(d.span.unwrap(), crate::Span::new(8, 9));
}

#[test]
fn bp0108_buildable_false_without_externals() {
    let report = lint(&[("packages.yaml", "packages:\n  mpi:\n    buildable: false\n")]);
    diag(&report, "BP0108");
}

#[test]
fn bp0109_invalid_spec() {
    let report = lint(&[(
        "spack.yaml",
        "spack:\n  packages:\n    sx:\n      spack_spec: '((('\n",
    )]);
    diag(&report, "BP0109");
}

#[test]
fn bp0201_unbound_placeholder() {
    let report = lint(&[(
        "ramble.yaml",
        "\
ramble:
  applications:
    saxpy:
      workloads:
        problem:
          experiments:
            exp_{ghost}:
              variables:
                n_nodes: '1'
",
    )]);
    let d = diag(&report, "BP0201");
    assert!(d.message.contains("ghost"));
    assert_eq!(d.span.unwrap(), crate::Span::new(7, 13));
}

#[test]
fn bp0202_undefined_variable_in_value() {
    let report = lint(&[(
        "ramble.yaml",
        "\
ramble:
  applications:
    saxpy:
      workloads:
        problem:
          variables:
            launch: 'mpirun {ghost} {gone}'
          experiments:
            exp_{launch}:
              variables:
                n_nodes: '1'
",
    )]);
    let d = diag(&report, "BP0202");
    assert!(d.message.contains("ghost"));
    assert_eq!(d.span.unwrap(), crate::Span::new(7, 21));
    // both refs are reported
    assert_eq!(codes(&report).iter().filter(|c| **c == "BP0202").count(), 2);
}

#[test]
fn bp0203_unused_workspace_variable() {
    let report = lint(&[(
        "ramble.yaml",
        "\
ramble:
  variables:
    dead: '42'
  applications:
    saxpy:
      workloads:
        problem:
          experiments:
            exp_one:
              variables:
                n_nodes: '1'
",
    )]);
    let d = diag(&report, "BP0203");
    assert_eq!(d.severity, Severity::Warn);
    assert!(d.message.contains("dead"));
    assert_eq!(d.span.unwrap(), crate::Span::new(3, 5));
}

#[test]
fn bp0204_shadowed_variable() {
    let report = lint(&[(
        "ramble.yaml",
        "\
ramble:
  variables:
    n: '1'
  applications:
    saxpy:
      workloads:
        problem:
          experiments:
            exp_{n}:
              variables:
                n: '2'
",
    )]);
    let d = diag(&report, "BP0204");
    assert_eq!(d.severity, Severity::Warn);
    assert_eq!(d.span.unwrap(), crate::Span::new(11, 17));
}

#[test]
fn bp0205_bad_matrix() {
    let report = lint(&[(
        "ramble.yaml",
        "\
ramble:
  applications:
    saxpy:
      workloads:
        problem:
          experiments:
            exp_{n}:
              variables:
                n: '5'
              matrices:
              - m1:
                - n
                - ghost
",
    )]);
    let report_codes = codes(&report);
    // `n` is scalar, `ghost` undefined: two findings
    assert_eq!(
        report_codes.iter().filter(|c| **c == "BP0205").count(),
        2,
        "{}",
        report.render()
    );
}

#[test]
fn bp0206_zip_length_mismatch() {
    let report = lint(&[(
        "ramble.yaml",
        "\
ramble:
  applications:
    saxpy:
      workloads:
        problem:
          experiments:
            exp_{a}:
              variables:
                a: ['1', '2']
                b: ['1', '2', '3']
",
    )]);
    let d = diag(&report, "BP0206");
    assert!(d.message.contains("`a` has 2"));
    assert!(d.message.contains("`b` has 3"));
}

#[test]
fn bp0207_invalid_regex() {
    let report = lint(&[(
        "ramble.yaml",
        "\
ramble:
  applications:
    saxpy:
      workloads:
        problem:
          success_criteria:
          - name: done
            mode: string
            match: '(unclosed'
          experiments:
            exp_one:
              variables:
                n_nodes: '1'
",
    )]);
    let d = diag(&report, "BP0207");
    assert_eq!(d.span.unwrap().line, 9);
}

#[test]
fn bp0208_unbound_criterion_file() {
    let report = lint(&[(
        "ramble.yaml",
        "\
ramble:
  applications:
    saxpy:
      workloads:
        problem:
          success_criteria:
          - name: done
            mode: string
            match: 'DONE'
            file: '{ghost_dir}/out.log'
          experiments:
            exp_one:
              variables:
                n_nodes: '1'
",
    )]);
    let d = diag(&report, "BP0208");
    assert_eq!(d.severity, Severity::Warn);
    assert!(d.message.contains("ghost_dir"));
}

#[test]
fn bp0209_nondiscriminating_template() {
    // matrix variable with two values, never referenced by the template
    let report = lint(&[(
        "ramble.yaml",
        "\
ramble:
  applications:
    saxpy:
      workloads:
        problem:
          experiments:
            exp_{n}:
              variables:
                n: ['1', '2']
                m: ['3', '4']
              matrices:
              - m1:
                - m
",
    )]);
    let d = diag(&report, "BP0209");
    assert!(d.message.contains("`m`"));
    // zip axis with no discriminating reference
    let report = lint(&[(
        "ramble.yaml",
        "\
ramble:
  applications:
    saxpy:
      workloads:
        problem:
          experiments:
            exp_static:
              variables:
                n: ['1', '2']
",
    )]);
    diag(&report, "BP0209");
    // …but a derived n_ranks reference discriminates the zip
    let report = lint(&[(
        "ramble.yaml",
        "\
ramble:
  applications:
    saxpy:
      workloads:
        problem:
          experiments:
            exp_{n_ranks}:
              variables:
                processes_per_node: '4'
                n_nodes: ['1', '2']
",
    )]);
    assert!(!codes(&report).contains(&"BP0209"), "{}", report.render());
}

#[test]
fn bp0301_unknown_stage() {
    let report = lint(&[(
        ".gitlab-ci.yml",
        "stages: [build]\nbench:\n  stage: deploy\n  script: ['x']\n",
    )]);
    let d = diag(&report, "BP0301");
    assert_eq!(d.span.unwrap(), crate::Span::new(3, 10));
}

#[test]
fn bp0302_dangling_needs() {
    let report = lint(&[(
        ".gitlab-ci.yml",
        "stages: [build]\nbench:\n  stage: build\n  script: ['x']\n  needs: [phantom]\n",
    )]);
    let d = diag(&report, "BP0302");
    assert!(d.message.contains("phantom"));
    assert_eq!(d.span.unwrap(), crate::Span::new(5, 11));
}

#[test]
fn bp0303_forward_needs() {
    let report = lint(&[(
        ".gitlab-ci.yml",
        "\
stages: [build, bench]
early:
  stage: build
  script: ['x']
  needs: [late]
late:
  stage: bench
  script: ['x']
",
    )]);
    let d = diag(&report, "BP0303");
    assert!(d.message.contains("later stage"));
}

#[test]
fn bp0304_retry_with_allow_failure() {
    let report = lint(&[(
        ".gitlab-ci.yml",
        "stages: [t]\nflaky:\n  stage: t\n  script: ['x']\n  retry: 2\n  allow_failure: true\n",
    )]);
    let d = diag(&report, "BP0304");
    assert_eq!(d.severity, Severity::Warn);
}

#[test]
fn bp0305_empty_stage() {
    let report = lint(&[(
        ".gitlab-ci.yml",
        "stages: [build, ghost-stage]\nb:\n  stage: build\n  script: ['x']\n",
    )]);
    let d = diag(&report, "BP0305");
    assert!(d.message.contains("ghost-stage"));
    assert_eq!(d.span.unwrap(), crate::Span::new(1, 17));
}

#[test]
fn bp0306_needs_cycle() {
    let report = lint(&[(
        ".gitlab-ci.yml",
        "\
stages: [t]
a:
  stage: t
  script: ['x']
  needs: [b]
b:
  stage: t
  script: ['x']
  needs: [a]
",
    )]);
    let d = diag(&report, "BP0306");
    assert!(d.message.contains("a -> b -> a"), "{}", d.message);
    // exactly one report per cycle
    assert_eq!(codes(&report).iter().filter(|c| **c == "BP0306").count(), 1);
    // self-needs are also cycles
    let report = lint(&[(
        ".gitlab-ci.yml",
        "stages: [t]\na:\n  stage: t\n  script: ['x']\n  needs: [a]\n",
    )]);
    diag(&report, "BP0306");
}

#[test]
fn bp0307_script_less_job() {
    let report = lint(&[(
        ".gitlab-ci.yml",
        "stages: [t]\nreal:\n  stage: t\n  script: ['x']\nghost:\n  stage: t\n",
    )]);
    let d = diag(&report, "BP0307");
    assert!(d.message.contains("ghost"));
    // dotted names are templates by convention and exempt
    let report = lint(&[(
        ".gitlab-ci.yml",
        "stages: [t]\n.tmpl:\n  stage: t\nreal:\n  stage: t\n  script: ['x']\n",
    )]);
    assert!(!codes(&report).contains(&"BP0307"));
}

#[test]
fn rendered_output_is_rustc_style() {
    let report = lint(&[(
        ".gitlab-ci.yml",
        "stages: [build]\nbench:\n  stage: deploy\n  script: ['x']\n",
    )]);
    let text = report.render();
    assert!(text.contains("error[BP0301]"), "{text}");
    assert!(text.contains("--> .gitlab-ci.yml:3:10"), "{text}");
    assert!(text.contains("3 |   stage: deploy"), "{text}");
    assert!(text.contains("lint: 1 error"), "{text}");
}

#[test]
fn rendered_snippet_of_a_long_line_is_cut_around_the_caret() {
    // two-byte characters on both sides of the caret's target, so both
    // cuts fall between multi-byte characters
    let line = format!("{}x{}", "é".repeat(100), "ü".repeat(100));
    let at = |col: usize| crate::Diagnostic {
        code: "BP0001",
        severity: Severity::Error,
        message: "could not parse artifact".to_string(),
        artifact: "ramble.yaml".to_string(),
        span: Some(benchpark_yamlite::Span::new(3, col)),
        snippet: Some(line.clone()),
        help: None,
        notes: Vec::new(),
    };

    // the caret sits past the window's start: both ends are cut
    let text = at("é".len() * 100 + 1).render();
    let lines: Vec<&str> = text.lines().collect();
    let shown = format!("3 | …{}x{}…", "é".repeat(60), "ü".repeat(59));
    assert_eq!(lines[3], shown, "{text}");
    let caret = lines[4].chars().position(|c| c == '^');
    assert_eq!(caret, lines[3].chars().position(|c| c == 'x'), "{text}");

    // the caret at the line's start: only the tail is cut
    let text = at(1).render();
    let lines: Vec<&str> = text.lines().collect();
    let shown = format!("3 | {}x{}…", "é".repeat(100), "ü".repeat(19));
    assert_eq!(lines[3], shown, "{text}");
    assert_eq!(lines[4], "  | ^", "{text}");
}

#[test]
fn json_output_carries_spans() {
    let report = lint(&[(
        ".gitlab-ci.yml",
        "stages: [build]\nbench:\n  stage: deploy\n  script: ['x']\n",
    )]);
    let json = report.to_json();
    assert!(json.contains("\"code\": \"BP0301\""), "{json}");
    assert!(json.contains("\"line\": 3, \"col\": 10"), "{json}");
    assert!(json.contains("\"errors\": 1"), "{json}");
}

#[test]
fn registry_covers_every_emitted_code() {
    use std::collections::BTreeSet;
    let table: BTreeSet<&str> = crate::RULES.iter().map(|r| r.code).collect();
    assert_eq!(
        table.len(),
        crate::RULES.len(),
        "duplicate codes in registry"
    );
    for code in table {
        assert!(
            code.starts_with("BP") && code.len() == 6,
            "malformed code {code}"
        );
    }
    assert!(crate::rule("BP0301").is_some());
    assert!(crate::rule("BP9999").is_none());
}

#[test]
fn report_sorting_is_deterministic() {
    let report = lint(&[
        (
            "b.yaml",
            "spack:\n  packages:\n    x:\n      spack_spec: nosuchpkg@1.0\n",
        ),
        (
            "a.yaml",
            "spack:\n  packages:\n    y:\n      spack_spec: alsomissing@1.0\n",
        ),
    ]);
    let artifacts: Vec<&str> = report
        .diagnostics
        .iter()
        .map(|d| d.artifact.as_str())
        .collect();
    assert_eq!(artifacts, vec!["a.yaml", "b.yaml"]);
}
