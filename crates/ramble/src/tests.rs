//! Tests for expansion, experiment generation, the workspace workflow, and
//! analysis.

use crate::{
    expand, generate_experiments, ExperimentStatus, Modifier, RambleConfig, RunOutput, Workspace,
};
use benchpark_concretizer::SiteConfig;
use benchpark_pkg::{AppRepo, Repo};
use benchpark_spack::InstallOptions;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn vars(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Figure 10's ramble.yaml, verbatim.
const FIG10: &str = r#"ramble:
  include:
  - ./configs/spack.yaml
  - ./configs/variables.yaml
  config:
    deprecated: true
    spack_flags:
      install: '--add --keep-stage'
      concretize: '-U -f'
  applications:
    saxpy:
      workloads:
        problem:
          env_vars:
            set:
              OMP_NUM_THREADS: '{n_threads}'
          variables:
            n_ranks: '8'
            batch_time: '120'
          experiments:
            saxpy_{n}_{n_nodes}_{n_ranks}_{n_threads}:
              variables:
                processes_per_node: ['8', '4']
                n_nodes: ['1', '2']
                n_threads: ['2', '4']
                n: ['512', '1024']
              matrices:
              - size_threads:
                - n
                - n_threads
  spack:
    packages:
      saxpy:
        spack_spec: saxpy@1.0.0 +openmp ^cmake@3.23.1
        compiler: default-compiler
      default-compiler:
        spack_spec: gcc@12.1.1
      default-mpi:
        spack_spec: mvapich2@2.3.7
    environments:
      saxpy:
        packages:
        - default-mpi
        - saxpy
"#;

/// Figure 12's variables.yaml, verbatim.
const FIG12: &str = r#"variables:
  mpi_command: 'srun -N {n_nodes} -n {n_ranks}'
  batch_submit: 'sbatch {execute_experiment}'
  batch_nodes: '#SBATCH -N {n_nodes}'
  batch_ranks: '#SBATCH -n {n_ranks}'
  batch_timeout: '#SBATCH -t {batch_time}:00'
  compilers: [gcc1211, intel202160classic]
"#;

// ---------------------------------------------------------------------------
// Variable expansion
// ---------------------------------------------------------------------------

#[test]
fn expand_basics() {
    let v = vars(&[("n", "512"), ("n_nodes", "2")]);
    assert_eq!(expand("saxpy -n {n}", &v).unwrap(), "saxpy -n 512");
    assert_eq!(expand("no vars", &v).unwrap(), "no vars");
    assert_eq!(expand("{n}{n_nodes}", &v).unwrap(), "5122");
}

#[test]
fn expand_recursive() {
    // Figure 12's mpi_command references experiment variables
    let v = vars(&[
        ("mpi_command", "srun -N {n_nodes} -n {n_ranks}"),
        ("n_nodes", "2"),
        ("n_ranks", "16"),
        ("launch", "{mpi_command} ./app"),
    ]);
    assert_eq!(expand("{launch}", &v).unwrap(), "srun -N 2 -n 16 ./app");
}

#[test]
fn expand_errors() {
    let v = vars(&[("a", "{b}"), ("b", "{a}")]);
    assert!(expand("{missing}", &v).is_err());
    assert!(expand("{a}", &v).is_err()); // cycle
    assert!(expand("{bad name}", &v).is_err());
}

#[test]
fn expand_reports_all_undefined_variables_at_once() {
    // regression: the old code failed on the first undefined reference, so
    // fixing a template was a one-error-per-run loop
    let v = vars(&[("n", "512"), ("launch", "{mpi_command} -x {omp_places}")]);
    let err = expand("run {n} {launch}", &v).unwrap_err().to_string();
    assert!(err.contains("undefined variables"), "{err}");
    assert!(err.contains("`mpi_command`"), "{err}");
    assert!(err.contains("`omp_places`"), "{err}");
    // a single miss keeps the singular message shape
    let err = expand("{missing} {n}", &v).unwrap_err().to_string();
    assert!(err.contains("undefined variable `missing`"), "{err}");
}

#[test]
fn expand_literal_braces() {
    let v = vars(&[("n", "5")]);
    assert_eq!(expand("{{literal}} {n}", &v).unwrap(), "{literal} 5");
}

#[test]
fn expand_deep_acyclic_chain_is_not_a_cycle() {
    // regression: a chain of nested references deeper than the pass budget
    // is acyclic and must still expand (the old code reported it as cyclic)
    let mut v = BTreeMap::new();
    for i in 0..40 {
        v.insert(format!("v{i}"), format!("{{v{}}}", i + 1));
    }
    v.insert("v40".to_string(), "done".to_string());
    assert_eq!(expand("{v0}", &v).unwrap(), "done");
}

#[test]
fn expand_cycle_error_names_the_cycle() {
    let v = vars(&[("a", "x {b}"), ("b", "y {c}"), ("c", "z {a}")]);
    let err = expand("{a}", &v).unwrap_err().to_string();
    assert!(err.contains("cyclic"), "{err}");
    assert!(err.contains("a -> b -> c -> a"), "{err}");
}

#[test]
fn expand_errors_do_not_leak_brace_sentinels() {
    // regression: after a pass protects `{{`/`}}` as \u{1}/\u{2} sentinels,
    // a later error used to embed the protected text verbatim
    let v = vars(&[("a", "{missing}")]);
    let err = expand("{{lit}} {a}", &v).unwrap_err().to_string();
    assert!(!err.contains('\u{1}') && !err.contains('\u{2}'), "{err:?}");
    assert!(err.contains("{lit}"), "{err}");

    let err = expand("{{x}} {bad name}", &v).unwrap_err().to_string();
    assert!(!err.contains('\u{1}') && !err.contains('\u{2}'), "{err:?}");
}

// ---------------------------------------------------------------------------
// Experiment generation (Figure 10 semantics)
// ---------------------------------------------------------------------------

/// The golden test: Figure 10 produces exactly 8 experiments with the
/// documented names.
#[test]
fn golden_fig10_expansion() {
    let config = RambleConfig::from_yaml(FIG10).unwrap();
    let workloads = &config.applications["saxpy"];
    let wl = &workloads["problem"];
    assert_eq!(wl.env_vars["OMP_NUM_THREADS"], "{n_threads}");
    let def = &wl.experiments[0];
    assert_eq!(
        def.name_template,
        "saxpy_{n}_{n_nodes}_{n_ranks}_{n_threads}"
    );
    assert_eq!(def.matrices.len(), 1);
    assert_eq!(def.matrices[0].0, "size_threads");

    let base = vars(&[("batch_time", "120")]);
    let exps = generate_experiments("saxpy", "problem", wl, def, &base).unwrap();
    assert_eq!(
        exps.len(),
        8,
        "matrix(2×2) × zip(2) must give 8 experiments"
    );

    let names: Vec<&str> = exps.iter().map(|e| e.name.as_str()).collect();
    for expected in [
        "saxpy_512_1_8_2",
        "saxpy_512_2_8_2",
        "saxpy_512_1_8_4",
        "saxpy_512_2_8_4",
        "saxpy_1024_1_8_2",
        "saxpy_1024_2_8_2",
        "saxpy_1024_1_8_4",
        "saxpy_1024_2_8_4",
    ] {
        assert!(
            names.contains(&expected),
            "missing {expected}; got {names:?}"
        );
    }

    // the zip ties processes_per_node to n_nodes: 8↔1, 4↔2
    for exp in &exps {
        let ppn = &exp.variables["processes_per_node"];
        let nodes = &exp.variables["n_nodes"];
        assert!(
            (ppn == "8" && nodes == "1") || (ppn == "4" && nodes == "2"),
            "zip broken: ppn={ppn} nodes={nodes}"
        );
        assert_eq!(exp.variables["n_ranks"], "8"); // workload scalar
        assert_eq!(exp.variables["application_name"], "saxpy");
        assert_eq!(exp.variables["workload_name"], "problem");
    }
}

#[test]
fn derived_n_ranks() {
    let config = RambleConfig::from_yaml(
        "ramble:\n  applications:\n    saxpy:\n      workloads:\n        problem:\n          experiments:\n            e_{n_nodes}:\n              variables:\n                processes_per_node: '4'\n                n_nodes: ['1', '2']\n                n: '64'\n",
    )
    .unwrap();
    let wl = &config.applications["saxpy"]["problem"];
    let exps =
        generate_experiments("saxpy", "problem", wl, &wl.experiments[0], &BTreeMap::new()).unwrap();
    assert_eq!(exps.len(), 2);
    assert_eq!(exps[0].variables["n_ranks"], "4");
    assert_eq!(exps[1].variables["n_ranks"], "8");
}

#[test]
fn generation_errors() {
    let make = |yaml: &str| {
        let config = RambleConfig::from_yaml(yaml).unwrap();
        let wl = config.applications["saxpy"]["problem"].clone();
        generate_experiments(
            "saxpy",
            "problem",
            &wl,
            &wl.experiments[0],
            &BTreeMap::new(),
        )
    };

    // matrix over a scalar variable
    let err = make(
        "ramble:\n  applications:\n    saxpy:\n      workloads:\n        problem:\n          experiments:\n            e_{n}:\n              variables:\n                n: '512'\n              matrices:\n              - m:\n                - n\n",
    )
    .unwrap_err();
    assert!(err.to_string().contains("must be a list"), "{err}");

    // zip length mismatch
    let err = make(
        "ramble:\n  applications:\n    saxpy:\n      workloads:\n        problem:\n          experiments:\n            e_{a}_{b}:\n              variables:\n                a: ['1', '2']\n                b: ['1', '2', '3']\n",
    )
    .unwrap_err();
    assert!(err.to_string().contains("equal lengths"), "{err}");

    // duplicate names (template misses a varying variable)
    let err = make(
        "ramble:\n  applications:\n    saxpy:\n      workloads:\n        problem:\n          experiments:\n            e_fixed:\n              variables:\n                a: ['1', '2']\n",
    )
    .unwrap_err();
    assert!(err.to_string().contains("duplicate name"), "{err}");

    // variable in two matrices
    let err = make(
        "ramble:\n  applications:\n    saxpy:\n      workloads:\n        problem:\n          experiments:\n            e_{a}_{b}:\n              variables:\n                a: ['1', '2']\n                b: ['3', '4']\n              matrices:\n              - m1:\n                - a\n              - m2:\n                - a\n",
    )
    .unwrap_err();
    assert!(err.to_string().contains("more than one matrix"), "{err}");
}

#[test]
fn n_repeats_replicates_experiments() {
    let config = RambleConfig::from_yaml(
        "ramble:\n  applications:\n    saxpy:\n      workloads:\n        problem:\n          experiments:\n            e_{n}:\n              n_repeats: '3'\n              variables:\n                n: ['64', '128']\n",
    )
    .unwrap();
    let wl = &config.applications["saxpy"]["problem"];
    assert_eq!(wl.experiments[0].n_repeats, 3);
    let exps =
        generate_experiments("saxpy", "problem", wl, &wl.experiments[0], &BTreeMap::new()).unwrap();
    assert_eq!(exps.len(), 6); // 2 sizes × 3 repeats
    let names: Vec<&str> = exps.iter().map(|e| e.name.as_str()).collect();
    for expected in [
        "e_64.1", "e_64.2", "e_64.3", "e_128.1", "e_128.2", "e_128.3",
    ] {
        assert!(names.contains(&expected), "missing {expected}: {names:?}");
    }
    assert_eq!(exps[0].variables["repeat_index"], "1");
    assert_eq!(exps[0].variables["experiment_name"], exps[0].name);

    // invalid values rejected
    assert!(RambleConfig::from_yaml(
        "ramble:\n  applications:\n    saxpy:\n      workloads:\n        problem:\n          experiments:\n            e:\n              n_repeats: '0'\n",
    )
    .is_err());
    assert!(RambleConfig::from_yaml(
        "ramble:\n  applications:\n    saxpy:\n      workloads:\n        problem:\n          experiments:\n            e:\n              n_repeats: 'lots'\n",
    )
    .is_err());
}

#[test]
fn two_matrices_cross() {
    let config = RambleConfig::from_yaml(
        "ramble:\n  applications:\n    saxpy:\n      workloads:\n        problem:\n          experiments:\n            e_{a}_{b}:\n              variables:\n                a: ['1', '2']\n                b: ['3', '4', '5']\n              matrices:\n              - m1:\n                - a\n              - m2:\n                - b\n",
    )
    .unwrap();
    let wl = &config.applications["saxpy"]["problem"];
    let exps =
        generate_experiments("saxpy", "problem", wl, &wl.experiments[0], &BTreeMap::new()).unwrap();
    assert_eq!(exps.len(), 6); // 2 × 3
}

#[test]
fn resolved_spec_with_compiler_reference() {
    let config = RambleConfig::from_yaml(FIG10).unwrap();
    assert_eq!(
        config.resolved_spec("saxpy").unwrap(),
        "saxpy@1.0.0 +openmp ^cmake@3.23.1 %gcc@12.1.1"
    );
    assert_eq!(
        config.resolved_spec("default-mpi").unwrap(),
        "mvapich2@2.3.7"
    );
    assert!(config.resolved_spec("nope").is_err());
}

/// Figure 9: system spack.yaml provides named definitions the experiment
/// configuration references (`compiler: default-compiler`).
#[test]
fn golden_fig9_spack_yaml_merge() {
    let mut config = RambleConfig::from_yaml(
        "ramble:\n  applications:\n    saxpy:\n      workloads:\n        problem:\n          experiments: {}\n  spack:\n    packages:\n      saxpy:\n        spack_spec: saxpy@1.0.0 +openmp\n        compiler: default-compiler\n    environments:\n      saxpy:\n        packages: [default-mpi, saxpy]\n",
    )
    .unwrap();
    config
        .merge_spack_yaml(
            r#"spack:
  packages:
    default-compiler:
      spack_spec: gcc@12.1.1
    default-mpi:
      spack_spec: mvapich2@2.3.7-gcc12.1.1
    gcc1211:
      spack_spec: gcc@12.1.1
    lapack:
      spack_spec: intel-oneapi-mkl@2022.1.0
    mpi-compilers:
      spack_spec: mvapich2@2.3.7-compilers
"#,
        )
        .unwrap();
    assert_eq!(
        config.resolved_spec("saxpy").unwrap(),
        "saxpy@1.0.0 +openmp %gcc@12.1.1"
    );
    assert_eq!(
        config.resolved_spec("default-mpi").unwrap(),
        "mvapich2@2.3.7-gcc12.1.1"
    );
    assert_eq!(config.spack_packages.len(), 6);
}

#[test]
fn variables_yaml_merge() {
    let mut config = RambleConfig::from_yaml(FIG10).unwrap();
    config.merge_variables_yaml(FIG12).unwrap();
    assert_eq!(
        config.variables["mpi_command"],
        "srun -N {n_nodes} -n {n_ranks}"
    );
    assert_eq!(config.variables["batch_nodes"], "#SBATCH -N {n_nodes}");
    assert_eq!(config.compilers, vec!["gcc1211", "intel202160classic"]);
}

// ---------------------------------------------------------------------------
// Template rendering (Figure 13)
// ---------------------------------------------------------------------------

#[test]
fn golden_fig13_template_render() {
    let v = vars(&[
        ("batch_nodes", "#SBATCH -N 2"),
        ("batch_ranks", "#SBATCH -n 16"),
        (
            "experiment_run_dir",
            "/ws/experiments/saxpy/problem/saxpy_512_2_8_4",
        ),
        ("spack_setup", "# spack env"),
        ("command", "srun -N 2 -n 16 saxpy -n 512"),
    ]);
    let script = crate::render_template(crate::template::DEFAULT_TEMPLATE, &v).unwrap();
    assert_eq!(
        script,
        "#!/bin/bash\n#SBATCH -N 2\n#SBATCH -n 16\ncd /ws/experiments/saxpy/problem/saxpy_512_2_8_4\n# spack env\nsrun -N 2 -n 16 saxpy -n 512\n"
    );
}

// ---------------------------------------------------------------------------
// Workspace workflow (Figure 5)
// ---------------------------------------------------------------------------

/// A scratch path `<temp>/<name>-<pid>`, cleared when made and removed
/// when dropped, also when the test panics. Bind it for as long as the
/// directory is in use.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A workspace created in a fresh scratch directory, with the directory's
/// guard.
fn temp_workspace(tag: &str) -> (TempDir, Workspace) {
    let dir = TempDir::new(&format!("benchpark-ramble-test-{tag}"));
    let ws = Workspace::create(&dir).unwrap();
    (dir, ws)
}

fn stub_runner(_exp: &crate::ExperimentInstance, script: &str) -> RunOutput {
    // succeed iff the script launches saxpy
    if script.contains("saxpy -n") {
        RunOutput {
            stdout: "Running saxpy\nKernel done\nKernel time (s): 0.001234\n".to_string(),
            exit_code: 0,
            profile: vec![("MPI_Bcast".to_string(), 0.0001)],
        }
    } else {
        RunOutput {
            stdout: "unexpected script\n".to_string(),
            exit_code: 1,
            profile: Vec::new(),
        }
    }
}

#[test]
fn golden_fig5_workspace_workflow() {
    let repo = Repo::builtin();
    let apps = AppRepo::builtin();
    let site = SiteConfig::example_cts();

    // 1. ramble workspace create
    let (_dir, mut ws) = temp_workspace("fig5");
    assert!(ws.root().join("configs").is_dir());
    assert!(ws.root().join("experiments").is_dir());

    // 2. ramble workspace edit
    ws.set_config(FIG10).unwrap();
    ws.merge_variables(FIG12).unwrap();

    // 3. ramble workspace setup
    let report = ws
        .setup(&repo, &apps, &site, &InstallOptions::default())
        .unwrap();
    assert_eq!(report.experiments.len(), 8);
    // software was built through Spack
    let env_reports = &report.install_reports["saxpy"];
    assert!(!env_reports.is_empty());
    let roots: Vec<&str> = report.lockfiles["saxpy"]
        .roots
        .iter()
        .map(|(root, _)| root.as_str())
        .collect();
    assert_eq!(
        roots,
        [
            "mvapich2@2.3.7",
            "saxpy@1.0.0 +openmp ^cmake@3.23.1 %gcc@12.1.1"
        ]
    );
    // scripts rendered with srun + SBATCH directives from Figure 12
    let script = ws.script("saxpy_512_2_8_4").unwrap();
    assert!(script.contains("#SBATCH -N 2"), "{script}");
    assert!(script.contains("#SBATCH -n 8"), "{script}");
    assert!(script.contains("export OMP_NUM_THREADS=4"), "{script}");
    assert!(script.contains("srun -N 2 -n 8 saxpy -n 512"), "{script}");
    // script file exists on disk
    assert!(ws
        .root()
        .join("experiments/saxpy/problem/saxpy_512_2_8_4/execute_experiment")
        .is_file());

    // 4. ramble on
    ws.run_with(stub_runner).unwrap();
    assert!(ws
        .root()
        .join("experiments/saxpy/problem/saxpy_512_1_8_2/saxpy_512_1_8_2.out")
        .is_file());

    // 5. ramble workspace analyze
    let analysis = ws.analyze(&apps).unwrap();
    assert_eq!(analysis.results.len(), 8);
    assert_eq!(analysis.successes().count(), 8);
    let result = analysis.get("saxpy_512_1_8_2").unwrap();
    assert_eq!(result.status, ExperimentStatus::Success);
    // Figure 8's FOMs extracted
    let success_fom = result.foms.iter().find(|f| f.name == "success").unwrap();
    assert_eq!(success_fom.value, "Kernel done");
    let time_fom = result
        .foms
        .iter()
        .find(|f| f.name == "kernel_time")
        .unwrap();
    assert_eq!(time_fom.value, "0.001234");
    assert_eq!(time_fom.units, "s");
    // variables stored with results (§5 reproducibility goal)
    assert_eq!(result.variables["n"], "512");
    assert!(result.criteria.iter().any(|(n, ok)| n == "pass" && *ok));
}

#[test]
fn phases_enforced() {
    let repo = Repo::builtin();
    let apps = AppRepo::builtin();
    let (_dir, mut ws) = temp_workspace("phases");
    // setup before set_config
    assert!(ws
        .setup(
            &repo,
            &apps,
            &SiteConfig::example_cts(),
            &InstallOptions::default()
        )
        .is_err());
    // run before setup
    assert!(ws.run_with(stub_runner).is_err());
    // analyze before run
    ws.set_config(FIG10).unwrap();
    ws.merge_variables(FIG12).unwrap();
    ws.setup(
        &repo,
        &apps,
        &SiteConfig::example_cts(),
        &InstallOptions::default(),
    )
    .unwrap();
    assert!(ws.analyze(&apps).is_err());
}

#[test]
fn failed_criterion_reported() {
    let repo = Repo::builtin();
    let apps = AppRepo::builtin();
    let (_dir, mut ws) = temp_workspace("fail");
    ws.set_config(FIG10).unwrap();
    ws.merge_variables(FIG12).unwrap();
    ws.setup(
        &repo,
        &apps,
        &SiteConfig::example_cts(),
        &InstallOptions::default(),
    )
    .unwrap();
    // runner whose output lacks "Kernel done"
    ws.run_with(|_, _| RunOutput {
        stdout: "something went wrong\n".to_string(),
        exit_code: 0,
        profile: Vec::new(),
    })
    .unwrap();
    let analysis = ws.analyze(&apps).unwrap();
    assert_eq!(analysis.successes().count(), 0);
    assert!(analysis
        .results
        .iter()
        .all(|r| r.status == ExperimentStatus::Failed));
}

#[test]
fn job_error_reported() {
    let repo = Repo::builtin();
    let apps = AppRepo::builtin();
    let (_dir, mut ws) = temp_workspace("joberr");
    ws.set_config(FIG10).unwrap();
    ws.merge_variables(FIG12).unwrap();
    ws.setup(
        &repo,
        &apps,
        &SiteConfig::example_cts(),
        &InstallOptions::default(),
    )
    .unwrap();
    ws.run_with(|_, _| RunOutput {
        stdout: "Kernel done\n".to_string(),
        exit_code: 132,
        profile: Vec::new(),
    })
    .unwrap();
    let analysis = ws.analyze(&apps).unwrap();
    assert!(analysis
        .results
        .iter()
        .all(|r| r.status == ExperimentStatus::JobError));
}

#[test]
fn modifiers_apply() {
    let repo = Repo::builtin();
    let apps = AppRepo::builtin();
    let (_dir, mut ws) = temp_workspace("mods");
    ws.set_config(FIG10).unwrap();
    ws.merge_variables(FIG12).unwrap();
    ws.add_modifier(Modifier::Caliper);
    ws.add_modifier(Modifier::EnvVar("MY_FLAG".to_string(), "1".to_string()));
    ws.setup(
        &repo,
        &apps,
        &SiteConfig::example_cts(),
        &InstallOptions::default(),
    )
    .unwrap();
    let script = ws.script("saxpy_512_1_8_2").unwrap();
    assert!(script.contains("export CALI_CONFIG=spot"), "{script}");
    assert!(script.contains("export MY_FLAG=1"), "{script}");
}

/// §4.5: success criteria can be defined "for individual experiments in
/// ramble.yaml", in addition to application.py.
#[test]
fn ramble_yaml_success_criteria() {
    let yaml = r#"ramble:
  applications:
    saxpy:
      workloads:
        problem:
          variables:
            n_ranks: '4'
            n_nodes: '1'
            batch_time: '10'
          success_criteria:
          - name: fast_enough
            mode: fom_comparison
            match: kernel_time < 0.01
          - name: no_warnings
            mode: string
            match: Kernel done
          experiments:
            saxpy_{n}:
              variables:
                n: '64'
  spack:
    packages:
      saxpy:
        spack_spec: saxpy@1.0.0 +openmp
        compiler: default-compiler
      default-compiler:
        spack_spec: gcc@12.1.1
    environments:
      saxpy:
        packages: [saxpy]
"#;
    let repo = Repo::builtin();
    let apps = AppRepo::builtin();
    let run = |stdout: &str| {
        let (_dir, mut ws) = temp_workspace("yamlcrit");
        ws.set_config(yaml).unwrap();
        ws.merge_variables(FIG12).unwrap();
        ws.setup(
            &repo,
            &apps,
            &SiteConfig::example_cts(),
            &InstallOptions::default(),
        )
        .unwrap();
        let out = stdout.to_string();
        ws.run_with(move |_, _| RunOutput {
            stdout: out.clone(),
            exit_code: 0,
            profile: Vec::new(),
        })
        .unwrap();
        ws.analyze(&apps).unwrap()
    };

    // fast run: all criteria (app-level + ramble.yaml-level) pass
    let analysis = run("Kernel done\nKernel time (s): 0.000500\n");
    let result = &analysis.results[0];
    assert_eq!(result.status, ExperimentStatus::Success, "{result:?}");
    assert_eq!(result.criteria.len(), 3); // pass + fast_enough + no_warnings
    assert!(result.criteria.iter().all(|(_, ok)| *ok));

    // slow run: the fom_comparison criterion fails, experiment is Failed
    let analysis = run("Kernel done\nKernel time (s): 0.500000\n");
    let result = &analysis.results[0];
    assert_eq!(result.status, ExperimentStatus::Failed);
    let fast = result
        .criteria
        .iter()
        .find(|(n, _)| n == "fast_enough")
        .unwrap();
    assert!(!fast.1);

    // criteria with bad config are rejected at parse time
    assert!(RambleConfig::from_yaml(
        "ramble:\n  applications:\n    saxpy:\n      workloads:\n        problem:\n          success_criteria:\n          - name: x\n            mode: bogus\n            match: y\n",
    )
    .is_err());
}

#[test]
fn caliper_modifier_writes_profiles() {
    let repo = Repo::builtin();
    let apps = AppRepo::builtin();
    let (_dir, mut ws) = temp_workspace("cali");
    ws.set_config(FIG10).unwrap();
    ws.merge_variables(FIG12).unwrap();
    ws.add_modifier(Modifier::Caliper);
    ws.setup(
        &repo,
        &apps,
        &SiteConfig::example_cts(),
        &InstallOptions::default(),
    )
    .unwrap();
    ws.run_with(stub_runner).unwrap();
    let cali = ws
        .root()
        .join("experiments/saxpy/problem/saxpy_512_1_8_2/saxpy_512_1_8_2.cali");
    assert!(cali.is_file(), "caliper profile must be written");
    let text = std::fs::read_to_string(cali).unwrap();
    assert!(text.contains("MPI_Bcast"), "{text}");
}

#[test]
fn workspace_archive() {
    let repo = Repo::builtin();
    let apps = AppRepo::builtin();
    let (_dir, mut ws) = temp_workspace("archive");
    ws.set_config(FIG10).unwrap();
    ws.merge_variables(FIG12).unwrap();
    ws.setup(
        &repo,
        &apps,
        &SiteConfig::example_cts(),
        &InstallOptions::default(),
    )
    .unwrap();
    // archive before run is a phase error
    let dest = TempDir::new("benchpark-archive");
    assert!(ws.archive(&dest).is_err());

    ws.run_with(stub_runner).unwrap();
    let copied = ws.archive(&dest).unwrap();
    // configs (ramble.yaml, variables.yaml) plus 2 files per experiment
    // (script + out)
    assert!(copied >= 2 + 8 * 2, "copied {copied}");
    assert!(dest.join("MANIFEST").is_file());
    assert!(dest.join("configs/ramble.yaml").is_file());
    assert!(dest
        .join("experiments/saxpy_512_1_8_2/saxpy_512_1_8_2.out")
        .is_file());
    let manifest = std::fs::read_to_string(dest.join("MANIFEST")).unwrap();
    assert!(manifest.contains("experiments/saxpy_512_1_8_2/execute_experiment"));
}

#[test]
fn analyze_fom_table() {
    let repo = Repo::builtin();
    let apps = AppRepo::builtin();
    let (_dir, mut ws) = temp_workspace("table");
    ws.set_config(FIG10).unwrap();
    ws.merge_variables(FIG12).unwrap();
    ws.setup(
        &repo,
        &apps,
        &SiteConfig::example_cts(),
        &InstallOptions::default(),
    )
    .unwrap();
    ws.run_with(stub_runner).unwrap();
    let analysis = ws.analyze(&apps).unwrap();
    let table = analysis.fom_table();
    // 8 experiments × 2 FOMs
    assert_eq!(table.len(), 16);
    let rendered = analysis.render();
    assert!(rendered.contains("saxpy_512_1_8_2"));
    assert!(rendered.contains("kernel_time = 0.001234 s"));
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Matrix/zip cardinality: |experiments| = Π|matrix vars| × zip len.
        #[test]
        fn expansion_cardinality(
            m1 in 1usize..4,
            m2 in 1usize..4,
            zip in 1usize..4,
        ) {
            let list = |n: usize, prefix: &str| -> String {
                let items: Vec<String> = (0..n).map(|i| format!("'{prefix}{i}'")).collect();
                format!("[{}]", items.join(", "))
            };
            let yaml = format!(
                "ramble:\n  applications:\n    saxpy:\n      workloads:\n        problem:\n          experiments:\n            e_{{a}}_{{b}}_{{z}}:\n              variables:\n                a: {}\n                b: {}\n                z: {}\n              matrices:\n              - m:\n                - a\n                - b\n",
                list(m1, "a"), list(m2, "b"), list(zip, "z"),
            );
            let config = RambleConfig::from_yaml(&yaml).unwrap();
            let wl = &config.applications["saxpy"]["problem"];
            let exps = generate_experiments(
                "saxpy", "problem", wl, &wl.experiments[0], &BTreeMap::new()).unwrap();
            prop_assert_eq!(exps.len(), m1 * m2 * zip);
            // all names unique
            let names: std::collections::BTreeSet<_> = exps.iter().map(|e| &e.name).collect();
            prop_assert_eq!(names.len(), exps.len());
        }

        /// expand is total on templates without `{` and idempotent on
        /// expanded output.
        #[test]
        fn expand_plain_text_identity(text in "[a-zA-Z0-9 ./_-]{0,40}") {
            let v = BTreeMap::new();
            prop_assert_eq!(expand(&text, &v).unwrap(), text);
        }
    }
}
