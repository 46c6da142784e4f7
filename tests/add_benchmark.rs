//! Integration: the §4 "adding benchmarks to Benchpark" path — a contributed
//! benchmark runs through the unchanged workflow, and the same contribution
//! flows through the Figure 6 CI loop.

mod common;

use benchpark::cluster::{AppOutput, RunContext};
use benchpark::core::Benchpark;
use benchpark::pkg::{ApplicationDef, DepType, PackageDef, SuccessMode};
use benchpark::ramble::ExperimentStatus;
use common::TempDir;

fn spin_model(_ctx: &RunContext<'_>, args: &[String]) -> AppOutput {
    let reps: u64 = args
        .iter()
        .position(|a| a == "-r")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    AppOutput {
        stdout: format!("spin result: {}\nspin ok\n", reps * 7),
        duration_seconds: reps as f64 * 0.001,
        exit_code: 0,
        profile: vec![("main/spin".to_string(), reps as f64 * 0.001)],
    }
}

const TEMPLATE: &str = r#"ramble:
  applications:
    spin:
      workloads:
        basic:
          variables:
            batch_time: '10'
            n_nodes: '1'
            n_ranks: '1'
          experiments:
            spin_{reps}:
              variables:
                reps: ['5', '50']
  spack:
    packages:
      spin:
        spack_spec: spin@0.1
        compiler: default-compiler
    environments:
      spin:
        packages: [spin]
"#;

fn contributed_benchpark() -> Benchpark {
    let mut benchpark = Benchpark::new();
    benchpark.add_package(
        PackageDef::new("spin", "contributed spin benchmark")
            .version("0.1")
            .depends_on("cmake@3.14:", DepType::Build)
            .build_cost(3.0),
    );
    benchpark.add_application(
        ApplicationDef::new("spin", "spin benchmark")
            .executable("p", "spin -r {reps}", false)
            .workload("basic", &["p"])
            .workload_variable("reps", "1", "repetitions", &["basic"])
            .figure_of_merit("result", r"spin result: (?P<v>\d+)", "v", "")
            .success_criteria(
                "ok",
                SuccessMode::StringMatch,
                "spin ok",
                "{experiment_run_dir}/{experiment_name}.out",
            ),
    );
    benchpark
}

#[test]
fn contributed_benchmark_runs_end_to_end() {
    let benchpark = contributed_benchpark();
    let dir = TempDir::new("benchpark-it-add");
    let mut ws = benchpark
        .setup_workspace_from_template(
            "spin",
            "basic",
            TEMPLATE,
            "cts1",
            &dir,
            None,
            &[("spin", spin_model)],
        )
        .unwrap();
    assert_eq!(ws.setup_report.experiments.len(), 2);
    ws.run().unwrap();
    let analysis = ws.analyze(&benchpark).unwrap();
    for result in &analysis.results {
        assert_eq!(
            result.status,
            ExperimentStatus::Success,
            "{}",
            result.experiment
        );
    }
    let r5 = analysis.get("spin_5").unwrap();
    assert_eq!(r5.foms[0].value, "35"); // 5 × 7
    let r50 = analysis.get("spin_50").unwrap();
    assert_eq!(r50.foms[0].value, "350");
}

#[test]
fn contributed_benchmark_without_model_fails_visibly() {
    // forgetting the performance model (step 4) is a visible job failure,
    // not a silent success
    let benchpark = contributed_benchpark();
    let dir = TempDir::new("benchpark-it-nomodel");
    let mut ws = benchpark
        .setup_workspace_from_template("spin", "basic", TEMPLATE, "cts1", &dir, None, &[])
        .unwrap();
    ws.run().unwrap();
    let analysis = ws.analyze(&benchpark).unwrap();
    assert!(analysis
        .results
        .iter()
        .all(|r| r.status == ExperimentStatus::JobError));
}

#[test]
fn contributed_package_must_concretize() {
    // a contribution whose recipe references an unknown dependency fails at
    // setup (environment build), not at run time
    let mut benchpark = Benchpark::new();
    benchpark.add_package(
        PackageDef::new("spin", "broken recipe")
            .version("0.1")
            .depends_on("does-not-exist", DepType::Link),
    );
    benchpark.add_application(
        ApplicationDef::new("spin", "spin benchmark")
            .executable("p", "spin", false)
            .workload("basic", &["p"]),
    );
    let dir = TempDir::new("benchpark-it-badpkg");
    let err = match benchpark.setup_workspace_from_template(
        "spin",
        "basic",
        TEMPLATE,
        "cts1",
        &dir,
        None,
        &[],
    ) {
        Err(e) => e,
        Ok(_) => panic!("broken recipe must not set up"),
    };
    assert!(err.contains("does-not-exist"), "{err}");
}

#[test]
fn application_outside_every_environment_is_refused_at_setup() {
    // Ramble builds software only through environments (§3.2.3): an
    // application whose package no environment lists has no concrete DAG
    // to install on the cluster or to fingerprint
    let benchpark = contributed_benchpark();
    let template = TEMPLATE.replace("packages: [spin]", "packages: [default-mpi]");
    let dir = TempDir::new("benchpark-it-noenv");
    let err = match benchpark.setup_workspace_from_template(
        "spin",
        "basic",
        &template,
        "cts1",
        &dir,
        None,
        &[("spin", spin_model)],
    ) {
        Err(e) => e,
        Ok(_) => panic!("an application outside every environment must not set up"),
    };
    assert!(err.contains("application `spin`"), "{err}");
    assert!(err.contains("spin@0.1"), "{err}");
}
