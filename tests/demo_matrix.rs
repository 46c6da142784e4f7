//! Integration: the §4 demonstration matrix, widened — every shipped
//! experiment template on every system that supports it.

mod common;

use benchpark::core::{
    available_experiments, render_dashboard, usage_counts, Benchpark, RunRecord, SystemProfile,
};
use benchpark::ramble::ExperimentStatus;
use benchpark::spack::Action;
use benchpark::telemetry::TelemetrySink;
use common::TempDir;

fn temp_dir(tag: &str) -> TempDir {
    TempDir::new(&format!("benchpark-dm-{tag}"))
}

/// Which systems each experiment runs on (matching the programming model
/// and machine size — the bcast scaling study needs up to 96 nodes, more
/// than the 64-node cloud pool has).
fn systems_for(benchmark: &str, variant: &str) -> Vec<&'static str> {
    match (benchmark, variant) {
        ("osu-bcast", _) => vec!["cts1"],
        (_, "cuda") => vec!["ats2"],
        (_, "rocm") => vec!["ats4"],
        _ => vec!["cts1", "cloud-c5"],
    }
}

#[test]
fn every_experiment_runs_on_every_supporting_system() {
    let benchpark = Benchpark::new();
    let mut runs = Vec::new();
    let mut total = 0usize;
    for (benchmark, variant) in available_experiments() {
        for system in systems_for(benchmark, variant) {
            let tag = format!("{benchmark}-{variant}-{system}");
            let dir = temp_dir(&tag);
            let mut ws = benchpark
                .setup_workspace(benchmark, variant, system, &dir)
                .unwrap_or_else(|e| panic!("{tag}: setup failed: {e}"));
            ws.run()
                .unwrap_or_else(|e| panic!("{tag}: run failed: {e}"));
            let analysis = ws
                .analyze(&benchpark)
                .unwrap_or_else(|e| panic!("{tag}: analyze failed: {e}"));
            for result in &analysis.results {
                assert_eq!(
                    result.status,
                    ExperimentStatus::Success,
                    "{tag}: {} failed",
                    result.experiment
                );
                assert!(
                    !result.foms.is_empty(),
                    "{tag}: {} has no FOMs",
                    result.experiment
                );
            }
            runs.push(RunRecord::from_run(
                system,
                benchmark,
                variant,
                &ws.manifest(),
                &analysis.results,
                None,
            ));
            total += analysis.results.len();
        }
    }
    assert!(
        total >= 45,
        "the matrix should produce many results, got {total}"
    );
    let counted: usize = usage_counts(&runs).iter().map(|(_, n)| n).sum();
    assert_eq!(counted, total);

    // the dashboard covers every benchmark
    let dashboard = render_dashboard(&runs);
    for (benchmark, _) in available_experiments() {
        assert!(
            dashboard.contains(benchmark),
            "dashboard missing {benchmark}:\n{dashboard}"
        );
    }
}

#[test]
fn each_cell_solves_once_per_environment_and_builds_nothing_twice() {
    // the environment's lockfile is the one concrete DAG per application:
    // set-up solves each environment once, and the cluster-side install
    // fetches what the environment built instead of building another DAG
    let mut cells = 0;
    for (benchmark, variant) in available_experiments() {
        for system in systems_for(benchmark, variant) {
            let tag = format!("{benchmark}-{variant}-{system}");
            let sink = TelemetrySink::recording();
            let dir = temp_dir(&format!("dag-{tag}"));
            let ws = Benchpark::new()
                .with_telemetry(sink.clone())
                .setup_workspace(benchmark, variant, system, &dir)
                .unwrap_or_else(|e| panic!("{tag}: setup failed: {e}"));
            let report = sink.report().expect("recording sink");
            assert_eq!(
                report.counter("concretizer.solves"),
                ws.setup_report.lockfiles.len() as u64,
                "{tag}: one solve per environment"
            );
            let builds: usize = ws
                .setup_report
                .install_reports
                .values()
                .flatten()
                .map(|install| install.count(Action::Build))
                .sum();
            assert_eq!(
                report.counter("cache.miss"),
                builds as u64,
                "{tag}: the cluster built something the environment did not"
            );
            cells += 1;
        }
    }
    assert_eq!(cells, 15, "the demo matrix has 15 cells");
}

#[test]
fn per_system_target_flows_into_manifests() {
    // the same benchmark on different systems uses different compilers and
    // MPIs — visible in the stored manifests (the Table 1 orthogonalization)
    let benchpark = Benchpark::new();
    let mut manifests = Vec::new();
    for system in ["cts1", "ats2", "ats4"] {
        let variant = match system {
            "ats2" => "cuda",
            "ats4" => "rocm",
            _ => "openmp",
        };
        let dir = temp_dir(&format!("manifest-{system}"));
        let ws = benchpark
            .setup_workspace("saxpy", variant, system, &dir)
            .unwrap();
        manifests.push(ws.manifest());
    }
    assert!(manifests[0].contains("mvapich2"));
    assert!(manifests[1].contains("spectrum-mpi"));
    assert!(manifests[2].contains("cray-mpich"));
    assert!(manifests[1].contains("+cuda"));
    assert!(manifests[2].contains("+rocm"));
}

#[test]
fn system_profiles_and_machines_are_consistent() {
    for profile in SystemProfile::all() {
        let machine = profile.machine();
        let site = profile.site_config();
        // every compiler named in spack.yaml's default-compiler must exist
        // in compilers.yaml
        let config = benchpark::ramble::RambleConfig::from_yaml("ramble:\n  applications: {}\n")
            .and_then(|mut c| {
                c.merge_spack_yaml(&profile.spack_yaml)?;
                Ok(c)
            })
            .unwrap();
        let compiler_spec = &config.spack_packages["default-compiler"].spack_spec;
        let parsed: benchpark::spec::Spec = compiler_spec.parse().unwrap();
        let found = site.compilers.iter().any(|c| {
            Some(c.name.as_str()) == parsed.name.as_deref() && parsed.versions.contains(&c.version)
        });
        assert!(
            found,
            "{}: default-compiler {compiler_spec} not in compilers.yaml",
            profile.name
        );
        // scheduler launcher matches the machine's batch system
        let launcher = machine
            .scheduler
            .mpi_command()
            .split_whitespace()
            .next()
            .unwrap();
        assert!(
            profile.variables_yaml.contains(launcher),
            "{}: variables.yaml should use `{launcher}`",
            profile.name
        );
    }
}
