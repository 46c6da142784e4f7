//! Tests for the Benchpark driver, systems, templates, the run queries,
//! Table 1, and the Figure 14 pipeline.

use crate::{
    available_experiments, experiment_template, fom_series, render_dashboard, render_table1,
    render_tree, scaling, table1, usage_counts, Benchpark, RunRecord, SystemProfile,
};
use benchpark_cluster::BcastAlgorithm;
use benchpark_ramble::ExperimentStatus;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("benchpark-core-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------------
// Systems
// ---------------------------------------------------------------------------

#[test]
fn all_system_profiles_lower_to_site_configs() {
    for profile in SystemProfile::all() {
        let site = profile.site_config();
        assert!(
            !site.compilers.is_empty(),
            "{} must define compilers",
            profile.name
        );
        assert!(!site.default_target.is_empty());
        let machine = profile.machine();
        assert_eq!(machine.name, profile.name);
        // system default target must be runnable on the machine
        assert!(
            machine.can_run_binary_for(&site.default_target),
            "{}: binaries for {} must run on the machine",
            profile.name,
            site.default_target
        );
    }
}

#[test]
fn cts1_profile_matches_fig4() {
    let site = SystemProfile::cts1().site_config();
    assert_eq!(site.externals_for("mvapich2").len(), 1);
    assert_eq!(site.externals_for("intel-oneapi-mkl").len(), 1);
    assert!(!site.buildable("mvapich2"));
    assert_eq!(site.default_target, "skylake_avx512");
    assert_eq!(site.provider_prefs["mpi"], vec!["mvapich2".to_string()]);
}

// ---------------------------------------------------------------------------
// Templates
// ---------------------------------------------------------------------------

#[test]
fn all_templates_parse() {
    for (benchmark, variant) in available_experiments() {
        let text = experiment_template(benchmark, variant).unwrap();
        let config = benchpark_ramble::RambleConfig::from_yaml(&text)
            .unwrap_or_else(|e| panic!("{benchmark}/{variant}: {e}"));
        assert!(!config.applications.is_empty());
        assert!(!config.environments.is_empty());
    }
    assert!(experiment_template("nope", "x").is_none());
}

// ---------------------------------------------------------------------------
// The 9-step workflow (Figure 1c) and the §4 demonstration matrix
// ---------------------------------------------------------------------------

#[test]
fn golden_fig1c_nine_step_workflow() {
    let benchpark = Benchpark::new();
    let mut ws = benchpark
        .setup_workspace("saxpy", "openmp", "cts1", temp_dir("fig1c"))
        .unwrap();
    // Figure 10 expansion: 8 experiments
    assert_eq!(ws.setup_report.experiments.len(), 8);
    ws.run().unwrap();
    let analysis = ws.analyze(&benchpark).unwrap();
    assert_eq!(analysis.successes().count(), 8, "{}", analysis.render());

    // all nine steps logged
    assert_eq!(ws.log.steps.len(), 9);
    for n in 1..=9 {
        assert!(
            ws.log
                .steps
                .iter()
                .any(|s| s.starts_with(&format!("step {n}:"))),
            "missing step {n}: {:?}",
            ws.log.steps
        );
    }
    // the manifest captures the environment specs
    let manifest = ws.manifest();
    assert!(manifest.contains("saxpy@1.0.0 +openmp"), "{manifest}");
    assert!(manifest.contains("system: cts1"));
}

/// §4: both paper benchmarks on all three paper systems, matched to each
/// system's programming model.
#[test]
fn demo_matrix_benchmarks_times_systems() {
    let combos = [
        ("saxpy", "openmp", "cts1"),
        ("saxpy", "cuda", "ats2"),
        ("saxpy", "rocm", "ats4"),
        ("amg2023", "openmp", "cts1"),
        ("amg2023", "cuda", "ats2"),
        ("amg2023", "rocm", "ats4"),
    ];
    let benchpark = Benchpark::new();
    for (benchmark, variant, system) in combos {
        let mut ws = benchpark
            .setup_workspace(
                benchmark,
                variant,
                system,
                temp_dir(&format!("{benchmark}-{variant}-{system}")),
            )
            .unwrap_or_else(|e| panic!("{benchmark}/{variant} on {system}: {e}"));
        ws.run().unwrap();
        let analysis = ws.analyze(&benchpark).unwrap();
        assert!(
            analysis.successes().count() > 0,
            "{benchmark}/{variant} on {system}: no successes\n{}",
            analysis.render()
        );
        for result in &analysis.results {
            assert_eq!(
                result.status,
                ExperimentStatus::Success,
                "{benchmark}/{variant}@{system}: {}",
                result.experiment
            );
        }
    }
}

#[test]
fn scheduler_dialects_render_correctly() {
    let benchpark = Benchpark::new();
    // LSF on ats2
    let ws = benchpark
        .setup_workspace("saxpy", "cuda", "ats2", temp_dir("lsf"))
        .unwrap();
    let script = ws.workspace.script("saxpy_cuda_16384_1_4").unwrap();
    assert!(script.contains("#BSUB -nnodes 1"), "{script}");
    assert!(
        script.contains("jsrun -n 4 -a 1 saxpy -n 16384"),
        "{script}"
    );

    // Flux on ats4
    let ws = benchpark
        .setup_workspace("saxpy", "rocm", "ats4", temp_dir("flux"))
        .unwrap();
    let script = ws.workspace.script("saxpy_rocm_16384_1_4").unwrap();
    assert!(script.contains("#flux: -N 1"), "{script}");
    assert!(
        script.contains("flux run -N 1 -n 4 saxpy -n 16384"),
        "{script}"
    );
}

#[test]
fn unknown_inputs_rejected() {
    let benchpark = Benchpark::new();
    assert!(benchpark
        .setup_workspace("saxpy", "openmp", "summit", temp_dir("bad1"))
        .is_err());
    assert!(benchpark
        .setup_workspace("hpl", "openmp", "cts1", temp_dir("bad2"))
        .is_err());
}

// ---------------------------------------------------------------------------
// Run queries
// ---------------------------------------------------------------------------

#[test]
fn run_queries_answer_series_usage_and_dashboard() {
    let benchpark = Benchpark::new();
    let mut ws = benchpark
        .setup_workspace("stream", "openmp", "cts1", temp_dir("metrics"))
        .unwrap();
    ws.run().unwrap();
    let analysis = ws.analyze(&benchpark).unwrap();
    let runs = [RunRecord::from_run(
        "cts1",
        "stream",
        "openmp",
        &ws.manifest(),
        &analysis.results,
        None,
    )];

    assert_eq!(usage_counts(&runs), [("stream".to_string(), 4)]); // 4 thread counts
    assert!(fom_series(&runs, "stream", "ats2", "triad_bw", "n_threads").is_empty());

    // triad bandwidth grows with threads until saturation
    let series = fom_series(&runs, "stream", "cts1", "triad_bw", "n_threads");
    assert_eq!(series.len(), 4);
    assert!(series[0].1 < series[3].1, "{series:?}");

    // stored manifests allow functional reproduction
    assert!(runs[0].manifest.contains("stream@5.10"));
    assert!(render_dashboard(&runs).contains("stream               cts1            4     4/4"));
}

// ---------------------------------------------------------------------------
// Table 1 and the tree (Figures 1a)
// ---------------------------------------------------------------------------

#[test]
fn golden_table1_structure() {
    let rows = table1();
    assert_eq!(rows.len(), 6);
    let components: Vec<&str> = rows.iter().map(|r| r.component).collect();
    assert_eq!(
        components,
        vec![
            "Source code",
            "Build instructions",
            "Benchmark input",
            "Run instructions",
            "Experiment evaluation",
            "CI testing"
        ]
    );
    // paper cells reproduced
    assert_eq!(rows[0].benchmark_specific, "package.py");
    assert_eq!(rows[2].system_specific, "variables.yaml");
    assert_eq!(rows[4].experiment_specific, "ramble.yaml: success_criteria");
    assert_eq!(rows[5].benchmark_specific, ".gitlab-ci.yml");
    // every row names its implementing modules
    for row in &rows {
        assert!(
            row.implemented_by.contains("benchpark-"),
            "row {}",
            row.number
        );
    }
    let rendered = render_table1();
    assert!(rendered.contains("Component"));
    assert!(rendered.contains("ramble.yaml: success_criteria"));
    // the system-specific column is backed by the four shipped profiles
    assert_eq!(SystemProfile::all().len(), 4);
}

#[test]
fn tree_and_skeleton() {
    let tree = render_tree();
    assert!(tree.contains("configs"));
    assert!(tree.contains("cts1"));
    assert!(tree.contains("experiments"));
    assert!(tree.contains("saxpy"));
    assert!(tree.contains("ramble.yaml"));

    let dir = temp_dir("skeleton");
    crate::write_skeleton(&dir).unwrap();
    assert!(dir.join("configs/cts1/packages.yaml").is_file());
    assert!(dir.join("experiments/saxpy/openmp/ramble.yaml").is_file());
    assert!(dir
        .join("experiments/amg2023/rocm/execute_experiment.tpl")
        .is_file());
}

// ---------------------------------------------------------------------------
// Figure 14
// ---------------------------------------------------------------------------

/// The headline: on CTS (linear broadcast), the fitted Extra-P model is
/// `c + a·p^(1)` — the same functional form as the paper's
/// `-0.636 + 0.0466·p¹`.
#[test]
fn golden_fig14_extrap_model_on_cts() {
    let study = scaling::bcast_scaling_study("cts1", None, temp_dir("fig14")).unwrap();
    assert_eq!(study.points.len(), 8);
    assert_eq!(study.algorithm, BcastAlgorithm::Linear);
    assert_eq!(
        (study.model.i, study.model.j),
        (1.0, 0),
        "expected linear model, got {}",
        study.model
    );
    assert!(study.model.a > 0.0);
    assert!(study.model.r_squared > 0.99, "{}", study.model.r_squared);
    // max nprocs matches the paper's x-axis reach (3456 on the far right)
    assert_eq!(study.points.last().unwrap().0, 3456.0);
    let rendered = study.render();
    assert!(rendered.contains("p^(1)"), "{rendered}");
}

/// Ablation A4: a binomial-tree broadcast fits a logarithmic model instead.
#[test]
fn fig14_ablation_tree_bcast_is_logarithmic() {
    let study = scaling::bcast_scaling_study(
        "cts1",
        Some(BcastAlgorithm::BinomialTree),
        temp_dir("fig14-tree"),
    )
    .unwrap();
    assert_eq!(
        (study.model.i, study.model.j),
        (0.0, 1),
        "expected log model, got {}",
        study.model
    );
    // and the tree broadcast is far faster at scale than linear
    let linear =
        scaling::bcast_scaling_study("cts1", Some(BcastAlgorithm::Linear), temp_dir("fig14-lin"))
            .unwrap();
    let p_max = 3456.0;
    assert!(study.model.predict(p_max) * 10.0 < linear.model.predict(p_max));
}

// ---------------------------------------------------------------------------
// Pipeline telemetry (spans, counters, event journal)
// ---------------------------------------------------------------------------

/// A full setup → run → analyze pass through a recording sink produces a
/// deep span tree, cache hit *and* miss counters (workspace setup builds
/// populate the site cache; the cluster-side install in step 7 fetches from
/// it), and scheduler utilization samples.
#[test]
fn telemetry_traces_the_full_pipeline() {
    let sink = benchpark_telemetry::TelemetrySink::recording();
    let benchpark = Benchpark::new().with_telemetry(sink.clone());
    let mut ws = benchpark
        .setup_workspace("saxpy", "openmp", "cts1", temp_dir("telemetry"))
        .unwrap();
    ws.run().unwrap();
    ws.analyze(&benchpark).unwrap();

    let report = sink.report().unwrap();
    assert!(
        report.max_depth() >= 4,
        "span tree too shallow:\n{}",
        report.render()
    );
    assert!(
        report.counter("cache.miss") > 0,
        "setup must build something"
    );
    assert!(
        report.counter("cache.hit") > 0,
        "cluster-side install must fetch from the site cache:\n{}",
        report.render()
    );
    assert!(report.counter("concretizer.solves") > 0);
    assert!(report.counter("scheduler.jobs_completed") > 0);
    let util = report.observation("scheduler.utilization").unwrap();
    assert!(util.count > 0 && util.last > 0.0);
    assert!(report.observation("install.worker_utilization").is_some());

    // the named top-level phases all appear as spans
    for phase in [
        "pipeline.setup",
        "workspace.setup",
        "pipeline.run",
        "pipeline.analyze",
    ] {
        assert!(
            report.spans.iter().any(|s| s.name.as_ref() == phase),
            "missing span `{phase}`"
        );
    }
    // journal replays in order: first event is the setup span opening
    assert!(matches!(
        report.journal.first(),
        Some(benchpark_telemetry::Event::SpanStart { name, .. }) if name.as_ref() == "pipeline.setup"
    ));
}

/// The disabled sink is the default everywhere and records nothing, and the
/// instrumented pipeline behaves identically with it.
#[test]
fn noop_telemetry_changes_nothing() {
    let benchpark = Benchpark::new(); // default: no-op sink
    let mut ws = benchpark
        .setup_workspace("saxpy", "openmp", "cts1", temp_dir("noop-telemetry"))
        .unwrap();
    ws.run().unwrap();
    let analysis = ws.analyze(&benchpark).unwrap();
    assert_eq!(analysis.successes().count(), 8);
    assert!(benchpark.telemetry().report().is_none());
}
