//! Tests for the service-life features: procurement studies, regression
//! tracking, usage metrics, and dashboard plots.

use crate::tests::TempDir;
use crate::{
    ascii_plot, detect_regression, usage_counts, Benchpark, ProcurementStudy, RunRecord,
    WorkloadSpec,
};
use benchpark_cluster::FaultSpec;
use benchpark_ramble::ExperimentStatus;

fn temp_dir(tag: &str) -> TempDir {
    TempDir::new(&format!("benchpark-ext-{tag}"))
}

// ---------------------------------------------------------------------------
// Procurement (§1's motivating use case)
// ---------------------------------------------------------------------------

#[test]
fn procurement_study_ranks_candidates() {
    let workloads = vec![
        WorkloadSpec::uniform("amg2023", "openmp", "solve_fom", true, 3.0)
            .with_variant("ats2", "cuda")
            .with_variant("ats4", "rocm"),
        WorkloadSpec::uniform("stream", "openmp", "triad_bw", true, 1.0),
    ];
    let study = ProcurementStudy::new(workloads, &["cts1", "ats2", "ats4"]);
    let dir = temp_dir("procurement");
    let report = study.run(&dir).unwrap();

    // every (workload, system) cell filled
    assert_eq!(report.measurements.len(), 6);
    // scores are normalized: max per workload is exactly 1
    for workload in &report.workloads {
        let max = report
            .systems
            .iter()
            .filter_map(|s| report.measurements.get(&(workload.clone(), s.clone())))
            .map(|m| m.score)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((max - 1.0).abs() < 1e-12, "{workload}: max score {max}");
    }
    // AMG is GPU-bound: the MI250X system wins on raw performance
    assert_eq!(report.winner(), Some("ats4"), "{}", report.render());
    // aggregates populated and bounded
    for system in &report.systems {
        let agg = report.aggregate[system];
        assert!(agg > 0.0 && agg <= 1.0 + 1e-9);
    }
    // energy was accounted
    let any = report.measurements.values().next().unwrap();
    assert!(any.energy_kwh > 0.0);
    assert!(any.fom_value > 0.0);
    let rendered = report.render();
    assert!(rendered.contains("performance winner"));
    assert!(rendered.contains("aggregate per kWh"));
}

#[test]
fn procurement_lower_is_better_foms() {
    // score by solve_time (lower is better): ordering must invert vs DOF/s
    let workloads = vec![
        WorkloadSpec::uniform("amg2023", "openmp", "solve_time", false, 1.0)
            .with_variant("ats2", "cuda")
            .with_variant("ats4", "rocm"),
    ];
    let study = ProcurementStudy::new(workloads, &["cts1", "ats4"]);
    let dir = temp_dir("procurement-lib");
    let report = study.run(&dir).unwrap();
    assert_eq!(report.winner(), Some("ats4"));
    let cts = &report.measurements[&("amg2023".to_string(), "cts1".to_string())];
    let ats4 = &report.measurements[&("amg2023".to_string(), "ats4".to_string())];
    assert!(ats4.fom_value < cts.fom_value, "ats4 should solve faster");
    assert!(cts.score < 1.0 && (ats4.score - 1.0).abs() < 1e-12);
}

#[test]
fn procurement_unknown_fom_errors() {
    let workloads = vec![WorkloadSpec::uniform(
        "stream",
        "openmp",
        "nonexistent_fom",
        true,
        1.0,
    )];
    let study = ProcurementStudy::new(workloads, &["cts1"]);
    let dir = temp_dir("procurement-bad");
    let err = study.run(&dir).unwrap_err();
    assert!(err.contains("nonexistent_fom"), "{err}");
}

// ---------------------------------------------------------------------------
// Regression tracking over time (§1 service phase)
// ---------------------------------------------------------------------------

/// Runs the stream suite once on the given machine fault state and appends
/// the run to `runs`.
fn run_stream_epoch(runs: &mut Vec<RunRecord>, degrade: Option<f64>, tag: &str) {
    let benchpark = Benchpark::new();
    let profile = crate::SystemProfile::cts1();
    let mut machine = profile.machine();
    if let Some(factor) = degrade {
        machine = FaultSpec::DegradeMemoryBandwidth(factor).apply(machine);
    }
    let dir = temp_dir(tag);
    let mut ws = benchpark
        .setup_workspace_on("stream", "openmp", "cts1", &dir, Some(machine))
        .unwrap();
    ws.run().unwrap();
    let analysis = ws.analyze(&benchpark).unwrap();
    runs.push(RunRecord::from_run(
        "cts1",
        "stream",
        "openmp",
        &ws.manifest(),
        &analysis.results,
        None,
    ));
}

#[test]
fn regression_detected_after_hardware_fault() {
    let mut runs = Vec::new();
    // healthy history: 4 epochs
    for i in 0..4 {
        run_stream_epoch(&mut runs, None, &format!("healthy-{i}"));
    }
    let healthy =
        detect_regression(&runs, "stream", "cts1", "triad_bw", true, 0.10).expect("enough history");
    assert!(!healthy.regressed, "{}", healthy.render());
    assert!(
        healthy.change.abs() < 0.05,
        "healthy drift too large: {}",
        healthy.render()
    );

    // a DIMM goes bad: memory bandwidth halves
    run_stream_epoch(&mut runs, Some(0.5), "degraded");
    let report =
        detect_regression(&runs, "stream", "cts1", "triad_bw", true, 0.10).expect("enough history");
    assert!(report.regressed, "{}", report.render());
    assert!(report.change < -0.3, "expected ~-50%: {}", report.render());
    assert!(report.render().contains("REGRESSION"));
}

#[test]
fn regression_needs_history() {
    let mut runs = Vec::new();
    run_stream_epoch(&mut runs, None, "short-0");
    assert!(detect_regression(&runs, "stream", "cts1", "triad_bw", true, 0.1).is_none());
    run_stream_epoch(&mut runs, None, "short-1");
    assert!(detect_regression(&runs, "stream", "cts1", "triad_bw", true, 0.1).is_none());
    run_stream_epoch(&mut runs, None, "short-2");
    assert!(detect_regression(&runs, "stream", "cts1", "triad_bw", true, 0.1).is_some());
}

#[test]
fn lower_is_better_regression_direction() {
    // for a latency FOM, an *increase* is the regression
    let mk = |value: f64| benchpark_ramble::ExperimentResult {
        experiment: "e".to_string(),
        application: "osu-bcast".to_string(),
        workload: "bcast".to_string(),
        status: ExperimentStatus::Success,
        foms: vec![benchpark_ramble::FomValue {
            name: "avg_latency".to_string(),
            value: value.to_string(),
            units: "us".to_string(),
            context: Default::default(),
        }],
        criteria: Vec::new(),
        variables: Default::default(),
        profile: Vec::new(),
        cached: false,
    };
    let run = |value| RunRecord::from_run("cts1", "osu-bcast", "scaling", "m", &[mk(value)], None);
    let runs = [run(10.0), run(10.0), run(10.0), run(10.0), run(25.0)];
    let report = detect_regression(&runs, "osu-bcast", "cts1", "avg_latency", false, 0.10).unwrap();
    assert!(report.regressed, "{}", report.render());
}

// ---------------------------------------------------------------------------
// Usage metrics (§5)
// ---------------------------------------------------------------------------

#[test]
fn usage_counts_rank_benchmarks() {
    let mut runs = Vec::new();
    run_stream_epoch(&mut runs, None, "usage-1");
    run_stream_epoch(&mut runs, None, "usage-2");
    let benchpark = Benchpark::new();
    let dir = temp_dir("usage-lulesh");
    let mut ws = benchpark
        .setup_workspace("lulesh", "openmp", "cts1", &dir)
        .unwrap();
    ws.run().unwrap();
    let analysis = ws.analyze(&benchpark).unwrap();
    runs.push(RunRecord::from_run(
        "cts1",
        "lulesh",
        "openmp",
        &ws.manifest(),
        &analysis.results,
        None,
    ));

    let usage = usage_counts(&runs);
    assert_eq!(usage[0].0, "stream"); // accessed most heavily
    assert!(usage.iter().any(|(b, _)| b == "lulesh"));
    assert!(usage[0].1 > usage.last().unwrap().1);
}

// ---------------------------------------------------------------------------
// Dashboard plots
// ---------------------------------------------------------------------------

#[test]
fn ascii_plot_renders_points_and_model() {
    let points: Vec<(f64, f64)> = (1..=8)
        .map(|i| (i as f64 * 432.0, 0.0466 * i as f64 * 432.0 - 0.64))
        .collect();
    let model = |p: f64| 0.0466 * p - 0.64;
    let plot = ascii_plot("MPI_Bcast on CTS", &points, Some(&model), 60, 12);
    assert!(plot.contains("MPI_Bcast on CTS"));
    assert!(plot.contains('●'), "data points must render:\n{plot}");
    assert!(plot.contains('·'), "model line must render:\n{plot}");
    assert!(plot.lines().count() >= 14);
}

#[test]
fn ascii_plot_degenerate_inputs() {
    assert!(ascii_plot("empty", &[], None, 40, 10).contains("no data"));
    assert!(ascii_plot("tiny", &[(1.0, 1.0)], None, 4, 2).contains("no data"));
    let flat = ascii_plot("flat", &[(1.0, 5.0), (2.0, 5.0)], None, 20, 6);
    assert!(flat.contains('●'));
    let same_x = ascii_plot("same-x", &[(1.0, 1.0), (1.0, 2.0)], None, 20, 6);
    assert!(same_x.contains("degenerate"));
}
