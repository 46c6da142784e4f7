//! Integration: the full Figure 1c workflow across every crate — driver →
//! spack → ramble → cluster → analysis → run ledger → perf modeling.

use benchpark::cluster::FaultSpec;
use benchpark::core::{
    append_run, fom_series, render_dashboard, scan_regressions, shard_path, usage_counts,
    Benchpark, RegressionReport, RunRecord, ShardedLedger, SystemProfile,
};
use benchpark::perf::extrap;
use benchpark::ramble::ExperimentStatus;
use benchpark::telemetry::TelemetrySink;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("benchpark-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn full_workflow_saxpy_on_cts1() {
    let benchpark = Benchpark::new();
    let mut ws = benchpark
        .setup_workspace("saxpy", "openmp", "cts1", temp_dir("wf"))
        .unwrap();

    // Figure 10's 8 experiments, rendered as Slurm scripts
    assert_eq!(ws.setup_report.experiments.len(), 8);
    for exp in &ws.setup_report.experiments {
        let script = ws.workspace.script(&exp.name).unwrap();
        assert!(script.starts_with("#!/bin/bash"), "{script}");
        assert!(script.contains("#SBATCH -N"), "{script}");
        assert!(script.contains("srun -N"), "{script}");
    }

    // software went through concretizer + install engine
    let reports = &ws.setup_report.install_reports["saxpy"];
    let built: usize = reports.iter().map(|r| r.newly_installed).sum();
    assert!(built >= 3, "expected saxpy + cmake + mpi, got {built}");

    // run on the simulated cluster and analyze
    ws.run().unwrap();
    let analysis = ws.analyze(&benchpark).unwrap();
    assert_eq!(analysis.results.len(), 8);
    for result in &analysis.results {
        assert_eq!(
            result.status,
            ExperimentStatus::Success,
            "{}",
            result.experiment
        );
        // Figure 8's FOM extracted via the rex engine
        assert!(result
            .foms
            .iter()
            .any(|f| f.name == "success" && f.value == "Kernel done"));
        let t = result
            .foms
            .iter()
            .find(|f| f.name == "kernel_time")
            .and_then(|f| f.as_f64())
            .unwrap();
        assert!(t > 0.0);
    }

    // keep the results with the manifest as one run record (§5)
    let run = RunRecord::from_run(
        "cts1",
        "saxpy",
        "openmp",
        &ws.manifest(),
        &analysis.results,
        None,
    );
    assert_eq!(
        usage_counts(std::slice::from_ref(&run)),
        [("saxpy".to_string(), 8)]
    );
    assert!(run.manifest.contains("saxpy@1.0.0 +openmp"));
}

#[test]
fn stream_thread_scaling_models_bandwidth_saturation() {
    // continuous benchmarking catches the shape of the machine: STREAM triad
    // bandwidth rises with threads and saturates — Extra-P should NOT pick a
    // superlinear model.
    let benchpark = Benchpark::new();
    let mut ws = benchpark
        .setup_workspace("stream", "openmp", "cts1", temp_dir("stream"))
        .unwrap();
    ws.run().unwrap();
    let analysis = ws.analyze(&benchpark).unwrap();
    let run = RunRecord::from_run(
        "cts1",
        "stream",
        "openmp",
        &ws.manifest(),
        &analysis.results,
        None,
    );

    let series = fom_series(&[run], "stream", "cts1", "triad_bw", "n_threads");
    assert_eq!(series.len(), 4);
    assert!(series.windows(2).all(|w| w[0].1 <= w[1].1 * 1.05));
    let model = extrap::fit(&series).unwrap();
    assert!(
        model.i <= 1.0,
        "bandwidth cannot scale superlinearly: {model}"
    );
}

#[test]
fn workspace_is_reusable_for_reanalysis() {
    // analyze is a pure function of the captured outputs: running it twice
    // gives identical results (replicability, §3.2).
    let benchpark = Benchpark::new();
    let mut ws = benchpark
        .setup_workspace("lulesh", "openmp", "cts1", temp_dir("reanalyze"))
        .unwrap();
    ws.run().unwrap();
    let a = ws.analyze(&benchpark).unwrap();
    let b = ws.analyze(&benchpark).unwrap();
    assert_eq!(a.results.len(), b.results.len());
    for (ra, rb) in a.results.iter().zip(&b.results) {
        assert_eq!(ra.experiment, rb.experiment);
        assert_eq!(ra.foms, rb.foms);
    }
}

#[test]
fn deterministic_end_to_end() {
    // the whole pipeline is reproducible: same FOM values on a fresh run
    let run = |tag: &str| {
        let benchpark = Benchpark::new();
        let mut ws = benchpark
            .setup_workspace("amg2023", "openmp", "cts1", temp_dir(tag))
            .unwrap();
        ws.run().unwrap();
        let analysis = ws.analyze(&benchpark).unwrap();
        analysis
            .results
            .iter()
            .flat_map(|r| {
                r.foms
                    .iter()
                    .map(|f| (r.experiment.clone(), f.name.clone(), f.value.clone()))
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run("det-a"), run("det-b"));
}

/// Every float of a verdict by its bits, so equal means bit-identical.
fn verdict_bits(report: &RegressionReport) -> (String, String, [u64; 4], bool, usize) {
    (
        format!("{}/{}", report.benchmark, report.system),
        report.fom.clone(),
        [
            report.baseline_mean.to_bits(),
            report.baseline_std.to_bits(),
            report.latest_mean.to_bits(),
            report.change.to_bits(),
        ],
        report.regressed,
        report.history_len,
    )
}

/// §5's sharing path: one center appends its runs to its ledger shard, and
/// a collaborating center loads the shard root. The loaded runs answer
/// every query bit for bit like the runs the first center kept in process.
#[test]
fn a_shared_ledger_shard_answers_like_the_runs_in_process() {
    let benchpark = Benchpark::new();
    let dir = temp_dir("share");
    // three steady epochs, then a DIMM fault cuts memory bandwidth by 40%
    let runs: Vec<RunRecord> = [None, None, None, Some(0.6)]
        .into_iter()
        .enumerate()
        .map(|(epoch, degrade)| {
            let mut machine = SystemProfile::cts1().machine();
            if let Some(factor) = degrade {
                machine = FaultSpec::DegradeMemoryBandwidth(factor).apply(machine);
            }
            let workspace = dir.join(format!("epoch-{epoch}"));
            let mut ws = benchpark
                .setup_workspace_on("stream", "openmp", "cts1", workspace, Some(machine))
                .unwrap();
            ws.run().unwrap();
            let analysis = ws.analyze(&benchpark).unwrap();
            RunRecord::from_run(
                "cts1",
                "stream",
                "openmp",
                &ws.manifest(),
                &analysis.results,
                None,
            )
        })
        .collect();

    let root = dir.join("ledger");
    let shard = shard_path(&root, "center-a", "cts1");
    std::fs::create_dir_all(shard.parent().unwrap()).unwrap();
    for run in &runs {
        append_run(&shard, &mut run.clone()).unwrap();
    }
    let shared = ShardedLedger::load(&root, &TelemetrySink::noop()).unwrap();
    let loaded = &shared.merged.runs;
    assert_eq!((loaded.len(), shared.merged.skipped), (4, 0));

    let verdicts = |runs: &[RunRecord]| -> Vec<_> {
        scan_regressions(runs, 0.10)
            .iter()
            .map(verdict_bits)
            .collect()
    };
    let in_process = verdicts(&runs);
    assert_eq!(in_process, verdicts(loaded));
    let triad = in_process
        .iter()
        .find(|v| v.1 == "triad_bw")
        .expect("triad_bw has a verdict");
    assert!(triad.3, "the 40% drop must regress: {in_process:?}");

    let series = |runs: &[RunRecord]| -> Vec<(u64, u64)> {
        fom_series(runs, "stream", "cts1", "triad_bw", "n_threads")
            .iter()
            .map(|(x, y)| (x.to_bits(), y.to_bits()))
            .collect()
    };
    assert_eq!(series(&runs).len(), 16);
    assert_eq!(series(&runs), series(loaded));
    assert_eq!(usage_counts(&runs), [("stream".to_string(), 16)]);
    assert_eq!(usage_counts(&runs), usage_counts(loaded));
    assert_eq!(render_dashboard(&runs), render_dashboard(loaded));
    let _ = std::fs::remove_dir_all(&dir);
}
