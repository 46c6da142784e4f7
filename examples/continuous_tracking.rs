//! Continuous benchmarking through a system's service life (paper §1):
//! *"once the system has been accepted and is in service, benchmarking is a
//! useful tool for tracking system performance over time and diagnosing
//! hardware failures."*
//!
//! Six scheduled benchmarking epochs run on `cts1`. After epoch 4, a memory
//! DIMM degrades (bandwidth halved on the machine). The regression detector
//! flags the drop immediately, and the §5-style dashboard plot makes it
//! visible. Finally the history is shared the way centers exchange results:
//! appended to a ledger shard, which "another center" loads.
//!
//! ```text
//! cargo run --example continuous_tracking
//! ```

use benchpark::cluster::FaultSpec;
use benchpark::core::{
    append_run, ascii_plot, detect_regression, render_dashboard, shard_path, usage_counts,
    Benchpark, RunRecord, ShardedLedger, SystemProfile,
};
use benchpark::telemetry::TelemetrySink;

fn run_epoch(epoch: usize, degrade: Option<f64>) -> RunRecord {
    let benchpark = Benchpark::new();
    let mut machine = SystemProfile::cts1().machine();
    if let Some(factor) = degrade {
        machine = FaultSpec::DegradeMemoryBandwidth(factor).apply(machine);
    }
    let dir = std::env::temp_dir().join(format!("benchpark-tracking-{epoch}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut ws = benchpark
        .setup_workspace_on("stream", "openmp", "cts1", dir, Some(machine))
        .expect("setup");
    ws.run().expect("run");
    let analysis = ws.analyze(&benchpark).expect("analyze");
    RunRecord::from_run(
        "cts1",
        "stream",
        "openmp",
        &ws.manifest(),
        &analysis.results,
        None,
    )
}

fn main() {
    let mut runs = Vec::new();

    println!("running 6 scheduled benchmarking epochs on cts1…");
    for epoch in 1..=6 {
        // the DIMM fails before epoch 5
        let degrade = (epoch >= 5).then_some(0.5);
        runs.push(run_epoch(epoch, degrade));
        let verdict = detect_regression(&runs, "stream", "cts1", "triad_bw", true, 0.10);
        match verdict {
            Some(report) => println!("epoch {epoch}: {}", report.render()),
            None => println!("epoch {epoch}: gathering baseline…"),
        }
    }

    // dashboard view: triad bandwidth at max threads, per epoch
    let points: Vec<(f64, f64)> = runs
        .iter()
        .enumerate()
        .flat_map(|(i, run)| run.results.iter().map(move |r| ((i + 1) as f64, r)))
        .filter(|(_, r)| r.variables.get("n_threads").map(String::as_str) == Some("36"))
        .filter_map(|(epoch, r)| {
            let y = r
                .foms
                .iter()
                .find(|f| f.name == "triad_bw")
                .and_then(|f| f.as_f64())?;
            Some((epoch, y))
        })
        .collect();
    println!(
        "\n{}",
        ascii_plot(
            "STREAM triad MB/s (36 threads) across benchmarking epochs",
            &points,
            None,
            48,
            10
        )
    );

    println!(
        "benchmark usage (most exercised first): {:?}",
        usage_counts(&runs)
    );

    // share the history with a collaborator (§5): the ledger shard is the
    // exchange format, and the other center loads the shard root
    let root = std::env::temp_dir().join("benchpark-tracking-ledger");
    let _ = std::fs::remove_dir_all(&root);
    let shard = shard_path(&root, "center-a", "cts1");
    std::fs::create_dir_all(shard.parent().expect("a shard has a tenant dir")).expect("mkdir");
    for run in &mut runs {
        append_run(&shard, run).expect("append");
    }
    let shared = ShardedLedger::load(&root, &TelemetrySink::noop()).expect("load shards");
    println!(
        "\nappended {} runs to the center-a/cts1 ledger shard; the collaborating center loaded {} and sees:",
        runs.len(),
        shared.len()
    );
    print!("{}", render_dashboard(&shared.merged.runs));
}
