//! Paper §4 demonstration: saxpy and AMG2023 built and run on all three
//! systems — `cts1` (Intel Xeon, Slurm), `ats2` (Power9 + V100, LSF), and
//! `ats4` (Trento + MI250X, Flux) — each with the programming model the
//! system supports, every run kept as one ledger record.
//!
//! ```text
//! cargo run --example three_systems
//! ```

use benchpark::core::{render_dashboard, Benchpark, RunRecord, SystemProfile};

fn main() {
    let benchpark = Benchpark::new();
    let mut runs = Vec::new();
    let base = std::env::temp_dir().join("benchpark-three-systems");
    let _ = std::fs::remove_dir_all(&base);

    println!("=== Systems ===");
    for profile in SystemProfile::all() {
        let machine = profile.machine();
        println!(
            "{:<9} {:<52} target={} sched={:?}",
            profile.name,
            machine.description,
            machine.target().name,
            machine.scheduler
        );
    }

    let combos = [
        ("saxpy", "openmp", "cts1"),
        ("saxpy", "cuda", "ats2"),
        ("saxpy", "rocm", "ats4"),
        ("amg2023", "openmp", "cts1"),
        ("amg2023", "cuda", "ats2"),
        ("amg2023", "rocm", "ats4"),
    ];

    for (benchmark, variant, system) in combos {
        println!("\n=== {benchmark}/{variant} on {system} ===");
        let mut ws = benchpark
            .setup_workspace(
                benchmark,
                variant,
                system,
                base.join(format!("{benchmark}-{system}")),
            )
            .unwrap_or_else(|e| panic!("{benchmark} on {system}: {e}"));
        ws.run().expect("runs succeed");
        let analysis = ws.analyze(&benchpark).expect("analysis succeeds");
        for result in &analysis.results {
            let foms: Vec<String> = result
                .foms
                .iter()
                .filter(|f| !f.units.is_empty())
                .map(|f| format!("{}={} {}", f.name, f.value, f.units))
                .collect();
            println!(
                "  {:<40} {:?}  {}",
                result.experiment,
                result.status,
                foms.join("  ")
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
    }

    // the GPU systems should show (much) higher AMG solve FOMs
    println!("\n=== AMG2023 solve FOM by system (higher is better) ===");
    for system in ["cts1", "ats2", "ats4"] {
        let best: f64 = runs
            .iter()
            .filter(|run| run.benchmark == "amg2023" && run.system == system)
            .flat_map(|run| &run.results)
            .flat_map(|r| r.foms.iter())
            .filter(|f| f.name == "solve_fom")
            .filter_map(|f| f.as_f64())
            .fold(0.0, f64::max);
        println!("  {system:<8} {best:>14.3e} DOF/s");
    }

    println!("\n=== Dashboard ===");
    print!("{}", render_dashboard(&runs));
}
