//! A procurement study — the paper's §1 motivating use case:
//! *"benchmarking … helps evaluate which of the proposed HPC systems will
//! result in the best performance for a particular HPC center workload."*
//!
//! The center's workload mix (multigrid solves, memory bandwidth, hydro,
//! collective latency) runs on three candidate systems through the full
//! Benchpark pipeline; candidates are scored on performance and
//! performance-per-watt.
//!
//! ```text
//! cargo run --example procurement
//! ```

use benchpark::core::{ProcurementStudy, SystemProfile, WorkloadSpec};

fn main() {
    println!("=== Candidate systems ===");
    for name in ["cts1", "ats2", "ats4"] {
        let machine = SystemProfile::by_name(name).unwrap().machine();
        println!(
            "{:<6} {:<52} {:>5} nodes, {:.1} kW/node",
            name, machine.description, machine.nodes, machine.node_power_kw
        );
    }

    // The center's workload mix: weights reflect how much of the center's
    // cycles each class of application consumes.
    let workloads = vec![
        WorkloadSpec::uniform("amg2023", "openmp", "solve_fom", true, 4.0)
            .with_variant("ats2", "cuda")
            .with_variant("ats4", "rocm"),
        WorkloadSpec::uniform("lulesh", "openmp", "fom", true, 3.0),
        WorkloadSpec::uniform("stream", "openmp", "triad_bw", true, 2.0),
    ];
    println!("\n=== Workload mix ===");
    for w in &workloads {
        println!(
            "  {:<10} fom={:<10} weight={}",
            w.benchmark, w.fom, w.weight
        );
    }

    let study = ProcurementStudy::new(workloads, &["cts1", "ats2", "ats4"]);
    let base = std::env::temp_dir().join("benchpark-procurement");
    let _ = std::fs::remove_dir_all(&base);
    let report = study.run(&base).expect("study must run");

    println!("\n{}", report.render());

    println!("=== Raw measurements ===");
    for ((workload, system), m) in &report.measurements {
        println!(
            "  {workload:<10} on {system:<6}  fom={:<14.4e} energy={:.4} kWh",
            m.fom_value, m.energy_kwh
        );
    }
}
