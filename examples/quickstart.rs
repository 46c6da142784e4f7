//! Quickstart: the nine-step Benchpark workflow from paper Figure 1c.
//!
//! Runs the saxpy/openmp experiment suite (Figure 10) on the simulated
//! `cts1` system, printing each workflow step, the generated experiments,
//! the extracted figures of merit, and Table 1.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use benchpark::core::{render_dashboard, render_table1, Benchpark, RunRecord};

fn main() {
    // Steps 1–3: clone Benchpark, invoke the driver, instantiate substrates.
    let benchpark = Benchpark::new();
    let workspace_dir = std::env::temp_dir().join("benchpark-quickstart");
    let _ = std::fs::remove_dir_all(&workspace_dir);

    // Steps 4–7: generate the workspace, build software with Spack, render
    // batch scripts.
    let mut ws = benchpark
        .setup_workspace("saxpy", "openmp", "cts1", &workspace_dir)
        .expect("setup must succeed");

    println!("=== Workspace setup ===");
    println!("workspace: {}", ws.workspace.root().display());
    println!(
        "experiments generated: {}",
        ws.setup_report.experiments.len()
    );
    for exp in &ws.setup_report.experiments {
        println!("  {}", exp.name);
    }
    for (env, reports) in &ws.setup_report.install_reports {
        for report in reports {
            println!(
                "environment `{env}`: {} packages installed, {:.1} virtual build seconds",
                report.newly_installed, report.makespan_seconds
            );
        }
    }

    println!("\n=== Rendered batch script (saxpy_512_2_8_4) ===");
    println!("{}", ws.workspace.script("saxpy_512_2_8_4").unwrap());

    // Step 8: ramble on — submit everything to the simulated cluster.
    ws.run().expect("runs must submit");

    // Step 9: ramble workspace analyze.
    let analysis = ws.analyze(&benchpark).expect("analysis must succeed");
    println!("=== Analysis ===");
    print!("{}", analysis.render());

    // Store results with their manifest (paper §5).
    let run = RunRecord::from_run(
        "cts1",
        "saxpy",
        "openmp",
        &ws.manifest(),
        &analysis.results,
        None,
    );
    println!("=== Metrics database ===");
    print!("{}", render_dashboard(&[run]));

    println!("\n=== Workflow transcript (Figure 1c) ===");
    println!("{}", ws.log.render());

    println!("\n{}", render_table1());
}
