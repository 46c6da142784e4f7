//! One-shot workspace subcommands: `list`, `skeleton`, `setup`, `run`,
//! `fig14`, `template`.

use benchpark::cluster::BcastAlgorithm;
use benchpark::core::{
    available_experiments, render_dashboard, scaling, write_skeleton, Benchpark, RunRecord,
    SystemProfile,
};

pub fn cmd_list(what: Option<&str>) -> Result<(), String> {
    match what {
        Some("systems") => {
            for profile in SystemProfile::all() {
                let machine = profile.machine();
                println!(
                    "{:<9} {:<52} {:>5} nodes  target={}",
                    profile.name,
                    machine.description,
                    machine.nodes,
                    machine.target().name
                );
            }
            Ok(())
        }
        Some("experiments") => {
            for (benchmark, variant) in available_experiments() {
                println!("{benchmark}/{variant}");
            }
            Ok(())
        }
        _ => Err("expected `list systems` or `list experiments`".to_string()),
    }
}

pub fn cmd_skeleton(dir: Option<&String>) -> Result<(), String> {
    let dir = dir.ok_or("skeleton needs a target directory")?;
    write_skeleton(dir).map_err(|e| e.to_string())?;
    println!("wrote Benchpark repository skeleton to {dir}");
    Ok(())
}

pub fn cmd_workspace(args: &[String], run: bool) -> Result<(), String> {
    let [experiment, system, workspace_dir] = args else {
        return Err("expected <benchmark>/<variant> <system> <workspace_dir>".to_string());
    };
    let (benchmark, variant) = experiment
        .split_once('/')
        .ok_or("experiment must be <benchmark>/<variant>")?;

    let benchpark = Benchpark::new();
    let mut ws = benchpark.setup_workspace(benchmark, variant, system, workspace_dir)?;
    println!("{}", ws.log.render());
    println!(
        "\n{} experiments rendered under {}/experiments/",
        ws.setup_report.experiments.len(),
        workspace_dir
    );
    if !run {
        for exp in &ws.setup_report.experiments {
            println!("  {}", exp.name);
        }
        return Ok(());
    }

    ws.run().map_err(|e| e.to_string())?;
    let analysis = ws.analyze(&benchpark).map_err(|e| e.to_string())?;
    println!("\n{}", analysis.render());
    let record = RunRecord::from_run(
        system,
        benchmark,
        variant,
        &ws.manifest(),
        &analysis.results,
        None,
    );
    print!("{}", render_dashboard(&[record]));
    Ok(())
}

/// `benchpark template <benchmark>/<variant>` — dumps the built-in
/// `ramble.yaml` experiment template to stdout. Redirect it to a file, edit,
/// and feed it back with `benchpark trace --template FILE`: the edit changes
/// every affected experiment's fingerprint, so exactly those experiments
/// re-run.
pub fn cmd_template(args: &[String]) -> Result<(), String> {
    use benchpark::core::experiment_template;
    let [experiment] = args else {
        return Err("expected <benchmark>/<variant>".to_string());
    };
    let (benchmark, variant) = experiment
        .split_once('/')
        .ok_or("experiment must be <benchmark>/<variant>")?;
    let template = experiment_template(benchmark, variant)
        .ok_or_else(|| format!("unknown experiment `{benchmark}/{variant}`"))?;
    print!("{template}");
    Ok(())
}

pub fn cmd_fig14(algorithm: Option<&str>) -> Result<(), String> {
    let algorithm = match algorithm {
        None | Some("linear") => None,
        Some("tree") => Some(BcastAlgorithm::BinomialTree),
        Some("sag") => Some(BcastAlgorithm::ScatterAllgather),
        Some(other) => return Err(format!("unknown algorithm `{other}` (linear|tree|sag)")),
    };
    let dir = std::env::temp_dir().join("benchpark-cli-fig14");
    let _ = std::fs::remove_dir_all(&dir);
    let study = scaling::bcast_scaling_study("cts1", algorithm, dir)?;
    print!("{}", study.render());
    Ok(())
}
