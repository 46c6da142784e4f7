//! The repository benchmark: three seeded workloads driven in-process
//! through the crates' public functions, one client, one thread.
//!
//! ```text
//! perfbench --workload <pipeline_fresh|serve_replay|ledger_ingest>
//!           --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced cycles and prints the per-layer split. The last line
//! of standard output is one JSON object; the exit code is non-zero when an
//! output check failed. See `perfbench/README.md`.

mod corpus;
mod ledger;
mod measure;
mod pipeline;
mod serve;

use measure::{Outcome, Scale};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["pipeline_fresh", "serve_replay", "ledger_ingest"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                seed = Some(v.parse().map_err(|_| format!("bad --seed `{v}`"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds `{v}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {v}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                });
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (want one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        tiny,
    })
}

fn run(args: &Args, work: &std::path::Path) -> Result<Outcome, String> {
    let scale = if args.tiny {
        Scale::tiny()
    } else {
        Scale::full()
    };
    let budget = measure::Budget::new(args.seconds, scale.min_ops, args.trace);
    match args.workload.as_str() {
        "pipeline_fresh" => pipeline::run(args.seed, budget, work),
        "serve_replay" => serve::run(args.seed, &scale, budget, work),
        "ledger_ingest" => ledger::run(args.seed, &scale, budget, work),
        other => unreachable!("workload `{other}` passed validation"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // scratch space inside the working directory, one per process
    let work = PathBuf::from(".perfbench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("cannot create `{}`: {e}", work.display()))
        .and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench_work");
    match result {
        Ok(outcome) => {
            outcome.print(&args.workload, args.seed, args.trace);
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::from(2)
        }
    }
}
