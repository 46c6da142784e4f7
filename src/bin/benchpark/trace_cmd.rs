//! `benchpark trace` — the one-shot instrumented pipeline, built on the
//! same staged setup → execute → collect path the serve daemon schedules.

use benchpark::core::{gate_failed_experiments, load_ledger, Benchpark};
use benchpark::telemetry::TelemetrySink;
use std::path::Path;

/// Runs the full setup → run → analyze pipeline with a recording telemetry
/// sink and prints the span tree, counters, and observations. With
/// `--faults`, a seeded transient-fault plan (flaky binary-cache fetches
/// plus one mid-run node failure) strikes the pipeline; the resilience
/// counters (`retry.attempts`, `cache.breaker.trips`, `sched.requeued`)
/// appear in the report. `--jobs N` sets the execution-engine worker
/// count for package installs; the engine guarantees the reports are
/// byte-identical for any `N`, so this only changes wall-clock behaviour.
///
/// `--export DIR` additionally writes the observability bundle (canonical +
/// wall Chrome traces, folded flamegraph, Prometheus text) into `DIR` and
/// appends the run to `DIR/ledger.jsonl` for later `benchpark history` /
/// `benchpark regress`. `--format json` prints the full report as one JSON
/// document instead of the text rendering. Unless `--allow-failed` is given,
/// the command exits non-zero when any experiment did not succeed (after
/// exporting, so failed runs still leave artifacts to debug).
///
/// Incremental re-benchmarking: when a run ledger is available — `--ledger
/// PATH`, or `DIR/ledger.jsonl` implied by `--export DIR` — each generated
/// experiment's content-addressed fingerprint is looked up in it, and
/// experiments with a valid successful record are *not* re-executed; their
/// stored FOMs and criteria are spliced into the report, marked `[cached]`.
/// Any input change (template, system config, application definition,
/// concrete spec, experiment variables) changes the fingerprint, so nothing
/// stale is ever reused. `--force` re-executes hits anyway (and appends the
/// fresh results). Only freshly executed experiments are appended to the
/// ledger — spliced results never re-enter it. `--template FILE` substitutes
/// a user-supplied `ramble.yaml` for the built-in experiment template (the
/// §4 path; pairs with `benchpark template` to dump a starting point).
pub fn cmd_trace(args: &[String]) -> Result<(), String> {
    use benchpark::core::{FingerprintIndex, RunSpec};
    use benchpark::ramble::AnalyzeReport;
    use std::path::PathBuf;

    let mut faults = false;
    let mut jobs: Option<usize> = None;
    let mut export: Option<String> = None;
    let mut format = "text".to_string();
    let mut allow_failed = false;
    let mut ledger_path: Option<String> = None;
    let mut force = false;
    let mut template_file: Option<String> = None;
    let mut positional: Vec<&String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--faults" => faults = true,
            "--jobs" => {
                let value = iter.next().ok_or("--jobs needs a value")?;
                let parsed: usize = value
                    .parse()
                    .map_err(|_| format!("--jobs expects a positive integer, got `{value}`"))?;
                if parsed == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                jobs = Some(parsed);
            }
            "--export" => {
                let dir = iter.next().ok_or("--export needs a directory")?;
                export = Some(dir.clone());
            }
            "--format" => {
                let fmt = iter.next().ok_or("--format needs a value (text|json)")?;
                if fmt != "text" && fmt != "json" {
                    return Err(format!("unknown format `{fmt}` (text|json)"));
                }
                format = fmt.clone();
            }
            "--allow-failed" => allow_failed = true,
            "--ledger" => {
                let path = iter.next().ok_or("--ledger needs a path")?;
                ledger_path = Some(path.clone());
            }
            "--force" => force = true,
            "--template" => {
                let path = iter.next().ok_or("--template needs a file")?;
                template_file = Some(path.clone());
            }
            _ => positional.push(arg),
        }
    }
    let [experiment, system, workspace_dir] = positional.as_slice() else {
        return Err(
            "expected <benchmark>/<variant> <system> <workspace_dir> [--faults] [--jobs N] \
             [--export <dir>] [--ledger <path>] [--force] [--template <file>] \
             [--format text|json] [--allow-failed]"
                .to_string(),
        );
    };
    let (benchmark, variant) = experiment
        .split_once('/')
        .ok_or("experiment must be <benchmark>/<variant>")?;

    let sink = TelemetrySink::recording();
    let mut benchpark = Benchpark::new().with_telemetry(sink.clone());
    if let Some(jobs) = jobs {
        benchpark = benchpark.with_jobs(jobs);
    }
    if faults {
        let nodes = benchpark::core::SystemProfile::by_name(system)
            .ok_or_else(|| format!("unknown system `{system}`"))?
            .machine()
            .nodes
            .saturating_sub(1);
        benchpark = benchpark.with_fault_plan(benchpark::serve::demo_fault_plan(system)?);
        println!("fault plan active: flaky cache fetches + {nodes}-node failure at t=0.25s\n");
    }

    // a --ledger path wins; --export DIR implies DIR/ledger.jsonl
    let ledger_file: Option<PathBuf> = ledger_path.map(PathBuf::from).or_else(|| {
        export
            .as_ref()
            .map(|dir| Path::new(dir).join("ledger.jsonl"))
    });
    let index: Option<FingerprintIndex> = match &ledger_file {
        Some(path) if path.exists() => {
            let load = load_ledger(path, &sink)?;
            Some(FingerprintIndex::from_ledger(&load))
        }
        _ => None,
    };

    let mut spec = RunSpec::new(benchmark, variant, system, workspace_dir);
    if let Some(path) = &template_file {
        let template = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read template `{path}`: {e}"))?;
        spec = spec.with_template(template);
    }
    let collected = benchpark.run_request(&spec, index.as_ref(), force)?;
    let report = sink.report().expect("recording sink has a report");

    if let Some(dir) = &export {
        let dir = Path::new(dir);
        let mut written = benchpark::obs::export_all(&report, dir)?;
        let all_fingerprints: Vec<(String, String)> = collected
            .fingerprints
            .iter()
            .map(|(name, fp)| (name.clone(), fp.hex()))
            .collect();
        written.push(benchpark::obs::export_results(
            &collected.results,
            &all_fingerprints,
            dir,
        )?);
        let ledger = dir.join("ledger.jsonl");
        // the ledger is a measurement log: only freshly executed results
        // are appended, each stamped with its fingerprint
        match collected.to_record(Some(&report)) {
            None => {
                eprintln!(
                    "exported {} into {}; every experiment was cached — {} unchanged",
                    written.join(", "),
                    dir.display(),
                    ledger.display()
                );
            }
            Some(mut record) => {
                let sequence = benchpark::core::append_run(&ledger, &mut record)?;
                eprintln!(
                    "exported {} into {} and appended run #{sequence} to {}",
                    written.join(", "),
                    dir.display(),
                    ledger.display()
                );
            }
        }
    }

    if format == "json" {
        println!("{}", benchpark::obs::report_to_json(&report));
    } else {
        let rendered = AnalyzeReport {
            results: collected.results.clone(),
        };
        print!("{}", rendered.render());
        if let Some(plan) = &collected.plan {
            println!("{}", plan.summary());
        }
        println!();
        print!("{}", report.render());
    }
    gate_failed_experiments(&collected.results, allow_failed)
}
