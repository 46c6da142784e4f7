//! Ledger-reading subcommands: `history`, `regress`, `fingerprints`.
//!
//! Each accepts either a single `ledger.jsonl` file or a directory of
//! per-tenant shards (a serve root, or its `ledger/` subdirectory): the
//! sharded case loads the merge-on-query view, so the same queries run
//! unchanged over the union of every tenant's runs.

use benchpark::core::{load_ledger, scan_regressions, LedgerLoad, ShardedLedger};
use benchpark::telemetry::TelemetrySink;
use std::path::Path;

/// Loads `path` as a single-file ledger, or — when it is a directory — as
/// the merged view over its shards. A serve root (containing a `ledger/`
/// subdirectory) is accepted directly.
fn load_merged(path: &Path, sink: &TelemetrySink) -> Result<LedgerLoad, String> {
    if path.is_dir() {
        let root = if path.join("ledger").is_dir() {
            path.join("ledger")
        } else {
            path.to_path_buf()
        };
        Ok(ShardedLedger::load(&root, sink)?.merged)
    } else {
        load_ledger(path, sink)
    }
}

/// `benchpark history <ledger.jsonl|shard-root>` — lists every persisted
/// run: sequence, experiment provenance, success counts, and the resilience
/// counters that explain *why* a run was slow or partial. Corrupt ledger
/// lines are skipped and tallied, never fatal.
pub fn cmd_history(args: &[String]) -> Result<(), String> {
    let [ledger] = args else {
        return Err("expected <ledger.jsonl>".to_string());
    };
    let sink = TelemetrySink::noop();
    let load = load_merged(Path::new(ledger), &sink)?;
    if load.runs.is_empty() && load.skipped == 0 {
        println!("ledger is empty");
        return Ok(());
    }
    for run in &load.runs {
        let total = run.results.len();
        let ok = total - run.failed_experiments();
        let mut notes = Vec::new();
        for counter in ["retry.attempts", "sched.requeued", "cache.breaker.trips"] {
            let value = run.counter(counter);
            if value > 0 {
                notes.push(format!("{counter}={value}"));
            }
        }
        // schema-3 records minted by the serve daemon carry a request trace
        if let Some(trace) = &run.request {
            notes.push(format!(
                "tenant={} wait={}t exec={}t",
                trace.tenant, trace.queue_wait_ticks, trace.execute_ticks
            ));
        }
        let notes = if notes.is_empty() {
            String::new()
        } else {
            format!("  [{}]", notes.join(" "))
        };
        println!(
            "#{:<3} {}/{} on {:<9} {:>2}/{} experiments ok{}",
            run.sequence, run.benchmark, run.variant, run.system, ok, total, notes
        );
    }
    if load.skipped > 0 {
        println!(
            "({} corrupt or unknown-schema line(s) skipped)",
            load.skipped
        );
    }
    Ok(())
}

/// `benchpark fingerprints <ledger.jsonl|shard-root>` — lists every cached
/// experiment the ledger can satisfy: fingerprint, run sequence, provenance,
/// and status. This is exactly the index `benchpark trace --ledger` consults,
/// so it answers "what would a re-run skip?".
pub fn cmd_fingerprints(args: &[String]) -> Result<(), String> {
    use benchpark::core::FingerprintIndex;
    let [ledger] = args else {
        return Err("expected <ledger.jsonl>".to_string());
    };
    let sink = TelemetrySink::noop();
    let load = load_merged(Path::new(ledger), &sink)?;
    let index = FingerprintIndex::from_ledger(&load);
    if index.is_empty() {
        println!("no reusable experiment records (run `benchpark trace --export` first)");
        return Ok(());
    }
    for entry in index.iter() {
        println!(
            "{}  #{:<3} {}/{} on {:<9} {}",
            entry.fingerprint,
            entry.sequence,
            entry.benchmark,
            entry.variant,
            entry.system,
            entry.result.experiment
        );
    }
    println!(
        "{} reusable experiment record(s) across {} run(s)",
        index.len(),
        load.runs.len()
    );
    Ok(())
}

/// `benchpark regress <ledger.jsonl|shard-root> [--threshold P]` — replays
/// the ledger into a metrics database and scans every (benchmark, system,
/// FOM) triple for regressions, directions inferred from FOM units. Exits
/// non-zero when any triple regressed.
///
/// `benchpark regress --bench <BENCH.json>... [--threshold P]` — the same
/// statistical gate applied to the repository's own bench trajectory: the
/// files are a chronological series of `benchpark bench` reports, and the
/// last one is compared against the medians of all the earlier ones. The
/// default threshold is coarser (10%) because bench wall-clock numbers cross
/// machines in CI; see `docs/perf/methodology.md`.
pub fn cmd_regress(args: &[String]) -> Result<(), String> {
    let mut threshold: Option<f64> = None;
    let mut bench_mode = false;
    let mut absolute = false;
    let mut positional: Vec<&String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threshold" => {
                let value = iter.next().ok_or("--threshold needs a value")?;
                threshold = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--threshold expects a number, got `{value}`"))?,
                );
            }
            "--bench" => bench_mode = true,
            "--absolute" => absolute = true,
            _ => positional.push(arg),
        }
    }
    if bench_mode {
        return cmd_regress_bench(&positional, threshold.unwrap_or(0.10), absolute);
    }
    if absolute {
        return Err("--absolute only applies to --bench trajectories".to_string());
    }
    let threshold = threshold.unwrap_or(0.05);
    let [ledger] = positional.as_slice() else {
        return Err("expected <ledger.jsonl> [--threshold P]".to_string());
    };
    let sink = TelemetrySink::recording();
    let load = load_merged(Path::new(ledger), &sink)?;
    if load.skipped > 0 {
        eprintln!(
            "warning: skipped {} corrupt or unknown-schema ledger line(s)",
            load.skipped
        );
    }
    if load.runs.is_empty() {
        return Err(format!("ledger `{ledger}` holds no readable runs"));
    }
    let db = load.to_database();
    let reports = scan_regressions(&db, threshold);
    if reports.is_empty() {
        println!(
            "no FOM has enough history for a verdict ({} run(s) loaded; need >= 3 with successes)",
            load.runs.len()
        );
        return Ok(());
    }
    let mut regressed = 0usize;
    for report in &reports {
        println!("{}", report.render());
        if report.regressed {
            regressed += 1;
        }
    }
    if regressed > 0 {
        Err(format!(
            "{regressed} of {} FOM histories regressed beyond {:.0}%",
            reports.len(),
            threshold * 100.0
        ))
    } else {
        println!(
            "\nall {} FOM histories within {:.0}% of baseline",
            reports.len(),
            threshold * 100.0
        );
        Ok(())
    }
}

/// The `--bench` arm of [`cmd_regress`]: parses each file as a
/// [`benchpark::core::BenchReport`], compares the last against the earlier
/// ones, prints one verdict per bench, and exits non-zero when any bench
/// regressed beyond the threshold *and* the 2σ noise band.
fn cmd_regress_bench(files: &[&String], threshold: f64, absolute: bool) -> Result<(), String> {
    use benchpark::core::{
        calibration_speed_factor, compare_bench_reports, compare_bench_reports_calibrated,
        BenchReport,
    };
    if files.len() < 2 {
        return Err(
            "expected at least two BENCH_*.json files in chronological order (baseline... latest)"
                .to_string(),
        );
    }
    let mut reports = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read bench report `{file}`: {e}"))?;
        let report =
            BenchReport::parse(&text).map_err(|e| format!("bench report `{file}`: {e}"))?;
        reports.push(report);
    }
    let refs: Vec<&BenchReport> = reports.iter().collect();
    let comparisons = if absolute {
        compare_bench_reports(&refs, threshold)
    } else {
        compare_bench_reports_calibrated(&refs, threshold)
    };
    if !absolute {
        match calibration_speed_factor(&refs) {
            Some(factor) => println!(
                "machine speed vs baseline: {factor:.2}x (median per-bench ratio over shared benches; \
                 uniform shifts are calibrated out — pass --absolute to compare raw numbers)"
            ),
            None => println!(
                "trajectory not calibratable (fewer than two shared benches); comparing raw numbers"
            ),
        }
    }
    if comparisons.is_empty() {
        println!(
            "no bench in the latest report has a baseline sighting across {} earlier report(s)",
            reports.len() - 1
        );
        return Ok(());
    }
    let mut regressed = 0usize;
    let mut improved = 0usize;
    for comparison in &comparisons {
        println!("{}", comparison.render());
        if comparison.regressed {
            regressed += 1;
        }
        if comparison.improved {
            improved += 1;
        }
    }
    let fresh = reports
        .last()
        .map(|r| r.results.len() - comparisons.len())
        .unwrap_or(0);
    if fresh > 0 {
        println!("({fresh} bench(es) have no baseline yet and were skipped)");
    }
    if regressed > 0 {
        Err(format!(
            "{regressed} of {} bench trajectories regressed beyond {:.0}%",
            comparisons.len(),
            threshold * 100.0
        ))
    } else {
        println!(
            "\nall {} bench trajectories within {:.0}% of baseline ({improved} improved)",
            comparisons.len(),
            threshold * 100.0
        );
        Ok(())
    }
}
