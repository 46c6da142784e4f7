//! `ledger_ingest`: what CI does after each run lands. One op appends one
//! new record to a rotating shard (`append_run`), then runs the `regress`
//! gate — `ShardedLedger::load` → `to_database` → `scan_regressions` — and
//! builds the `FingerprintIndex` the next `trace --ledger` loads. Nothing is
//! kept in memory between ops. The ledger grows by one record per op through
//! a cycle and is truncated back to the seeded corpus after it, so every run
//! sees the same range of ledger sizes.

use crate::corpus::{Rng, BENCHMARKS, SYSTEMS, TENANTS};
use crate::measure::{ms_since, Budget, Outcome, Scale, Tracer};
use benchpark_core::{
    append_run, lower_is_better_units, scan_regressions, shard_path, Benchpark, FingerprintIndex,
    RegressionReport, RequestTrace, RunRecord, RunSpec, ShardedLedger,
};
use benchpark_telemetry::TelemetrySink;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The `benchpark regress` default threshold.
const THRESHOLD: f64 = 0.05;
/// Relative run-to-run spread of the FOMs in the corpus.
const NOISE: f64 = 0.015;
/// How much worse a seeded regression is.
const SLOWDOWN: f64 = 0.4;

/// One verdict as the gate's caller sees it.
type Verdict = (String, String, String, bool);

struct Shard {
    path: PathBuf,
    /// Length of the shard as written, restored after every cycle.
    base_len: u64,
    /// The record the next op appends: a re-run of the shard's latest.
    next: RunRecord,
}

/// A real pipeline record per (benchmark, system), telemetry summary
/// included.
fn base_records(work: &Path) -> Result<BTreeMap<(&'static str, &'static str), RunRecord>, String> {
    let mut base = BTreeMap::new();
    for benchmark in BENCHMARKS {
        for system in SYSTEMS {
            let sink = TelemetrySink::recording();
            let bp = Benchpark::new().with_jobs(1).with_telemetry(sink.clone());
            let dir = work.join(format!("base-{benchmark}-{system}"));
            let spec = RunSpec::new(benchmark, "openmp", system, &dir);
            let collected = bp.run_request(&spec, None, false)?;
            let record = collected
                .to_record(sink.report().as_ref())
                .ok_or("a fresh run produced no ledger record")?;
            if record.failed_experiments() > 0 {
                return Err(format!("{benchmark}/openmp on {system} failed"));
            }
            base.insert((benchmark, system), record);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    Ok(base)
}

/// Scales every numeric FOM of `record` by `factor(units)`.
fn scale_foms(record: &mut RunRecord, mut factor: impl FnMut(&str) -> f64) {
    for result in &mut record.results {
        for fom in &mut result.foms {
            if let Some(value) = fom.as_f64() {
                fom.value = format!("{:.6}", value * factor(&fom.units));
            }
        }
    }
}

/// Writes the shard root: `records_per_shard` noisy re-runs per
/// (tenant, system) shard, benchmarks in rotation, with a seeded regression
/// as the latest point of some series.
fn write_corpus(seed: u64, scale: &Scale, work: &Path, root: &Path) -> Result<Vec<Shard>, String> {
    let base = base_records(work)?;
    let mut rng = Rng::new(seed);
    let mut shards: Vec<(PathBuf, Vec<RunRecord>)> = Vec::new();
    let mut request_id = 0;
    for (t, tenant) in TENANTS.iter().enumerate() {
        for system in SYSTEMS {
            let mut records = Vec::new();
            for i in 0..scale.records_per_shard {
                let benchmark = BENCHMARKS[(i + t) % BENCHMARKS.len()];
                let mut record = base[&(benchmark, system)].clone();
                scale_foms(&mut record, |_| 1.0 + NOISE * rng.signed_unit());
                request_id += 1;
                record.sequence = i as u64 + 1;
                record.request = Some(RequestTrace {
                    tenant: tenant.to_string(),
                    request_id,
                    submit_tick: request_id,
                    queue_wait_ticks: rng.below(4) as u64,
                    schedule_ticks: 0,
                    execute_ticks: 1 + rng.below(8) as u64,
                    commit_ticks: 1,
                });
                records.push(record);
            }
            shards.push((shard_path(root, tenant, system), records));
        }
    }
    // the merged view orders shards by (tenant, system), so a series'
    // latest point sits in the last tenant's shard for that system
    let mut regressed = 0;
    for (_, records) in shards.iter_mut().rev().take(SYSTEMS.len()) {
        for benchmark in BENCHMARKS {
            let latest = records.iter_mut().rev().find(|r| r.benchmark == benchmark);
            if let Some(record) = latest.filter(|_| rng.below(2) == 0 || regressed == 0) {
                scale_foms(record, |units| {
                    if lower_is_better_units(units) {
                        1.0 + SLOWDOWN
                    } else {
                        1.0 - SLOWDOWN
                    }
                });
                regressed += 1;
            }
        }
    }
    let mut out = Vec::new();
    for (path, records) in shards {
        std::fs::create_dir_all(path.parent().expect("shard paths have a parent"))
            .map_err(|e| format!("cannot create shard dir: {e}"))?;
        let text: String = records.iter().map(|r| r.to_json_line() + "\n").collect();
        std::fs::write(&path, &text).map_err(|e| format!("cannot write shard: {e}"))?;
        let next = records.last().ok_or("empty shard")?.clone();
        out.push(Shard {
            path,
            base_len: text.len() as u64,
            next,
        });
    }
    Ok(out)
}

fn verdicts(reports: Vec<RegressionReport>) -> Vec<Verdict> {
    reports
        .into_iter()
        .map(|r| (r.benchmark, r.system, r.fom, r.regressed))
        .collect()
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("cannot stat `{}`: {e}", path.display()))
}

pub fn run(seed: u64, scale: &Scale, mut budget: Budget, work: &Path) -> Result<Outcome, String> {
    let mut outcome = Outcome::new(
        "append one record, then load, to_database, scan_regressions, fingerprint index",
    );
    let root = work.join("ledger");
    let shards = write_corpus(seed, scale, work, &root)?;
    let noop = TelemetrySink::noop();

    // set-up: the first load of the shard root; repeated at the start of
    // every cycle (the shards are back at their seeded length there), so
    // `setup_s`, the median, sees the same machine as the ops do
    let load = |outcome: &mut Outcome| {
        let start = Instant::now();
        let sharded = ShardedLedger::load(&root, &noop);
        outcome.setup_s.push(start.elapsed().as_secs_f64());
        sharded
    };
    let first = load(&mut outcome)?;
    let base_runs = first.len();
    let want_verdicts = verdicts(scan_regressions(&first.merged.to_database(), THRESHOLD));
    let want_index = FingerprintIndex::from_ledger(&first.merged).len();
    if first.merged.skipped > 0 || !want_verdicts.iter().any(|v| v.3) {
        return Err("the corpus must load cleanly and carry a regression".to_string());
    }
    drop(first);

    // appends land in the shards of every tenant but the last, whose shards
    // hold each series' latest point, so the gate's verdicts stay fixed
    let targets = &shards[..shards.len() - SYSTEMS.len()];
    let mut rng = Rng::new(seed ^ 0x1ed9e5);
    let mut request_id = 1_000_000;
    while let Some(traced) = budget.next_cycle(&outcome) {
        load(&mut outcome)?;
        let mut plan: Vec<usize> = (0..scale.appends_per_cycle)
            .map(|j| j % targets.len())
            .collect();
        rng.shuffle(&mut plan);
        for (j, &i) in plan.iter().enumerate() {
            let shard = &targets[i];
            let want_runs = base_runs + j + 1;
            request_id += 1;
            let mut record = shard.next.clone();
            if let Some(request) = &mut record.request {
                request.request_id = request_id;
            }
            let shard_len = file_len(&shard.path)?;
            let mut tracer = Tracer::new(traced);
            let start = Instant::now();
            let appended = tracer.call("core.ledger_append_ms", || {
                append_run(&shard.path, &mut record)
            });
            let loaded = tracer.call("core.ledger_load_ms", || ShardedLedger::load(&root, &noop));
            let checked = appended.and(loaded).map(|sharded| {
                let db = tracer.call("core.to_database_ms", || sharded.merged.to_database());
                let scanned =
                    tracer.call("core.regress_scan_ms", || scan_regressions(&db, THRESHOLD));
                let index = tracer.call("core.fingerprint_index_ms", || {
                    FingerprintIndex::from_ledger(&sharded.merged)
                });
                let op_ms = ms_since(start);
                let result = if sharded.merged.skipped != 0 {
                    Err(format!("{} ledger lines skipped", sharded.merged.skipped))
                } else if sharded.len() != want_runs {
                    Err(format!("loaded {} runs, want {want_runs}", sharded.len()))
                } else if verdicts(scanned) != want_verdicts {
                    Err("regress verdicts changed".to_string())
                } else if index.len() != want_index {
                    Err(format!("index holds {}, want {want_index}", index.len()))
                } else {
                    Ok(())
                };
                (op_ms, result)
            });
            let (op_ms, result) = checked.unwrap_or_else(|e| (ms_since(start), Err(e)));
            if traced {
                let read: u64 = shards.iter().map(|s| file_len(&s.path).unwrap_or(0)).sum();
                tracer.count("ledger_bytes", (read + shard_len) as f64);
            }
            outcome.record_op(op_ms, 1, tracer);
            if let Err(e) = result {
                outcome.fail(e);
            }
        }
        for shard in targets {
            std::fs::OpenOptions::new()
                .write(true)
                .open(&shard.path)
                .and_then(|f| f.set_len(shard.base_len))
                .map_err(|e| format!("cannot truncate shard: {e}"))?;
        }
    }
    Ok(outcome)
}
