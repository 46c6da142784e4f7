//! `pipeline_fresh`: one op is a fresh one-shot pipeline, the path
//! `benchpark trace` takes — `stage_setup` → `run` → `analyze` →
//! `stage_collect` + `to_record` → `append_run` — with no fingerprint
//! index, rotating through the demonstration matrix.
//!
//! Each matrix cell keeps one workspace directory, which every op of the
//! cell rewrites file by file: creating and deleting a workspace tree per op
//! made op times drift by 2× within minutes on a shared disk.

use crate::corpus::{demo_matrix, digest, Combo, Rng};
use crate::measure::{ms_since, Budget, Outcome, Tracer};
use benchpark_concretizer::Concretizer;
use benchpark_core::{append_run, experiment_template, Benchpark, RunSpec, SystemProfile};
use benchpark_ramble::{ExperimentResult, ExperimentStatus};
use benchpark_serve::fom_transcript;
use benchpark_spack::{InstallDatabase, InstallOptions, Installer};
use benchpark_spec::Spec;
use benchpark_telemetry::TelemetrySink;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Rotations between repeated set-ups. Set-ups are spread through the run,
/// so `setup_s`, their median, sees the same machine as the ops do; the
/// driver the timed ops use stays the first one.
const SETUP_EVERY: usize = 8;

/// One matrix cell with what its checks and probes need.
struct Cell {
    combo: Combo,
    template: String,
    profile: SystemProfile,
    /// Abstract specs of the cell's applications, for the probes.
    specs: Vec<Spec>,
    /// Digest of the FOM transcript every op of this cell must reproduce.
    digest: Option<String>,
}

/// The op: one fresh pipeline into `dir`, its record appended to `ledger`.
fn op(
    bp: &Benchpark,
    combo: &Combo,
    dir: &Path,
    ledger: &Path,
    tracer: &mut Tracer,
) -> Result<Vec<ExperimentResult>, String> {
    let spec = RunSpec::new(combo.benchmark, combo.variant, combo.system, dir);
    let mut staged = tracer.call("core.stage_setup_ms", || bp.stage_setup(&spec, None, false))?;
    tracer
        .call("cluster.run_ms", || staged.workspace.run())
        .map_err(|e| e.to_string())?;
    let analysis = tracer
        .call("ramble.analyze_ms", || staged.workspace.analyze(bp))
        .map_err(|e| e.to_string())?;
    let (collected, record) = tracer.call("core.collect_ms", || {
        let collected = bp.stage_collect(staged, analysis.results);
        let record = collected.to_record(None);
        (collected, record)
    });
    let mut record = record.ok_or("a fresh run produced no ledger record")?;
    tracer.call("core.ledger_append_ms", || append_run(ledger, &mut record))?;
    Ok(collected.results)
}

/// Checks one op's results against its cell, recording the reference
/// digest on first sight.
fn check(cell: &mut Cell, results: &[ExperimentResult]) -> Result<(), String> {
    let tag = cell.combo.tag();
    if results.is_empty() {
        return Err(format!("{tag}: no results"));
    }
    if let Some(bad) = results
        .iter()
        .find(|r| r.status != ExperimentStatus::Success)
    {
        return Err(format!("{tag}: {} is {:?}", bad.experiment, bad.status));
    }
    let got = digest(&fom_transcript(results));
    match &cell.digest {
        Some(want) if *want != got => Err(format!("{tag}: FOM digest {got} != {want}")),
        Some(_) => Ok(()),
        None => {
            cell.digest = Some(got);
            Ok(())
        }
    }
}

/// One set-up: a new driver and an untimed warm-up rotation, which fills its
/// site binary cache. Its wall time goes to `setup_s`; the warm-up outputs
/// are checked like ops'.
fn set_up(cells: &mut [Cell], work: &Path, outcome: &mut Outcome) -> Result<Benchpark, String> {
    let ledger = work.join("setup.jsonl");
    std::fs::write(&ledger, "").map_err(|e| format!("cannot reset the ledger: {e}"))?;
    let start = Instant::now();
    let bp = Benchpark::new().with_jobs(1);
    let mut warm = Vec::new();
    for cell in cells.iter() {
        let dir = work.join(cell.combo.tag());
        warm.push(op(&bp, &cell.combo, &dir, &ledger, &mut Tracer::new(false)));
    }
    outcome.setup_s.push(start.elapsed().as_secs_f64());
    for (cell, result) in cells.iter_mut().zip(warm) {
        if let Err(e) = result.and_then(|results| check(cell, &results)) {
            outcome.fail_extra(format!("warm-up: {e}"));
        }
    }
    Ok(bp)
}

/// The abstract application specs a staged workspace concretizes.
fn app_specs(bp: &Benchpark, combo: &Combo, dir: &Path) -> Result<Vec<Spec>, String> {
    let spec = RunSpec::new(combo.benchmark, combo.variant, combo.system, dir);
    let staged = bp.stage_setup(&spec, None, false)?;
    let config = staged
        .workspace
        .workspace
        .config()
        .ok_or("workspace has no config")?;
    let mut specs = Vec::new();
    for app_name in config.applications.keys() {
        let app = bp
            .app_repo
            .get(app_name)
            .ok_or_else(|| format!("unknown application `{app_name}`"))?;
        let text = config
            .resolved_spec(&app.software)
            .map_err(|e| e.to_string())?;
        specs.push(text.parse().map_err(|e| format!("{e}"))?);
    }
    Ok(specs)
}

/// The probes: calls made once per traced op on the op's own inputs,
/// timed but not part of the op total.
fn probe(bp: &Benchpark, cell: &Cell, tracer: &mut Tracer) -> Result<(), String> {
    black_box(tracer.call("lint.composition_ms", || {
        bp.lint_composition(&cell.template, &cell.profile)
    }));
    let site = cell.profile.site_config();
    let opts = InstallOptions {
        jobs: 1,
        ..InstallOptions::default()
    };
    for spec in &cell.specs {
        let dag = tracer
            .call("concretizer.concretize_ms", || {
                Concretizer::new(&bp.repo, &site).concretize(spec)
            })
            .map_err(|e| e.to_string())?;
        let installer = Installer::new(&bp.repo)
            .with_database(InstallDatabase::new())
            .with_cache(bp.site_cache());
        black_box(tracer.call("spack.install_ms", || installer.install(&dag, &opts)));
    }
    Ok(())
}

pub fn run(seed: u64, mut budget: Budget, work: &Path) -> Result<Outcome, String> {
    let mut outcome = Outcome::new(
        "one fresh trace pipeline (setup, run, analyze, collect, append) on a matrix cell",
    );
    let mut rng = Rng::new(seed);
    let mut cells = Vec::new();
    for combo in demo_matrix() {
        let template = experiment_template(combo.benchmark, combo.variant)
            .ok_or_else(|| format!("no template for {}", combo.tag()))?;
        let profile = SystemProfile::by_name(combo.system)
            .ok_or_else(|| format!("unknown system {}", combo.system))?;
        cells.push(Cell {
            combo,
            template,
            profile,
            specs: Vec::new(),
            digest: None,
        });
    }
    let mut bp = set_up(&mut cells, work, &mut outcome)?;
    for cell in &mut cells {
        cell.specs = app_specs(&bp, &cell.combo, &work.join(cell.combo.tag()))?;
    }

    let mut order: Vec<usize> = (0..cells.len()).collect();
    let ledger = work.join("rotation.jsonl");
    let mut rotation = 0;
    while let Some(traced) = budget.next_cycle(&outcome) {
        rotation += 1;
        if rotation % SETUP_EVERY == 0 {
            set_up(&mut cells, work, &mut outcome)?;
        }
        rng.shuffle(&mut order);
        std::fs::write(&ledger, "").map_err(|e| format!("cannot reset the ledger: {e}"))?;
        for &i in &order {
            let sink = TelemetrySink::recording();
            if traced {
                bp = bp.with_telemetry(sink.clone());
            }
            let dir = work.join(cells[i].combo.tag());
            let mut tracer = Tracer::new(traced);
            let start = Instant::now();
            let result = op(&bp, &cells[i].combo, &dir, &ledger, &mut tracer);
            let op_ms = ms_since(start);
            let checked = result.and_then(|results| {
                tracer.count("experiments", results.len() as f64);
                check(&mut cells[i], &results)
            });
            let probed = if traced {
                bp = bp.with_telemetry(TelemetrySink::noop());
                let report = sink.report().expect("a recording sink reports");
                for name in [
                    "concretizer.solves",
                    "cache.hit",
                    "cache.miss",
                    "scheduler.jobs_completed",
                ] {
                    tracer.count(name, report.counter(name) as f64);
                }
                probe(&bp, &cells[i], &mut tracer)
            } else {
                Ok(())
            };
            outcome.record_op(op_ms, 1, tracer);
            if let Err(e) = checked.and(probed) {
                outcome.fail(e);
            }
        }
    }
    Ok(outcome)
}
