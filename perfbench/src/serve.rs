//! `serve_replay`: one `ServeDaemon` (one worker) over a seeded shard root.
//! One op is one wave: `intake_text` of a fixed number of request lines,
//! then `drain()`. Each daemon lifetime (an epoch) replays the same waves
//! over a restored copy of the seeded root, so every epoch must leave the
//! same `foms/` and `ledger/` trees.

use crate::corpus::{
    copy_tree, disk_bytes, files_under, template_variant, tree_digest, Rng, BENCHMARKS, SYSTEMS,
    TENANTS,
};
use crate::measure::{ms_since, Budget, Outcome, Scale, Tracer};
use benchpark_serve::{ServeConfig, ServeDaemon, ServeReport};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Pairs each tenant has measured before the replay starts.
const HISTORY_PER_TENANT: usize = 4;
/// Requests per wave that name a never-seen template variant.
const FRESH_PER_WAVE: usize = 1;

/// The generated request texts.
struct Replay {
    /// Lines that build the seeded root's history.
    history: String,
    /// One text per wave of an epoch.
    waves: Vec<String>,
}

/// Writes the template variants under `work/templates` and returns the
/// replay. The first wave names every measured pair once; in every wave,
/// one request names a new variant, cycling through the (benchmark, system)
/// pairs in a seeded order; every other request repeats a pair its tenant
/// has already measured (history or earlier this epoch).
fn generate(seed: u64, scale: &Scale, work: &Path) -> Result<Replay, String> {
    let mut rng = Rng::new(seed);
    let mut pairs: Vec<(&str, &str)> = BENCHMARKS
        .iter()
        .flat_map(|b| SYSTEMS.iter().map(move |s| (*b, *s)))
        .collect();
    // tenant i has measured pairs i..i+4 of a seeded order, so every pair
    // has history with half the tenants
    rng.shuffle(&mut pairs);
    let mut known: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    let mut holders: Vec<Vec<&str>> = vec![Vec::new(); pairs.len()];
    let mut history = String::new();
    for (t, tenant) in TENANTS.iter().enumerate() {
        for k in 0..HISTORY_PER_TENANT {
            let p = (t + k) % pairs.len();
            let (benchmark, system) = pairs[p];
            let request = format!("{benchmark}/openmp {system}");
            history.push_str(&format!("{tenant} {request}\n"));
            known.entry(tenant).or_default().push(request);
            holders[p].push(tenant);
        }
    }
    std::fs::create_dir_all(work.join("templates")).map_err(|e| e.to_string())?;
    let mut bumps: BTreeMap<&str, u32> = BTreeMap::new();
    let mut fresh_order = Vec::new();
    let mut waves = Vec::new();
    for wave in 0..scale.waves_per_epoch {
        let mut lines = Vec::new();
        let mut fresh = Vec::new();
        if wave == 0 {
            // a new daemon first sees each measured pair once: these run
            // setup and resolve against the tenant's fingerprint index
            for (p, (benchmark, system)) in pairs.iter().enumerate() {
                let tenant = holders[p][rng.below(holders[p].len())];
                lines.push(format!("{tenant} {benchmark}/openmp {system}"));
            }
        }
        for _ in 0..FRESH_PER_WAVE {
            if fresh_order.is_empty() {
                fresh_order = pairs.clone();
                rng.shuffle(&mut fresh_order);
            }
            let (benchmark, system) = fresh_order.pop().expect("refilled above");
            let bump = bumps.entry(benchmark).or_default();
            *bump += 1;
            let file = format!("templates/{benchmark}-v{bump}.yaml");
            std::fs::write(
                work.join(&file),
                template_variant(benchmark, "openmp", *bump)?,
            )
            .map_err(|e| format!("cannot write {file}: {e}"))?;
            let tenant = TENANTS[rng.below(TENANTS.len())];
            let request = format!("{benchmark}/openmp {system} template={file}");
            lines.push(format!("{tenant} {request}"));
            fresh.push((tenant, request));
        }
        while lines.len() < scale.requests_per_wave {
            let tenant = TENANTS[rng.below(TENANTS.len())];
            let mine = &known[tenant];
            lines.push(format!("{tenant} {}", mine[rng.below(mine.len())]));
        }
        rng.shuffle(&mut lines);
        waves.push(lines.join("\n") + "\n");
        for (tenant, request) in fresh {
            known.entry(tenant).or_default().push(request);
        }
    }
    Ok(Replay { history, waves })
}

/// Checks the daemon's running totals after a wave of `lines` requests.
fn check_wave(daemon: &ServeDaemon, before: &ServeReport, lines: u64) -> Result<(), String> {
    let report = daemon.report();
    if report.failed > 0 || report.rejected > 0 {
        return Err(format!(
            "{} failed, {} rejected: {:?} {:?}",
            report.failed,
            report.rejected,
            report.failures.first(),
            report.rejections.first().map(|r| &r.detail)
        ));
    }
    if report.completed != report.admitted {
        return Err(format!(
            "completed {} != admitted {}",
            report.completed, report.admitted
        ));
    }
    let done = report.completed - before.completed;
    if done != lines {
        return Err(format!("wave completed {done} of {lines} requests"));
    }
    Ok(())
}

/// The digests of the `foms/` and `ledger/` trees an epoch leaves.
fn epoch_digests(root: &Path) -> Result<(String, String), String> {
    Ok((
        tree_digest(&root.join("foms"))?,
        tree_digest(&root.join("ledger"))?,
    ))
}

/// Resets `root` to the seeded state for a new daemon lifetime: seeded
/// shards are rewritten in place, and the shards and flushed files of the
/// last epoch are removed. Workspaces stay: each epoch's requests reuse the
/// same workspace paths and rewrite every file in them, which keeps file
/// creation and deletion (slow and erratic on a shared disk) out of the
/// timed waves.
fn restore_root(seeded: &Path, root: &Path) -> Result<(), String> {
    let ledger = root.join("ledger");
    if ledger.exists() {
        for rel in files_under(&ledger)? {
            if !seeded.join(&rel).exists() {
                std::fs::remove_file(ledger.join(&rel)).map_err(|e| e.to_string())?;
            }
        }
    }
    let _ = std::fs::remove_dir_all(root.join("foms"));
    for name in ["status.json", "metrics.prom"] {
        let _ = std::fs::remove_file(root.join(name));
    }
    copy_tree(seeded, &ledger)
}

pub fn run(seed: u64, scale: &Scale, mut budget: Budget, work: &Path) -> Result<Outcome, String> {
    let mut outcome = Outcome::new(format!(
        "one wave of {} requests (intake, drain) from {} tenants",
        scale.requests_per_wave,
        TENANTS.len()
    ));
    let replay = generate(seed, scale, work)?;

    // the seeded root: every tenant's history, measured by a daemon
    let seeded = work.join("seeded");
    let mut daemon = ServeDaemon::new(ServeConfig::new(&seeded))?;
    daemon.intake_text(&replay.history, work);
    daemon.drain()?;
    let lines = replay.history.lines().count() as u64;
    check_wave(&daemon, &ServeReport::default(), lines)
        .map_err(|e| format!("seeding the history: {e}"))?;
    drop(daemon);

    let root = work.join("root");
    let mut reference: Option<(String, String)> = None;
    let mut epoch = 0usize;
    loop {
        // the first epoch is an untimed warm-up that fixes the reference
        // digests; the budget governs the rest
        let traced = if epoch == 0 {
            false
        } else {
            match budget.next_cycle(&outcome) {
                Some(traced) => traced,
                None => break,
            }
        };
        epoch += 1;
        restore_root(&seeded.join("ledger"), &root)?;
        let start = Instant::now();
        let daemon = ServeDaemon::new(ServeConfig::new(&root));
        outcome.setup_s.push(start.elapsed().as_secs_f64());
        let mut daemon = daemon?;
        for wave in &replay.waves {
            let before = daemon.report().clone();
            let mut tracer = Tracer::new(traced);
            let start = Instant::now();
            tracer.call("serve.intake_ms", || daemon.intake_text(wave, work));
            let drained = tracer.call("serve.drain_ms", || daemon.drain().map(|_| ()));
            let op_ms = ms_since(start);
            let lines = wave.lines().count() as u64;
            let checked = drained.and_then(|()| check_wave(&daemon, &before, lines));
            let report = daemon.report();
            let done = report.completed - before.completed;
            tracer.count("serve.completed", done as f64);
            tracer.count("serve.fastpath", (report.fastpath - before.fastpath) as f64);
            let cached = report.experiments_cached - before.experiments_cached;
            tracer.count("serve.cached", cached as f64);
            let fresh = report.experiments_fresh - before.experiments_fresh;
            tracer.count("serve.fresh", fresh as f64);
            if traced {
                black_box(tracer.call("serve.status_ms", || daemon.status().to_json()));
                let flushed: u64 = ["foms", "status.json", "metrics.prom"]
                    .iter()
                    .map(|name| disk_bytes(&root.join(name)))
                    .sum();
                tracer.count("flushed_bytes", flushed as f64);
            }
            if epoch > 1 {
                outcome.record_op(op_ms, done, tracer);
            }
            if let Err(e) = checked {
                if epoch == 1 {
                    return Err(format!("warm-up epoch: {e}"));
                }
                outcome.fail(format!("epoch {epoch}: {e}"));
            }
        }
        let digests = epoch_digests(&root)?;
        match &reference {
            None => reference = Some(digests),
            Some(want) if *want != digests => {
                outcome.fail_extra(format!("epoch {epoch}: foms/ledger trees differ"))
            }
            Some(_) => {}
        }
    }
    Ok(outcome)
}
