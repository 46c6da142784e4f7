//! Multi-tenant service subcommands: `serve`, `submit`, `drain`.
//!
//! No network dependency: requests arrive as a replay file (`serve
//! --replay FILE`) or through the spool at `<root>/queue` (`submit`
//! appends, `drain`/`serve` consume). See `docs/SERVICE.md` for the
//! queue/fairness/quota semantics and a replay walkthrough.

use benchpark::serve::{ExperimentRequest, ServeConfig, ServeDaemon, SloSpec};
use std::path::{Path, PathBuf};

struct ServeArgs {
    root: PathBuf,
    replay: Option<PathBuf>,
    config: ServeConfig,
    report_path: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_serve_args(args: &[String]) -> Result<ServeArgs, String> {
    let mut root: Option<PathBuf> = None;
    let mut replay: Option<PathBuf> = None;
    let mut jobs = 1usize;
    let mut queue = benchpark::serve::QueueConfig::default();
    let mut report_path: Option<PathBuf> = None;
    let mut slo: Option<SloSpec> = None;
    let mut status_out: Option<PathBuf> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--slo" => {
                let file = iter.next().ok_or("--slo needs a file")?;
                let text = std::fs::read_to_string(file)
                    .map_err(|e| format!("cannot read SLO file `{file}`: {e}"))?;
                // malformed targets are a CLI error, not a daemon one
                slo = Some(SloSpec::parse(&text)?);
            }
            "--status-out" => {
                let path = iter.next().ok_or("--status-out needs a path")?;
                status_out = Some(PathBuf::from(path));
            }
            "--root" => {
                let dir = iter.next().ok_or("--root needs a directory")?;
                root = Some(PathBuf::from(dir));
            }
            "--replay" => {
                let file = iter.next().ok_or("--replay needs a file")?;
                replay = Some(PathBuf::from(file));
            }
            "--jobs" => {
                let value = iter.next().ok_or("--jobs needs a value")?;
                jobs = value
                    .parse()
                    .map_err(|_| format!("--jobs expects a positive integer, got `{value}`"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            "--max-queued" => {
                let value = iter.next().ok_or("--max-queued needs a value")?;
                queue.max_queued_per_tenant = value.parse().map_err(|_| {
                    format!("--max-queued expects a positive integer, got `{value}`")
                })?;
            }
            "--global-queued" => {
                let value = iter.next().ok_or("--global-queued needs a value")?;
                queue.max_queued_global = value.parse().map_err(|_| {
                    format!("--global-queued expects a positive integer, got `{value}`")
                })?;
            }
            "--max-inflight" => {
                let value = iter.next().ok_or("--max-inflight needs a value")?;
                queue.max_inflight_per_tenant = value.parse().map_err(|_| {
                    format!("--max-inflight expects a positive integer, got `{value}`")
                })?;
            }
            "--quantum" => {
                let value = iter.next().ok_or("--quantum needs a value")?;
                queue.quantum = value
                    .parse()
                    .map_err(|_| format!("--quantum expects a positive integer, got `{value}`"))?;
            }
            "--report" => {
                let path = iter.next().ok_or("--report needs a path")?;
                report_path = Some(PathBuf::from(path));
            }
            other => positional.push(other.to_string()),
        }
    }
    let root = root.ok_or("--root DIR is required")?;
    let mut config = ServeConfig::new(&root);
    config.queue = queue;
    config.jobs = jobs;
    config.slo = slo;
    config.status_out = status_out;
    Ok(ServeArgs {
        root,
        replay,
        config,
        report_path,
        positional,
    })
}

fn run_daemon(parsed: ServeArgs) -> Result<(), String> {
    let replay = match &parsed.replay {
        Some(file) => {
            let text = std::fs::read_to_string(file)
                .map_err(|e| format!("cannot read replay file `{}`: {e}", file.display()))?;
            let base = file
                .parent()
                .filter(|p| !p.as_os_str().is_empty())
                .unwrap_or(Path::new("."))
                .to_path_buf();
            Some((text, base))
        }
        None => None,
    };
    let mut daemon = ServeDaemon::new(parsed.config)?;
    match replay {
        Some((text, base)) => {
            daemon.intake_text(&text, &base);
            daemon.drain()?;
        }
        None => drain_spool(&mut daemon, &parsed.root)?,
    }
    let report = daemon.report();
    print!("{}", report.render());
    if let Some(path) = &parsed.report_path {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create `{}`: {e}", parent.display()))?;
        }
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("cannot write report `{}`: {e}", path.display()))?;
        eprintln!("wrote throughput report to {}", path.display());
    }
    Ok(())
}

/// The spool `submit` appends to.
fn spool_path(root: &Path) -> PathBuf {
    root.join("queue")
}

/// Where `drain` moves the spool before reading it.
fn claim_path(root: &Path) -> PathBuf {
    root.join("queue.claimed")
}

/// A claimed spool: its requests, and whether a drain that was
/// interrupted left it behind (rather than this drain claiming it).
struct Claim {
    text: String,
    leftover: bool,
}

/// Takes the next spool to drain: a claim an interrupted drain left
/// behind, else the live spool, moved to the claim path by one atomic
/// rename so a `submit` from then on starts a fresh spool. `None` when
/// there is neither.
fn claim_spool(root: &Path) -> Result<Option<Claim>, String> {
    let claim = claim_path(root);
    let leftover = claim.exists();
    if !leftover {
        let spool = spool_path(root);
        match std::fs::rename(&spool, &claim) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("cannot claim spool `{}`: {e}", spool.display())),
        }
    }
    let text = std::fs::read_to_string(&claim)
        .map_err(|e| format!("cannot read spool `{}`: {e}", claim.display()))?;
    Ok(Some(Claim { text, leftover }))
}

/// Drains one claim and deletes it only once its drain succeeded: a
/// failed or killed drain leaves the claim for the next one.
fn drain_claim(daemon: &mut ServeDaemon, root: &Path, claim: &Claim) -> Result<(), String> {
    daemon.intake_text(&claim.text, root);
    daemon.drain()?;
    // the claim is consumed: every line was either completed or rejected
    // with a recorded reason
    let path = claim_path(root);
    std::fs::remove_file(&path)
        .map_err(|e| format!("cannot consume spool `{}`: {e}", path.display()))
}

/// Drains the spool at `<root>/queue`: first any claim an interrupted
/// drain left behind, so its requests keep their place ahead of later
/// submissions, then the live spool.
fn drain_spool(daemon: &mut ServeDaemon, root: &Path) -> Result<(), String> {
    while let Some(claim) = claim_spool(root)? {
        drain_claim(daemon, root, &claim)?;
        if !claim.leftover {
            return Ok(());
        }
    }
    // nothing (more) spooled: drain anyway, so the outputs are flushed
    daemon.drain()?;
    Ok(())
}

/// `benchpark serve --root DIR [--replay FILE]` — boots the daemon over the
/// root's ledger shards, intakes the replay file (or the spool), drains the
/// queue with per-tenant fairness, and prints the throughput report.
pub fn cmd_serve(args: &[String]) -> Result<(), String> {
    let parsed = parse_serve_args(args)?;
    if !parsed.positional.is_empty() {
        return Err(format!(
            "unexpected serve argument `{}`",
            parsed.positional[0]
        ));
    }
    run_daemon(parsed)
}

/// `benchpark drain --root DIR` — drains the spool at `<root>/queue`
/// (exactly `serve` without `--replay`).
pub fn cmd_drain(args: &[String]) -> Result<(), String> {
    let parsed = parse_serve_args(args)?;
    if !parsed.positional.is_empty() {
        return Err(format!(
            "unexpected drain argument `{}`",
            parsed.positional[0]
        ));
    }
    if parsed.replay.is_some() {
        return Err("drain reads the spool; use `serve --replay` for files".to_string());
    }
    run_daemon(parsed)
}

/// `benchpark submit --root DIR <tenant> <benchmark>/<variant> <system>
/// [faults] [template=PATH]` — validates the request line and appends it to
/// the spool at `<root>/queue` for a later `benchpark drain`.
pub fn cmd_submit(args: &[String]) -> Result<(), String> {
    let parsed = parse_serve_args(args)?;
    if parsed.replay.is_some() {
        return Err("--replay does not apply to submit".to_string());
    }
    let line = parsed.positional.join(" ");
    let request = ExperimentRequest::parse_line(&line)?
        .ok_or("expected <tenant> <benchmark>/<variant> <system> [faults] [template=PATH]")?;
    std::fs::create_dir_all(&parsed.root)
        .map_err(|e| format!("cannot create root `{}`: {e}", parsed.root.display()))?;
    let spool = spool_path(&parsed.root);
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&spool)
        .map_err(|e| format!("cannot open spool `{}`: {e}", spool.display()))?;
    writeln!(file, "{}", request.to_line())
        .map_err(|e| format!("cannot append to spool `{}`: {e}", spool.display()))?;
    println!(
        "spooled {} for tenant {} (drain with `benchpark drain --root {}`)",
        request.to_line(),
        request.tenant,
        parsed.root.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("benchpark-spool-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn submit(root: &Path, request: &str) {
        let mut args = vec!["--root".to_string(), root.display().to_string()];
        args.extend(request.split(' ').map(str::to_string));
        cmd_submit(&args).unwrap();
    }

    /// A `submit` that lands after the drain claimed the spool goes to a
    /// fresh spool: the drain neither reads nor deletes it, and the next
    /// drain runs it.
    #[test]
    fn a_submit_after_the_claim_survives_the_drain() {
        let root = temp_root("claim");
        submit(&root, "alice saxpy/openmp cts1");
        let mut daemon = ServeDaemon::new(ServeConfig::new(&root)).unwrap();
        let claim = claim_spool(&root).unwrap().expect("the spool is claimed");
        assert!(!claim.leftover);
        assert!(!spool_path(&root).exists(), "the claim moved the spool");

        submit(&root, "bob stream/openmp cts1");
        drain_claim(&mut daemon, &root, &claim).unwrap();
        assert_eq!(daemon.report().completed, 1, "only the claimed request ran");
        assert!(!claim_path(&root).exists(), "the drained claim is deleted");
        assert_eq!(
            std::fs::read_to_string(spool_path(&root)).unwrap(),
            "bob stream/openmp cts1\n",
            "the later submission survives"
        );

        cmd_drain(&["--root".to_string(), root.display().to_string()]).unwrap();
        assert!(!spool_path(&root).exists());
        assert!(
            root.join("foms").join("bob.txt").exists(),
            "the next drain ran it"
        );
    }
}
