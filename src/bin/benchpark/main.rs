//! The `benchpark` command-line driver (paper Figure 1a, `bin/benchpark`;
//! Figure 1c step 2: `/bin/benchpark $experiment $system $workspace_dir`).
//!
//! ```text
//! benchpark list systems                 # available system profiles
//! benchpark list experiments             # available benchmark/variant pairs
//! benchpark tree                         # Figure 1a directory structure
//! benchpark table1                       # Table 1, regenerated
//! benchpark skeleton <dir>               # write the repository skeleton
//! benchpark setup <bench>/<variant> <system> <dir>   # steps 1–7
//! benchpark run   <bench>/<variant> <system> <dir>   # steps 1–9 + results
//! benchpark fig14 [linear|tree|sag]      # the Figure 14 scaling study
//! benchpark trace <bench>/<variant> <system> <dir> [--faults] [--jobs N]
//!                 [--export <dir>] [--format json] [--allow-failed]  # run + telemetry report
//! benchpark history <ledger.jsonl>       # replay a persisted run ledger
//! benchpark regress <ledger.jsonl> [--threshold P]  # cross-run regression scan
//! benchpark regress --bench <BENCH.json>... [--threshold P]  # bench-trajectory gate
//! benchpark bench [--quick] [--out PATH]  # run the hot-path suite, emit BENCH json
//! benchpark lint [paths...] [--deny warnings] [--solve] [--format json]  # static analysis
//! benchpark explain <spec> [--system NAME]   # dry-solve one spec, with justification
//! benchpark serve --root DIR --replay FILE [--jobs N] [--slo FILE]  # multi-tenant drain
//! benchpark submit --root DIR <tenant> <bench>/<variant> <system>  # spool a request
//! benchpark drain --root DIR [--jobs N]   # drain the spool
//! benchpark status <root> [--format json] [--check]  # service status + SLO verdicts
//! ```
//!
//! One module per subcommand family; this file is the dispatch table and the
//! usage text.

mod bench_cmd;
mod explain_cmd;
mod ledger_cmds;
mod lint_cmd;
mod serve_cmd;
mod status_cmd;
mod trace_cmd;
mod workspace_cmds;

use benchpark::core::{render_table1, render_tree};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => workspace_cmds::cmd_list(args.get(1).map(String::as_str)),
        Some("tree") => {
            print!("{}", render_tree());
            Ok(())
        }
        Some("table1") => {
            print!("{}", render_table1());
            Ok(())
        }
        Some("skeleton") => workspace_cmds::cmd_skeleton(args.get(1)),
        Some("setup") => workspace_cmds::cmd_workspace(&args[1..], false),
        Some("run") => workspace_cmds::cmd_workspace(&args[1..], true),
        Some("fig14") => workspace_cmds::cmd_fig14(args.get(1).map(String::as_str)),
        Some("trace") => trace_cmd::cmd_trace(&args[1..]),
        Some("history") => ledger_cmds::cmd_history(&args[1..]),
        Some("regress") => ledger_cmds::cmd_regress(&args[1..]),
        Some("bench") => bench_cmd::cmd_bench(&args[1..]),
        Some("fingerprints") => ledger_cmds::cmd_fingerprints(&args[1..]),
        Some("template") => workspace_cmds::cmd_template(&args[1..]),
        Some("lint") => lint_cmd::cmd_lint(&args[1..]),
        Some("explain") => explain_cmd::cmd_explain(&args[1..]),
        Some("serve") => serve_cmd::cmd_serve(&args[1..]),
        Some("submit") => serve_cmd::cmd_submit(&args[1..]),
        Some("drain") => serve_cmd::cmd_drain(&args[1..]),
        Some("status") => status_cmd::cmd_status(&args[1..]),
        _ => {
            eprintln!("{}", USAGE);
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("benchpark: error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  benchpark list systems|experiments
  benchpark tree
  benchpark table1
  benchpark skeleton <dir>
  benchpark setup <benchmark>/<variant> <system> <workspace_dir>
  benchpark run   <benchmark>/<variant> <system> <workspace_dir>
  benchpark fig14 [linear|tree|sag]
  benchpark trace <benchmark>/<variant> <system> <workspace_dir>
                  [--faults] [--jobs N] [--export <dir>] [--ledger <path>] [--force]
                  [--template <file>] [--format text|json] [--allow-failed]
  benchpark history <ledger.jsonl|shard-root>
  benchpark regress <ledger.jsonl|shard-root> [--threshold P]
  benchpark regress --bench <BENCH.json>... [--threshold P] [--absolute]
  benchpark bench [--quick] [--samples N] [--filter SUBSTR] [--out PATH] [--list]
  benchpark fingerprints <ledger.jsonl|shard-root>
  benchpark template <benchmark>/<variant>
  benchpark lint [paths...] [--deny warnings] [--solve] [--format text|json]
  benchpark explain <spec> [--system NAME] [--format text|json]
  benchpark serve --root DIR [--replay FILE] [--jobs N] [--max-queued N]
                  [--max-inflight N] [--global-queued N] [--quantum N]
                  [--report PATH] [--slo FILE] [--status-out PATH]
  benchpark submit --root DIR <tenant> <benchmark>/<variant> <system>
                   [faults] [template=PATH]
  benchpark drain --root DIR [--jobs N] [--report PATH] [--slo FILE]
                  [--status-out PATH]
  benchpark status <root|status.json> [--format text|json] [--check]

options:
  --faults   (trace) strike the run with a seeded transient-fault plan
  --jobs N   (trace) number of execution-engine workers for package installs
             (default 4; outcomes are byte-identical for any N >= 1)
  --export DIR      (trace) write trace.json (canonical Chrome trace),
                    trace.wall.json, flame.folded, metrics.prom into DIR and
                    append the run to DIR/ledger.jsonl
  --ledger PATH     (trace) consult PATH for cached experiment results by
                    content fingerprint and skip re-executing hits (defaults
                    to DIR/ledger.jsonl when --export DIR is given)
  --force           (trace) re-execute experiments even on fingerprint hits
  --template FILE   (trace) use FILE as the ramble.yaml experiment template
                    instead of the built-in one (see `benchpark template`)
  --allow-failed    (trace) exit 0 even when experiments failed
  --threshold P     (regress) relative regression threshold (default 0.05;
                    0.10 with --bench)
  --bench           (regress) compare BENCH_*.json reports (chronological
                    order; the last file is gated against the earlier ones)
                    instead of a FOM ledger. Reports are speed-calibrated:
                    each is rescaled by its median per-bench ratio to the
                    latest report over the shared benches, so a uniformly
                    slower machine does not flag everything — only benches
                    that moved relative to the rest of the suite
  --absolute        (regress --bench) skip speed calibration and compare
                    raw medians (same-machine A/B runs)
  --quick           (bench) 3 timed samples instead of 7 (same workload
                    sizes, so medians stay comparable — for local
                    iteration; gates want the full 7 samples)
  --samples N       (bench) explicit timed sample count (minimum 2)
  --filter SUBSTR   (bench) run only benches whose name contains SUBSTR
  --out PATH        (bench) write the report to PATH (a directory gets the
                    conventional BENCH_<date>.json name inside it)
  --list            (bench) list bench names and exit without measuring
  --deny warnings   (lint) treat warnings as errors for the exit code
  --solve           (lint) also dry-concretize every spec in each set against
                    the set's own site configuration (BP05xx rules:
                    unsatisfiable specs with justification chains, dead
                    variants, ambiguous virtual providers, conflicting
                    constraint pairs)
  --system NAME     (explain) solve against this system profile
                    (default example_cts)
  --format FMT      (trace, lint, explain) output format: text (default)
                    or json
  --root DIR        (serve, submit, drain) the service root: ledger shards
                    under DIR/ledger/<tenant>/<system>.jsonl, FOM
                    transcripts under DIR/foms/, request spool at DIR/queue
  --replay FILE     (serve) intake requests from FILE instead of the spool
                    (one `<tenant> <benchmark>/<variant> <system> [faults]
                    [template=PATH]` per line; `#` comments allowed)
  --jobs N          (serve, drain) worker-pool width per scheduler batch
                    (default 1; shards and FOM transcripts are
                    byte-identical for any N >= 1)
  --max-queued N    (serve, drain) per-tenant queue quota (default 1024)
  --global-queued N (serve, drain) global queue quota (default 8192)
  --max-inflight N  (serve, drain) per-tenant in-flight cap per batch
                    (default 4)
  --quantum N       (serve, drain) deficit round-robin quantum (default 2)
  --report PATH     (serve, drain) also write the throughput report as JSON
                    to PATH
  --slo FILE        (serve, drain) evaluate declarative SLO targets (one
                    `<metric> <=|>= <threshold>` per line, e.g.
                    `p99_queue_wait <= 2048 ticks`) over fast/slow burn
                    horizons; verdicts land in the status snapshot
  --status-out PATH (serve, drain) atomically write the live status
                    snapshot (JSON) to PATH after every drain round; the
                    final snapshot always lands at DIR/status.json
  --check           (status) exit non-zero when any SLO verdict is FAIL";
