//! Property: sharded ledgers are observationally equivalent to one ledger.
//!
//! Any interleaving of per-tenant appends (FIFO within a tenant, arbitrary
//! across tenants) followed by merge-on-query yields exactly the records —
//! and exactly the `history` / `regress` verdicts — of a single-file ledger
//! holding the union in canonical shard order. A second test drains the
//! same requests through the in-process serve daemon at `--jobs 1` and
//! `--jobs 8` and asserts the merged views agree.

mod common;

use benchpark::bench::synth_ledger_lines;
use benchpark::core::{
    append_run, load_ledger, scan_regressions, shard_path, RunRecord, ShardedLedger,
};
use benchpark::telemetry::TelemetrySink;
use common::TempDir;
use proptest::prelude::*;

const TENANTS: [&str; 3] = ["alice", "bob", "carol"];

fn temp_base(tag: &str) -> TempDir {
    let dir = TempDir::new(&format!("benchpark-shard-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A compact, order-sensitive digest of what `benchpark history` would
/// print: one line per run in ledger order.
fn history_digest(runs: &[RunRecord]) -> String {
    runs.iter()
        .map(|run| {
            format!(
                "#{} {}/{} on {} {}/{} ok\n",
                run.sequence,
                run.benchmark,
                run.variant,
                run.system,
                run.results.len() - run.failed_experiments(),
                run.results.len()
            )
        })
        .collect()
}

/// The full regression-scan verdict, rendered — byte-equal verdicts mean
/// `benchpark regress` prints the same thing and exits the same way.
fn regress_digest(load: &benchpark::core::LedgerLoad) -> String {
    scan_regressions(&load.runs, 0.05)
        .iter()
        .map(|report| format!("{}\n", report.render()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For every tenant assignment and every cross-tenant interleaving of
    /// the append stream, the merged shard view equals a single-file ledger
    /// over the canonical union — same records, same history lines, same
    /// regression verdicts.
    #[test]
    fn interleaved_shard_appends_match_single_ledger(
        assignment in proptest::collection::vec(0usize..3, 6..20),
        picks in proptest::collection::vec(0usize..3, 32),
    ) {
        let n = assignment.len();
        let records: Vec<RunRecord> = synth_ledger_lines(n)
            .iter()
            .map(|line| RunRecord::parse_line(line).expect("synthetic line parses"))
            .collect();

        // per-tenant FIFO queues in submission order
        let mut queues: Vec<Vec<usize>> = vec![Vec::new(); TENANTS.len()];
        for (i, &tenant) in assignment.iter().enumerate() {
            queues[tenant].push(i);
        }

        // an arbitrary interleaving that preserves each tenant's FIFO order
        let mut cursors = vec![0usize; TENANTS.len()];
        let mut interleaved: Vec<(usize, usize)> = Vec::with_capacity(n); // (tenant, record)
        let mut pick_at = 0usize;
        while interleaved.len() < n {
            let nonempty: Vec<usize> = (0..TENANTS.len())
                .filter(|&t| cursors[t] < queues[t].len())
                .collect();
            let t = nonempty[picks[pick_at % picks.len()] % nonempty.len()];
            pick_at += 1;
            interleaved.push((t, queues[t][cursors[t]]));
            cursors[t] += 1;
        }

        let base = temp_base("prop");
        let shard_root = base.join("ledger");
        for &(tenant, idx) in &interleaved {
            let path = shard_path(&shard_root, TENANTS[tenant], &records[idx].system);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            let mut record = records[idx].clone();
            append_run(&path, &mut record).expect("shard append succeeds");
        }

        // canonical union: tenant-sorted, then system-sorted, then FIFO —
        // exactly the order merge-on-query promises
        let mut canonical: Vec<(usize, String, usize)> = interleaved
            .iter()
            .map(|&(tenant, idx)| (tenant, records[idx].system.clone(), idx))
            .collect();
        canonical.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        let single = base.join("single.jsonl");
        for &(_, _, idx) in &canonical {
            let mut record = records[idx].clone();
            append_run(&single, &mut record).expect("single append succeeds");
        }

        let sink = TelemetrySink::noop();
        let sharded = ShardedLedger::load(&shard_root, &sink).expect("shards load");
        let reference = load_ledger(&single, &sink).expect("single ledger loads");

        prop_assert_eq!(sharded.merged.skipped, 0);
        prop_assert_eq!(reference.skipped, 0);
        let merged_lines: Vec<String> =
            sharded.merged.runs.iter().map(|r| r.to_json_line()).collect();
        let single_lines: Vec<String> =
            reference.runs.iter().map(|r| r.to_json_line()).collect();
        prop_assert_eq!(merged_lines, single_lines);
        prop_assert_eq!(
            history_digest(&sharded.merged.runs),
            history_digest(&reference.runs)
        );
        prop_assert_eq!(regress_digest(&sharded.merged), regress_digest(&reference));
    }
}

/// The in-process daemon drains the same replay at `--jobs 1` and
/// `--jobs 8` into separate roots: the merged history and regression
/// verdicts over the resulting shards agree, and the per-tenant FOM
/// transcripts are byte-identical.
#[test]
fn serve_drain_verdicts_agree_across_jobs() {
    use benchpark::serve::{ServeConfig, ServeDaemon};

    let base = temp_base("serve-jobs");
    let mut replay = String::new();
    for i in 0..24 {
        let tenant = TENANTS[i % TENANTS.len()];
        let system = ["cts1", "ats2"][(i / 3) % 2];
        replay.push_str(&format!("{tenant} saxpy/openmp {system}\n"));
    }

    let mut digests = Vec::new();
    for jobs in [1usize, 8] {
        let root = base.join(format!("jobs{jobs}"));
        let mut config = ServeConfig::new(&root);
        config.jobs = jobs;
        let mut daemon = ServeDaemon::new(config).expect("daemon boots");
        daemon.intake_text(&replay, &root);
        daemon.drain().expect("drain succeeds");
        let report = daemon.report();
        assert_eq!(report.completed, 24, "all requests complete at jobs={jobs}");
        assert_eq!(report.rejected, 0);

        let sink = TelemetrySink::noop();
        let sharded = ShardedLedger::load(&root.join("ledger"), &sink).expect("shards load");
        let foms: Vec<(String, String)> = TENANTS
            .iter()
            .map(|tenant| {
                let path = root.join("foms").join(format!("{tenant}.txt"));
                (
                    tenant.to_string(),
                    std::fs::read_to_string(path).expect("transcript exists"),
                )
            })
            .collect();
        digests.push((
            history_digest(&sharded.merged.runs),
            regress_digest(&sharded.merged),
            foms,
        ));
    }
    assert_eq!(digests[0].0, digests[1].0, "history verdicts differ");
    assert_eq!(digests[0].1, digests[1].1, "regress verdicts differ");
    assert_eq!(digests[0].2, digests[1].2, "FOM transcripts differ");
}
