//! Queries over the run ledger — the metrics database of Figure 6 and §5's
//! results-with-manifests goal. Every query takes the runs as a slice, in
//! sequence order: a [`crate::LedgerLoad`]'s `runs`, or a `Vec` of
//! [`RunRecord::from_run`] records built in process.

use crate::ledger::RunRecord;
use benchpark_ramble::ExperimentStatus;
use std::collections::BTreeMap;

/// `(x, y)` series of a FOM against a numeric experiment variable —
/// e.g. `triad_bw` against `n_threads` — for one benchmark/system.
pub fn fom_series(
    runs: &[RunRecord],
    benchmark: &str,
    system: &str,
    fom: &str,
    x_variable: &str,
) -> Vec<(f64, f64)> {
    let mut points: Vec<(f64, f64)> = runs
        .iter()
        .filter(|run| run.benchmark == benchmark && run.system == system)
        .flat_map(|run| &run.results)
        .filter(|r| r.status == ExperimentStatus::Success)
        .filter_map(|r| {
            let x: f64 = r.variables.get(x_variable)?.parse().ok()?;
            let y = r.foms.iter().find(|f| f.name == fom)?.as_f64()?;
            Some((x, y))
        })
        .collect();
    points.sort_by(|a, b| a.0.total_cmp(&b.0));
    points
}

/// Benchmark usage counts (§5: *"collecting metrics on benchmark usage —
/// which codes in Benchpark are accessed most heavily"*), in experiment
/// results, most-used first.
pub fn usage_counts(runs: &[RunRecord]) -> Vec<(String, usize)> {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for run in runs.iter().filter(|run| !run.results.is_empty()) {
        *counts.entry(&run.benchmark).or_insert(0) += run.results.len();
    }
    let mut out: Vec<(String, usize)> = counts
        .into_iter()
        .map(|(benchmark, n)| (benchmark.to_string(), n))
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

/// A text dashboard: per (benchmark, system), experiment-result counts and
/// success rates — the "quick glance of the multi-dimensional performance
/// data" §5 asks a dashboard for.
pub fn render_dashboard(runs: &[RunRecord]) -> String {
    let mut groups: BTreeMap<(&str, &str), (usize, usize)> = BTreeMap::new();
    for run in runs.iter().filter(|run| !run.results.is_empty()) {
        let entry = groups
            .entry((&run.benchmark, &run.system))
            .or_insert((0, 0));
        entry.0 += run.results.len();
        entry.1 += run
            .results
            .iter()
            .filter(|r| r.status == ExperimentStatus::Success)
            .count();
    }
    let mut out = String::from("benchmark            system       runs  success\n");
    for ((benchmark, system), (runs, ok)) in groups {
        out.push_str(&format!(
            "{benchmark:<20} {system:<12} {runs:>4}  {ok:>4}/{runs}\n"
        ));
    }
    out
}
