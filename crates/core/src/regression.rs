//! Performance-regression detection over time (paper §1: once a system is
//! in service, *"benchmarking is a useful tool for tracking system
//! performance over time and diagnosing hardware failures"*).
//!
//! Continuous benchmarking records each run into the [`MetricsDatabase`]
//! with a monotonically increasing sequence point; this module compares the
//! most recent sequence against the history and flags statistically
//! meaningful drops.

use crate::metrics::{MetricsDatabase, StoredResult};
use benchpark_ramble::ExperimentStatus;
use std::collections::BTreeMap;

/// The verdict for one FOM on one (benchmark, system).
#[derive(Debug, Clone)]
pub struct RegressionReport {
    pub benchmark: String,
    pub system: String,
    pub fom: String,
    /// Mean over all sequences before the latest.
    pub baseline_mean: f64,
    /// Standard deviation of the per-sequence baseline means.
    pub baseline_std: f64,
    /// Mean of the latest sequence.
    pub latest_mean: f64,
    /// Relative change of the latest vs baseline: negative = got worse for
    /// higher-is-better FOMs.
    pub change: f64,
    /// True if the latest run regressed beyond the threshold.
    pub regressed: bool,
    /// Number of sequences in the baseline.
    pub history_len: usize,
}

impl RegressionReport {
    /// Renders a one-line verdict.
    pub fn render(&self) -> String {
        format!(
            "{}/{} `{}`: baseline {:.4e} (±{:.1e}, n={}), latest {:.4e} ({:+.1}%) — {}",
            self.benchmark,
            self.system,
            self.fom,
            self.baseline_mean,
            self.baseline_std,
            self.history_len,
            self.latest_mean,
            self.change * 100.0,
            if self.regressed { "REGRESSION" } else { "ok" }
        )
    }
}

/// A `(benchmark, system, fom)` key, borrowed from the stored records.
type SeriesKey<'a> = (&'a str, &'a str, &'a str);

/// The successful numeric values of one FOM on one (benchmark, system).
#[derive(Default)]
struct Series<'a> {
    /// Units of the latest sighting, in database order.
    units: &'a str,
    /// Values per sequence point, in database order within each point.
    by_sequence: BTreeMap<u64, Vec<f64>>,
}

/// Groups the successful numeric FOMs of `records` by
/// `(benchmark, system, fom)` in one pass, without copying a record.
fn group_series<'a>(
    records: impl Iterator<Item = &'a StoredResult>,
) -> BTreeMap<SeriesKey<'a>, Series<'a>> {
    let mut series: BTreeMap<SeriesKey<'a>, Series<'a>> = BTreeMap::new();
    for record in records {
        if record.result.status != ExperimentStatus::Success {
            continue;
        }
        for f in &record.result.foms {
            let Some(value) = f.as_f64() else {
                continue;
            };
            let entry = series
                .entry((&record.benchmark, &record.system, &f.name))
                .or_default();
            entry.units = &f.units;
            entry
                .by_sequence
                .entry(record.sequence)
                .or_default()
                .push(value);
        }
    }
    series
}

impl Series<'_> {
    /// The latest sequence's mean against the earlier sequences' means, by
    /// [`baseline_verdict`]; `None` under 3 sequences.
    fn report(
        &self,
        (benchmark, system, fom): SeriesKey,
        higher_is_better: bool,
        threshold: f64,
    ) -> Option<RegressionReport> {
        let means: Vec<f64> = self
            .by_sequence
            .values()
            .map(|vs| vs.iter().sum::<f64>() / vs.len() as f64)
            .collect();
        let (&latest_mean, baseline) = means.split_last()?;
        if baseline.len() < 2 {
            return None;
        }
        let verdict = baseline_verdict(baseline, latest_mean, higher_is_better, threshold);
        Some(RegressionReport {
            benchmark: benchmark.to_string(),
            system: system.to_string(),
            fom: fom.to_string(),
            baseline_mean: verdict.baseline_mean,
            baseline_std: verdict.baseline_std,
            latest_mean,
            change: verdict.change,
            regressed: verdict.regressed,
            history_len: baseline.len(),
        })
    }
}

/// The statistic shared by every trajectory gate: FOM histories
/// ([`detect_regression`]) and bench trajectories
/// ([`crate::benchjson::compare_bench_reports`]).
#[derive(Debug, Clone, Copy)]
pub struct BaselineVerdict {
    /// Mean of the baseline series.
    pub baseline_mean: f64,
    /// Standard deviation of the baseline series.
    pub baseline_std: f64,
    /// Relative change of `latest` vs the baseline mean, signed so that
    /// negative is always *worse* (the direction is folded in).
    pub change: f64,
    /// `latest` sits more than two baseline standard deviations from the
    /// baseline mean — the noise band a verdict must clear in either
    /// direction. A zero-variance baseline (one prior point, or identical
    /// points) makes any nonzero change "beyond noise", so the threshold
    /// alone governs.
    pub beyond_noise: bool,
    /// Worse than baseline beyond both the threshold and the noise band.
    pub regressed: bool,
}

/// Compares `latest` against a non-empty baseline series.
///
/// A regression is flagged when `latest` is worse than the baseline mean by
/// more than `threshold` (relative) *and* more than two baseline standard
/// deviations, so ordinary run-to-run noise never alarms.
pub fn baseline_verdict(
    baseline: &[f64],
    latest: f64,
    higher_is_better: bool,
    threshold: f64,
) -> BaselineVerdict {
    let n = baseline.len().max(1) as f64;
    let baseline_mean = baseline.iter().sum::<f64>() / n;
    let var = baseline
        .iter()
        .map(|v| (v - baseline_mean).powi(2))
        .sum::<f64>()
        / n;
    let baseline_std = var.sqrt();
    let change = if higher_is_better {
        (latest - baseline_mean) / baseline_mean.abs().max(1e-12)
    } else {
        (baseline_mean - latest) / baseline_mean.abs().max(1e-12)
    };
    let beyond_noise = (latest - baseline_mean).abs() > 2.0 * baseline_std;
    BaselineVerdict {
        baseline_mean,
        baseline_std,
        change,
        beyond_noise,
        regressed: change < -threshold && beyond_noise,
    }
}

/// Compares the latest sequence to the history.
///
/// A regression is flagged when the latest mean is worse than the baseline
/// mean by more than `threshold` (relative) *and* more than two baseline
/// standard deviations (so ordinary run-to-run noise never alarms) — the
/// [`baseline_verdict`] statistic. Returns `None` when fewer than 3
/// sequences exist.
pub fn detect_regression(
    db: &MetricsDatabase,
    benchmark: &str,
    system: &str,
    fom: &str,
    higher_is_better: bool,
    threshold: f64,
) -> Option<RegressionReport> {
    db.with_records(|records| {
        let matching = records
            .iter()
            .filter(|r| r.benchmark == benchmark && r.system == system);
        let key = (benchmark, system, fom);
        group_series(matching)
            .get(&key)?
            .report(key, higher_is_better, threshold)
    })
}

/// Heuristic: whether a FOM with these units improves downward (runtimes,
/// latencies) rather than upward (bandwidths, rates). Used by
/// [`scan_regressions`] when no explicit direction is configured.
///
/// Covers plain time units across the full range (`ns` … `hours`,
/// including abbreviation plurals like `usecs`) and per-iteration forms
/// (`s/iter`, `ms/op`, `usec/call`): time spent *per unit of work* is a
/// cost, while work *per unit of time* (`iter/s`, `GB/s`) is a rate and
/// improves upward. Getting this wrong inverts the verdict — a slowdown in
/// a minutes-unit FOM would be scored as an improvement.
pub fn lower_is_better_units(units: &str) -> bool {
    let u = units.trim().to_ascii_lowercase();
    // `s/iter`-style: a time unit per iteration/operation is a duration
    let effective = match u.split_once('/') {
        Some((numerator, denominator))
            if matches!(
                denominator.trim(),
                "iter"
                    | "iters"
                    | "iteration"
                    | "iterations"
                    | "op"
                    | "ops"
                    | "call"
                    | "calls"
                    | "rep"
                    | "reps"
                    | "step"
                    | "steps"
            ) =>
        {
            numerator.trim()
        }
        _ => u.as_str(),
    };
    is_time_unit(effective) || u.ends_with("seconds") || u.ends_with("latency")
}

/// Plain time units, smallest to largest.
fn is_time_unit(u: &str) -> bool {
    matches!(
        u,
        "ns" | "nsec"
            | "nsecs"
            | "nanosecond"
            | "nanoseconds"
            | "us"
            | "usec"
            | "usecs"
            | "microsecond"
            | "microseconds"
            | "ms"
            | "msec"
            | "msecs"
            | "millisecond"
            | "milliseconds"
            | "s"
            | "sec"
            | "secs"
            | "second"
            | "seconds"
            | "min"
            | "mins"
            | "minute"
            | "minutes"
            | "h"
            | "hr"
            | "hrs"
            | "hour"
            | "hours"
    )
}

/// Scans the whole database: every `(benchmark, system, fom)` triple with
/// enough history gets a [`detect_regression`] verdict, directions inferred
/// from the units of the triple's latest sighting via
/// [`lower_is_better_units`]. The pipeline's self-instrumentation
/// pseudo-benchmark (`benchpark-pipeline`) is excluded — its counters are
/// health telemetry, not performance figures. Verdicts are sorted by
/// (benchmark, system, fom).
///
/// One pass over the stored records, borrowed under the read lock, groups
/// every series at once.
pub fn scan_regressions(db: &MetricsDatabase, threshold: f64) -> Vec<RegressionReport> {
    db.with_records(|records| {
        let benchmarks = records
            .iter()
            .filter(|r| r.benchmark != "benchpark-pipeline");
        group_series(benchmarks)
            .iter()
            .filter_map(|(&key, series)| {
                series.report(key, !lower_is_better_units(series.units), threshold)
            })
            .collect()
    })
}
