//! The machine-readable bench trajectory: `BENCH_<date>.json` files.
//!
//! The paper's Figure 6 loop tracks *application* FOMs continuously; this
//! module gives the pipeline's own hot paths the same treatment. Each
//! invocation of `benchpark bench` emits one [`BenchReport`] — a
//! schema-versioned, deterministic JSON document with per-bench
//! median/mean/std and an environment summary — and the sequence of those
//! files committed over time *is* the performance trajectory of this
//! repository (the ethrex-style `docs/perf/` methodology; see
//! `docs/perf/methodology.md`).
//!
//! Design constraints mirror [`crate::ledger`]:
//!
//! * **Deterministic** — field order is fixed, results are sorted by bench
//!   name, floats go through the canonical yamlite formatter. Two runs of
//!   the same binary differ only in measured numbers, so trajectory diffs
//!   are reviewable.
//! * **Versioned** — every file carries `schema`; unknown versions are a
//!   parse error, never a misread.
//! * **Comparable** — [`compare_bench_reports`] replays a chronological
//!   series of reports through the same statistical verdict the FOM
//!   regression scanner uses ([`crate::regression::baseline_verdict`]),
//!   with improvement directions inferred from units via
//!   [`crate::regression::lower_is_better_units`] (`ns/iter` improves
//!   downward).

use crate::regression::{baseline_verdict, lower_is_better_units};
use benchpark_yamlite::{emit_json, json_number, json_string, parse_json, Value};
use std::fmt::Write as _;

/// The BENCH file schema version this build writes.
pub const BENCH_SCHEMA: i64 = 1;

/// The suite name this build's hot-path suite reports under.
pub const BENCH_SUITE: &str = "hotpath";

/// Environment summary stamped into every report: enough to tell two
/// machines (or a debug build) apart when reading the trajectory, nothing
/// volatile enough to break determinism on one machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchEnv {
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Logical CPUs visible to the process.
    pub cpus: u64,
    /// Workspace version the suite was built from.
    pub version: String,
    /// Build profile: `release` or `debug`.
    pub profile: String,
}

impl BenchEnv {
    /// The environment of the running process.
    pub fn current() -> BenchEnv {
        BenchEnv {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
            version: env!("CARGO_PKG_VERSION").to_string(),
            profile: if cfg!(debug_assertions) {
                "debug".to_string()
            } else {
                "release".to_string()
            },
        }
    }
}

/// One benchmark's measurement: timing statistics over `samples` timed
/// samples of `iters` iterations each.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Stable bench name (`engine.plan.lpt.100k`). Workload sizes are part
    /// of the name, so differently-sized runs can never be compared.
    pub name: String,
    /// Subsystem group (`engine`, `yamlite`, `ledger`, …).
    pub group: String,
    /// Iterations per timed sample (fixed per bench, never adaptive).
    pub iters: u64,
    /// Number of timed samples the statistics aggregate.
    pub samples: u64,
    /// Median per-iteration time across samples, nanoseconds.
    pub median_ns: f64,
    /// Mean per-iteration time across samples, nanoseconds.
    pub mean_ns: f64,
    /// Standard deviation of per-iteration times across samples.
    pub std_ns: f64,
    /// Units of the medians (`ns/iter`); drives the improvement direction.
    pub units: String,
}

/// One `BENCH_<date>.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// File schema version ([`BENCH_SCHEMA`]).
    pub schema: i64,
    /// Suite name ([`BENCH_SUITE`] for the built-in hot-path suite).
    pub suite: String,
    /// UTC date the suite ran, `YYYY-MM-DD` (also the conventional file
    /// name: `BENCH_<created>.json`).
    pub created: String,
    /// Environment summary.
    pub env: BenchEnv,
    /// Per-bench statistics, sorted by name.
    pub results: Vec<BenchRecord>,
}

impl BenchReport {
    /// The conventional file name for this report.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.created)
    }

    /// Statistics for a named bench, if present.
    pub fn result(&self, name: &str) -> Option<&BenchRecord> {
        self.results.iter().find(|r| r.name == name)
    }

    /// Serializes the report: a small deterministic JSON document with one
    /// result per line, so trajectory commits diff by bench. Results are
    /// sorted by name before emission.
    pub fn to_json(&self) -> String {
        let mut results: Vec<&BenchRecord> = self.results.iter().collect();
        results.sort_by(|a, b| a.name.cmp(&b.name));
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", self.schema);
        let _ = writeln!(out, "  \"suite\": {},", json_string(&self.suite));
        let _ = writeln!(out, "  \"created\": {},", json_string(&self.created));
        let mut env = benchpark_yamlite::Map::new();
        env.insert("os", Value::str(self.env.os.clone()));
        env.insert("arch", Value::str(self.env.arch.clone()));
        env.insert("cpus", Value::Int(self.env.cpus as i64));
        env.insert("version", Value::str(self.env.version.clone()));
        env.insert("profile", Value::str(self.env.profile.clone()));
        let _ = writeln!(out, "  \"env\": {},", emit_json(&Value::Map(env)));
        out.push_str("  \"results\": [\n");
        for (i, r) in results.iter().enumerate() {
            let comma = if i + 1 == results.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"group\": {}, \"iters\": {}, \"samples\": {}, \
                 \"median_ns\": {}, \"mean_ns\": {}, \"std_ns\": {}, \"units\": {}}}{comma}",
                json_string(&r.name),
                json_string(&r.group),
                r.iters,
                r.samples,
                json_number(r.median_ns),
                json_number(r.mean_ns),
                json_number(r.std_ns),
                json_string(&r.units),
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a BENCH document. Fails on malformed JSON, a missing or
    /// malformed field, or an unknown schema version.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let doc = parse_json(text)?;
        let schema = doc
            .get("schema")
            .and_then(Value::as_int)
            .ok_or("bench report lacks `schema`")?;
        if schema != BENCH_SCHEMA {
            return Err(format!("unknown bench schema version {schema}"));
        }
        let text_field = |v: &Value, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(String::from)
                .ok_or_else(|| format!("bench report lacks `{key}`"))
        };
        let env_value = doc.get("env").ok_or("bench report lacks `env`")?;
        let env = BenchEnv {
            os: text_field(env_value, "os")?,
            arch: text_field(env_value, "arch")?,
            cpus: env_value
                .get("cpus")
                .and_then(Value::as_int)
                .filter(|c| *c >= 0)
                .ok_or("env lacks a non-negative `cpus`")? as u64,
            version: text_field(env_value, "version")?,
            profile: text_field(env_value, "profile")?,
        };
        let mut results = Vec::new();
        for item in doc
            .get("results")
            .and_then(Value::as_seq)
            .ok_or("bench report lacks `results`")?
        {
            let int_field = |key: &str| -> Result<u64, String> {
                item.get(key)
                    .and_then(Value::as_int)
                    .filter(|v| *v >= 0)
                    .map(|v| v as u64)
                    .ok_or_else(|| format!("bench result lacks a non-negative `{key}`"))
            };
            let float_field = |key: &str| -> Result<f64, String> {
                item.get(key)
                    .and_then(Value::as_float)
                    .filter(|v| v.is_finite() && *v >= 0.0)
                    .ok_or_else(|| format!("bench result lacks a finite non-negative `{key}`"))
            };
            results.push(BenchRecord {
                name: text_field(item, "name")?,
                group: text_field(item, "group")?,
                iters: int_field("iters")?,
                samples: int_field("samples")?,
                median_ns: float_field("median_ns")?,
                mean_ns: float_field("mean_ns")?,
                std_ns: float_field("std_ns")?,
                units: text_field(item, "units")?,
            });
        }
        results.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(BenchReport {
            schema,
            suite: text_field(&doc, "suite")?,
            created: text_field(&doc, "created")?,
            env,
            results,
        })
    }
}

/// The verdict for one bench across a report trajectory.
#[derive(Debug, Clone)]
pub struct BenchComparison {
    /// Bench name.
    pub name: String,
    /// Subsystem group.
    pub group: String,
    /// Mean of the baseline reports' medians, nanoseconds.
    pub baseline_ns: f64,
    /// Standard deviation of the baseline medians.
    pub baseline_std_ns: f64,
    /// The latest report's median, nanoseconds.
    pub latest_ns: f64,
    /// Relative change, signed so that negative is always *worse*
    /// (direction folded in from the bench's units).
    pub change: f64,
    /// Latest is worse than baseline beyond the threshold and the noise band.
    pub regressed: bool,
    /// Latest is better than baseline beyond the threshold and the noise
    /// band — the bar an optimization PR must clear
    /// (`docs/perf/methodology.md`).
    pub improved: bool,
    /// Number of baseline reports the bench appeared in.
    pub history_len: usize,
}

impl BenchComparison {
    /// Renders a one-line verdict.
    pub fn render(&self) -> String {
        format!(
            "{:<32} baseline {} (±{}, n={}), latest {} ({:+.1}%) — {}",
            self.name,
            format_ns(self.baseline_ns),
            format_ns(self.baseline_std_ns),
            self.history_len,
            format_ns(self.latest_ns),
            self.change * 100.0,
            if self.regressed {
                "REGRESSION"
            } else if self.improved {
                "improved"
            } else {
                "ok"
            }
        )
    }
}

/// Human-scale rendering of a nanosecond quantity.
pub fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Compares the last report of a chronological trajectory against all the
/// reports before it, bench by bench.
///
/// For each bench present in the latest report, the baseline is the series
/// of that bench's medians in the prior reports; the verdict comes from
/// [`baseline_verdict`] — the exact statistic `benchpark regress` applies
/// to FOM histories: a change is flagged only when it exceeds `threshold`
/// relative *and* two baseline standard deviations (with a single-report
/// baseline the deviation is zero, so the threshold alone governs).
/// Benches with no baseline sighting (first run, or a renamed/resized
/// workload) are skipped — a fresh workload has no trajectory yet.
/// Verdicts are sorted by name; `history` needs at least two reports for
/// any verdict to exist.
pub fn compare_bench_reports(history: &[&BenchReport], threshold: f64) -> Vec<BenchComparison> {
    let Some((latest, baseline_reports)) = history.split_last() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for record in &latest.results {
        let baseline: Vec<f64> = baseline_reports
            .iter()
            .filter_map(|r| r.result(&record.name))
            .map(|r| r.median_ns)
            .collect();
        if baseline.is_empty() {
            continue;
        }
        let higher_is_better = !lower_is_better_units(&record.units);
        let verdict = baseline_verdict(&baseline, record.median_ns, higher_is_better, threshold);
        let improved = verdict.change > threshold && verdict.beyond_noise;
        out.push(BenchComparison {
            name: record.name.clone(),
            group: record.group.clone(),
            baseline_ns: verdict.baseline_mean,
            baseline_std_ns: verdict.baseline_std,
            latest_ns: record.median_ns,
            change: verdict.change,
            regressed: verdict.regressed,
            improved,
            history_len: baseline.len(),
        });
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// The speed basis of `report` relative to `latest` over `names` (every
/// name must be present in both): the median over those benches of the log
/// ratio of `report`'s median to `latest`'s. A machine running uniformly
/// 1.4× slower than `latest`'s scales every ratio, and so the basis, by
/// 1.4; a few benches that really moved only nudge the median to a nearby
/// ratio of the benches that did not, so they cannot pass for a faster or
/// slower machine.
fn ln_speed_basis(report: &BenchReport, latest: &BenchReport, names: &[String]) -> f64 {
    let median_ns = |r: &BenchReport, name: &str| {
        r.result(name)
            .expect("basis bench present")
            .median_ns
            .max(1e-9)
    };
    let mut ln_ratios: Vec<f64> = names
        .iter()
        .map(|n| (median_ns(report, n) / median_ns(latest, n)).ln())
        .collect();
    ln_ratios.sort_by(f64::total_cmp);
    let mid = ln_ratios.len() / 2;
    if ln_ratios.len().is_multiple_of(2) {
        (ln_ratios[mid - 1] + ln_ratios[mid]) / 2.0
    } else {
        ln_ratios[mid]
    }
}

/// The benches shared by *every* report in the trajectory — the set the
/// calibration basis is computed over, so each report is normalized by the
/// same yardstick.
fn common_benches(history: &[&BenchReport]) -> Vec<String> {
    let Some((latest, rest)) = history.split_last() else {
        return Vec::new();
    };
    latest
        .results
        .iter()
        .filter(|r| rest.iter().all(|p| p.result(&r.name).is_some()))
        .map(|r| r.name.clone())
        .collect()
}

/// How much faster (>1) or slower (<1) the latest report's machine ran
/// than the baseline reports', as the geometric mean over the baseline
/// reports of their speed bases relative to the latest report (each the
/// median per-bench ratio over the shared benches). `None` when the
/// trajectory is not calibratable (fewer than two reports, or fewer than
/// two shared benches).
pub fn calibration_speed_factor(history: &[&BenchReport]) -> Option<f64> {
    let (latest, rest) = history.split_last()?;
    let common = common_benches(history);
    if rest.is_empty() || common.len() < 2 {
        return None;
    }
    let ln_sum: f64 = rest
        .iter()
        .map(|r| ln_speed_basis(r, latest, &common))
        .sum();
    Some((ln_sum / rest.len() as f64).exp())
}

/// [`compare_bench_reports`], but with each baseline report's medians
/// first rescaled to the latest report's machine speed, so *uniform*
/// machine-speed shifts (a slower CI runner, a throttled laptop) cancel
/// out and only benches that moved relative to the rest of the suite are
/// flagged. This is the CI default: across heterogeneous runners an
/// absolute gate flags everything or nothing.
///
/// A report's speed relative to the latest one is the median per-bench
/// ratio over the benches shared by the whole trajectory. A median, not a
/// mean: when one or two benches really move, a mean would shift with
/// them and read the local speed-up or slow-down as a faster or slower
/// machine, flagging the benches that did not move.
///
/// The reported baseline/latest numbers are at the latest report's
/// machine speed, so the rendered lines stay directly comparable. The
/// blind spot is a genuinely uniform regression across the whole suite
/// (e.g. an allocator change) — that shows up in
/// [`calibration_speed_factor`], which callers should surface.
///
/// Falls back to the absolute comparison when fewer than two benches are
/// shared across the whole trajectory (normalizing a single bench by
/// itself would gate nothing at all).
pub fn compare_bench_reports_calibrated(
    history: &[&BenchReport],
    threshold: f64,
) -> Vec<BenchComparison> {
    let Some((latest, baseline_reports)) = history.split_last() else {
        return Vec::new();
    };
    let common = common_benches(history);
    if baseline_reports.is_empty() || common.len() < 2 {
        return compare_bench_reports(history, threshold);
    }
    let bases: Vec<f64> = baseline_reports
        .iter()
        .map(|r| ln_speed_basis(r, latest, &common).exp())
        .collect();
    let mut out = Vec::new();
    for record in &latest.results {
        let baseline: Vec<f64> = baseline_reports
            .iter()
            .zip(&bases)
            .filter_map(|(r, basis)| r.result(&record.name).map(|b| b.median_ns / basis))
            .collect();
        if baseline.is_empty() {
            continue;
        }
        let higher_is_better = !lower_is_better_units(&record.units);
        let verdict = baseline_verdict(&baseline, record.median_ns, higher_is_better, threshold);
        let improved = verdict.change > threshold && verdict.beyond_noise;
        out.push(BenchComparison {
            name: record.name.clone(),
            group: record.group.clone(),
            baseline_ns: verdict.baseline_mean,
            baseline_std_ns: verdict.baseline_std,
            latest_ns: record.median_ns,
            change: verdict.change,
            regressed: verdict.regressed,
            improved,
            history_len: baseline.len(),
        });
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock.
///
/// Uses the standard civil-from-days algorithm, so the only platform input
/// is `SystemTime::now()`.
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    date_from_unix_days((secs / 86_400) as i64)
}

/// Civil date for a count of days since 1970-01-01 (Howard Hinnant's
/// `civil_from_days`).
pub fn date_from_unix_days(days: i64) -> String {
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}
