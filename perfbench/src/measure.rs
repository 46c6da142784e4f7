//! Timing, the closed-loop budget, per-layer tracing, and the report.

use std::collections::BTreeMap;
use std::time::Instant;

/// Input sizes. `full` is what `BENCHMARK.json` runs; `tiny` is the
/// self-test scale.
pub struct Scale {
    /// Timed ops a run makes at least, whatever `--seconds` says.
    pub min_ops: usize,
    /// `serve_replay`: waves per daemon lifetime, and request lines per wave.
    pub waves_per_epoch: usize,
    pub requests_per_wave: usize,
    /// `ledger_ingest`: records per `(tenant, system)` shard, and appends
    /// per cycle (the ledger grows by this much before it is reset).
    pub records_per_shard: usize,
    pub appends_per_cycle: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            min_ops: 100,
            waves_per_epoch: 16,
            requests_per_wave: 12,
            records_per_shard: 8,
            appends_per_cycle: 128,
        }
    }

    pub fn tiny() -> Scale {
        Scale {
            min_ops: 4,
            waves_per_epoch: 2,
            requests_per_wave: 4,
            records_per_shard: 3,
            appends_per_cycle: 4,
        }
    }
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The closed-loop budget of the timed phase. Workloads run whole cycles
/// (a matrix rotation, a daemon lifetime, a ledger growth cycle), so every run
/// weighs each input of a cycle equally. With tracing on, cycles alternate
/// untraced and traced, so both op distributions come from the same run.
pub struct Budget {
    seconds: f64,
    min_ops: usize,
    trace: bool,
    start: Option<Instant>,
    cycle: usize,
}

impl Budget {
    pub fn new(seconds: f64, min_ops: usize, trace: bool) -> Budget {
        Budget {
            seconds,
            min_ops,
            trace,
            start: None,
            cycle: 0,
        }
    }

    /// Whether to start another cycle, and if so whether it is traced.
    pub fn next_cycle(&mut self, outcome: &Outcome) -> Option<bool> {
        let start = *self.start.get_or_insert_with(Instant::now);
        let short = outcome.op_ms.len() < self.min_ops
            || (self.trace && outcome.traced_op_ms.len() < self.min_ops);
        if start.elapsed().as_secs_f64() >= self.seconds && !short {
            return None;
        }
        let traced = self.trace && self.cycle % 2 == 1;
        self.cycle += 1;
        Some(traced)
    }
}

/// Times the public calls of one op. Untraced, it runs each call bare;
/// traced, it adds each call's wall time to its layer and sums counts.
/// Whether a layer is inside the op total is fixed by [`PER_LAYER`].
#[derive(Default)]
pub struct Tracer {
    on: bool,
    times: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            ..Tracer::default()
        }
    }

    /// One public call, attributed to `layer` when tracing.
    pub fn call<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        *self.times.entry(layer).or_default() += ms_since(start);
        out
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            *self.counts.entry(name).or_default() += value;
        }
    }
}

/// How a per-layer row relates to the traced op total.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// A timed call inside the op (or the unattributed rest): these rows
    /// sum to the op total.
    Call,
    /// Op totals and the tracing overhead.
    Total,
    /// A probe outside the op total.
    Probe,
    Count,
}

/// Per-layer metrics, in report order. Every workload reports every one; a
/// layer the workload never calls reads 0.
const PER_LAYER: [(&str, &str, Kind); 30] = [
    ("core.stage_setup_ms", "ms", Kind::Call),
    ("cluster.run_ms", "ms", Kind::Call),
    ("ramble.analyze_ms", "ms", Kind::Call),
    ("core.collect_ms", "ms", Kind::Call),
    ("core.ledger_append_ms", "ms", Kind::Call),
    ("serve.intake_ms", "ms", Kind::Call),
    ("serve.drain_ms", "ms", Kind::Call),
    ("core.ledger_load_ms", "ms", Kind::Call),
    ("core.to_database_ms", "ms", Kind::Call),
    ("core.regress_scan_ms", "ms", Kind::Call),
    ("core.fingerprint_index_ms", "ms", Kind::Call),
    ("unattributed_ms", "ms", Kind::Call),
    ("traced_op_ms", "ms", Kind::Total),
    ("untraced_op_p50_ms", "ms", Kind::Total),
    ("traced_op_p50_ms", "ms", Kind::Total),
    ("tracing_overhead_ms", "ms", Kind::Total),
    ("lint.composition_ms", "ms", Kind::Probe),
    ("concretizer.concretize_ms", "ms", Kind::Probe),
    ("spack.install_ms", "ms", Kind::Probe),
    ("serve.status_ms", "ms", Kind::Probe),
    ("concretizer.solves_per_op", "count", Kind::Count),
    ("spack.cache_hit_ratio", "ratio", Kind::Count),
    ("cluster.jobs_per_op", "count", Kind::Count),
    ("ramble.experiments_per_op", "count", Kind::Count),
    ("serve.fastpath_ratio", "ratio", Kind::Count),
    ("serve.fingerprint_hit_rate", "ratio", Kind::Count),
    ("serve.fresh_experiments_per_op", "count", Kind::Count),
    ("serve.flushed_bytes_per_op", "bytes", Kind::Count),
    ("core.ledger_mb_read_per_op", "MB", Kind::Count),
    ("traced_ops", "count", Kind::Count),
];

/// Everything one run measured.
#[derive(Default)]
pub struct Outcome {
    /// What one op is, for the report header.
    op_label: String,
    attempted: u64,
    failed: u64,
    /// The first few failure messages.
    failures: Vec<String>,
    /// Wall time of each untraced op.
    op_ms: Vec<f64>,
    /// Wall time of each traced op.
    traced_op_ms: Vec<f64>,
    /// Wall time of each repetition of the set-up calls; `setup_s` is their
    /// median.
    pub setup_s: Vec<f64>,
    /// Requests completed by untraced ops.
    requests: u64,
    /// Summed layer times and counts of the traced ops.
    times: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn new(op_label: impl Into<String>) -> Outcome {
        Outcome {
            op_label: op_label.into(),
            ..Outcome::default()
        }
    }

    /// Records one finished op: its wall time, the requests it completed,
    /// and, when traced, its layer times and counts.
    pub fn record_op(&mut self, op_ms: f64, requests: u64, tracer: Tracer) {
        self.attempted += 1;
        if !tracer.on {
            self.op_ms.push(op_ms);
            self.requests += requests;
            return;
        }
        self.traced_op_ms.push(op_ms);
        for (map, from) in [
            (&mut self.times, tracer.times),
            (&mut self.counts, tracer.counts),
        ] {
            for (name, value) in from {
                *map.entry(name).or_default() += value;
            }
        }
    }

    /// Counts a failed output check or call against the last op.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what.into());
        }
    }

    /// Counts a failure found outside any op (a set-up or cycle-end check)
    /// as one more attempted, failed op.
    pub fn fail_extra(&mut self, what: impl Into<String>) {
        self.attempted += 1;
        self.fail(what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str, String)> {
        let n = self.op_ms.len();
        let busy_s: f64 = self.op_ms.iter().sum::<f64>() / 1e3;
        let rss = peak_rss_mb().unwrap_or(0.0);
        vec![
            (
                "op_p50_ms",
                quantile(&self.op_ms, 0.5),
                "ms",
                format!("median of {n} ops"),
            ),
            (
                "op_p90_ms",
                quantile(&self.op_ms, 0.9),
                "ms",
                format!("{n} ops, {} above", n - (n * 9).div_ceil(10)),
            ),
            (
                "requests_per_s",
                self.requests as f64 / busy_s.max(1e-9),
                "1/s",
                format!("{} requests over {busy_s:.3} s of ops", self.requests),
            ),
            (
                "setup_s",
                quantile(&self.setup_s, 0.5),
                "s",
                format!("median of {} set-ups", self.setup_s.len()),
            ),
            ("peak_rss_mb", rss, "MiB", "VmHWM".to_string()),
        ]
    }

    fn per_layer(&self) -> Vec<(&'static str, f64, &'static str, Kind)> {
        let n = self.traced_op_ms.len().max(1) as f64;
        let time = |name: &str| self.times.get(name).copied().unwrap_or(0.0) / n;
        let count = |name: &str| self.counts.get(name).copied().unwrap_or(0.0);
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let traced_mean = self.traced_op_ms.iter().sum::<f64>() / n;
        let attributed: f64 = PER_LAYER
            .iter()
            .filter(|row| row.2 == Kind::Call)
            .map(|row| time(row.0))
            .sum();
        let untraced_p50 = quantile(&self.op_ms, 0.5);
        let traced_p50 = quantile(&self.traced_op_ms, 0.5);
        PER_LAYER
            .iter()
            .map(|&(name, unit, kind)| {
                let value = match name {
                    "unattributed_ms" => traced_mean - attributed,
                    "traced_op_ms" => traced_mean,
                    "untraced_op_p50_ms" => untraced_p50,
                    "traced_op_p50_ms" => traced_p50,
                    "tracing_overhead_ms" => traced_p50 - untraced_p50,
                    "concretizer.solves_per_op" => count("concretizer.solves") / n,
                    "spack.cache_hit_ratio" => {
                        ratio(count("cache.hit"), count("cache.hit") + count("cache.miss"))
                    }
                    "cluster.jobs_per_op" => count("scheduler.jobs_completed") / n,
                    "ramble.experiments_per_op" => count("experiments") / n,
                    "serve.fastpath_ratio" => {
                        ratio(count("serve.fastpath"), count("serve.completed"))
                    }
                    "serve.fingerprint_hit_rate" => ratio(
                        count("serve.cached"),
                        count("serve.cached") + count("serve.fresh"),
                    ),
                    "serve.fresh_experiments_per_op" => count("serve.fresh") / n,
                    "serve.flushed_bytes_per_op" => count("flushed_bytes") / n,
                    "core.ledger_mb_read_per_op" => count("ledger_bytes") / n / 1e6,
                    "traced_ops" => self.traced_op_ms.len() as f64,
                    _ => time(name),
                };
                (name, value, unit, kind)
            })
            .collect()
    }

    /// Prints the human-readable table, then the one-line JSON result.
    pub fn print(&self, workload: &str, seed: u64, trace: bool) {
        println!("perfbench {workload} seed={seed} trace={}", trace as u8);
        println!(
            "  one op = {}; attempted {}, failed {}, error_rate {}",
            self.op_label,
            self.attempted,
            self.failed,
            self.error_rate()
        );
        for failure in &self.failures {
            println!("  FAILED: {failure}");
        }
        let metrics: Vec<(&str, f64, &str)> = if trace {
            let rows = self.per_layer();
            let total =
                self.traced_op_ms.iter().sum::<f64>() / self.traced_op_ms.len().max(1) as f64;
            let mut sum = 0.0;
            for (i, &(name, value, unit, kind)) in rows.iter().enumerate() {
                let share = match kind {
                    Kind::Call | Kind::Probe if total > 0.0 => {
                        format!("{:6.1}% of op", value / total * 100.0)
                    }
                    _ => String::new(),
                };
                println!("  {name:<32} {value:>12.4} {unit:<6} {share}");
                if kind == Kind::Call {
                    sum += value;
                    if rows[i + 1].3 != Kind::Call {
                        println!("  {:<32} {sum:>12.4} ms     = op total {total:.4}", "(sum)");
                    }
                }
            }
            rows.into_iter().map(|(n, v, u, _)| (n, v, u)).collect()
        } else {
            let rows = self.end_to_end();
            for (name, value, unit, note) in &rows {
                println!("  {name:<16} {value:>12.4} {unit:<4} {note}");
            }
            rows.into_iter().map(|(n, v, u, _)| (n, v, u)).collect()
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}
