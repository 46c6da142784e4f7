//! The hot-path suite behind `benchpark bench`: the benches whose medians
//! form the repository's committed `BENCH_<date>.json` trajectory.
//!
//! It is the program's one bench harness, and a *measurement instrument*:
//! fixed deterministic workloads, fixed iteration counts, statistics
//! emitted as a [`BenchReport`] that `benchpark regress --bench` can gate
//! on. The workload size is part of every bench name
//! (`engine.plan.lpt.100k`), so a resized workload starts a fresh
//! trajectory instead of corrupting an old one. See
//! `docs/perf/methodology.md` for how these numbers are produced, compared,
//! and acted on, and `docs/perf/benches.md` for what each bench covers.
//!
//! The suite covers the pipeline's known hot paths:
//!
//! * **concretization** — single-spec and 7-root environment solves;
//! * **yamlite** — parse/emit of a large generated experiment manifest and
//!   of ledger-shaped JSON lines;
//! * **spec** — parsing a corpus of constraint-heavy spec strings;
//! * **engine** — LPT planning and crossbeam-pool drive of a 100k-task DAG;
//! * **ledger** — replay, regression scan, and fingerprint indexing over a
//!   10k-run history;
//! * **serve** — submission-queue admission plus deficit-round-robin batch
//!   picking over 10k synthetic multi-tenant requests (no execution), and
//!   the observability path: rolling windows + stage histograms + SLO
//!   verdicts + status-snapshot serialization over 10k completions;
//! * **telemetry** — journal append throughput under a recording sink, and
//!   `record_hist` aggregation throughput at 1M samples.

use benchpark_concretizer::{Concretizer, SiteConfig};
use benchpark_core::benchjson::{BenchEnv, BenchRecord, BenchReport, BENCH_SCHEMA, BENCH_SUITE};
use benchpark_core::{scan_regressions, FingerprintIndex, LedgerLoad, RunRecord};
use benchpark_engine::{Engine, TaskGraph};
use benchpark_pkg::Repo;
use benchpark_ramble::{ExperimentResult, ExperimentStatus, FomValue};
use benchpark_serve::{DrrScheduler, ExperimentRequest, QueueConfig, SubmissionQueue};
use benchpark_spec::Spec;
use benchpark_telemetry::TelemetrySink;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Workload scale. The *full* scale is the committed trajectory; *tiny*
/// exists so tests can exercise the whole machinery in milliseconds. Sizes
/// are baked into bench names, so the two scales can never be compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Trajectory scale: 100k-task DAGs, 10k-run ledgers.
    Full,
    /// Test scale: everything shrunk ~50×.
    Tiny,
}

/// Suite configuration.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Timed samples per bench (each of the bench's fixed `iters`
    /// iterations). More samples tighten the noise band.
    pub samples: u64,
    /// Case-sensitive substring filter over bench names.
    pub filter: Option<String>,
    /// Workload scale.
    pub scale: Scale,
    /// `created` date stamped into the report (`YYYY-MM-DD`).
    pub created: String,
}

impl SuiteConfig {
    /// The trajectory configuration: full scale, 7 samples.
    pub fn full(created: impl Into<String>) -> SuiteConfig {
        SuiteConfig {
            samples: 7,
            filter: None,
            scale: Scale::Full,
            created: created.into(),
        }
    }

    /// The local-iteration configuration: full-scale workloads (so medians
    /// stay comparable with the committed trajectory) but only 3 samples.
    /// Not gate-quality — a median of 3 measurably flakes under ambient
    /// interference; CI and accept/reject decisions use full samples.
    pub fn quick(created: impl Into<String>) -> SuiteConfig {
        SuiteConfig {
            samples: 3,
            ..SuiteConfig::full(created)
        }
    }

    /// The test configuration: tiny workloads, 2 samples.
    pub fn tiny(created: impl Into<String>) -> SuiteConfig {
        SuiteConfig {
            samples: 2,
            filter: None,
            scale: Scale::Tiny,
            created: created.into(),
        }
    }
}

/// One suite bench: a name, its subsystem group, a fixed iteration count,
/// and the measured routine.
struct BenchDef<'w> {
    name: String,
    group: &'static str,
    iters: u64,
    routine: Box<dyn FnMut() + 'w>,
}

/// Sizes derived from the scale.
struct Sizes {
    /// Suffix appended to scaled bench names (`100k`, `2k`).
    dag_tag: &'static str,
    dag_tasks: usize,
    ledger_tag: &'static str,
    ledger_runs: usize,
    manifest_tag: &'static str,
    manifest_experiments: usize,
    journal_tag: &'static str,
    journal_events: usize,
    serve_tag: &'static str,
    serve_requests: usize,
    hist_tag: &'static str,
    hist_records: usize,
    status_tag: &'static str,
    status_events: usize,
    repo_tag: &'static str,
    repo_packages: usize,
    repo_width: usize,
}

impl Sizes {
    fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes {
                dag_tag: "100k",
                dag_tasks: 100_000,
                ledger_tag: "10k",
                ledger_runs: 10_000,
                manifest_tag: "1500",
                manifest_experiments: 1_500,
                journal_tag: "100k",
                journal_events: 100_000,
                serve_tag: "10k",
                serve_requests: 10_000,
                hist_tag: "1m",
                hist_records: 1_000_000,
                status_tag: "10k",
                status_events: 10_000,
                repo_tag: "10k",
                repo_packages: 10_000,
                repo_width: 100,
            },
            Scale::Tiny => Sizes {
                dag_tag: "2k",
                dag_tasks: 2_000,
                ledger_tag: "200",
                ledger_runs: 200,
                manifest_tag: "30",
                manifest_experiments: 30,
                journal_tag: "2k",
                journal_events: 2_000,
                serve_tag: "500",
                serve_requests: 500,
                hist_tag: "20k",
                hist_records: 20_000,
                status_tag: "500",
                status_events: 500,
                repo_tag: "500",
                repo_packages: 500,
                repo_width: 25,
            },
        }
    }
}

/// Names of every bench the suite would run at `scale` (before filtering).
pub fn suite_names(scale: Scale) -> Vec<String> {
    let s = Sizes::of(scale);
    vec![
        "concretize.env7.unify".to_string(),
        format!("concretize.repo_{}.cold", s.repo_tag),
        format!("concretize.repo_{}.incr", s.repo_tag),
        "concretize.single".to_string(),
        format!("engine.drive.pool.{}", s.dag_tag),
        format!("engine.plan.lpt.{}", s.dag_tag),
        format!("fingerprint.index.{}", s.ledger_tag),
        "json.emit.run_record".to_string(),
        "json.parse.ledger_line".to_string(),
        format!("ledger.regress.{}", s.ledger_tag),
        format!("ledger.replay.{}", s.ledger_tag),
        format!("serve.enqueue_drain.{}", s.serve_tag),
        format!("serve.status.snapshot.{}", s.status_tag),
        "spec.parse.corpus256".to_string(),
        format!("telemetry.hist.record.{}", s.hist_tag),
        format!("telemetry.journal.{}", s.journal_tag),
        format!("yamlite.emit.manifest{}", s.manifest_tag),
        format!("yamlite.parse.manifest{}", s.manifest_tag),
    ]
}

/// Runs the hot-path suite and returns the report. `progress` receives one
/// line per finished bench (pass `|_| {}` to stay quiet).
pub fn run_suite(config: &SuiteConfig, mut progress: impl FnMut(&str)) -> BenchReport {
    let sizes = Sizes::of(config.scale);

    // shared deterministic workloads, prepared once outside all timing
    let repo = Repo::builtin();
    let site = SiteConfig::example_cts();
    let env_roots: Vec<Spec> = [
        "saxpy+openmp",
        "amg2023+caliper",
        "stream",
        "lulesh+openmp",
        "osu-micro-benchmarks",
        "caliper",
        "hypre+openmp",
    ]
    .iter()
    .map(|s| s.parse().expect("builtin spec parses"))
    .collect();
    let single_root: Vec<Spec> = vec!["saxpy+openmp".parse().expect("builtin spec parses")];
    let manifest = synth_manifest(sizes.manifest_experiments);
    let manifest_value = benchpark_yamlite::parse(&manifest).expect("synthetic manifest parses");
    let ledger_lines = synth_ledger_lines(sizes.ledger_runs);
    let ledger_text = ledger_lines.join("\n");
    let ledger_load = replay_lines(&ledger_text);
    let sample_line = ledger_lines[ledger_lines.len() / 2].clone();
    let sample_record =
        RunRecord::parse_line(&sample_line).expect("synthetic ledger line parses back");
    let probe_hexes: Vec<String> = (0..64)
        .map(|i| fingerprint_hex(i * sizes.ledger_runs as u64 / 64, 0))
        .collect();
    let dag = synth_dag(sizes.dag_tasks);
    let spec_corpus = synth_spec_corpus(256);
    let serve_requests = synth_requests(sizes.serve_requests);
    let synth_repo = synth_repo(sizes.repo_packages, sizes.repo_width);
    let synth_root: Spec = "synth-root".parse().expect("synth root parses");
    // the incremental bench re-propagates one version edit against a warm
    // session; the session's cold solve happens once here, outside timing
    let synth_cz = Concretizer::new(&synth_repo, &site);
    let mut synth_session = synth_cz
        .session(&synth_root)
        .expect("synthetic repo solves");
    let edit_target = deep_package_name(sizes.repo_packages, sizes.repo_width);
    let edit_constraint =
        benchpark_spec::VersionConstraint::exactly("2.0.0".parse().expect("version parses"));

    let mut benches: Vec<BenchDef> = Vec::new();
    benches.push(BenchDef {
        name: "concretize.env7.unify".into(),
        group: "concretizer",
        iters: 8,
        routine: Box::new(|| {
            let solver = Concretizer::new(&repo, &site);
            black_box(solver.concretize_env(&env_roots, true).expect("solves"));
        }),
    });
    benches.push(BenchDef {
        name: "concretize.single".into(),
        group: "concretizer",
        iters: 64,
        routine: Box::new(|| {
            let solver = Concretizer::new(&repo, &site);
            black_box(solver.concretize_env(&single_root, false).expect("solves"));
        }),
    });
    benches.push(BenchDef {
        name: format!("concretize.repo_{}.cold", sizes.repo_tag),
        group: "concretizer",
        iters: 1,
        routine: Box::new(|| {
            let solver = Concretizer::new(&synth_repo, &site);
            black_box(
                solver
                    .concretize(&synth_root)
                    .expect("synthetic repo solves"),
            );
        }),
    });
    benches.push(BenchDef {
        name: format!("concretize.repo_{}.incr", sizes.repo_tag),
        group: "concretizer",
        iters: 4,
        routine: Box::new(|| {
            black_box(
                synth_session
                    .resolve_version(&edit_target, &edit_constraint)
                    .expect("incremental edit solves"),
            );
        }),
    });
    benches.push(BenchDef {
        name: format!("yamlite.parse.manifest{}", sizes.manifest_tag),
        group: "yamlite",
        iters: 2,
        routine: Box::new(|| {
            black_box(benchpark_yamlite::parse(&manifest).expect("parses"));
        }),
    });
    benches.push(BenchDef {
        name: format!("yamlite.emit.manifest{}", sizes.manifest_tag),
        group: "yamlite",
        iters: 4,
        routine: Box::new(|| {
            black_box(benchpark_yamlite::emit(&manifest_value));
        }),
    });
    benches.push(BenchDef {
        name: "json.parse.ledger_line".into(),
        group: "yamlite",
        iters: 256,
        routine: Box::new(|| {
            black_box(benchpark_yamlite::parse_json(&sample_line).expect("parses"));
        }),
    });
    benches.push(BenchDef {
        name: "json.emit.run_record".into(),
        group: "yamlite",
        iters: 256,
        routine: Box::new(|| {
            black_box(sample_record.to_json_line());
        }),
    });
    benches.push(BenchDef {
        name: "spec.parse.corpus256".into(),
        group: "spec",
        iters: 8,
        routine: Box::new(|| {
            for text in &spec_corpus {
                black_box(text.parse::<Spec>().expect("corpus spec parses"));
            }
        }),
    });
    benches.push(BenchDef {
        name: format!("engine.plan.lpt.{}", sizes.dag_tag),
        group: "engine",
        iters: 1,
        routine: Box::new(|| {
            black_box(dag.plan(8).expect("plans"));
        }),
    });
    benches.push(BenchDef {
        name: format!("engine.drive.pool.{}", sizes.dag_tag),
        group: "engine",
        iters: 1,
        routine: Box::new(|| {
            let engine = Engine::new(8);
            black_box(
                engine
                    .run_pool(&dag, |task, _ctx| Ok::<u64, String>(task.payload))
                    .expect("drives"),
            );
        }),
    });
    benches.push(BenchDef {
        name: format!("ledger.replay.{}", sizes.ledger_tag),
        group: "ledger",
        iters: 1,
        routine: Box::new(|| {
            black_box(replay_lines(&ledger_text));
        }),
    });
    benches.push(BenchDef {
        name: format!("ledger.regress.{}", sizes.ledger_tag),
        group: "ledger",
        iters: 1,
        routine: Box::new(|| {
            let db = ledger_load.to_database();
            black_box(scan_regressions(&db, 0.05));
        }),
    });
    benches.push(BenchDef {
        name: format!("fingerprint.index.{}", sizes.ledger_tag),
        group: "ledger",
        iters: 1,
        routine: Box::new(|| {
            let index = FingerprintIndex::from_ledger(&ledger_load);
            for hex in &probe_hexes {
                black_box(index.lookup_hex(hex));
            }
            black_box(index.len());
        }),
    });
    benches.push(BenchDef {
        name: format!("serve.enqueue_drain.{}", sizes.serve_tag),
        group: "serve",
        iters: 1,
        routine: Box::new(|| {
            let config = QueueConfig {
                max_queued_per_tenant: sizes.serve_requests,
                max_queued_global: sizes.serve_requests,
                ..QueueConfig::default()
            };
            let mut queue = SubmissionQueue::new(config.clone(), TelemetrySink::noop());
            for request in &serve_requests {
                queue
                    .admit(request.clone())
                    .expect("synthetic request admits");
            }
            let mut sched = DrrScheduler::new(&config);
            let mut drained = 0usize;
            while !queue.is_empty() {
                drained += sched.next_batch(&mut queue).len();
            }
            assert_eq!(drained, sizes.serve_requests);
            black_box(drained);
        }),
    });
    benches.push(BenchDef {
        name: format!("serve.status.snapshot.{}", sizes.status_tag),
        group: "serve",
        iters: 1,
        routine: Box::new(|| {
            black_box(status_snapshot_storm(sizes.status_events));
        }),
    });
    benches.push(BenchDef {
        name: format!("telemetry.journal.{}", sizes.journal_tag),
        group: "telemetry",
        iters: 1,
        routine: Box::new(|| {
            black_box(journal_storm(sizes.journal_events));
        }),
    });
    benches.push(BenchDef {
        name: format!("telemetry.hist.record.{}", sizes.hist_tag),
        group: "telemetry",
        iters: 1,
        routine: Box::new(|| {
            black_box(hist_storm(sizes.hist_records));
        }),
    });

    let mut results = Vec::new();
    for bench in &mut benches {
        if let Some(filter) = &config.filter {
            if !bench.name.contains(filter.as_str()) {
                continue;
            }
        }
        let record = measure(bench, config.samples.max(2));
        progress(&format!(
            "{:<32} median {:>12}  mean {:>12}  ±{:>10}  ({} samples × {} iters)",
            record.name,
            benchpark_core::benchjson::format_ns(record.median_ns),
            benchpark_core::benchjson::format_ns(record.mean_ns),
            benchpark_core::benchjson::format_ns(record.std_ns),
            record.samples,
            record.iters,
        ));
        results.push(record);
    }
    results.sort_by(|a, b| a.name.cmp(&b.name));
    BenchReport {
        schema: BENCH_SCHEMA,
        suite: BENCH_SUITE.to_string(),
        created: config.created.clone(),
        env: BenchEnv::current(),
        results,
    }
}

/// Times one bench: a warm-up pass, then `samples` timed passes of the
/// bench's fixed `iters` iterations.
fn measure(bench: &mut BenchDef, samples: u64) -> BenchRecord {
    (bench.routine)(); // warm-up
    let mut per_iter_ns: Vec<f64> = Vec::with_capacity(samples as usize);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..bench.iters {
            (bench.routine)();
        }
        per_iter_ns.push(start.elapsed().as_secs_f64() * 1e9 / bench.iters as f64);
    }
    per_iter_ns.sort_by(f64::total_cmp);
    let median = per_iter_ns[per_iter_ns.len() / 2];
    let mean = per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64;
    let var =
        per_iter_ns.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / per_iter_ns.len() as f64;
    BenchRecord {
        name: bench.name.clone(),
        group: bench.group.to_string(),
        iters: bench.iters,
        samples,
        median_ns: median,
        mean_ns: mean,
        std_ns: var.sqrt(),
        units: "ns/iter".to_string(),
    }
}

/// The canonical name of the synthetic package at `(layer, col)`.
fn synth_package_name(layer: usize, col: usize) -> String {
    format!("synth-l{layer:03}-p{col:03}")
}

/// A package deep in the synthetic repo's last layer — the incremental
/// bench's edit target (an edit at the bottom touches the smallest
/// frontier, which is exactly the case incremental re-propagation exists
/// for).
pub fn deep_package_name(packages: usize, width: usize) -> String {
    let depth = packages / width;
    synth_package_name(depth - 1, 0)
}

/// A deterministic layered stress repository of `packages` packages plus a
/// `synth-root` aggregator: `packages / width` layers of `width` packages,
/// the root depending on every layer-0 package and each layer-`i` package
/// depending on two packages of layer `i+1` (wrapping), so the root's
/// closure is the entire repository. Every package declares three versions
/// and one boolean variant; alternating dependency edges carry version
/// constraints so the solver does real domain pruning, not just graph
/// walking.
pub fn synth_repo(packages: usize, width: usize) -> Repo {
    use benchpark_pkg::{DepType, PackageDef};
    let depth = packages / width;
    let mut repo = Repo::new();
    for layer in 0..depth {
        for col in 0..width {
            let mut pkg =
                PackageDef::new(&synth_package_name(layer, col), "synthetic stress package")
                    .version("2.1.0")
                    .version("2.0.0")
                    .version("1.9.0")
                    .variant_bool("tuned", col % 2 == 0, "synthetic tuning knob");
            if layer + 1 < depth {
                let d1 = (col + 1) % width;
                let d2 = (col + 7) % width;
                let n1 = synth_package_name(layer + 1, d1);
                pkg = if col % 2 == 0 {
                    pkg.depends_on(&format!("{n1}@2:"), DepType::Link)
                } else {
                    pkg.depends_on(&n1, DepType::Link)
                };
                if d2 != d1 {
                    pkg = pkg.depends_on(&synth_package_name(layer + 1, d2), DepType::Link);
                }
            }
            repo.add(pkg);
        }
    }
    let mut root = PackageDef::new("synth-root", "synthetic stress root").version("1.0");
    for col in 0..width {
        root = root.depends_on(&synth_package_name(0, col), DepType::Link);
    }
    repo.add(root);
    repo
}

/// A deterministic ramble.yaml-shaped manifest with `n` experiment entries —
/// nested maps, sequences, flow lists, quoted and plain scalars — sized to
/// stress the parser the way a fleet-scale workspace does.
pub fn synth_manifest(n: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(n * 400);
    out.push_str("ramble:\n  variables:\n    mpi_command: 'srun -N {n_nodes} -n {n_ranks}'\n");
    out.push_str("    batch_submit: 'sbatch {execute_experiment}'\n  applications:\n");
    for i in 0..n {
        let app = ["saxpy", "amg2023", "lulesh", "stream"][i % 4];
        let _ = writeln!(out, "    exp_{i:05}:");
        let _ = writeln!(out, "      workloads:");
        let _ = writeln!(out, "        problem:");
        let _ = writeln!(out, "          experiments:");
        let _ = writeln!(out, "            {app}_{i:05}:");
        let _ = writeln!(out, "              variant: openmp");
        let _ = writeln!(out, "              variables:");
        let _ = writeln!(out, "                n_nodes: [1, 2, 4, 8]");
        let _ = writeln!(out, "                n_ranks: {}", (i % 16 + 1) * 4);
        let _ = writeln!(
            out,
            "                omp_threads: {{a: {}, b: 2}}",
            i % 8 + 1
        );
        let _ = writeln!(out, "                tag: \"run {i} of {n}\"");
        let _ = writeln!(out, "              zips:");
        let _ = writeln!(out, "                - [n_nodes, n_ranks]");
    }
    out
}

/// A deterministic corpus of constraint-heavy spec strings.
/// `n` valid experiment requests cycling through 8 tenants, 2 systems, and
/// 2 built-in experiments, so admission validation always passes and the
/// DRR scheduler has a genuinely multi-tenant queue to arbitrate.
fn synth_requests(n: usize) -> Vec<ExperimentRequest> {
    const TENANTS: [&str; 8] = [
        "acme", "blue", "cobalt", "delta", "ember", "flint", "gamma", "helix",
    ];
    const SYSTEMS: [&str; 2] = ["cts1", "ats2"];
    const EXPERIMENTS: [(&str, &str); 2] = [("saxpy", "openmp"), ("stream", "openmp")];
    (0..n)
        .map(|i| {
            let (benchmark, variant) = EXPERIMENTS[i % EXPERIMENTS.len()];
            ExperimentRequest::new(
                TENANTS[i % TENANTS.len()],
                benchmark,
                variant,
                SYSTEMS[(i / TENANTS.len()) % SYSTEMS.len()],
            )
        })
        .collect()
}

fn synth_spec_corpus(n: usize) -> Vec<String> {
    let apps = ["saxpy", "amg2023", "lulesh", "stream", "hypre", "caliper"];
    let variants = ["+openmp", "~openmp", "+caliper", ""];
    let versions = ["@1.0", "@2.3.7", "@0.4:1.2", ""];
    (0..n)
        .map(|i| {
            format!(
                "{}{}{}{}",
                apps[i % apps.len()],
                versions[(i / 3) % versions.len()],
                variants[(i / 7) % variants.len()],
                if i % 5 == 0 { " %gcc@12.1.0" } else { "" },
            )
        })
        .collect()
}

/// A layered DAG of `n` trivial tasks: ~100 tasks per layer, each depending
/// on two tasks of the previous layer, with LCG-derived durations.
fn synth_dag(n: usize) -> TaskGraph<u64> {
    let mut graph = TaskGraph::new();
    let width = 100.min(n.max(1));
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let duration = 0.5 + (state >> 40) as f64 / (1u64 << 24) as f64 * 9.5;
        let id = graph
            .add_task(&format!("task-{i:06}"), i as u64, duration)
            .expect("unique keys");
        let layer = i / width;
        if layer > 0 {
            let base = (layer - 1) * width;
            let d1 = base + (i + 1) % width;
            let d2 = base + (i + 7) % width;
            graph.depends_on(id, ids[d1]).expect("dep exists");
            if d2 != d1 {
                graph.depends_on(id, ids[d2]).expect("dep exists");
            }
        }
        ids.push(id);
    }
    graph
}

/// Canonical 16-hex-digit fingerprint for synthetic run `i`, experiment `j`.
fn fingerprint_hex(i: u64, j: u64) -> String {
    format!(
        "{:016x}",
        (i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) ^ (j.wrapping_mul(0xff51_afd7_ed55_8ccd))
    )
}

/// A deterministic `runs`-line ledger: four benchmarks × three systems of
/// interleaved history, each run carrying two experiments with three FOMs
/// and a fingerprint, FOM values wobbling ±2% so the regression scan does
/// real statistics without ever alarming.
pub fn synth_ledger_lines(runs: usize) -> Vec<String> {
    let benchmarks = ["saxpy", "amg2023", "lulesh", "stream"];
    let systems = ["cts1", "ats2", "ats4"];
    (0..runs)
        .map(|i| {
            let benchmark = benchmarks[i % benchmarks.len()];
            let system = systems[(i / benchmarks.len()) % systems.len()];
            let wobble = 1.0 + ((i % 9) as f64 - 4.0) * 0.005;
            let results: Vec<ExperimentResult> = (0..2u64)
                .map(|j| {
                    let mut variables = BTreeMap::new();
                    variables.insert("n_nodes".to_string(), (1 << (j % 4)).to_string());
                    variables.insert("experiment_run".to_string(), i.to_string());
                    ExperimentResult {
                        experiment: format!("{benchmark}_exp{j}"),
                        application: benchmark.to_string(),
                        workload: "problem".to_string(),
                        status: ExperimentStatus::Success,
                        foms: vec![
                            FomValue {
                                name: "figure_of_merit".to_string(),
                                value: format!("{:.4}", 12.5 * wobble + j as f64),
                                units: "s".to_string(),
                                context: BTreeMap::new(),
                            },
                            FomValue {
                                name: "bandwidth".to_string(),
                                value: format!("{:.2}", 182.0 / wobble),
                                units: "GB/s".to_string(),
                                context: BTreeMap::new(),
                            },
                            FomValue {
                                name: "iterations".to_string(),
                                value: "100".to_string(),
                                units: "".to_string(),
                                context: BTreeMap::new(),
                            },
                        ],
                        criteria: vec![("converged".to_string(), true)],
                        variables,
                        profile: vec![
                            ("setup".to_string(), 0.8),
                            ("solve".to_string(), 11.7 * wobble),
                        ],
                        cached: false,
                    }
                })
                .collect();
            let mut record = RunRecord::from_run(
                system,
                benchmark,
                "openmp",
                &format!("manifest for {benchmark} on {system}"),
                &results,
                None,
            )
            .with_fingerprints(vec![
                (format!("{benchmark}_exp0"), fingerprint_hex(i as u64, 0)),
                (format!("{benchmark}_exp1"), fingerprint_hex(i as u64, 1)),
            ]);
            record.sequence = i as u64 + 1;
            record.to_json_line()
        })
        .collect()
}

/// Replays ledger text through the line parser — the hot loop of
/// `load_ledger` without the filesystem.
fn replay_lines(text: &str) -> LedgerLoad {
    let mut load = LedgerLoad::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        if let Ok(mut record) = RunRecord::parse_line(line) {
            record.sequence = load.runs.len() as u64 + 1;
            load.runs.push(record);
        } else {
            load.skipped += 1;
        }
    }
    load
}

/// Hammers a recording sink with `records` histogram samples across four
/// stage families and a rotating per-tenant pair, values spread by an LCG
/// over the full bucket range — the daemon's per-commit `record_hist`
/// traffic at fleet scale.
fn hist_storm(records: usize) -> usize {
    let sink = TelemetrySink::recording();
    let stages = [
        "serve.stage.queue_wait",
        "serve.stage.schedule",
        "serve.stage.execute",
        "serve.stage.commit",
    ];
    let tenants = ["serve.tenant.acme.queue_wait", "serve.tenant.blue.execute"];
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..records {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let value = state >> 28; // up to ~2^36: exercises overflow too
        if i % 8 < 6 {
            sink.record_hist(stages[i % stages.len()], value);
        } else {
            sink.record_hist(tenants[i % tenants.len()], value);
        }
    }
    sink.report().map(|r| r.histograms.len()).unwrap_or(0)
}

/// Feeds `events` synthetic request completions through the daemon's
/// observability state — rolling windows plus stage/tenant histograms —
/// then builds and serializes the status snapshot with SLO verdicts: one
/// drain-loop's worth of `--status-out` work, end to end.
fn status_snapshot_storm(events: usize) -> usize {
    use benchpark_serve::{
        CompletionEvent, RollingWindows, SloSpec, StageHists, StatusSnapshot, TenantStats,
    };
    const TENANTS: [&str; 8] = [
        "acme", "blue", "cobalt", "delta", "ember", "flint", "gamma", "helix",
    ];
    let slo =
        SloSpec::parse("p99_queue_wait <= 2048 ticks\nhit_rate >= 0.25\nreject_rate <= 0.05\n")
            .expect("bench SLO parses");
    let mut windows = RollingWindows::default();
    let mut hists = StageHists::default();
    let mut report = benchpark_serve::ServeReport::default();
    let mut state = 0x517c_c1b7_2722_0a95_u64;
    for i in 0..events {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let tenant = TENANTS[i % TENANTS.len()];
        let tick = i as u64 * 2;
        let queue_wait = (state >> 56) + 1;
        let execute = (state >> 48) & 0x3ff;
        windows.record_submit(tick);
        windows.record_complete(
            tick + 1,
            CompletionEvent {
                fresh: 1,
                cached: (i % 4) as u64,
                queue_wait_ticks: queue_wait,
                execute_ticks: execute,
                ..CompletionEvent::default()
            },
        );
        hists.record(
            tenant,
            queue_wait,
            (i % 4) as u64,
            execute,
            (i % 4) as u64 + 1,
        );
        let stats = report
            .tenants
            .entry(tenant.to_string())
            .or_insert_with(TenantStats::default);
        stats.submitted += 1;
        stats.completed += 1;
        stats.fresh += 1;
        stats.cached += (i % 4) as u64;
        report.admitted += 1;
        report.completed += 1;
        report.experiments_fresh += 1;
        report.experiments_cached += (i % 4) as u64;
    }
    let snapshot = StatusSnapshot::build(events as u64 * 2, &report, &hists, &windows, Some(&slo));
    snapshot.to_json().len()
}

/// Hammers a recording sink with `events` journal appends: nested spans,
/// repeated counters, and observation samples in a fixed rotation.
fn journal_storm(events: usize) -> usize {
    let sink = TelemetrySink::recording();
    let counters = ["cache.hit", "engine.tasks.success", "concretizer.solves"];
    let gauges = ["scheduler.queue_depth", "install.worker_utilization"];
    let mut emitted = 0usize;
    while emitted < events {
        let span = sink.span("bench.storm");
        emitted += 2; // start + end
        for name in counters {
            sink.incr(name, 1);
            emitted += 1;
        }
        for (k, name) in gauges.iter().enumerate() {
            sink.observe(name, (emitted + k) as f64);
            emitted += 1;
        }
        drop(span);
    }
    sink.report().map(|r| r.journal.len()).unwrap_or(0)
}
