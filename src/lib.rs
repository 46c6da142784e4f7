//! # benchpark
//!
//! A Rust reproduction of **Benchpark** — the collaborative continuous
//! benchmarking system for HPC described in *Towards Collaborative Continuous
//! Benchmarking for HPC* (Pearce et al., SC-W 2023).
//!
//! This facade crate re-exports every subsystem so downstream users can depend
//! on a single crate, and holds the hot-path bench suite:
//!
//! * [`yamlite`] — YAML-subset configuration parser/emitter.
//! * [`rex`] — regex engine with named groups for figure-of-merit extraction.
//! * [`archspec`] — microarchitecture taxonomy and compiler-flag selection.
//! * [`spec`] — package spec syntax and constraint algebra (Spack-style).
//! * [`pkg`] — package and application recipe repository.
//! * [`concretizer`] — abstract-to-concrete spec resolution.
//! * [`spack`] — configuration scopes, environments, install engine, binary cache.
//! * [`ramble`] — experimentation framework (workspaces, matrices, FOMs).
//! * [`cluster`] — simulated HPC systems, scheduler, and execution engine.
//! * [`perf`] — Caliper/Thicket/Extra-P-style performance analysis.
//! * [`ci`] — continuous-integration substrate (git, Hubcast, Jacamar, pipelines).
//! * [`lint`] — cross-artifact static analysis with rustc-style diagnostics.
//! * [`telemetry`] — pipeline self-instrumentation (spans, counters, event journal).
//! * [`obs`] — telemetry exporters: Chrome trace JSON, folded flamegraphs,
//!   Prometheus text exposition.
//! * [`resilience`] — retry policies, circuit breakers, and seeded fault injection.
//! * [`core`] — the Benchpark driver: systems, suites, metrics database, reports.
//! * [`serve`] — the multi-tenant service: submission queue, deficit
//!   round-robin scheduler, admission control, sharded ledgers
//!   (see `docs/SERVICE.md`).
//! * [`mod@bench`] — the hot-path suite behind `benchpark bench` and the
//!   `BENCH_<date>.json` trajectory (see `docs/perf/methodology.md`).
//!
//! See `DESIGN.md` for the full system inventory and `EXPERIMENTS.md` for the
//! paper-versus-measured record of every table and figure.

pub use benchpark_archspec as archspec;
pub use benchpark_ci as ci;
pub use benchpark_cluster as cluster;
pub use benchpark_concretizer as concretizer;
pub use benchpark_core as core;
pub use benchpark_lint as lint;
pub use benchpark_obs as obs;
pub use benchpark_perf as perf;
pub use benchpark_pkg as pkg;
pub use benchpark_ramble as ramble;
pub use benchpark_resilience as resilience;
pub use benchpark_rex as rex;
pub use benchpark_serve as serve;
pub use benchpark_spack as spack;
pub use benchpark_spec as spec;
pub use benchpark_telemetry as telemetry;
pub use benchpark_yamlite as yamlite;

pub mod bench;
