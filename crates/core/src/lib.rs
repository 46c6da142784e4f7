//! `benchpark-core` — the Benchpark driver: systems, experiment suites, the
//! end-to-end workflow, the metrics database, and reports.
//!
//! This crate is the paper's primary contribution (§2): *"Benchpark is an
//! infrastructure-as-code project combining a variety of open source tools
//! into a fully specified system for tracking benchmark performance across a
//! variety of systems, across multiple HPC centers, and across arbitrary
//! choices of benchmarks"* — with every component orthogonalized into
//! benchmark-specific, system-specific, and experiment-specific concerns
//! (Table 1).
//!
//! * [`SystemProfile`] — the `configs/<system>/` directories of Figure 1a:
//!   `compilers.yaml`, `packages.yaml`, `spack.yaml`, `variables.yaml` for
//!   the three demonstration systems (`cts1`, `ats2`, `ats4`, §4) plus the
//!   cloud pool of §7.2 — each backed by a simulated machine.
//! * [`experiment_template`] — the `experiments/<benchmark>/<variant>/`
//!   entries (Figure 1a lines 20–40): `ramble.yaml` texts per benchmark and
//!   programming model.
//! * [`Benchpark`] — the driver (Figure 1b/1c): step 2's
//!   `/bin/benchpark $experiment $system $workspace_dir` becomes
//!   [`Benchpark::setup_workspace`], and the remaining workflow steps map to
//!   methods on the returned [`BenchparkWorkspace`].
//! * [`MetricsDatabase`] — §5's goal: results stored *with* the exact
//!   experiment manifests, queryable across systems and time, convertible to
//!   [`benchpark_perf::Thicket`]s for Extra-P modeling (Figure 14).
//! * [`table1`] — the component matrix of Table 1, regenerated from the
//!   implemented modules.
//! * [`scaling`] — the Figure 14 pipeline: broadcast scaling study →
//!   Thicket → Extra-P model.

pub mod benchjson;
mod components;
mod driver;
pub mod fingerprint;
pub mod ledger;
mod metrics;
mod plot;
pub mod procurement;
pub mod regression;
pub mod scaling;
mod systems;
mod templates;
mod tree;

pub use benchjson::{
    calibration_speed_factor, compare_bench_reports, compare_bench_reports_calibrated, today_utc,
    BenchComparison, BenchEnv, BenchRecord, BenchReport, BENCH_SCHEMA, BENCH_SUITE,
};
pub use components::{render_table1, table1, Table1Row};
pub use driver::{
    gate_failed_experiments, Benchpark, BenchparkWorkspace, CollectedRun, FleetExperiment,
    FleetOutcome, IncrementalPlan, RunSpec, StagedRun, WorkflowLog,
};
pub use fingerprint::{CachedExperiment, Fingerprint, FingerprintBuilder, FingerprintIndex};
pub use ledger::{
    append_run, load_ledger, shard_path, LedgerLoad, LedgerShard, RequestTrace, RunRecord,
    ShardedLedger, LEDGER_SCHEMA, LEDGER_SCHEMA_MIN,
};
pub use metrics::{MetricsDatabase, StoredResult};
pub use plot::ascii_plot;
pub use procurement::{ProcurementReport, ProcurementStudy, WorkloadSpec};
pub use regression::{
    baseline_verdict, detect_regression, lower_is_better_units, scan_regressions, BaselineVerdict,
    RegressionReport,
};
pub use systems::SystemProfile;
pub use templates::{available_experiments, experiment_template};
pub use tree::{render_tree, write_skeleton};

#[cfg(test)]
mod tests;
#[cfg(test)]
mod tests_bench;
#[cfg(test)]
mod tests_extended;
#[cfg(test)]
mod tests_ledger_decode;
#[cfg(test)]
mod tests_obs;
