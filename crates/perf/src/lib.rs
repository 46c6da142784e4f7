//! `benchpark-perf` — performance analysis: Caliper-style profiles,
//! Thicket multi-profile composition, and Extra-P scaling models.
//!
//! Paper §5 lays out the performance-analysis plan this crate implements:
//!
//! * *"we plan to annotate the benchmarks with **Caliper**"* — a
//!   [`Profile`] holds one run's call-path regions (`main/solve` →
//!   inclusive seconds), built with [`Profile::from_parts`] from the
//!   region output of a simulated job. The pipeline's own regions are
//!   telemetry spans (`benchpark-telemetry`), not profiles.
//! * *"We will use **Adiak** to collect metadata related to the build
//!   settings and execution contexts, enabling filtering and sorting of
//!   collected profiles"* — each profile's metadata pairs
//!   (`machine=cts1`, `nprocs=512`, …), which the driver attaches when it
//!   builds a Thicket from its results.
//! * *"**Thicket** … composes performance data from multiple performance
//!   profiles potentially generated at different scales, on different
//!   architectures"* — [`Thicket`]: a (profile × call-tree-node) table with
//!   filter / group-by / per-node statistics.
//! * *"an analytical performance model computed by **Extra-P**"* (Figure 14)
//!   — [`extrap::fit`] searches the standard Extra-P hypothesis space
//!   `c + a·p^i·log₂^j(p)` by least squares and reports the best model in
//!   the figure's notation, e.g. `-0.636 + 0.0466 * p^(1)`.

mod caliper;
pub mod extrap;
mod thicket;

pub use caliper::Profile;
pub use extrap::{fit, ScalingModel};
pub use thicket::{NodeStats, Thicket};

#[cfg(test)]
mod tests;
