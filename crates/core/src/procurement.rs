//! Procurement studies: the paper's §1 motivating use case.
//!
//! *"Benchmarking … helps evaluate which of the proposed HPC systems will
//! result in the best performance for a particular HPC center workload, and
//! is useful for co-designing future HPC system procurements."*
//!
//! A [`ProcurementStudy`] takes the center's workload mix (benchmarks with
//! FOMs and weights), runs it on every candidate system through the full
//! Benchpark pipeline, and scores the candidates — performance-only and
//! performance-per-watt — producing the comparison table a procurement team
//! would circulate.

use crate::driver::Benchpark;
use std::collections::BTreeMap;
use std::path::Path;

/// One entry of the HPC center's workload mix.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    pub benchmark: String,
    /// Which experiment variant to use per system (keyed by system name;
    /// `*` is the fallback) — GPU systems run `cuda`/`rocm` builds.
    pub variant_by_system: BTreeMap<String, String>,
    /// The figure of merit to score.
    pub fom: String,
    /// True if larger FOM values are better (throughput); false for
    /// latencies/times.
    pub higher_is_better: bool,
    /// Relative importance in the center's mix (weights are normalized).
    pub weight: f64,
}

impl WorkloadSpec {
    /// A workload using the same variant everywhere.
    pub fn uniform(
        benchmark: &str,
        variant: &str,
        fom: &str,
        higher_is_better: bool,
        weight: f64,
    ) -> WorkloadSpec {
        let mut map = BTreeMap::new();
        map.insert("*".to_string(), variant.to_string());
        WorkloadSpec {
            benchmark: benchmark.to_string(),
            variant_by_system: map,
            fom: fom.to_string(),
            higher_is_better,
            weight,
        }
    }

    /// Sets a per-system variant override.
    pub fn with_variant(mut self, system: &str, variant: &str) -> Self {
        self.variant_by_system
            .insert(system.to_string(), variant.to_string());
        self
    }

    fn variant_for(&self, system: &str) -> Option<&str> {
        self.variant_by_system
            .get(system)
            .or_else(|| self.variant_by_system.get("*"))
            .map(String::as_str)
    }
}

/// One candidate's measured numbers for one workload.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Best FOM value achieved across the workload's experiments.
    pub fom_value: f64,
    /// Energy consumed by the workload's jobs, kWh.
    pub energy_kwh: f64,
    /// Relative score in `[0, 1]` (1 = best candidate for this workload).
    pub score: f64,
}

/// The study result.
#[derive(Debug, Clone)]
pub struct ProcurementReport {
    /// Candidate systems, in input order.
    pub systems: Vec<String>,
    /// Workload names, in input order.
    pub workloads: Vec<String>,
    /// `(workload, system)` → measurement.
    pub measurements: BTreeMap<(String, String), Measurement>,
    /// Weighted aggregate score per system (higher = better).
    pub aggregate: BTreeMap<String, f64>,
    /// Weighted aggregate of score-per-kWh (efficiency view).
    pub aggregate_per_watt: BTreeMap<String, f64>,
}

impl ProcurementReport {
    /// The winning system by aggregate performance score.
    pub fn winner(&self) -> Option<&str> {
        self.aggregate
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(name, _)| name.as_str())
    }

    /// The winning system by performance-per-watt.
    pub fn efficiency_winner(&self) -> Option<&str> {
        self.aggregate_per_watt
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(name, _)| name.as_str())
    }

    /// Renders the procurement comparison table.
    pub fn render(&self) -> String {
        let mut out =
            String::from("Procurement study: normalized workload scores (1.0 = best)\n\n");
        out.push_str(&format!("{:<24}", "workload"));
        for system in &self.systems {
            out.push_str(&format!("{system:>12}"));
        }
        out.push('\n');
        for workload in &self.workloads {
            out.push_str(&format!("{workload:<24}"));
            for system in &self.systems {
                match self.measurements.get(&(workload.clone(), system.clone())) {
                    Some(m) => out.push_str(&format!("{:>12.3}", m.score)),
                    None => out.push_str(&format!("{:>12}", "-")),
                }
            }
            out.push('\n');
        }
        out.push_str(&format!("{:<24}", "aggregate"));
        for system in &self.systems {
            out.push_str(&format!(
                "{:>12.3}",
                self.aggregate.get(system).copied().unwrap_or(0.0)
            ));
        }
        out.push('\n');
        out.push_str(&format!("{:<24}", "aggregate per kWh"));
        for system in &self.systems {
            out.push_str(&format!(
                "{:>12.3}",
                self.aggregate_per_watt.get(system).copied().unwrap_or(0.0)
            ));
        }
        out.push('\n');
        if let Some(w) = self.winner() {
            out.push_str(&format!("\nperformance winner:  {w}\n"));
        }
        if let Some(w) = self.efficiency_winner() {
            out.push_str(&format!("efficiency winner:   {w}\n"));
        }
        out
    }
}

/// Runs a procurement study over candidate systems.
pub struct ProcurementStudy {
    pub workloads: Vec<WorkloadSpec>,
    pub systems: Vec<String>,
}

impl ProcurementStudy {
    /// Builds a study.
    pub fn new(workloads: Vec<WorkloadSpec>, systems: &[&str]) -> ProcurementStudy {
        ProcurementStudy {
            workloads,
            systems: systems.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Executes every (workload × candidate) through the full pipeline and
    /// scores the candidates.
    pub fn run(&self, workspace_root: impl AsRef<Path>) -> Result<ProcurementReport, String> {
        let benchpark = Benchpark::new();
        let root = workspace_root.as_ref();
        let mut raw: BTreeMap<(String, String), (f64, f64)> = BTreeMap::new();

        for workload in &self.workloads {
            for system in &self.systems {
                let Some(variant) = workload.variant_for(system) else {
                    continue;
                };
                let tag = format!("{}-{}-{}", workload.benchmark, variant, system);
                let mut ws = benchpark
                    .setup_workspace(&workload.benchmark, variant, system, root.join(&tag))
                    .map_err(|e| format!("{tag}: {e}"))?;
                ws.run().map_err(|e| format!("{tag}: {e}"))?;
                let analysis = ws.analyze(&benchpark).map_err(|e| format!("{tag}: {e}"))?;
                let best = analysis
                    .successes()
                    .flat_map(|r| r.foms.iter())
                    .filter(|f| f.name == workload.fom)
                    .filter_map(|f| f.as_f64())
                    .fold(f64::NAN, |acc, v| {
                        if acc.is_nan() {
                            v
                        } else if workload.higher_is_better {
                            acc.max(v)
                        } else {
                            acc.min(v)
                        }
                    });
                if best.is_nan() {
                    return Err(format!(
                        "{tag}: FOM `{}` not found in any result",
                        workload.fom
                    ));
                }
                let energy: f64 = ws.cluster.jobs().map(|j| j.energy_kwh).sum();
                raw.insert((workload.benchmark.clone(), system.clone()), (best, energy));
            }
        }

        // normalize per workload and aggregate with weights
        let total_weight: f64 = self.workloads.iter().map(|w| w.weight).sum();
        let mut measurements = BTreeMap::new();
        let mut aggregate: BTreeMap<String, f64> = BTreeMap::new();
        let mut aggregate_per_watt: BTreeMap<String, f64> = BTreeMap::new();
        for workload in &self.workloads {
            let values: Vec<f64> = self
                .systems
                .iter()
                .filter_map(|s| raw.get(&(workload.benchmark.clone(), s.clone())))
                .map(|(v, _)| *v)
                .collect();
            let best = if workload.higher_is_better {
                values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            } else {
                values.iter().copied().fold(f64::INFINITY, f64::min)
            };
            for system in &self.systems {
                let Some((value, energy)) = raw.get(&(workload.benchmark.clone(), system.clone()))
                else {
                    continue;
                };
                let score = if workload.higher_is_better {
                    value / best
                } else {
                    best / value
                };
                measurements.insert(
                    (workload.benchmark.clone(), system.clone()),
                    Measurement {
                        fom_value: *value,
                        energy_kwh: *energy,
                        score,
                    },
                );
                *aggregate.entry(system.clone()).or_insert(0.0) +=
                    score * workload.weight / total_weight;
                let per_watt = score / energy.max(1e-9);
                *aggregate_per_watt.entry(system.clone()).or_insert(0.0) +=
                    per_watt * workload.weight / total_weight;
            }
        }
        // normalize the per-watt aggregate to 1.0 for readability
        let max_pw = aggregate_per_watt
            .values()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        if max_pw.is_finite() && max_pw > 0.0 {
            for v in aggregate_per_watt.values_mut() {
                *v /= max_pw;
            }
        }

        Ok(ProcurementReport {
            systems: self.systems.clone(),
            workloads: self.workloads.iter().map(|w| w.benchmark.clone()).collect(),
            measurements,
            aggregate,
            aggregate_per_watt,
        })
    }
}
