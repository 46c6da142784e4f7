//! Interconnect and MPI collective cost models.
//!
//! These analytical models (Hockney point-to-point plus standard collective
//! algorithm costs) are what give Figure 14 a real signal: the CTS
//! configuration uses a **linear** broadcast, whose completion time grows as
//! `(p-1)·(α + m/β)` — matching the paper's Extra-P fit of
//! `-0.64 + 0.047·p¹` for `MPI_Bcast` — while tree-based machines grow as
//! `⌈log₂ p⌉`. The broadcast-algorithm choice is ablation A4.

/// Broadcast algorithm used by the machine's MPI library.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BcastAlgorithm {
    /// Root sends to each rank in turn: `(p-1)` sequential messages.
    Linear,
    /// Binomial tree: `⌈log₂ p⌉` rounds.
    BinomialTree,
    /// Scatter + ring allgather (good for large messages):
    /// `(log₂ p + p-1)` phases on `m/p` chunks.
    ScatterAllgather,
}

/// Hockney-model interconnect parameters.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    /// One-way small-message latency α, microseconds.
    pub latency_us: f64,
    /// Per-link bandwidth β, GB/s.
    pub bandwidth_gb_s: f64,
    /// Broadcast algorithm the MPI library picks on this machine.
    pub bcast: BcastAlgorithm,
}

impl NetworkModel {
    /// Point-to-point time for `bytes`, in seconds.
    pub fn ptp_seconds(&self, bytes: u64) -> f64 {
        self.latency_us * 1e-6 + bytes as f64 / (self.bandwidth_gb_s * 1e9)
    }
}

/// Collective cost calculator over a network model.
pub struct CollectiveModel<'a> {
    net: &'a NetworkModel,
}

impl<'a> CollectiveModel<'a> {
    /// Wraps a network model.
    pub fn new(net: &'a NetworkModel) -> CollectiveModel<'a> {
        CollectiveModel { net }
    }

    fn ptp(&self, bytes: u64) -> f64 {
        self.net.ptp_seconds(bytes)
    }

    /// Broadcast with an explicit algorithm.
    pub fn bcast(&self, algorithm: BcastAlgorithm, p: usize, bytes: u64) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let rounds = (p as f64).log2().ceil();
        match algorithm {
            BcastAlgorithm::Linear => (p as f64 - 1.0) * self.ptp(bytes),
            BcastAlgorithm::BinomialTree => rounds * self.ptp(bytes),
            BcastAlgorithm::ScatterAllgather => {
                let chunk = (bytes as f64 / p as f64).ceil() as u64;
                rounds * self.ptp(chunk) + (p as f64 - 1.0) * self.ptp(chunk)
            }
        }
    }

    /// Recursive-doubling allreduce.
    pub fn allreduce(&self, p: usize, bytes: u64) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        (p as f64).log2().ceil() * self.ptp(bytes)
    }

    /// Binomial-tree reduce.
    pub fn reduce(&self, p: usize, bytes: u64) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        (p as f64).log2().ceil() * self.ptp(bytes)
    }

    /// Ring allgather of `bytes` per rank.
    pub fn allgather(&self, p: usize, bytes_per_rank: u64) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        (p as f64 - 1.0) * self.ptp(bytes_per_rank)
    }

    /// Dissemination barrier.
    pub fn barrier(&self, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        (p as f64).log2().ceil() * self.ptp(0)
    }

    /// Nearest-neighbor halo exchange (6 faces, overlapping pairs).
    pub fn halo3d(&self, face_bytes: u64) -> f64 {
        2.0 * self.ptp(face_bytes) * 3.0
    }
}
