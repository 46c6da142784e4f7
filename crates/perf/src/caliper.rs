//! Caliper-style profiles.

use std::collections::BTreeMap;

/// One performance profile: call-path regions with inclusive times, plus
/// run metadata (Adiak).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Region path (`main/solve`) → inclusive seconds.
    pub regions: BTreeMap<String, f64>,
    /// Adiak metadata (`machine=cts1`, `nprocs=512`, …).
    pub metadata: BTreeMap<String, String>,
}

impl Profile {
    /// Builds a profile from `(region, seconds)` pairs (e.g. a simulated
    /// job's output) and metadata pairs.
    pub fn from_parts<R, M>(regions: R, metadata: M) -> Profile
    where
        R: IntoIterator<Item = (String, f64)>,
        M: IntoIterator<Item = (String, String)>,
    {
        Profile {
            regions: regions.into_iter().collect(),
            metadata: metadata.into_iter().collect(),
        }
    }

    /// Looks up a region's time.
    pub fn get(&self, path: &str) -> Option<f64> {
        self.regions.get(path).copied()
    }

    /// A metadata value.
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.metadata.get(key).map(String::as_str)
    }
}
