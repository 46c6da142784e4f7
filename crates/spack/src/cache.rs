//! The content-addressed binary cache (paper §7.2: *"the Spack build pipeline
//! and rolling binary cache makes packages available to all Spack users"*).

use benchpark_resilience::FaultInjector;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cached binary package.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    pub hash: String,
    pub spec_short: String,
    /// Simulated archive size in bytes (drives fetch-time modeling).
    pub size_bytes: u64,
}

/// A transient cache transport failure: the entry may well exist, but this
/// fetch attempt did not reach the bucket (the simulated S3 hiccup). Retry
/// or fall back to a source build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheFetchError {
    /// The hash whose fetch attempt failed.
    pub hash: String,
}

impl fmt::Display for CacheFetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "transient failure fetching {} from binary cache",
            self.hash
        )
    }
}

impl std::error::Error for CacheFetchError {}

/// Cache hit/miss counters.
#[derive(Debug, Default)]
pub struct CacheStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub pushes: AtomicU64,
    /// Transient fetch errors (injected transport failures).
    pub errors: AtomicU64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        let hits = self.hits.load(Ordering::Relaxed) as f64;
        let misses = self.misses.load(Ordering::Relaxed) as f64;
        if hits + misses == 0.0 {
            0.0
        } else {
            hits / (hits + misses)
        }
    }
}

/// A shared, thread-safe binary cache (the S3 bucket in Figure 6).
#[derive(Debug, Clone, Default)]
pub struct BinaryCache {
    entries: Arc<RwLock<BTreeMap<String, CacheEntry>>>,
    stats: Arc<CacheStats>,
    faults: Arc<RwLock<Option<FaultInjector>>>,
}

impl BinaryCache {
    /// An empty cache.
    pub fn new() -> BinaryCache {
        BinaryCache::default()
    }

    /// Makes fetches flaky: each [`BinaryCache::try_fetch`] consults the
    /// injector and may return a transient [`CacheFetchError`]. Shared across
    /// clones, so a plan wired after handles were passed around still applies
    /// everywhere. Plain [`BinaryCache::fetch`] is unaffected.
    pub fn inject_faults(&self, injector: FaultInjector) {
        *self.faults.write() = Some(injector);
    }

    /// Looks up a build by hash, counting hit/miss.
    pub fn fetch(&self, hash: &str) -> Option<CacheEntry> {
        let result = self.entries.read().get(hash).cloned();
        match &result {
            Some(_) => self.stats.hits.fetch_add(1, Ordering::Relaxed),
            None => self.stats.misses.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    /// Like [`BinaryCache::fetch`], but the transport can fail: when a fault
    /// injector is wired in, an attempt may return `Err(CacheFetchError)`
    /// without touching hit/miss stats (the bucket was never reached).
    /// `Ok(None)` is a genuine miss.
    pub fn try_fetch(&self, hash: &str) -> Result<Option<CacheEntry>, CacheFetchError> {
        let flaked = self.faults.read().as_ref().is_some_and(|i| i.should_fail());
        if flaked {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
            return Err(CacheFetchError {
                hash: hash.to_string(),
            });
        }
        Ok(self.fetch(hash))
    }

    /// True if the hash is cached (does not affect stats).
    pub fn contains(&self, hash: &str) -> bool {
        self.entries.read().contains_key(hash)
    }

    /// Publishes a build.
    pub fn push(&self, entry: CacheEntry) {
        self.stats.pushes.fetch_add(1, Ordering::Relaxed);
        self.entries.write().insert(entry.hash.clone(), entry);
    }

    /// Number of cached builds.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// True if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.stats.hits.load(Ordering::Relaxed),
            self.stats.misses.load(Ordering::Relaxed),
            self.stats.pushes.load(Ordering::Relaxed),
        )
    }

    /// Hit ratio in `[0, 1]`.
    pub fn hit_ratio(&self) -> f64 {
        self.stats.hit_ratio()
    }

    /// Number of injected transient fetch errors observed so far.
    pub fn fetch_errors(&self) -> u64 {
        self.stats.errors.load(Ordering::Relaxed)
    }
}
