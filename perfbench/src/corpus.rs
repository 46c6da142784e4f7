//! Seeded inputs shared by the workloads: a small RNG, the demonstration
//! matrix, template variants, and file-tree digests for output checks.

use benchpark_core::{available_experiments, experiment_template, FingerprintBuilder};
use std::path::Path;

/// Tenants of the serve replay and of the ledger corpus.
pub const TENANTS: [&str; 8] = [
    "atlas", "borealis", "cirrus", "dorado", "eridani", "fornax", "gemini", "hydra",
];
/// Benchmarks (all `openmp`) the serve replay and ledger corpus cover.
pub const BENCHMARKS: [&str; 4] = ["saxpy", "stream", "amg2023", "lulesh"];
/// The two systems of the serve replay and ledger corpus.
pub const SYSTEMS: [&str; 2] = ["cts1", "cloud-c5"];

/// SplitMix64: the whole input set of a run follows from `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_be4c_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[-1, 1)`.
    pub fn signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One cell of the demonstration matrix.
pub struct Combo {
    pub benchmark: &'static str,
    pub variant: &'static str,
    pub system: &'static str,
}

impl Combo {
    pub fn tag(&self) -> String {
        format!("{}-{}-{}", self.benchmark, self.variant, self.system)
    }
}

/// Every shipped template on every system that supports it, as the
/// demonstration-matrix integration test enumerates it (GPU variants on
/// their GPU system, the 96-node bcast study on `cts1` only, the rest on
/// `cts1` and the cloud pool).
pub fn demo_matrix() -> Vec<Combo> {
    let mut combos = Vec::new();
    for (benchmark, variant) in available_experiments() {
        let systems: &[&'static str] = match (benchmark, variant) {
            ("osu-bcast", _) => &["cts1"],
            (_, "cuda") => &["ats2"],
            (_, "rocm") => &["ats4"],
            _ => &["cts1", "cloud-c5"],
        };
        for &system in systems {
            combos.push(Combo {
                benchmark,
                variant,
                system,
            });
        }
    }
    combos
}

/// The built-in template for `benchmark/variant` with one experiment
/// variable changed: `batch_time` raised by `bump` minutes. The text (and so
/// every experiment fingerprint) differs from the built-in and from every
/// other bump, while the experiments still run to success.
pub fn template_variant(benchmark: &str, variant: &str, bump: u32) -> Result<String, String> {
    let base = experiment_template(benchmark, variant)
        .ok_or_else(|| format!("no template for {benchmark}/{variant}"))?;
    let key = "batch_time: '";
    let at = base
        .find(key)
        .ok_or_else(|| format!("{benchmark}/{variant} template has no batch_time"))?
        + key.len();
    let len = base[at..]
        .find('\'')
        .ok_or("unterminated batch_time value")?;
    let minutes: u32 = base[at..at + len]
        .parse()
        .map_err(|_| format!("batch_time `{}` is not a number", &base[at..at + len]))?;
    Ok(format!(
        "{}{}{}",
        &base[..at],
        minutes + bump,
        &base[at + len..]
    ))
}

/// Digest of a string.
pub fn digest(text: &str) -> String {
    FingerprintBuilder::new().field("text", text).finish().hex()
}

/// Digest of every file under `dir`: relative paths and contents, in
/// sorted order.
pub fn tree_digest(dir: &Path) -> Result<String, String> {
    let mut builder = FingerprintBuilder::new();
    for rel in files_under(dir)? {
        let text = std::fs::read_to_string(dir.join(&rel))
            .map_err(|e| format!("cannot read `{rel}`: {e}"))?;
        builder = builder.field(&rel, &text);
    }
    Ok(builder.finish().hex())
}

/// Relative paths of every file under `dir`, sorted.
pub fn files_under(dir: &Path) -> Result<Vec<String>, String> {
    let mut files = Vec::new();
    collect_files(dir, dir, &mut files)?;
    files.sort();
    Ok(files)
}

fn collect_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list `{}`: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            collect_files(root, &path, out)?;
        } else {
            let rel = path.strip_prefix(root).map_err(|e| e.to_string())?;
            out.push(rel.display().to_string());
        }
    }
    Ok(())
}

/// Size in bytes of a file, or of every file under a directory.
pub fn disk_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::metadata(path) else {
        return 0;
    };
    if !meta.is_dir() {
        return meta.len();
    }
    std::fs::read_dir(path)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .map(|e| disk_bytes(&e.path()))
                .sum()
        })
        .unwrap_or(0)
}

/// Copies a directory tree.
pub fn copy_tree(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("cannot create `{}`: {e}", to.display()))?;
    let entries =
        std::fs::read_dir(from).map_err(|e| format!("cannot list `{}`: {e}", from.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let target = to.join(path.file_name().expect("listed entries have names"));
        if path.is_dir() {
            copy_tree(&path, &target)?;
        } else {
            std::fs::copy(&path, &target)
                .map_err(|e| format!("cannot copy `{}`: {e}", path.display()))?;
        }
    }
    Ok(())
}
