//! Workload generation: keys, values, and operation mixes.

use oak_failpoints::SplitMix64;

/// How keys are drawn from the range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDistribution {
    /// Uniform over the range (the paper's workloads).
    Uniform,
    /// Zipfian with skew parameter `theta` (0 < theta < 1; synchrobench's
    /// skewed option). Popular keys concentrate contention.
    Zipfian {
        /// Skew: 0 approaches uniform; 0.99 is the YCSB default.
        theta: f64,
    },
}

/// Workload parameters, defaulting to the paper's §5.1 setup scaled to a
/// laptop-class host (the constants, not the shapes, change).
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of distinct keys in the accessed range.
    pub key_range: u64,
    /// Serialized key size in bytes (paper: 100).
    pub key_size: usize,
    /// Serialized value size in bytes (paper: 1024).
    pub value_size: usize,
    /// RNG seed (runs are reproducible).
    pub seed: u64,
    /// Key distribution.
    pub distribution: KeyDistribution,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            key_range: 100_000,
            key_size: 100,
            value_size: 1024,
            seed: 0xA110C8ED,
            distribution: KeyDistribution::Uniform,
        }
    }
}

impl WorkloadConfig {
    /// A small configuration for fast runs.
    pub fn small() -> Self {
        WorkloadConfig {
            key_range: 20_000,
            key_size: 100,
            value_size: 1024,
            seed: 0xA110C8ED,
            distribution: KeyDistribution::Uniform,
        }
    }

    /// Switches the workload to a Zipfian key distribution.
    pub fn zipfian(mut self, theta: f64) -> Self {
        assert!(theta > 0.0 && theta < 1.0, "theta in (0, 1)");
        self.distribution = KeyDistribution::Zipfian { theta };
        self
    }

    /// Encodes key id `i` as a fixed-width sortable byte string of
    /// `key_size` bytes (zero-padded decimal followed by padding).
    pub fn key(&self, i: u64) -> Vec<u8> {
        let mut k = format!("{i:020}").into_bytes();
        k.resize(self.key_size, b'k');
        k
    }

    /// A deterministic value for key id `i`.
    pub fn value(&self, i: u64) -> Vec<u8> {
        let mut v = vec![(i % 251) as u8; self.value_size];
        if self.value_size >= 8 {
            v[..8].copy_from_slice(&i.to_le_bytes());
        }
        v
    }
}

/// Precomputed Zipf state (Gray et al., "Quickly Generating
/// Billion-Record Synthetic Databases").
struct ZipfState {
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl ZipfState {
    fn new(n: u64, theta: f64) -> Self {
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        ZipfState {
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    fn sample(&self, u: f64, n: u64) -> u64 {
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(n - 1)
    }
}

/// Per-thread deterministic key sampler.
pub struct KeySampler {
    rng: SplitMix64,
    range: u64,
    zipf: Option<ZipfState>,
}

impl KeySampler {
    /// Creates a sampler for `thread_id` under `config`.
    pub fn new(config: &WorkloadConfig, thread_id: u64) -> Self {
        let zipf = match config.distribution {
            KeyDistribution::Uniform => None,
            KeyDistribution::Zipfian { theta } => Some(ZipfState::new(config.key_range, theta)),
        };
        KeySampler {
            rng: SplitMix64::new(config.seed ^ (thread_id.wrapping_mul(0x9E3779B97F4A7C15))),
            range: config.key_range,
            zipf,
        }
    }

    /// Next sampled key id (uniform or Zipfian, per the configuration).
    pub fn next_id(&mut self) -> u64 {
        match &self.zipf {
            None => self.rng.below(self.range),
            Some(z) => {
                let u = self.rng.unit_f64();
                // Scramble the rank so hot keys scatter across the range,
                // as YCSB does.
                let rank = z.sample(u, self.range);
                rank.wrapping_mul(0x9E3779B97F4A7C15) % self.range
            }
        }
    }

    /// Next sample in `[0, 100)` (for op-mix percentages).
    pub fn next_pct(&mut self) -> u32 {
        self.rng.below(100) as u32
    }
}

/// The operation mixes of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Fig 4a: 100% put.
    PutOnly,
    /// Fig 4b: 100% in-place 8-byte computeIfPresent / merge.
    ComputeOnly,
    /// Fig 4c: 100% get, zero-copy.
    GetZeroCopy,
    /// Fig 4c: 100% get through the copying (legacy) API.
    GetCopy,
    /// Fig 4d: 95% get / 5% put.
    Mixed95,
    /// Fig 4e: ascending scans of `len` pairs; `stream` picks the API.
    AscendScan {
        /// Entries per scan (paper: 10_000).
        len: usize,
        /// Stream (object-reusing) vs Set API.
        stream: bool,
    },
    /// Fig 4f: descending scans.
    DescendScan {
        /// Entries per scan.
        len: usize,
        /// Stream vs Set API.
        stream: bool,
    },
    /// Bounded range scans (`4g`): ascend over `[key(id), key(id + span))`
    /// from a sampled start key. Unlike [`Mix::AscendScan`], the scan is
    /// bounded by a *key*, not an entry count, so short scans measure the
    /// fixed per-scan cost (positioning + snapshot) and long ones the
    /// per-entry drain cost.
    RangeScan {
        /// Key-id width of the scanned range. Ingestion populates half the
        /// ids, so a scan visits about `span / 2` live entries.
        span: u64,
        /// Stream (object-reusing) vs Set API.
        stream: bool,
    },
    /// Delete-heavy churn: 50% put / 50% remove (exercises the memory
    /// managers; used by the reclamation ablation).
    PutRemoveChurn,
    /// Scans under write churn (`4h`): ~10% of ops are bounded ascending
    /// scans, the rest put/remove churn over the whole key range. The
    /// churn inserts un-ingested keys, so chunks keep splitting while
    /// scans are mid-flight — the scenario that actually exercises the
    /// batch pipeline's revision-stamp revalidation (`scan_revalidations`
    /// is 0 by design in the read-only `4e`/`4f` scans, whose population
    /// is frozen after ingest).
    ScanChurn {
        /// Entries per scan.
        len: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_fixed_width_and_sortable() {
        let c = WorkloadConfig::default();
        let a = c.key(1);
        let b = c.key(2);
        let z = c.key(1_000_000);
        assert_eq!(a.len(), 100);
        assert!(a < b && b < z);
    }

    #[test]
    fn sampler_is_deterministic_per_thread() {
        let c = WorkloadConfig::default();
        let mut s1 = KeySampler::new(&c, 3);
        let mut s2 = KeySampler::new(&c, 3);
        let mut s3 = KeySampler::new(&c, 4);
        let a: Vec<u64> = (0..10).map(|_| s1.next_id()).collect();
        let b: Vec<u64> = (0..10).map(|_| s2.next_id()).collect();
        let c3: Vec<u64> = (0..10).map(|_| s3.next_id()).collect();
        assert_eq!(a, b);
        assert_ne!(a, c3);
        assert!(a.iter().all(|&x| x < c.key_range));
    }

    #[test]
    fn values_embed_key_id() {
        let c = WorkloadConfig::default();
        let v = c.value(42);
        assert_eq!(u64::from_le_bytes(v[..8].try_into().unwrap()), 42);
        assert_eq!(v.len(), 1024);
    }
}

#[cfg(test)]
mod zipf_tests {
    use super::*;

    #[test]
    fn zipf_skews_toward_hot_keys() {
        let c = WorkloadConfig {
            key_range: 10_000,
            ..WorkloadConfig::default()
        }
        .zipfian(0.99);
        let mut s = KeySampler::new(&c, 0);
        let mut counts = std::collections::HashMap::new();
        let n = 100_000;
        for _ in 0..n {
            *counts.entry(s.next_id()).or_insert(0u32) += 1;
        }
        let mut freqs: Vec<u32> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        // The hottest key must dominate (uniform would give ~10/key).
        assert!(freqs[0] > 1_000, "hottest key only {}", freqs[0]);
        // Top-10 keys absorb a large share of traffic.
        let top10: u32 = freqs.iter().take(10).sum();
        assert!(top10 as f64 / n as f64 > 0.25, "top10 share {}", top10);
        // All samples in range.
        assert!(counts.keys().all(|&k| k < c.key_range));
    }

    #[test]
    fn zipf_is_deterministic() {
        let c = WorkloadConfig::small().zipfian(0.8);
        let a: Vec<u64> = {
            let mut s = KeySampler::new(&c, 1);
            (0..20).map(|_| s.next_id()).collect()
        };
        let b: Vec<u64> = {
            let mut s = KeySampler::new(&c, 1);
            (0..20).map(|_| s.next_id()).collect()
        };
        assert_eq!(a, b);
    }
}
