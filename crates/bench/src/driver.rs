//! The two-stage benchmark driver: single-threaded ingestion, then a
//! timed sustained-rate stage on symmetric worker threads (§5.1).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::adapter::MapAdapter;
use crate::workload::{KeyDistribution, KeySampler, Mix, WorkloadConfig};

/// Result of one experiment run.
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    /// Operations completed in the sustained stage.
    pub ops: u64,
    /// Sustained-stage wall time.
    pub elapsed: Duration,
    /// Entries in the map after ingestion.
    pub final_size: usize,
}

impl RunResult {
    /// Throughput in thousands of operations per second (the paper's
    /// Kops/sec axis).
    pub fn kops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64() / 1_000.0
    }

    /// Throughput in millions of operations per second (the artifact's
    /// summary.csv unit).
    pub fn mops_per_sec(&self) -> f64 {
        self.kops_per_sec() / 1_000.0
    }
}

/// Ingestion stage: a single thread populates the map with 50% of the
/// unique keys in the range using `putIfAbsent` (§5.1). Returns inserted
/// count and elapsed time.
pub fn ingest(map: &MapAdapter, config: &WorkloadConfig) -> (u64, Duration) {
    let start = Instant::now();
    // Populate with uniform ids regardless of the measured distribution
    // (YCSB convention: skew shapes the access phase, not the load). A
    // Zipfian sampler revisits its hot head almost exclusively — and its
    // rank scramble is not injective mod `key_range`, so it cannot even
    // *reach* `target` distinct keys: sampling it here would never
    // terminate.
    let uniform = WorkloadConfig {
        distribution: KeyDistribution::Uniform,
        ..config.clone()
    };
    let mut sampler = KeySampler::new(&uniform, u64::MAX);
    let target = config.key_range / 2;
    let mut inserted = 0u64;
    while inserted < target {
        let id = sampler.next_id();
        if map.put_if_absent(&config.key(id), &config.value(id)) {
            inserted += 1;
        }
    }
    (inserted, start.elapsed())
}

/// Deterministic ingestion of exactly the even key ids (used by scan
/// benchmarks that need a known population).
pub fn ingest_even(map: &MapAdapter, config: &WorkloadConfig) {
    for id in (0..config.key_range).step_by(2) {
        map.put_if_absent(&config.key(id), &config.value(id));
    }
}

fn run_op(map: &MapAdapter, config: &WorkloadConfig, mix: Mix, sampler: &mut KeySampler) {
    match mix {
        Mix::PutOnly => {
            let id = sampler.next_id();
            map.put(&config.key(id), &config.value(id));
        }
        Mix::ComputeOnly => {
            let id = sampler.next_id();
            if !map.compute8(&config.key(id)) {
                // Absent key (the un-ingested half): seed it so in-place
                // updates dominate, as in the paper's workload.
                map.put_if_absent(&config.key(id), &config.value(id));
            }
        }
        Mix::GetZeroCopy => {
            let id = sampler.next_id();
            std::hint::black_box(map.get_zc(&config.key(id)));
        }
        Mix::GetCopy => {
            let id = sampler.next_id();
            std::hint::black_box(map.get_copy(&config.key(id)));
        }
        Mix::Mixed95 => {
            let id = sampler.next_id();
            if sampler.next_pct() < 5 {
                map.put(&config.key(id), &config.value(id));
            } else {
                std::hint::black_box(map.get_zc(&config.key(id)));
            }
        }
        Mix::AscendScan { len, stream } => {
            let id = sampler.next_id();
            std::hint::black_box(map.ascend(&config.key(id), len, stream));
        }
        Mix::DescendScan { len, stream } => {
            let id = sampler.next_id();
            std::hint::black_box(map.descend(&config.key(id), len, stream));
        }
        Mix::RangeScan { span, stream } => {
            // One op = one whole bounded scan (matching the AscendScan
            // accounting, so Mops/s stays scans-per-second).
            let id = sampler.next_id();
            std::hint::black_box(map.range(&config.key(id), &config.key(id + span), stream));
        }
        Mix::PutRemoveChurn => {
            let id = sampler.next_id();
            if sampler.next_pct() < 50 {
                map.put(&config.key(id), &config.value(id));
            } else {
                map.remove(&config.key(id));
            }
        }
        Mix::ScanChurn { len } => {
            let id = sampler.next_id();
            match sampler.next_pct() {
                0..=9 => {
                    std::hint::black_box(map.ascend(&config.key(id), len, false));
                }
                10..=54 => {
                    map.put(&config.key(id), &config.value(id));
                }
                _ => {
                    map.remove(&config.key(id));
                }
            }
        }
    }
}

/// Sustained-rate stage: `threads` symmetric workers run `mix` against the
/// (already ingested) map for `duration`.
pub fn sustained(
    map: &Arc<MapAdapter>,
    config: &WorkloadConfig,
    mix: Mix,
    threads: usize,
    duration: Duration,
) -> RunResult {
    let stop = Arc::new(AtomicBool::new(false));
    let total_ops = Arc::new(AtomicU64::new(0));
    let final_size = map.len();

    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..threads {
        let map = map.clone();
        let config = config.clone();
        let stop = stop.clone();
        let total_ops = total_ops.clone();
        handles.push(std::thread::spawn(move || {
            let mut sampler = KeySampler::new(&config, t as u64);
            let mut local = 0u64;
            while !stop.load(Ordering::Relaxed) {
                run_op(map.as_ref(), &config, mix, &mut sampler);
                local += 1;
            }
            total_ops.fetch_add(local, Ordering::Relaxed);
        }));
    }
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    RunResult {
        ops: total_ops.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
        final_size,
    }
}

/// Fixed-operation-count variant (deterministic work, used by the ablations).
pub fn run_fixed_ops(map: &MapAdapter, config: &WorkloadConfig, mix: Mix, ops: u64) -> Duration {
    let mut sampler = KeySampler::new(config, 0);
    let start = Instant::now();
    for _ in 0..ops {
        run_op(map, config, mix, &mut sampler);
    }
    start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oak_core::{OakMap, OakMapConfig};
    use oak_skiplist::SkipListMap;
    use oak_sync::Mutex;

    fn tiny() -> WorkloadConfig {
        WorkloadConfig {
            key_range: 500,
            key_size: 32,
            value_size: 64,
            seed: 7,
            distribution: crate::workload::KeyDistribution::Uniform,
        }
    }

    #[test]
    fn ingest_fills_half_the_range() {
        let config = tiny();
        let map = MapAdapter::new("OakMap", OakMap::with_config(OakMapConfig::small()));
        let (inserted, _) = ingest(&map, &config);
        assert_eq!(inserted, 250);
        assert_eq!(map.len(), 250);
    }

    #[test]
    fn ingest_terminates_under_a_zipfian_workload() {
        // Regression: ingestion used to sample the *configured*
        // distribution, and a Zipfian sampler cannot reach key_range/2
        // distinct ids (its rank scramble is lossy mod key_range) — the
        // fill spun forever. Ingestion must populate uniformly and still
        // hit the exact target.
        let config = tiny().zipfian(0.99);
        let map = MapAdapter::new("OakMap", OakMap::with_config(OakMapConfig::small()));
        let (inserted, _) = ingest(&map, &config);
        assert_eq!(inserted, 250);
        assert_eq!(map.len(), 250);
    }

    #[test]
    fn sustained_runs_all_mixes() {
        let config = tiny();
        let map: Arc<MapAdapter> = Arc::new(MapAdapter::new(
            "OakMap",
            OakMap::with_config(OakMapConfig::small()),
        ));
        ingest(map.as_ref(), &config);
        for mix in [
            Mix::PutOnly,
            Mix::ComputeOnly,
            Mix::GetZeroCopy,
            Mix::GetCopy,
            Mix::Mixed95,
            Mix::AscendScan {
                len: 50,
                stream: true,
            },
            Mix::AscendScan {
                len: 50,
                stream: false,
            },
            Mix::DescendScan {
                len: 50,
                stream: true,
            },
            Mix::DescendScan {
                len: 50,
                stream: false,
            },
            Mix::RangeScan {
                span: 40,
                stream: true,
            },
            Mix::RangeScan {
                span: 40,
                stream: false,
            },
            Mix::ScanChurn { len: 50 },
        ] {
            let r = sustained(&map, &config, mix, 2, Duration::from_millis(30));
            assert!(r.ops > 0, "mix {mix:?} made no progress");
            assert!(r.kops_per_sec() > 0.0);
        }
    }

    #[test]
    fn fixed_ops_deterministic_progress() {
        let config = tiny();
        let map = MapAdapter::new(
            "JavaSkipListMap",
            SkipListMap::<Vec<u8>, Mutex<Vec<u8>>>::new(),
        );
        ingest(&map, &config);
        let d = run_fixed_ops(&map, &config, Mix::GetZeroCopy, 1_000);
        assert!(d.as_nanos() > 0);
    }
}
