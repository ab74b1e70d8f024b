//! Seeded deterministic concurrent workloads over an [`OrderedKvMap`].
//!
//! The runner drives `threads` recorder threads through a mixed workload
//! (puts, conditional puts, computes, removes, gets, both scan
//! directions, both scan APIs) derived from a SplitMix64 stream, merges
//! the per-thread logs into a [`History`], and hands it to the checker.
//! Keyspaces are deliberately small so operations collide; the actual
//! thread interleaving varies run to run, but every interleaving the
//! hardware produces must be explainable — that is exactly what
//! [`check_history`] verifies.
//!
//! Fault and sync schedules are the *caller's* concern: activate an
//! `oak_failpoints` scenario (or sync schedule) around the call and the
//! recorded history will include injected `Err` returns, which the
//! checker treats as no-ops under the fail-before-mutation contract.

use std::sync::atomic::AtomicU64;

use oak_core::OrderedKvMap;
use oak_failpoints::SplitMix64;

use crate::checker::{check_history, CheckStats, Violation};
use crate::history::{History, Recorder};

/// Key family of a workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum KeyShape {
    /// `k000`, `k001`, …
    #[default]
    Short,
    /// 20-digit zero-padded decimal ids straddling a power of ten (`95`,
    /// `96`, …), every third one padded to 100 bytes: the benchmarks' key
    /// shape, whose first eight bytes are all `'0'`. Oak's chunks cache
    /// key prefixes relative to the leading bytes their keys share, which
    /// differ on either side of the boundary.
    PaddedIds,
}

/// Workload shape for [`run_recorded`].
#[derive(Debug, Clone)]
pub struct WorkloadCfg {
    /// Concurrent recorder threads.
    pub threads: usize,
    /// Operations per thread (scans included).
    pub ops_per_thread: usize,
    /// Distinct keys — small keeps contention high and per-key
    /// sub-histories within the checker's search cap.
    pub keyspace: usize,
    /// What the keys look like.
    pub keys: KeyShape,
    /// Base seed; thread `t` uses `seed ^ (t as u64 + 1) * GOLDEN`.
    pub seed: u64,
}

impl Default for WorkloadCfg {
    fn default() -> Self {
        WorkloadCfg {
            threads: 4,
            ops_per_thread: 60,
            keyspace: 12,
            keys: KeyShape::Short,
            seed: 0xda7a_ba5e,
        }
    }
}

fn key(shape: KeyShape, i: u64) -> Vec<u8> {
    match shape {
        KeyShape::Short => format!("k{i:03}").into_bytes(),
        KeyShape::PaddedIds => {
            let mut k = format!("{:020}", 95 + i).into_bytes();
            if i.is_multiple_of(3) {
                k.resize(100, b'k');
            }
            k
        }
    }
}

fn worker(
    map: &dyn OrderedKvMap,
    clock: &AtomicU64,
    cfg: &WorkloadCfg,
    t: usize,
) -> Vec<crate::history::OpRecord> {
    let mut rng = SplitMix64::new(cfg.seed ^ (t as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut rec = Recorder::new(map, clock, t);
    let ks = cfg.keyspace as u64;
    let key = |i| key(cfg.keys, i);
    for _ in 0..cfg.ops_per_thread {
        let k = key(rng.below(ks));
        // Few distinct literals keep the scan checker's value closures
        // small and make value mix-ups visible.
        let v = vec![b'v', (rng.below(5) * 10) as u8];
        match rng.below(100) {
            0..=29 => rec.put(&k, &v),
            30..=41 => rec.put_if_absent(&k, &v),
            42..=53 => rec.put_or_compute(&k, &v),
            54..=63 => rec.compute_if_present(&k),
            64..=78 => rec.remove(&k),
            79..=90 => rec.get(&k),
            d => {
                let entries = rng.below(2) == 0;
                let a = rng.below(ks);
                let b = rng.below(ks);
                let (lo, hi) = (a.min(b), a.max(b) + 1);
                let lo_k = (lo > 0).then(|| key(lo));
                let hi_k = (hi < ks).then(|| key(hi));
                if d < 96 {
                    rec.ascend(lo_k.as_deref(), hi_k.as_deref(), entries);
                } else {
                    rec.descend(hi_k.as_deref(), lo_k.as_deref(), entries);
                }
            }
        }
    }
    rec.finish()
}

/// Runs the seeded workload over `map`, returning the merged history.
pub fn run_recorded(map: &dyn OrderedKvMap, cfg: &WorkloadCfg) -> History {
    let clock = AtomicU64::new(0);
    let logs = std::thread::scope(|s| {
        let clock = &clock;
        let handles: Vec<_> = (0..cfg.threads)
            .map(|t| s.spawn(move || worker(map, clock, cfg, t)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    History::merge(logs)
}

/// Runs the workload and checks the resulting history; the main entry
/// point for seeded corpus tests.
pub fn run_and_check(
    map: &dyn OrderedKvMap,
    cfg: &WorkloadCfg,
) -> Result<CheckStats, Box<Violation>> {
    check_history(&run_recorded(map, cfg))
}
