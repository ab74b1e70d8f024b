//! Seeded corpus: concurrent workloads under deterministic fault
//! schedules, every recorded history linearizability- and scan-checked.
//!
//! Each seed derives (a) a fault schedule over every failpoint site
//! reachable through the map (injected errors, yields, delays — see
//! `oak_failpoints::Schedule::generate`) and (b) a seeded workload mix.
//! Yields and delays perturb the physical interleaving around
//! linearization points; injected errors exercise the
//! fail-before-mutation contract end-to-end, because the checker treats
//! an `Err` return as a strict no-op.
//!
//! The corpus runs both the single [`OakMap`] and the [`ShardedOakMap`]
//! front-end (whose scans k-way-merge per-shard iterators). Tune the
//! size with `OAK_LINEARIZE_SEEDS` (default 210 total, CI keeps it ≥
//! 200; TSan builds dial it down).
//!
//! Every test holds [`oak_failpoints::scenario`]: the registry is
//! process-global and the test runner is concurrent.

use oak_core::{all_failpoint_sites, OakMap, OakMapConfig, OrderedKvMap, ShardedOakMap};
use oak_failpoints::{scenario, Schedule};
use oak_linearize::{run_and_check, KeyShape, WorkloadCfg};
use oak_mempool::{PoolConfig, ReclamationPolicy};

/// Tiny chunks: a handful of inserts triggers a rebalance, so the corpus
/// constantly exercises scan/rebalance and remove/rebalance hand-offs.
fn cramped_config(reclaim: bool) -> OakMapConfig {
    let policy = if reclaim {
        ReclamationPolicy::ReclaimHeaders
    } else {
        ReclamationPolicy::RetainHeaders
    };
    OakMapConfig::small()
        .chunk_capacity(8)
        .pool(PoolConfig {
            magazines: false,
            lockfree: false,
            arena_size: 16 << 10,
            max_arenas: 16,
            ..Default::default()
        })
        .reclamation(policy)
}

fn seeds(default: u64) -> u64 {
    // OAK_LINEARIZE_SEEDS scales the whole corpus; each test takes a
    // proportional share.
    match std::env::var("OAK_LINEARIZE_SEEDS") {
        Ok(v) => {
            let total: u64 = v.parse().expect("OAK_LINEARIZE_SEEDS must be an integer");
            (total * default).div_ceil(210).max(1)
        }
        Err(_) => default,
    }
}

fn check_one(map: &dyn OrderedKvMap, seed: u64) {
    check_keys(map, seed, KeyShape::Short);
}

fn check_keys(map: &dyn OrderedKvMap, seed: u64, keys: KeyShape) {
    let cfg = WorkloadCfg {
        threads: 3,
        ops_per_thread: 40,
        keyspace: 10,
        keys,
        seed,
    };
    if let Err(v) = run_and_check(map, &cfg) {
        panic!("seed {seed:#x}: {v}");
    }
}

#[test]
fn corpus_oak_map() {
    let _s = scenario();
    for seed in 0..seeds(140) {
        oak_failpoints::clear();
        Schedule::generate(seed, &all_failpoint_sites()).install();
        let map = OakMap::with_config(cramped_config(seed % 2 == 0));
        check_one(&map, seed);
    }
}

#[test]
fn corpus_sharded_map() {
    let _s = scenario();
    for seed in 0..seeds(70) {
        oak_failpoints::clear();
        Schedule::generate(!seed, &all_failpoint_sites()).install();
        let map = ShardedOakMap::with_config(3, cramped_config(seed % 2 == 1));
        check_one(&map, seed ^ 0x5eed);
    }
}

/// No faults at all: a pure-concurrency baseline over a default-sized
/// map, so corpus failures can be attributed to injection vs. timing.
#[test]
fn corpus_no_faults() {
    for seed in 0..seeds(24) {
        let map = OakMap::with_config(OakMapConfig::small().chunk_capacity(8));
        check_one(&map, seed.wrapping_mul(0x9e37_79b9));
    }
}

/// The benchmarks' key shape under faults: the ten ids straddle 100, so
/// the (eight-entry) chunks on either side cache prefixes relative to
/// different shared leading bytes while rebalances move keys between them.
#[test]
fn corpus_padded_ids() {
    let _s = scenario();
    for seed in 0..seeds(24) {
        oak_failpoints::clear();
        Schedule::generate(seed ^ 0x1d5, &all_failpoint_sites()).install();
        let cfg = cramped_config(seed % 2 == 0);
        if seed % 3 == 0 {
            check_keys(
                &ShardedOakMap::with_config(3, cfg),
                seed,
                KeyShape::PaddedIds,
            );
        } else {
            check_keys(&OakMap::with_config(cfg), seed, KeyShape::PaddedIds);
        }
    }
}
