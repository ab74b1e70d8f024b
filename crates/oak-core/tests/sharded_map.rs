//! Concurrency and aggregation smoke tests for [`ShardedOakMap`].

use std::sync::Arc;

use oak_core::{OakMapConfig, ShardSplitter, ShardedOakMap};
use oak_mempool::{ArenaPool, PoolConfig};

fn key(t: usize, i: u64) -> Vec<u8> {
    format!("{t:02}-{i:06}").into_bytes()
}

#[test]
fn concurrent_put_get_remove_keeps_invariants() {
    const THREADS: usize = 4;
    const OPS: u64 = 3_000;

    let map = Arc::new(ShardedOakMap::with_config(4, OakMapConfig::small()));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let map = map.clone();
            std::thread::spawn(move || {
                // Each thread owns a disjoint key range: the final state is
                // deterministic even though shards interleave internally.
                for i in 0..OPS {
                    let k = key(t, i);
                    map.put(&k, &i.to_le_bytes()).unwrap();
                    assert_eq!(map.get_copy(&k).as_deref(), Some(&i.to_le_bytes()[..]));
                    if i % 3 == 0 {
                        assert!(map.remove(&k));
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Every shard still satisfies the chunk-list invariants, and the
    // aggregated len matches both the surviving keys and the per-shard sum.
    map.validate();
    let expect = THREADS as u64 * (OPS - OPS.div_ceil(3));
    assert_eq!(map.len() as u64, expect);
    let shard_sum: usize = map.shard_stats().iter().map(|s| s.len).sum();
    assert_eq!(shard_sum, map.len());
    assert_eq!(map.stats().len, map.len());

    // The hash splitter actually spread the load: no shard is empty at
    // this population, and no shard holds everything.
    let lens: Vec<usize> = map.shard_stats().iter().map(|s| s.len).collect();
    assert!(
        lens.iter().all(|&l| l > 0),
        "a shard stayed empty: {lens:?}"
    );
    assert!(
        lens.iter().all(|&l| l < map.len()),
        "one shard holds everything: {lens:?}"
    );
}

#[test]
fn concurrent_merged_scans_observe_settled_keys() {
    let map = Arc::new(ShardedOakMap::with_config(4, OakMapConfig::small()));
    // Settled prefix: inserted before any scanner starts, never removed —
    // the non-atomic scan contract (§1.1) guarantees these are returned.
    for i in 0..500u64 {
        map.put(&key(0, i), &i.to_le_bytes()).unwrap();
    }

    let writer = {
        let map = map.clone();
        std::thread::spawn(move || {
            for i in 0..2_000u64 {
                map.put(&key(1, i), &i.to_le_bytes()).unwrap();
                if i % 2 == 0 {
                    map.remove(&key(1, i));
                }
            }
        })
    };
    let scanner = {
        let map = map.clone();
        std::thread::spawn(move || {
            for _ in 0..20 {
                let mut prev: Option<Vec<u8>> = None;
                let mut settled = 0;
                map.for_each_in(None, None, |k, _| {
                    if let Some(p) = &prev {
                        assert!(k > p.as_slice(), "merged ascend out of order");
                    }
                    prev = Some(k.to_vec());
                    if k.starts_with(b"00-") {
                        settled += 1;
                    }
                    true
                });
                assert_eq!(settled, 500, "a settled key vanished from the scan");
            }
        })
    };
    writer.join().unwrap();
    scanner.join().unwrap();
    map.validate();
}

#[test]
fn shards_draw_from_a_shared_reservoir() {
    let reservoir = Arc::new(ArenaPool::new(64 << 10, 16));
    let config = OakMapConfig::small()
        .pool(PoolConfig {
            magazines: false,
            lockfree: false,
            arena_size: 64 << 10,
            max_arenas: 16,
            ..Default::default()
        })
        .shared_arenas(reservoir.clone());
    let map = ShardedOakMap::with_config(4, config);
    assert!(map.reservoir().is_some());

    for i in 0..2_000u64 {
        map.put(&key(0, i), &[0u8; 64]).unwrap();
    }
    let stats = reservoir.stats();
    assert!(
        stats.outstanding >= 4,
        "each shard should hold at least one reservoir arena: {stats:?}"
    );
    // Dropping the sharded map returns every arena to the reservoir.
    drop(map);
    assert_eq!(reservoir.stats().outstanding, 0);
}

/// 8-thread scaling smoke over a shared lock-free reservoir: uniform keys
/// from 8 writers must spread arenas across the 4 shards without any
/// shard hoarding the reservoir (per-shard arena counts balance within
/// 2× of each other), no operation may fail, and — under the audit
/// feature — nothing may leak when the map is dropped.
#[test]
fn eight_thread_scaling_smoke_balances_shard_arenas() {
    const THREADS: usize = 8;
    const OPS: u64 = 4_000;

    let reservoir = Arc::new(ArenaPool::new(64 << 10, 64));
    let config = OakMapConfig::small()
        .pool(PoolConfig {
            arena_size: 64 << 10,
            max_arenas: 16,
            ..Default::default()
        })
        .shared_arenas(reservoir.clone());
    let map = Arc::new(ShardedOakMap::with_config(4, config));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let map = map.clone();
            std::thread::spawn(move || {
                for i in 0..OPS {
                    let k = key(t, i);
                    map.put(&k, &i.to_le_bytes()).unwrap();
                    if i % 4 == 3 {
                        assert!(map.remove(&k));
                    } else {
                        assert!(map.get_with(&k, |v| v.len()).is_some());
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    map.validate();
    assert_eq!(map.len() as u64, THREADS as u64 * OPS * 3 / 4);

    // Per-shard arena caching must not let one shard starve the rest:
    // under uniform keys the per-shard arena counts stay within 2×.
    let arenas: Vec<u64> = map.shard_stats().iter().map(|s| s.pool.arenas).collect();
    let (lo, hi) = (*arenas.iter().min().unwrap(), *arenas.iter().max().unwrap());
    assert!(lo >= 1, "a shard never grew: {arenas:?}");
    assert!(
        hi <= lo * 2,
        "shard arena caches out of balance (>{}x): {arenas:?}",
        2
    );
    // The balance sheet on the shared reservoir is exact.
    let stats = reservoir.stats();
    assert_eq!(
        stats.outstanding as u64,
        arenas.iter().sum::<u64>(),
        "reservoir ledger disagrees with shard arena counts: {stats:?}"
    );

    #[cfg(feature = "audit")]
    for (i, report) in map.audit().iter().enumerate() {
        assert_eq!(report.leaked_bytes, 0, "shard {i} leaked: {report:?}");
    }
    drop(map);
    assert_eq!(reservoir.stats().outstanding, 0);
}

/// Routing hashes the whole key. A previous default hashed only the
/// first 8 bytes, so any fixed-width key family with a constant header —
/// like synchrobench's zero-padded decimal keys — collapsed onto one
/// shard, leaving it with 1/N of the arena budget and N−1 idle shards.
#[test]
fn zero_padded_keys_spread_across_shards() {
    let map = ShardedOakMap::with_config(8, OakMapConfig::small());
    for i in 0..4_000u64 {
        // 100-byte keys whose first 12 bytes are all '0' (the shape that
        // degenerated under prefix routing).
        let mut k = format!("{i:020}").into_bytes();
        k.resize(100, b'0');
        map.put(&k, b"v").unwrap();
    }
    let lens: Vec<usize> = map.shard_stats().iter().map(|s| s.len).collect();
    let (lo, hi) = (*lens.iter().min().unwrap(), *lens.iter().max().unwrap());
    assert!(lo > 0, "a shard stayed empty: {lens:?}");
    assert!(
        hi <= lo * 2,
        "routing skew above 2x on fixed-header keys: {lens:?}"
    );
}

#[test]
fn key_range_splitter_routes_contiguously() {
    let bounds = vec![b"g".to_vec(), b"n".to_vec(), b"t".to_vec()];
    let map =
        ShardedOakMap::with_splitter(4, ShardSplitter::KeyRanges(bounds), OakMapConfig::small());
    for w in ["alpha", "golf", "mike", "november", "tango", "zulu"] {
        map.put(w.as_bytes(), b"x").unwrap();
    }
    // alpha → shard 0; golf, mike → shard 1; november → shard 2;
    // tango, zulu → shard 3.
    let lens: Vec<usize> = map.shard_stats().iter().map(|s| s.len).collect();
    assert_eq!(lens, vec![1, 2, 1, 2]);

    // Ascending merge yields global lexicographic order regardless.
    let mut seen = Vec::new();
    map.for_each_in(None, None, |k, _| {
        seen.push(String::from_utf8(k.to_vec()).unwrap());
        true
    });
    assert_eq!(seen, ["alpha", "golf", "mike", "november", "tango", "zulu"]);
}

#[test]
#[should_panic(expected = "range boundaries")]
fn misordered_range_boundaries_are_rejected() {
    let _ = ShardedOakMap::with_splitter(
        3,
        ShardSplitter::KeyRanges(vec![b"m".to_vec(), b"a".to_vec()]),
        OakMapConfig::small(),
    );
}

/// Private-pool shards split the configured arena along with the byte
/// budget, so the map as a whole grows by the configured `arena_size` at
/// a time. Balanced shards fill up together: with full-size arenas all
/// four would reserve a fresh one within a few inserts of one another,
/// and the footprint per stored byte would be a step function four arenas
/// high.
#[test]
fn private_pool_shards_grow_by_the_configured_arena_size() {
    const ARENA: u64 = 4 << 20;
    const SHARD_ARENA: u64 = ARENA / 4;
    let map = ShardedOakMap::with_config(
        4,
        OakMapConfig::default().pool(PoolConfig::with_budget(ARENA as usize, 64 << 20)),
    );
    let value = [7u8; 1024];
    let (mut reserved, mut inserted) = (0u64, 0u64);
    // Three configured arenas' worth of entries.
    for i in 0.. {
        let pool = map.stats().pool;
        if pool.live_bytes >= 3 * ARENA {
            break;
        }
        assert!(
            pool.reserved_bytes - reserved <= SHARD_ARENA,
            "one put reserved {} bytes",
            pool.reserved_bytes - reserved
        );
        assert!(
            pool.reserved_bytes <= pool.live_bytes + ARENA + SHARD_ARENA,
            "{} bytes reserved for {} live after {inserted} puts",
            pool.reserved_bytes,
            pool.live_bytes
        );
        reserved = pool.reserved_bytes;
        map.put(&key(0, i), &value).unwrap();
        inserted += 1;
    }
    assert!(reserved >= 3 * ARENA);
    for shard in map.shard_stats() {
        assert_eq!(shard.pool.reserved_bytes, shard.pool.arenas * SHARD_ARENA);
    }
}
