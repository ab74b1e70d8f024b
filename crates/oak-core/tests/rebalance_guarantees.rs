//! Rebalance guarantees RB1–RB3 (§4.1), observed through scans.
//!
//! The paper states that a traversal over the chunk list concatenating
//! chunk contents must (RB1) include every key inserted before the
//! traversal and not removed, (RB2) not include keys never inserted or
//! removed without re-insertion, and (RB3) be sorted in monotonically
//! increasing order. Scans are exactly such traversals, so we drive
//! rebalance-heavy workloads and check the three properties.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use oak_core::{OakMap, OakMapConfig};
use oak_mempool::PoolConfig;

fn tiny() -> Arc<OakMap> {
    Arc::new(OakMap::with_config(OakMapConfig {
        chunk_capacity: 16,
        rebalance_unsorted_ratio: 0.25, // rebalance aggressively
        merge_ratio: 0.5,               // merge aggressively
        pool: PoolConfig {
            magazines: false,
            lockfree: false,
            arena_size: 1 << 20,
            max_arenas: 64,
            ..Default::default()
        },
        shared_arenas: None,
        reclamation: oak_mempool::ReclamationPolicy::RetainHeaders,
        ..OakMapConfig::default()
    }))
}

fn k(i: u64) -> Vec<u8> {
    format!("{i:08}").into_bytes()
}

#[test]
fn rb1_stable_keys_survive_rebalance_storms() {
    let m = tiny();
    let stable: BTreeSet<u64> = (0..1_000).step_by(2).collect();
    for &i in &stable {
        m.put(&k(i), b"s").unwrap();
    }
    // Storm: insert + remove odd keys to force constant splits and merges.
    for round in 0..5u64 {
        for i in (1..1_000).step_by(2) {
            m.put(&k(i), &round.to_le_bytes()).unwrap();
        }
        for i in (1..1_000).step_by(2) {
            m.remove(&k(i));
        }
        let mut seen = BTreeSet::new();
        m.for_each_in(None, None, |kb, _| {
            seen.insert(std::str::from_utf8(kb).unwrap().parse::<u64>().unwrap());
            true
        });
        for &s in &stable {
            assert!(
                seen.contains(&s),
                "RB1 violated: {s} missing after round {round}"
            );
        }
        // RB2: no odd key may linger.
        for &x in &seen {
            assert!(x % 2 == 0, "RB2 violated: removed key {x} resurfaced");
        }
    }
    assert!(m.stats().rebalances > 20);
}

#[test]
fn rb3_scans_always_sorted_under_concurrent_rebalance() {
    let m = tiny();
    for i in 0..500 {
        m.put(&k(i), b"x").unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let churn = {
        let (m, stop) = (m.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut i = 500u64;
            while !stop.load(Ordering::Relaxed) {
                m.put(&k(i % 2_000), b"y").unwrap();
                m.remove(&k((i * 7) % 2_000));
                i += 1;
            }
        })
    };
    for _ in 0..100 {
        let mut prev: Option<Vec<u8>> = None;
        m.for_each_in(None, None, |kb, _| {
            if let Some(p) = &prev {
                assert!(
                    p.as_slice() < kb,
                    "RB3 violated: {:?} !< {:?}",
                    String::from_utf8_lossy(p),
                    String::from_utf8_lossy(kb)
                );
            }
            prev = Some(kb.to_vec());
            true
        });
    }
    stop.store(true, Ordering::Relaxed);
    churn.join().unwrap();
}

#[test]
fn merge_shrinks_chunk_count() {
    let m = tiny();
    // Fill to create many chunks.
    for i in 0..2_000 {
        m.put(&k(i), b"fill").unwrap();
    }
    let chunks_full = m.stats().chunks;
    assert!(chunks_full > 10);
    // Remove almost everything; merges are triggered by the insertions'
    // rebalance checks, so keep a light trickle of inserts going.
    for i in 0..2_000 {
        m.remove(&k(i));
    }
    for round in 0..40u64 {
        m.put(&k(round % 8), b"trickle").unwrap();
        m.remove(&k(round % 8));
    }
    // Chunk count is not required to reach 1 (merging is lazy), but the
    // trend must be sharply downward once data is gone and rebalances run.
    let m2 = tiny();
    for i in 0..2_000 {
        m2.put(&k(i), b"fill").unwrap();
    }
    for i in 0..2_000 {
        m2.remove(&k(i));
    }
    // Force rebalances by re-inserting into every region then removing.
    for i in (0..2_000).step_by(4) {
        m2.put(&k(i), b"probe").unwrap();
    }
    for i in (0..2_000).step_by(4) {
        m2.remove(&k(i));
    }
    for i in (0..2_000).step_by(4) {
        m2.put(&k(i), b"probe2").unwrap();
    }
    let after = m2.stats().chunks;
    assert!(
        after < chunks_full,
        "expected merges to reduce chunks: {after} !< {chunks_full}"
    );
}

#[test]
fn data_integrity_across_explicit_growth_and_shrink_cycles() {
    let m = tiny();
    let mut live = BTreeSet::new();
    for cycle in 0..6u64 {
        for i in 0..800u64 {
            let id = i * 6 + cycle;
            m.put(&k(id), &id.to_le_bytes()).unwrap();
            live.insert(id);
        }
        for i in 0..400u64 {
            let id = i * 12 + cycle;
            if m.remove(&k(id)) {
                live.remove(&id);
            }
        }
        // Verify values, not just keys.
        let mut count = 0;
        m.for_each_in(None, None, |kb, v| {
            let id: u64 = std::str::from_utf8(kb).unwrap().parse().unwrap();
            assert!(live.contains(&id), "phantom key {id}");
            assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), id);
            count += 1;
            true
        });
        assert_eq!(count, live.len(), "cycle {cycle}");
        assert_eq!(m.len(), live.len());
    }
}

#[test]
fn validate_passes_after_heavy_churn() {
    let m = tiny();
    m.validate();
    for i in 0..2_000u64 {
        m.put(&k(i * 13 % 2_000), &i.to_le_bytes()).unwrap();
    }
    m.validate();
    for i in (0..2_000u64).step_by(3) {
        m.remove(&k(i));
    }
    m.validate();
    for i in (0..2_000u64).step_by(5) {
        m.put(&k(i), b"again").unwrap();
    }
    m.validate();
}
