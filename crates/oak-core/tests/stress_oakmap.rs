//! Concurrent stress tests for OakMap, with tiny chunks so rebalances race
//! with every operation class.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use oak_core::legacy::TypedOakMap;
use oak_core::serde_api::{StringSerializer, U64Serializer};
use oak_core::{OakMap, OakMapConfig};
use oak_failpoints::SplitMix64;
use oak_mempool::{PoolConfig, ReclamationPolicy};

const THREADS: usize = 4;

fn stress_map() -> Arc<OakMap> {
    Arc::new(OakMap::with_config(OakMapConfig {
        chunk_capacity: 32,
        rebalance_unsorted_ratio: 0.5,
        merge_ratio: 0.25,
        pool: PoolConfig {
            magazines: false,
            lockfree: false,
            arena_size: 4 << 20,
            max_arenas: 64,
            ..Default::default()
        },
        shared_arenas: None,
        reclamation: oak_mempool::ReclamationPolicy::RetainHeaders,
        ..OakMapConfig::default()
    }))
}

fn k(i: u64) -> Vec<u8> {
    format!("key{i:08}").into_bytes()
}

#[test]
fn concurrent_disjoint_inserts() {
    let m = stress_map();
    let per = 3_000u64;
    let mut handles = Vec::new();
    for t in 0..THREADS as u64 {
        let m = m.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..per {
                let id = t * per + i;
                assert!(m.put_if_absent(&k(id), &id.to_le_bytes()).unwrap());
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(m.len() as u64, THREADS as u64 * per);
    // Everything present with the right value, in order.
    let mut prev: Option<Vec<u8>> = None;
    let mut count = 0u64;
    m.for_each_in(None, None, |kb, v| {
        if let Some(p) = &prev {
            assert!(p.as_slice() < kb);
        }
        let id = u64::from_le_bytes(v.try_into().unwrap());
        assert_eq!(kb, k(id).as_slice());
        prev = Some(kb.to_vec());
        count += 1;
        true
    });
    assert_eq!(count, THREADS as u64 * per);
    assert!(m.stats().rebalances > 0);
}

#[test]
fn concurrent_put_if_absent_unique_winner() {
    let m = stress_map();
    for round in 0..30u64 {
        let winners = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..THREADS as u64 {
            let (m, w) = (m.clone(), winners.clone());
            handles.push(std::thread::spawn(move || {
                if m.put_if_absent(&k(round), &t.to_le_bytes()).unwrap() {
                    w.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(winners.load(Ordering::SeqCst), 1, "round {round}");
    }
}

#[test]
fn concurrent_remove_unique_winner() {
    let m = stress_map();
    for round in 0..30u64 {
        m.put(&k(round), b"victim").unwrap();
        let winners = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let (m, w) = (m.clone(), winners.clone());
            handles.push(std::thread::spawn(move || {
                if m.remove(&k(round)) {
                    w.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(winners.load(Ordering::SeqCst), 1, "round {round}");
        assert!(m.get(&k(round)).is_none());
    }
}

#[test]
fn concurrent_compute_no_lost_updates() {
    // Oak's compute is atomic in place: increments from many threads must
    // all land (the property Figure 4b relies on).
    let m = stress_map();
    m.put(b"ctr", &0u64.to_le_bytes()).unwrap();
    let per = 3_000u64;
    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let m = m.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..per {
                assert!(m.compute_if_present(b"ctr", |buf| {
                    let v = u64::from_le_bytes(buf.as_slice().try_into().unwrap());
                    buf.as_mut_slice().copy_from_slice(&(v + 1).to_le_bytes());
                }));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        m.get_with(b"ctr", |b| u64::from_le_bytes(b.try_into().unwrap())),
        Some(THREADS as u64 * per)
    );
}

#[test]
fn concurrent_upsert_aggregation() {
    // putIfAbsentComputeIfPresent from many threads over a small key space:
    // per-key totals must equal the number of upserts targeting that key.
    let m = stress_map();
    let per = 2_000u64;
    let keys = 16u64;
    let mut handles = Vec::new();
    for t in 0..THREADS as u64 {
        let m = m.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..per {
                let kk = k((t + i) % keys);
                m.put_if_absent_compute_if_present(&kk, &1u64.to_le_bytes(), |buf| {
                    let v = u64::from_le_bytes(buf.as_slice().try_into().unwrap());
                    buf.as_mut_slice().copy_from_slice(&(v + 1).to_le_bytes());
                })
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut total = 0u64;
    m.for_each_in(None, None, |_, v| {
        total += u64::from_le_bytes(v.try_into().unwrap());
        true
    });
    assert_eq!(total, THREADS as u64 * per);
}

#[test]
fn concurrent_mixed_churn_consistency() {
    let m = stress_map();
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..THREADS as u64 {
        let (m, stop) = (m.clone(), stop.clone());
        handles.push(std::thread::spawn(move || {
            let mut state = t.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let kk = k(state % 256);
                match state % 5 {
                    0 | 1 => {
                        m.put(&kk, &i.to_le_bytes()).unwrap();
                    }
                    2 => {
                        let _ = m.get_with(&kk, |v| v.len());
                    }
                    3 => {
                        m.compute_if_present(&kk, |buf| {
                            if buf.len() >= 8 {
                                let v = u64::from_le_bytes(buf.as_slice()[..8].try_into().unwrap());
                                buf.as_mut_slice()[..8]
                                    .copy_from_slice(&v.wrapping_add(1).to_le_bytes());
                            }
                        });
                    }
                    _ => {
                        m.remove(&kk);
                    }
                }
                i += 1;
            }
        }));
    }
    // Scans run concurrently with the churn and must stay well-formed.
    for _ in 0..30 {
        let mut prev: Option<Vec<u8>> = None;
        let mut n = 0;
        m.for_each_in(None, None, |kb, _| {
            if let Some(p) = &prev {
                assert!(p.as_slice() < kb, "scan out of order");
            }
            prev = Some(kb.to_vec());
            n += 1;
            true
        });
        assert!(n <= 256);
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    // Final state is internally consistent.
    let mut n = 0;
    m.for_each_in(None, None, |_, _| {
        n += 1;
        true
    });
    assert_eq!(n, m.len());
}

#[test]
fn delete_reinsert_aba_on_same_key() {
    // Exercises finalizeRemove racing with re-insertion (§4.4's ABA
    // discussion): alternating delete/insert of one key from several
    // threads, with concurrent readers.
    let m = stress_map();
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..THREADS as u64 {
        let (m, stop) = (m.clone(), stop.clone());
        handles.push(std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if t % 2 == 0 {
                    m.put_if_absent(b"hot", &i.to_le_bytes()).unwrap();
                    m.remove(b"hot");
                } else {
                    // Readers must never observe torn values.
                    if let Some(v) = m.get_with(b"hot", |b| b.to_vec()) {
                        assert_eq!(v.len(), 8);
                    }
                }
                i += 1;
            }
        }));
    }
    std::thread::sleep(std::time::Duration::from_millis(300));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn scans_see_stable_keys_during_churn() {
    // Paper scan guarantee 1: keys inserted before the scan and never
    // removed must be returned, even while other keys churn and chunks
    // rebalance.
    let m = stress_map();
    for i in (0..2_000u64).step_by(2) {
        m.put(&k(i), b"stable").unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let churn = {
        let (m, stop) = (m.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut i = 1u64;
            while !stop.load(Ordering::Relaxed) {
                let kk = k(i % 2_000);
                m.put(&kk, b"odd").unwrap();
                m.remove(&kk);
                i += 2;
            }
        })
    };
    for _ in 0..20 {
        let mut evens = 0;
        m.for_each_in(None, None, |kb, _| {
            // keys are "keyNNNNNNNN"
            let n: u64 = std::str::from_utf8(&kb[3..]).unwrap().parse().unwrap();
            if n.is_multiple_of(2) {
                evens += 1;
            }
            true
        });
        assert_eq!(evens, 1_000, "a stable key went missing from a scan");

        let mut evens_desc = 0;
        m.for_each_descending(None, None, |kb, _| {
            let n: u64 = std::str::from_utf8(&kb[3..]).unwrap().parse().unwrap();
            if n.is_multiple_of(2) {
                evens_desc += 1;
            }
            true
        });
        assert_eq!(evens_desc, 1_000, "descending scan lost a stable key");
    }
    stop.store(true, Ordering::Relaxed);
    churn.join().unwrap();
}

/// The legacy API's `put` and `remove` hand back the old value, copied
/// under the same header write lock that replaces or deletes it. Several
/// threads run both over a small key set while removes and re-inserts
/// keep the chunks rebalancing (and so retiring and freeing dead keys)
/// under them: whatever comes back must be a value written *for that key*
/// — each value embeds its key's id — never a neighbour's, which is what a
/// search over recycled key bytes could return.
#[test]
fn legacy_put_remove_return_their_own_keys_values_under_rebalance_churn() {
    const KEYS: u64 = 400;
    for policy in [
        ReclamationPolicy::RetainHeaders,
        ReclamationPolicy::ReclaimHeaders,
    ] {
        let map = TypedOakMap::new(
            OakMap::with_config(OakMapConfig::small().reclamation(policy)),
            U64Serializer,
            StringSerializer,
        );
        let own = |id: u64, v: &str| v.starts_with(&format!("{id}:"));
        std::thread::scope(|s| {
            for tid in 0..THREADS as u64 {
                let (map, own) = (&map, &own);
                s.spawn(move || {
                    let mut rng = SplitMix64::new(0x1E6AC7 + tid);
                    for round in 0..6_000u64 {
                        let id = rng.below(KEYS);
                        let old = if rng.below(5) < 2 {
                            map.remove(&id)
                        } else {
                            // Lengths vary, so replacing also resizes.
                            let pad = "x".repeat(rng.below(48) as usize);
                            map.put(&id, &format!("{id}:{tid}:{round}:{pad}")).unwrap()
                        };
                        if let Some(old) = old {
                            assert!(own(id, &old), "key {id} handed back {old:?}");
                        }
                    }
                });
            }
        });
        let inner = map.inner();
        assert!(inner.stats().rebalances > 0, "no rebalance raced the ops");
        inner.validate();
        let left = map.collect_range(None, None);
        assert_eq!(left.len(), map.len());
        for (id, v) in &left {
            assert!(own(*id, v), "key {id} holds {v:?}");
            assert_eq!(map.remove(id).as_ref(), Some(v));
        }
        assert!(map.is_empty());
        inner.validate();
        inner.drain_quarantine();
        #[cfg(feature = "audit")]
        assert_eq!(inner.audit().leaked_bytes, 0);
    }
}
