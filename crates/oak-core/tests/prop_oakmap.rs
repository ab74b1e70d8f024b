//! Property tests: OakMap must agree with `BTreeMap<Vec<u8>, Vec<u8>>`
//! under arbitrary sequential operation mixes, with chunk sizes small
//! enough that rebalances (split, merge, compaction) fire constantly.
//! Seeded cases ([`for_each_case`]); a failing case prints its seed.

use std::collections::BTreeMap;

use oak_core::{OakMap, OakMapConfig};
use oak_failpoints::{for_each_case, SplitMix64};
use oak_mempool::PoolConfig;

#[derive(Debug, Clone)]
enum Op {
    Put(u16, u8, u16),
    PutIfAbsent(u16, u8),
    Remove(u16),
    Get(u16),
    Compute(u16),
    Upsert(u16, u8),
    Range(u16, u16),
    Descend(u16, u16),
}

fn key(k: u16) -> Vec<u8> {
    format!("k{:05}", k % 512).into_bytes()
}

fn val(tag: u8, len: u16) -> Vec<u8> {
    let mut v = vec![tag; 1 + (len as usize % 300)];
    v[0] = tag;
    v
}

fn ops(rng: &mut SplitMix64) -> Vec<Op> {
    (0..rng.range(1, 499))
        .map(|_| {
            let k = rng.next_u64() as u16;
            let t = rng.next_u64() as u8;
            let other = rng.next_u64() as u16;
            match rng.below(8) {
                0 => Op::Put(k, t, other),
                1 => Op::PutIfAbsent(k, t),
                2 => Op::Remove(k),
                3 => Op::Get(k),
                4 => Op::Compute(k),
                5 => Op::Upsert(k, t),
                6 => Op::Range(k, other),
                _ => Op::Descend(k, other),
            }
        })
        .collect()
}

fn tiny_config() -> OakMapConfig {
    OakMapConfig {
        chunk_capacity: 16, // rebalance storms
        rebalance_unsorted_ratio: 0.5,
        merge_ratio: 0.25,
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
    }
}

#[test]
fn matches_btreemap() {
    for_each_case(0x0A1, 32, |rng| {
        let ops = ops(rng);
        let oak = OakMap::with_config(tiny_config());
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Put(k, t, l) => {
                    let (kb, vb) = (key(k), val(t, l));
                    oak.put(&kb, &vb).unwrap();
                    model.insert(kb, vb);
                }
                Op::PutIfAbsent(k, t) => {
                    let (kb, vb) = (key(k), val(t, 8));
                    let inserted = oak.put_if_absent(&kb, &vb).unwrap();
                    assert_eq!(inserted, !model.contains_key(&kb));
                    model.entry(kb).or_insert(vb);
                }
                Op::Remove(k) => {
                    let kb = key(k);
                    let removed = oak.remove(&kb);
                    assert_eq!(removed, model.remove(&kb).is_some());
                }
                Op::Get(k) => {
                    let kb = key(k);
                    assert_eq!(oak.get_copy(&kb), model.get(&kb).cloned());
                }
                Op::Compute(k) => {
                    let kb = key(k);
                    let did = oak.compute_if_present(&kb, |buf| {
                        let s = buf.as_mut_slice();
                        if !s.is_empty() {
                            s[0] = s[0].wrapping_add(1);
                        }
                    });
                    match model.get_mut(&kb) {
                        Some(v) => {
                            assert!(did);
                            if !v.is_empty() {
                                v[0] = v[0].wrapping_add(1);
                            }
                        }
                        None => assert!(!did),
                    }
                }
                Op::Upsert(k, t) => {
                    let (kb, vb) = (key(k), val(t, 8));
                    oak.put_if_absent_compute_if_present(&kb, &vb, |buf| {
                        let s = buf.as_mut_slice();
                        if !s.is_empty() {
                            s[0] = s[0].wrapping_add(1);
                        }
                    })
                    .unwrap();
                    match model.get_mut(&kb) {
                        Some(v) => {
                            if !v.is_empty() {
                                v[0] = v[0].wrapping_add(1);
                            }
                        }
                        None => {
                            model.insert(kb, vb);
                        }
                    }
                }
                Op::Range(a, b) => {
                    let (lo, hi) = if key(a) <= key(b) {
                        (key(a), key(b))
                    } else {
                        (key(b), key(a))
                    };
                    let mut got = Vec::new();
                    oak.for_each_in(Some(&lo), Some(&hi), |k, v| {
                        got.push((k.to_vec(), v.to_vec()));
                        true
                    });
                    let want: Vec<(Vec<u8>, Vec<u8>)> = model
                        .range(lo..hi)
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    assert_eq!(got, want);
                }
                Op::Descend(a, b) => {
                    let (lo, hi) = if key(a) <= key(b) {
                        (key(a), key(b))
                    } else {
                        (key(b), key(a))
                    };
                    let mut got = Vec::new();
                    oak.for_each_descending(Some(&hi), Some(&lo), |k, _| {
                        got.push(k.to_vec());
                        true
                    });
                    let mut want: Vec<Vec<u8>> =
                        model.range(lo..=hi).map(|(k, _)| k.clone()).collect();
                    want.reverse();
                    assert_eq!(got, want);
                }
            }
            assert_eq!(oak.len(), model.len());
        }

        // Final full comparison, both directions.
        let mut asc = Vec::new();
        oak.for_each_in(None, None, |k, v| {
            asc.push((k.to_vec(), v.to_vec()));
            true
        });
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(&asc, &want);

        let mut desc = Vec::new();
        oak.for_each_descending(None, None, |k, _| {
            desc.push(k.to_vec());
            true
        });
        let mut want_keys: Vec<Vec<u8>> = model.keys().cloned().collect();
        want_keys.reverse();
        assert_eq!(desc, want_keys);
    });
}

mod reclaiming {
    use super::*;

    fn reclaiming_config() -> OakMapConfig {
        OakMapConfig {
            reclamation: oak_mempool::ReclamationPolicy::ReclaimHeaders,
            ..tiny_config()
        }
    }

    /// The reclaiming memory manager must be observationally identical
    /// to the default under arbitrary op sequences — generation-checked
    /// header recycling may never surface stale or wrong values, even
    /// through delete/re-insert churn and rebalances.
    #[test]
    fn reclaiming_matches_btreemap() {
        for_each_case(0x0A2, 16, |rng| {
            let ops = ops(rng);
            let oak = OakMap::with_config(reclaiming_config());
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Put(k, t, l) => {
                        let (kb, vb) = (key(k), val(t, l));
                        oak.put(&kb, &vb).unwrap();
                        model.insert(kb, vb);
                    }
                    Op::PutIfAbsent(k, t) => {
                        let (kb, vb) = (key(k), val(t, 8));
                        let inserted = oak.put_if_absent(&kb, &vb).unwrap();
                        assert_eq!(inserted, !model.contains_key(&kb));
                        model.entry(kb).or_insert(vb);
                    }
                    Op::Remove(k) => {
                        let kb = key(k);
                        assert_eq!(oak.remove(&kb), model.remove(&kb).is_some());
                    }
                    Op::Get(k) => {
                        let kb = key(k);
                        assert_eq!(oak.get_copy(&kb), model.get(&kb).cloned());
                    }
                    Op::Upsert(k, t) => {
                        let (kb, vb) = (key(k), val(t, 8));
                        oak.put_if_absent_compute_if_present(&kb, &vb, |buf| {
                            let s = buf.as_mut_slice();
                            if !s.is_empty() {
                                s[0] = s[0].wrapping_add(1);
                            }
                        })
                        .unwrap();
                        match model.get_mut(&kb) {
                            Some(v) => {
                                if !v.is_empty() {
                                    v[0] = v[0].wrapping_add(1);
                                }
                            }
                            None => {
                                model.insert(kb, vb);
                            }
                        }
                    }
                    _ => {
                        // Scans and computes are covered by the default-mode
                        // property test; churn ops stress the recycler here.
                    }
                }
                assert_eq!(oak.len(), model.len());
            }
            let mut got = Vec::new();
            oak.for_each_in(None, None, |k, v| {
                got.push((k.to_vec(), v.to_vec()));
                true
            });
            let want: Vec<(Vec<u8>, Vec<u8>)> =
                model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            assert_eq!(got, want);
        });
    }
}
