//! Property tests: the skiplist must agree with `std::collections::BTreeMap`
//! under arbitrary sequential operation mixes, including ordered queries.
//! 48 seeded cases ([`for_each_case`]); a failing case prints its seed.

use std::collections::BTreeMap;

use oak_failpoints::{for_each_case, SplitMix64};
use oak_skiplist::{PutOutcome, SkipListMap};

#[derive(Debug, Clone)]
enum Op {
    Put(u16, u32),
    PutIfAbsent(u16, u32),
    Remove(u16),
    Get(u16),
    Compute(u16, u32),
    Merge(u16, u32),
    Floor(u16, bool),
    Ceiling(u16, bool),
    Range(u16, u16),
    Descend(u16, u16),
}

fn ops(rng: &mut SplitMix64) -> Vec<Op> {
    (0..rng.range(1, 399))
        .map(|_| {
            let k = rng.below(128) as u16;
            let v = rng.next_u64() as u32;
            let flag = rng.below(2) == 1;
            match rng.below(10) {
                0 => Op::Put(k, v),
                1 => Op::PutIfAbsent(k, v),
                2 => Op::Remove(k),
                3 => Op::Get(k),
                4 => Op::Compute(k, v),
                5 => Op::Merge(k, v),
                6 => Op::Floor(k, flag),
                7 => Op::Ceiling(k, flag),
                8 => Op::Range(k, rng.below(128) as u16),
                _ => Op::Descend(k, rng.below(128) as u16),
            }
        })
        .collect()
}

#[test]
fn matches_btreemap() {
    for_each_case(0x5C1, 48, |rng| {
        let ops = ops(rng);
        let sl = SkipListMap::<u16, u32>::new();
        let mut model: BTreeMap<u16, u32> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Put(k, v) => {
                    let out = sl.put(k, v);
                    let old = model.insert(k, v);
                    assert_eq!(out == PutOutcome::Replaced, old.is_some());
                }
                Op::PutIfAbsent(k, v) => {
                    let inserted = sl.put_if_absent(k, v);
                    let absent = !model.contains_key(&k);
                    assert_eq!(inserted, absent);
                    if absent {
                        model.insert(k, v);
                    }
                }
                Op::Remove(k) => {
                    let removed = sl.remove(&k);
                    assert_eq!(removed, model.remove(&k).is_some());
                }
                Op::Get(k) => {
                    assert_eq!(sl.get_cloned(&k), model.get(&k).copied());
                }
                Op::Compute(k, add) => {
                    let did = sl.compute_if_present(&k, |v| v.wrapping_add(add));
                    if let Some(v) = model.get_mut(&k) {
                        assert!(did);
                        *v = v.wrapping_add(add);
                    } else {
                        assert!(!did);
                    }
                }
                Op::Merge(k, v) => {
                    sl.merge(k, v, |cur| cur.wrapping_add(1));
                    model
                        .entry(k)
                        .and_modify(|c| *c = c.wrapping_add(1))
                        .or_insert(v);
                }
                Op::Floor(k, inclusive) => {
                    let got = sl.floor_with(&k, inclusive, |k, v| (*k, *v));
                    let want = if inclusive {
                        model.range(..=k).next_back().map(|(a, b)| (*a, *b))
                    } else {
                        model.range(..k).next_back().map(|(a, b)| (*a, *b))
                    };
                    assert_eq!(got, want);
                }
                Op::Ceiling(k, inclusive) => {
                    let got = sl.ceiling_with(&k, inclusive, |k, v| (*k, *v));
                    let want = if inclusive {
                        model.range(k..).next().map(|(a, b)| (*a, *b))
                    } else {
                        model
                            .range((std::ops::Bound::Excluded(k), std::ops::Bound::Unbounded))
                            .next()
                            .map(|(a, b)| (*a, *b))
                    };
                    assert_eq!(got, want);
                }
                Op::Range(a, b) => {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let got = sl.collect_range(Some(&lo), Some(&hi));
                    let want: Vec<(u16, u32)> =
                        model.range(lo..hi).map(|(k, v)| (*k, *v)).collect();
                    assert_eq!(got, want);
                }
                Op::Descend(a, b) => {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let mut got = Vec::new();
                    sl.for_each_descending(&hi, Some(&lo), |k, v| {
                        got.push((*k, *v));
                        true
                    });
                    let mut want: Vec<(u16, u32)> =
                        model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
                    want.reverse();
                    assert_eq!(got, want);
                }
            }
            assert_eq!(sl.len(), model.len());
        }

        // Final full-content comparison.
        let got = sl.collect_range(None, None);
        let want: Vec<(u16, u32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);
    });
}

/// Direct checks for the probe-based floor search used by Oak's index.
#[test]
fn floor_by_matches_floor_with() {
    let m = SkipListMap::<u32, u32>::new();
    for k in (0..100).step_by(5) {
        m.put(k, k);
    }
    let guard = oak_sync::epoch::pin();
    let floor_key = |in_range: &dyn Fn(&u32) -> bool| m.floor_by(in_range, &guard).map(|(k, _)| *k);
    for probe in 0..110u32 {
        let via_key = m.floor_with(&probe, true, |k, _| *k);
        assert_eq!(via_key, floor_key(&|k| *k <= probe), "probe {probe}");
        let strict_key = m.floor_with(&probe, false, |k, _| *k);
        assert_eq!(
            strict_key,
            floor_key(&|k| *k < probe),
            "strict probe {probe}"
        );
    }
    assert_eq!(floor_key(&|_| false), None);
    assert_eq!(floor_key(&|_| true), Some(95));
}
