//! Conformance suite for the workspace-wide `OrderedKvMap` trait: every
//! implementation — OakMap, ShardedOakMap (both splitters), the on-heap
//! and off-heap skiplists, and the locked B+-tree — must agree with a
//! sequential `BTreeMap` model under the same operation script, and handle
//! the empty/single-key edges identically.

use std::collections::BTreeMap;

use oak_kv::baselines::{LockedBTreeMap, OffHeapSkipListMap};
use oak_kv::mempool::PoolConfig;
use oak_kv::{
    KeyComparator, OakMap, OakMapConfig, OnHeapSkipListMap, OrderedKvMap, ShardSplitter,
    ShardedOakMap,
};

/// Lexicographic order whose `prefix()` keeps the trait default (`None`),
/// opting the map out of prefix acceleration: every comparison takes the
/// full off-heap compare path, which must be observationally identical.
#[derive(Debug, Clone, Copy, Default)]
struct PrefixlessLex;

impl KeyComparator for PrefixlessLex {
    fn compare(&self, a: &[u8], b: &[u8]) -> std::cmp::Ordering {
        a.cmp(b)
    }
}

/// Deterministic xorshift64* so the script needs no external RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

fn key(id: u64) -> Vec<u8> {
    format!("key-{id:05}").into_bytes()
}

/// 20-digit zero-padded ids straddling a power of ten, in mixed lengths:
/// Oak's chunks on either side of the boundary share different numbers of
/// leading bytes (their cached key prefixes are relative to those), and
/// some keys are proper prefixes of others.
fn straddle_key(id: u64) -> Vec<u8> {
    let mut k = format!("{:020}", 99_950 + id * 7).into_bytes();
    match id % 5 {
        0 => k.truncate(19),
        1 => k.extend_from_slice(&[0; 9]),
        2 => k.resize(60, b'k'),
        _ => {}
    }
    k
}

fn value(tag: u64) -> Vec<u8> {
    tag.to_le_bytes().to_vec() // fixed 8 bytes: in-place compute can't resize
}

fn bump(buf: &mut [u8]) {
    let v = u64::from_le_bytes(buf[..8].try_into().unwrap());
    buf[..8].copy_from_slice(&v.wrapping_add(1).to_le_bytes());
}

/// Every implementation under test, behind the trait.
fn all_maps() -> Vec<(&'static str, Box<dyn OrderedKvMap>)> {
    let range_bounds = vec![key(25), key(50), key(75)];
    vec![
        (
            "OakMap",
            Box::new(OakMap::with_config(OakMapConfig::small())) as Box<dyn OrderedKvMap>,
        ),
        (
            "OakMap-prefixless",
            Box::new(OakMap::with_comparator(
                OakMapConfig::small(),
                PrefixlessLex,
            )),
        ),
        (
            "ShardedOak-hash",
            Box::new(ShardedOakMap::with_config(4, OakMapConfig::small())),
        ),
        (
            "ShardedOak-range",
            Box::new(ShardedOakMap::with_splitter(
                4,
                ShardSplitter::KeyRanges(range_bounds),
                OakMapConfig::small(),
            )),
        ),
        ("OnHeapSkipList", Box::new(OnHeapSkipListMap::new())),
        (
            "OffHeapSkipList",
            Box::new(OffHeapSkipListMap::new(PoolConfig::small())),
        ),
        (
            "LockedBTree",
            Box::new(LockedBTreeMap::new(PoolConfig::small())),
        ),
    ]
}

/// Collects the full ascending contents through the trait.
fn ascend_all(map: &dyn OrderedKvMap) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut out = Vec::new();
    map.ascend(None, None, &mut |k, v| {
        out.push((k.to_vec(), v.to_vec()));
        true
    });
    out
}

/// Collects the full descending contents through the trait.
fn descend_all(map: &dyn OrderedKvMap) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut out = Vec::new();
    map.descend(None, None, &mut |k, v| {
        out.push((k.to_vec(), v.to_vec()));
        true
    });
    out
}

fn assert_matches_model(
    name: &str,
    map: &dyn OrderedKvMap,
    model: &BTreeMap<Vec<u8>, Vec<u8>>,
    key: fn(u64) -> Vec<u8>,
    universe: u64,
) {
    assert_eq!(map.len(), model.len(), "{name}: len diverged");
    assert_eq!(map.is_empty(), model.is_empty(), "{name}: is_empty");

    for id in 0..universe {
        let k = key(id);
        assert_eq!(
            map.get_copy(&k),
            model.get(&k).cloned(),
            "{name}: get_copy({id})"
        );
        assert_eq!(
            map.contains_key(&k),
            model.contains_key(&k),
            "{name}: contains_key({id})"
        );
    }

    let want: Vec<(Vec<u8>, Vec<u8>)> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(ascend_all(map), want, "{name}: ascending scan diverged");

    let mut want_desc = want.clone();
    want_desc.reverse();
    assert_eq!(
        descend_all(map),
        want_desc,
        "{name}: descending scan diverged"
    );
}

#[test]
fn sequential_model_equivalence() {
    model_equivalence(key);
}

#[test]
fn sequential_model_equivalence_on_straddling_ids() {
    model_equivalence(straddle_key);
}

fn model_equivalence(key: fn(u64) -> Vec<u8>) {
    const UNIVERSE: u64 = 100;
    const OPS: usize = 4_000;

    for (name, map) in all_maps() {
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut rng = Rng(0x5eed_0000 + name.len() as u64);

        for step in 0..OPS {
            let id = rng.next() % UNIVERSE;
            let k = key(id);
            let tag = rng.next();
            match rng.next() % 5 {
                0 => {
                    map.put(&k, &value(tag)).unwrap();
                    model.insert(k, value(tag));
                }
                1 => {
                    let inserted = map.put_if_absent(&k, &value(tag)).unwrap();
                    assert_eq!(
                        inserted,
                        !model.contains_key(&k),
                        "{name}: putIfAbsent step {step}"
                    );
                    model.entry(k).or_insert_with(|| value(tag));
                }
                2 => {
                    let removed = map.remove(&k);
                    assert_eq!(
                        removed,
                        model.remove(&k).is_some(),
                        "{name}: remove step {step}"
                    );
                }
                3 => {
                    let present = map.compute_if_present(&k, &bump);
                    assert_eq!(
                        present,
                        model.contains_key(&k),
                        "{name}: computeIfPresent step {step}"
                    );
                    if let Some(v) = model.get_mut(&k) {
                        bump(v);
                    }
                }
                _ => {
                    let inserted = map
                        .put_if_absent_compute_if_present(&k, &value(tag), &bump)
                        .unwrap();
                    assert_eq!(
                        inserted,
                        !model.contains_key(&k),
                        "{name}: pifacip step {step}"
                    );
                    match model.get_mut(&k) {
                        Some(v) => bump(v),
                        None => {
                            model.insert(k, value(tag));
                        }
                    }
                }
            }
        }
        assert_matches_model(name, map.as_ref(), &model, key, UNIVERSE);
    }
}

#[test]
fn empty_map_edges() {
    for (name, map) in all_maps() {
        assert_eq!(map.len(), 0, "{name}");
        assert!(map.is_empty(), "{name}");
        assert_eq!(map.get_copy(b"missing"), None, "{name}");
        assert!(!map.remove(b"missing"), "{name}");
        assert!(!map.compute_if_present(b"missing", &bump), "{name}");
        assert_eq!(map.ascend(None, None, &mut |_, _| true), 0, "{name}");
        assert_eq!(map.descend(None, None, &mut |_, _| true), 0, "{name}");
        assert!(
            !map.read_with(b"missing", &mut |_| panic!("{name}: read on empty")),
            "{name}"
        );
    }
}

#[test]
fn single_key_edges() {
    for (name, map) in all_maps() {
        map.put(&key(42), &value(7)).unwrap();

        // Zero-copy read sees the stored bytes.
        let mut seen = Vec::new();
        assert!(
            map.read_with(&key(42), &mut |v| seen = v.to_vec()),
            "{name}"
        );
        assert_eq!(seen, value(7), "{name}");

        // Descending from nothing (the global last key) finds it.
        assert_eq!(
            descend_all(map.as_ref()),
            vec![(key(42), value(7))],
            "{name}"
        );
        // Descending from below it finds nothing.
        assert_eq!(
            map.descend(Some(&key(10)), None, &mut |_, _| true),
            0,
            "{name}: descend from below"
        );
        // Ascending from above it finds nothing.
        assert_eq!(
            map.ascend(Some(&key(50)), None, &mut |_, _| true),
            0,
            "{name}: ascend from above"
        );
        // Bounded window [42, 43) contains exactly it.
        assert_eq!(
            map.ascend(Some(&key(42)), Some(&key(43)), &mut |_, _| true),
            1,
            "{name}: tight window"
        );

        assert!(map.remove(&key(42)), "{name}");
        assert!(map.is_empty(), "{name}");
    }
}

#[test]
fn cross_shard_descending_order() {
    // Keys land on different shards under both splitters; the merged
    // descending scan must still yield one strictly descending sequence.
    for (name, map) in all_maps() {
        if !name.starts_with("ShardedOak") {
            continue;
        }
        for id in 0..100 {
            map.put(&key(id), &value(id)).unwrap();
        }
        let got = descend_all(map.as_ref());
        assert_eq!(got.len(), 100, "{name}");
        for w in got.windows(2) {
            assert!(w[0].0 > w[1].0, "{name}: not strictly descending");
        }
        // Bounded descent: from key-0074 (inclusive) down to key-0025
        // (inclusive) crosses every range-splitter boundary.
        let mut keys = Vec::new();
        map.descend(Some(&key(74)), Some(&key(25)), &mut |k, _| {
            keys.push(k.to_vec());
            true
        });
        assert_eq!(keys.len(), 50, "{name}: bounded descent size");
        assert_eq!(keys.first().unwrap(), &key(74), "{name}");
        assert_eq!(keys.last().unwrap(), &key(25), "{name}");
    }
}

#[test]
fn sharded_matches_plain_oak() {
    let plain = OakMap::with_config(OakMapConfig::small());
    let sharded = ShardedOakMap::with_config(4, OakMapConfig::small());
    let mut rng = Rng(0xabcd_ef01);
    for _ in 0..2_000 {
        let id = rng.next() % 200;
        let k = key(id);
        match rng.next() % 3 {
            0 => {
                let tag = rng.next();
                plain.put(&k, &value(tag)).unwrap();
                OrderedKvMap::put(&sharded, &k, &value(tag)).unwrap();
            }
            1 => {
                assert_eq!(plain.remove(&k), sharded.remove(&k));
            }
            _ => {
                assert_eq!(
                    plain.compute_if_present(&k, |b| bump(b.as_mut_slice())),
                    sharded.compute_if_present(&k, |b| bump(b.as_mut_slice()))
                );
            }
        }
    }
    assert_eq!(plain.len(), sharded.len());
    assert_eq!(ascend_all(&plain), ascend_all(&sharded));
    assert_eq!(descend_all(&plain), descend_all(&sharded));
    // Aggregated stats: shard lens sum to the map len.
    let per_shard: usize = sharded.shard_stats().iter().map(|s| s.len).sum();
    assert_eq!(per_shard, sharded.len());
    assert_eq!(sharded.stats().len, sharded.len());
    sharded.validate();
}
