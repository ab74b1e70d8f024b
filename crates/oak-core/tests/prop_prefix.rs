//! Prefix-cache equivalence properties: searching through the on-heap
//! key-prefix cache must be observationally identical to plain comparator
//! search.
//!
//! Two maps run the same operation script — one under the accelerated
//! `Lexicographic` comparator, and the full-compare reference: the same
//! order under a comparator that opts out of prefixes (`prefix() = None`,
//! so every entry stores the `0` "no information" prefix and every
//! comparison is a full off-heap compare) — and both must agree with a
//! `BTreeMap` model on point lookups, bounded ascending scans, and bounded
//! descending scans. Chunks are tiny so rebalances constantly carry cached
//! prefixes into successor chunks.
//!
//! Key corpora target the scheme's edges: random variable-length keys,
//! a shared-prefix-heavy corpus (many keys agree on the first bytes, so
//! prefixes often tie), and a corpus whose keys share a common prefix
//! *longer than eight bytes* (every cached prefix is identical — the
//! accelerated path must always fall back to full compares and still be
//! exact), and a chunk-relative corpus: cached prefixes are relative to a
//! chunk's *base* (the leading bytes its sorted keys share), so its keys
//! make chunks with different bases and include keys outside a base on
//! either side, keys shorter than it, and keys whose bytes after it are
//! all zero (prefix `0`, "no information").
//!
//! Below the scripts: the exact off-heap dereference counts on the key
//! shape the benchmarks use, and scans that cross chunks with different
//! bases, quiescent and under concurrent rebalances.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use oak_core::{KeyComparator, OakMap, OakMapConfig, ShardedOakMap};
use oak_failpoints::for_each_case;
use oak_mempool::PoolConfig;

/// Lexicographic order that opts out of prefix acceleration (the trait's
/// default `prefix` returns `None`).
#[derive(Debug, Clone, Copy, Default)]
struct PrefixlessLex;

impl KeyComparator for PrefixlessLex {
    fn compare(&self, a: &[u8], b: &[u8]) -> std::cmp::Ordering {
        a.cmp(b)
    }
}

#[derive(Debug, Clone, Copy)]
enum Corpus {
    /// Variable-length keys with diverse leading bytes.
    Random,
    /// Many keys share their first four bytes: prefixes disambiguate only
    /// past the shared stem, and ties are common.
    SharedShort,
    /// All keys share a 12-byte stem: every cached prefix is equal, so the
    /// accelerated search degenerates to full compares everywhere.
    SharedLong,
    /// Runs of keys that share 13 to 21 leading bytes (so neighbouring
    /// chunks get different bases), with tails that are empty, all zero,
    /// or differ only in their ninth byte, plus keys that stop short of
    /// the shared stem or leave it on either side.
    Relative,
}

fn key(corpus: Corpus, id: u16) -> Vec<u8> {
    let id = id % 96;
    match corpus {
        Corpus::Random => {
            // Lengths 1..=10, content spread over the byte range; distinct
            // ids may collide into one key, which the model absorbs.
            let len = 1 + (id as usize % 10);
            let mut k = vec![(id.wrapping_mul(37) >> 2) as u8; len];
            k[0] = (id % 11) as u8;
            if len > 1 {
                k[1] = (id / 11) as u8;
            }
            k
        }
        Corpus::SharedShort => {
            let mut k = b"stem".to_vec();
            k.extend_from_slice(&id.to_be_bytes());
            k
        }
        Corpus::SharedLong => {
            let mut k = b"common-stem-".to_vec(); // 12 bytes > 8
            k.extend_from_slice(&id.to_be_bytes());
            k
        }
        Corpus::Relative => {
            let stem = b"shared-base-";
            match id % 16 {
                // Outside every base: below, a proper prefix, above.
                0 => b"sha".to_vec(),
                1 => stem[..9 + (id / 16) as usize % 3].to_vec(),
                2 => [&b"shared-bb"[..], &[(id / 16) as u8]].concat(),
                // Inside: stem, a run byte, then the tail.
                n => {
                    let mut k = stem.to_vec();
                    k.push((id / 16) as u8);
                    match n {
                        3 => {}
                        4 => k.push(0),
                        5 => k.extend_from_slice(&[0; 8]),
                        6 => k.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0, 0, 1]),
                        7 => k.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0, 1]),
                        _ => k.extend_from_slice(&[b'r', (n * 17) as u8, n as u8]),
                    }
                    k
                }
            }
        }
    }
}

fn tiny() -> OakMapConfig {
    OakMapConfig {
        chunk_capacity: 16, // rebalance storms exercise prefix carry
        rebalance_unsorted_ratio: 0.5,
        merge_ratio: 0.25,
        pool: PoolConfig {
            arena_size: 1 << 20,
            max_arenas: 16,
            magazines: false,
            lockfree: false,
            ..Default::default()
        },
        shared_arenas: None,
        reclamation: oak_mempool::ReclamationPolicy::RetainHeaders,
        ..OakMapConfig::default()
    }
}

/// Checks one map against the model: point lookups over the whole key
/// universe and one bounded scan per direction (`lower_bound` positioning
/// and the cursor bound checks both go through the prefix-aware compare).
fn check_against_model<C: KeyComparator>(
    name: &str,
    map: &OakMap<C>,
    model: &BTreeMap<Vec<u8>, Vec<u8>>,
    corpus: Corpus,
    (lo, hi): (&Vec<u8>, &Vec<u8>),
) {
    for id in 0..96 {
        let k = key(corpus, id);
        assert_eq!(map.get_copy(&k), model.get(&k).cloned(), "{name} lookup");
    }
    let want_up: Vec<(Vec<u8>, Vec<u8>)> = model
        .range(lo.clone()..hi.clone())
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    let mut got = Vec::new();
    map.for_each_in(Some(lo), Some(hi), |k, v| {
        got.push((k.to_vec(), v.to_vec()));
        true
    });
    assert_eq!(got, want_up, "{name} ascending scan");

    let mut want_down: Vec<Vec<u8>> = model
        .range(lo.clone()..=hi.clone())
        .map(|(k, _)| k.clone())
        .collect();
    want_down.reverse();
    let mut got = Vec::new();
    map.for_each_descending(Some(hi), Some(lo), |k, _| {
        got.push(k.to_vec());
        true
    });
    assert_eq!(got, want_down, "{name} descending scan");
    map.validate();
}

/// Applies `ops` to both maps plus the model, then checks each map.
fn run_script(corpus: Corpus, ops: &[(bool, u16)], bounds: (u16, u16)) {
    let cached = OakMap::with_config(tiny());
    let noprefix = OakMap::with_comparator(tiny(), PrefixlessLex);
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

    for &(put, id) in ops {
        let k = key(corpus, id);
        if put {
            let v = id.to_le_bytes().to_vec();
            cached.put(&k, &v).unwrap();
            noprefix.put(&k, &v).unwrap();
            model.insert(k, v);
        } else {
            let want = model.remove(&k).is_some();
            assert_eq!(cached.remove(&k), want);
            assert_eq!(noprefix.remove(&k), want);
        }
    }

    let (a, b) = (key(corpus, bounds.0), key(corpus, bounds.1));
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    check_against_model("cached", &cached, &model, corpus, (&lo, &hi));
    check_against_model("prefixless", &noprefix, &model, corpus, (&lo, &hi));
}

/// 24 seeded cases per corpus ([`for_each_case`]): a put/remove script of
/// 1 to 299 ops and the two ids that bound the scans. A failing case
/// prints its seed.
fn corpus_equivalent(base: u64, corpus: Corpus) {
    for_each_case(base, 24, |rng| {
        let ops: Vec<(bool, u16)> = (0..rng.range(1, 299))
            .map(|_| (rng.below(2) == 1, rng.next_u64() as u16))
            .collect();
        let bounds = (rng.next_u64() as u16, rng.next_u64() as u16);
        run_script(corpus, &ops, bounds);
    });
}

#[test]
fn random_corpus_equivalent() {
    corpus_equivalent(0xC1, Corpus::Random);
}

#[test]
fn shared_prefix_corpus_equivalent() {
    corpus_equivalent(0xC2, Corpus::SharedShort);
}

#[test]
fn long_common_prefix_corpus_equivalent() {
    corpus_equivalent(0xC3, Corpus::SharedLong);
}

#[test]
fn chunk_relative_corpus_equivalent() {
    corpus_equivalent(0xC4, Corpus::Relative);
}

/// The read-only acceptance check from the cache's issue, in miniature: a
/// lookup-heavy phase must dereference off-heap key bytes at least 5× less
/// often through cached prefixes than through the full-compare reference
/// (`PrefixlessLex`: per-lookup, over the same key stream on identical
/// content).
#[test]
fn cached_prefixes_cut_offheap_derefs() {
    let mut cfg = tiny();
    cfg.chunk_capacity = 1024; // deep in-chunk binary searches
    let on = OakMap::with_config(cfg.clone());
    let off = OakMap::with_comparator(cfg, PrefixlessLex);
    let k = |id: u32| {
        let mut k = b"stem".to_vec();
        k.extend_from_slice(&(id.wrapping_mul(2_654_435_761)).to_be_bytes());
        k
    };
    for id in 0..8192 {
        on.put(&k(id), b"v").unwrap();
        off.put(&k(id), b"v").unwrap();
    }
    let base_on = on.stats().pool.offheap_key_derefs;
    let base_off = off.stats().pool.offheap_key_derefs;
    for round in 0..3 {
        for id in 0..8192 {
            let k = k((id + round) % 8192);
            assert!(on.get_copy(&k).is_some());
            assert!(off.get_copy(&k).is_some());
        }
    }
    let d_on = on.stats().pool.offheap_key_derefs - base_on;
    let d_off = off.stats().pool.offheap_key_derefs - base_off;
    assert!(
        d_on * 5 <= d_off,
        "prefix cache saved too little: {d_on} derefs with cache vs {d_off} without"
    );
}

/// The key shape the paper (§6), synchrobench and the repo benchmark all
/// use: a 20-digit zero-padded decimal id, padded to 100 bytes.
fn padded_key(id: u64) -> Vec<u8> {
    let mut k = format!("{id:020}").into_bytes();
    k.resize(100, b'k');
    k
}

/// The exact-count gate on that key shape, at the default chunk capacity:
/// every such key starts with `"00000000"`, so a cache of the *first*
/// eight bytes ties on every probe (11.39 dereferences per `get_with` and
/// 26.72 per `put_if_absent` before prefixes became chunk-relative).
/// Half the lookups miss, as in the benchmark.
#[test]
fn padded_decimal_ids_search_without_touching_key_bytes() {
    const N: u64 = 20_000;
    let map = OakMap::with_config(
        OakMapConfig::default().pool(PoolConfig::with_budget(8 << 20, 256 << 20)),
    );
    let derefs = || map.stats().pool.offheap_key_derefs;
    // A fixed odd multiplier scatters the insertion order over the range.
    let ids = (0..N).map(|i| (i * 7_919) % N * 2);
    let before = derefs();
    for id in ids {
        assert!(map.put_if_absent(&padded_key(id), b"v").unwrap());
    }
    let per_put = (derefs() - before) as f64 / N as f64;
    let before = derefs();
    for id in 0..2 * N {
        assert_eq!(map.get_with(&padded_key(id), |_| ()).is_some(), id % 2 == 0);
    }
    let per_get = (derefs() - before) as f64 / (2 * N) as f64;
    assert!(
        map.stats().chunks > 4,
        "want in-chunk searches over several chunks"
    );
    assert!(per_get <= 1.5, "{per_get} key dereferences per get_with");
    assert!(
        per_put <= 3.0,
        "{per_put} key dereferences per put_if_absent"
    );
}

/// Ids straddling a power of ten, in mixed key lengths: with small chunks
/// the chunks below, across and above the boundary have different bases,
/// and some keys are shorter than their chunk's base.
fn straddle_key(i: u64) -> Vec<u8> {
    let mut k = format!("{:020}", 99_000 + i * 13).into_bytes();
    match i % 6 {
        0 => k.truncate(19), // a proper prefix of ten longer ids
        1 => k.extend_from_slice(&[0; 9]),
        2 => k.resize(60, b'k'),
        _ => {}
    }
    k
}

fn ascend(map: &OakMap, lo: Option<&[u8]>, hi: Option<&[u8]>) -> Vec<Vec<u8>> {
    let mut got = Vec::new();
    map.for_each_in(lo, hi, |k, _| {
        got.push(k.to_vec());
        true
    });
    got
}

fn descend(map: &OakMap, from: Option<&[u8]>, lo: Option<&[u8]>) -> Vec<Vec<u8>> {
    let mut got = Vec::new();
    map.for_each_descending(from, lo, |k, _| {
        got.push(k.to_vec());
        true
    });
    got
}

#[test]
fn scans_cross_chunks_with_different_bases() {
    let mut cfg = tiny();
    cfg.chunk_capacity = 32;
    for batch_scan in [true, false] {
        let map = OakMap::with_config(cfg.clone().batch_scan(batch_scan));
        let sharded = ShardedOakMap::with_config(3, cfg.clone().batch_scan(batch_scan));
        let mut model = BTreeMap::new();
        for i in (0..400).rev().chain(400..800) {
            let (k, v) = (straddle_key(i), i.to_le_bytes().to_vec());
            map.put(&k, &v).unwrap();
            sharded.put(&k, &v).unwrap();
            model.insert(k, v);
        }
        assert!(map.stats().chunks > 8);
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();

        // Whole-map scans, entry by entry, through every scan surface.
        let set_api: Vec<_> = map
            .iter_range(None, None)
            .map(|(k, v)| (k.to_vec().unwrap(), v.to_vec().unwrap()))
            .collect();
        assert_eq!(set_api, want, "iter_range");
        let mut stream = Vec::new();
        map.for_each_in(None, None, |k, v| {
            stream.push((k.to_vec(), v.to_vec()));
            true
        });
        assert_eq!(stream, want, "for_each_in");
        let mut merged = Vec::new();
        sharded.for_each_in(None, None, |k, v| {
            merged.push((k.to_vec(), v.to_vec()));
            true
        });
        assert_eq!(merged, want, "sharded merge");
        let mut down: Vec<_> = map
            .iter_descending(None, None)
            .map(|(k, v)| (k.to_vec().unwrap(), v.to_vec().unwrap()))
            .collect();
        down.reverse();
        assert_eq!(down, want, "iter_descending");
        let mut merged_down = Vec::new();
        sharded.for_each_descending(None, None, |k, v| {
            merged_down.push((k.to_vec(), v.to_vec()));
            true
        });
        merged_down.reverse();
        assert_eq!(merged_down, want, "sharded descending merge");

        // Bounded scans whose bounds fall in, between and outside the
        // chunks' bases (present keys, absent keys, short keys).
        let bounds: Vec<Vec<u8>> = (0..800)
            .step_by(37)
            .map(straddle_key)
            .chain([b"0".to_vec(), b"00000000000000099".to_vec(), b"1".to_vec()])
            .collect();
        for lo in &bounds {
            for hi in &bounds {
                if lo > hi {
                    continue;
                }
                let up: Vec<Vec<u8>> = model
                    .range(lo.clone()..hi.clone())
                    .map(|e| e.0.clone())
                    .collect();
                assert_eq!(ascend(&map, Some(lo), Some(hi)), up);
                let mut dn: Vec<Vec<u8>> = model
                    .range(lo.clone()..=hi.clone())
                    .map(|e| e.0.clone())
                    .collect();
                dn.reverse();
                assert_eq!(descend(&map, Some(hi), Some(lo)), dn);
            }
        }
        map.validate();
        sharded.validate();
    }
}

/// The same scans while a writer keeps the chunks splitting and merging
/// under them: every key that is present throughout must come back exactly
/// once and the output must stay strictly ordered (§1.1), whichever chunks
/// — and bases — the cursor passes through.
#[test]
fn scans_cross_changing_bases_under_concurrent_rebalances() {
    let mut cfg = tiny();
    cfg.chunk_capacity = 32;
    for batch_scan in [true, false] {
        let map = OakMap::with_config(cfg.clone().batch_scan(batch_scan));
        let sharded = ShardedOakMap::with_config(3, cfg.clone().batch_scan(batch_scan));
        // Even ids are stable; the writer churns the odd ones.
        let stable: Vec<Vec<u8>> = (0..800).step_by(2).map(straddle_key).collect();
        for k in &stable {
            map.put(k, b"stable").unwrap();
            sharded.put(k, b"stable").unwrap();
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for i in (1..800).step_by(2) {
                        let k = straddle_key(i);
                        if (i / 2 + round).is_multiple_of(3) {
                            map.remove(&k);
                            sharded.remove(&k);
                        } else {
                            map.put(&k, b"churn").unwrap();
                            sharded.put(&k, b"churn").unwrap();
                        }
                    }
                    round += 1;
                }
            });
            let check = |mut got: Vec<Vec<u8>>, descending: bool, what: &str| {
                if descending {
                    got.reverse();
                }
                assert!(got.windows(2).all(|w| w[0] < w[1]), "{what}: out of order");
                got.retain(|k| stable.binary_search(k).is_ok());
                assert_eq!(got, stable, "{what}: lost or repeated a stable key");
            };
            let start = map.stats().rebalances;
            for _ in 0..8 {
                check(ascend(&map, None, None), false, "ascending");
                check(descend(&map, None, None), true, "descending");
                let set_api = map.iter_range(None, None).map(|(k, _)| k.to_vec().unwrap());
                check(set_api.collect(), false, "iter_range");
                let mut merged = Vec::new();
                sharded.for_each_in(None, None, |k, _| {
                    merged.push(k.to_vec());
                    true
                });
                check(merged, false, "sharded merge");
                let mut merged = Vec::new();
                sharded.for_each_descending(None, None, |k, _| {
                    merged.push(k.to_vec());
                    true
                });
                check(merged, true, "sharded descending merge");
            }
            stop.store(true, Ordering::Relaxed);
            assert!(
                map.stats().rebalances > start,
                "no rebalance raced the scans"
            );
        });
        map.validate();
        sharded.validate();
    }
}
