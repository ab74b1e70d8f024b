//! Property-style scan tests: seeded random scans with random bounds,
//! racing seeded churn writers, validated against the §1.1 scan
//! contract directly (no recorded history — the properties are checked
//! in-line, so thousands of scans stay cheap).
//!
//! The keyspace interleaves *stable* keys (written once, never touched
//! again) with *volatile* runs (constantly removed/reinserted by the
//! churn threads). Capacity-8 chunks over a 96-key universe put every
//! scan across many chunk boundaries, and emptying a volatile run
//! triggers merges while refilling it triggers splits — so scans
//! constantly cross chunks that are being frozen, split, merged and
//! replaced under them.
//!
//! Checked properties, for every scan:
//!   - keys strictly monotonic in scan direction (no duplicates, no
//!     reordering across chunk re-entry);
//!   - all keys within the requested bounds and from the universe;
//!   - every stable key inside the bounds is present, exactly once,
//!     with its immutable value (§1.1: keys untouched for the whole
//!     scan must be reported);
//!   - volatile values are always from the writers' literal set (no
//!     torn or stale-freed bytes).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use oak_core::{OakMap, OakMapConfig, OrderedKvMap, ShardedOakMap};
use oak_failpoints::SplitMix64;

const UNIVERSE: usize = 96;

fn key(i: usize) -> Vec<u8> {
    format!("k{i:03}").into_bytes()
}

/// Two stable keys lead every run of eight; the six volatile keys after
/// them form contiguous runs that can empty a whole chunk (merge) or
/// refill one (split).
fn is_stable(i: usize) -> bool {
    i % 8 < 2
}

fn stable_value(i: usize) -> Vec<u8> {
    format!("s{i:03}").into_bytes()
}

fn volatile_value(draw: u64) -> Vec<u8> {
    vec![b'v', (draw % 4) as u8 * 10]
}

fn cramped() -> OakMapConfig {
    OakMapConfig::small().chunk_capacity(8)
}

fn seed_map(map: &dyn OrderedKvMap) {
    for i in 0..UNIVERSE {
        let v = if is_stable(i) {
            stable_value(i)
        } else {
            volatile_value(0)
        };
        map.put(&key(i), &v).unwrap();
    }
}

fn churn(map: &dyn OrderedKvMap, seed: u64, stop: &AtomicBool) {
    let mut rng = SplitMix64::new(seed);
    while !stop.load(Ordering::Relaxed) {
        let i = rng.below(UNIVERSE as u64) as usize;
        if is_stable(i) {
            continue;
        }
        match rng.below(4) {
            0 => {
                map.remove(&key(i));
            }
            1 => {
                // Empty a whole volatile run: the chunk covering it can
                // drop to zero live entries and merge away.
                let base = i - i % 8 + 2;
                for j in base..base + 6 {
                    map.remove(&key(j));
                }
            }
            2 => {
                let base = i - i % 8 + 2;
                for j in base..base + 6 {
                    map.put(&key(j), &volatile_value(rng.below(4))).unwrap();
                }
            }
            _ => {
                map.put(&key(i), &volatile_value(rng.below(4))).unwrap();
            }
        }
    }
}

/// Validates one collected scan against the §1.1 contract.
/// `lo..=hi` are the inclusive index bounds the scan covered.
fn validate(scan: &[(Vec<u8>, Vec<u8>)], lo: usize, hi: usize, descending: bool, ctx: &str) {
    for w in scan.windows(2) {
        if descending {
            assert!(w[0].0 > w[1].0, "{ctx}: not strictly descending: {w:?}");
        } else {
            assert!(w[0].0 < w[1].0, "{ctx}: not strictly ascending: {w:?}");
        }
    }
    let universe: Vec<Vec<u8>> = (0..UNIVERSE).map(key).collect();
    let mut stable_seen = 0usize;
    for (k, v) in scan {
        let i = universe
            .binary_search(k)
            .unwrap_or_else(|_| panic!("{ctx}: phantom key {:?}", String::from_utf8_lossy(k)));
        assert!(
            (lo..=hi).contains(&i),
            "{ctx}: key {i} out of bounds [{lo}, {hi}]"
        );
        if is_stable(i) {
            assert_eq!(
                v,
                &stable_value(i),
                "{ctx}: stable key {i} has a foreign value"
            );
            stable_seen += 1;
        } else {
            assert_eq!(v[0], b'v', "{ctx}: volatile key {i} has a torn value {v:?}");
            assert!(v.len() == 2 && v[1] % 10 == 0 && v[1] <= 30, "{ctx}: {v:?}");
        }
    }
    let stable_expected = (lo..=hi).filter(|&i| is_stable(i)).count();
    assert_eq!(
        stable_seen, stable_expected,
        "{ctx}: scan over [{lo}, {hi}] missed a stable key"
    );
}

fn run_props(map: &dyn OrderedKvMap, scans_per_thread: usize, seed: u64) {
    seed_map(map);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let stop = &stop;
        for t in 0..2u64 {
            s.spawn(move || churn(map, seed ^ (0x9e37 + t), stop));
        }
        let scanners: Vec<_> = (0..2u64)
            .map(|t| {
                s.spawn(move || {
                    let mut rng = SplitMix64::new(seed ^ (0xace5 + t));
                    for round in 0..scans_per_thread {
                        let a = rng.below(UNIVERSE as u64) as usize;
                        let b = rng.below(UNIVERSE as u64) as usize;
                        let (lo, hi) = (a.min(b), a.max(b));
                        let descending = rng.below(2) == 0;
                        let entries = rng.below(2) == 0;
                        let mut out: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
                        let mut f = |k: &[u8], v: &[u8]| {
                            out.push((k.to_vec(), v.to_vec()));
                            true
                        };
                        let (lk, hk) = (key(lo), key(hi));
                        let hk_excl = key(hi + 1); // ascend's hi is exclusive
                        match (descending, entries) {
                            (false, false) => map.ascend(Some(&lk), Some(&hk_excl), &mut f),
                            (false, true) => map.ascend_entries(Some(&lk), Some(&hk_excl), &mut f),
                            (true, false) => map.descend(Some(&hk), Some(&lk), &mut f),
                            (true, true) => map.descend_entries(Some(&hk), Some(&lk), &mut f),
                        };
                        let ctx = format!(
                            "seed {seed:#x} scanner {t} round {round} desc={descending} entries={entries}"
                        );
                        validate(&out, lo, hi, descending, &ctx);
                    }
                })
            })
            .collect();
        for h in scanners {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
}

#[test]
fn scan_properties_oak_map() {
    let map = OakMap::with_config(cramped());
    run_props(&map, 60, 0x5ca9);
}

/// The sharded front-end k-way-merges per-shard cursors; the merge must
/// preserve every property (global order across shard boundaries is
/// where a merge bug would show).
#[test]
fn scan_properties_sharded_map() {
    let map = ShardedOakMap::with_config(4, cramped());
    run_props(&map, 60, 0xd15c);
}

// --- batch / per-entry A/B ---------------------------------------------
//
// `cramped()` runs the default batch pipeline; the tests below pin the
// per-entry walker (`batch_scan(false)`) on the same properties, and
// check the two modes agree entry-for-entry against a `BTreeMap` model
// on a quiescent map. Together with the churn runs above, any §1.1
// divergence between the modes fails one of these.

/// Per-entry walker under the same concurrent-churn properties.
#[test]
fn scan_properties_oak_map_per_entry() {
    let map = OakMap::with_config(cramped().batch_scan(false));
    run_props(&map, 40, 0xba7c);
}

#[test]
fn scan_properties_sharded_map_per_entry() {
    let map = ShardedOakMap::with_config(4, cramped().batch_scan(false));
    run_props(&map, 40, 0x0ff5);
}

/// Both modes under seeded failpoint schedules over the iterator
/// decision sites (`iter/*` is all-passive: yields and delays, no
/// injected errors — the churn writers must keep succeeding). The
/// perturbation stretches the windows between a batch snapshot and its
/// revalidation, and between per-entry steps and their staleness
/// checks.
#[test]
fn scan_properties_under_failpoint_schedules() {
    let _s = oak_failpoints::scenario();
    let iter_sites: Vec<_> = oak_core::all_failpoint_sites()
        .into_iter()
        .filter(|s| s.name.starts_with("iter/"))
        .collect();
    for (batch, seed) in [(true, 0x17a6u64), (false, 0x9e11u64)] {
        oak_failpoints::clear();
        oak_failpoints::Schedule::generate(seed, &iter_sites).install();
        let map = OakMap::with_config(cramped().batch_scan(batch));
        run_props(&map, 20, seed ^ 0xfa11);
    }
    oak_failpoints::clear();
}

/// Quiescent equivalence: after an identical seeded edit history, the
/// batch pipeline, the per-entry walker and a `BTreeMap` model must
/// agree *exactly* — ascending and descending, bounded and unbounded,
/// on both the stream and the Set-entries APIs.
#[test]
fn batch_and_per_entry_scans_agree_with_model() {
    use std::collections::BTreeMap;

    let batch = OakMap::with_config(cramped());
    let per_entry = OakMap::with_config(cramped().batch_scan(false));
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

    let mut rng = SplitMix64::new(0xe9a1);
    for _ in 0..600 {
        let i = rng.below(UNIVERSE as u64) as usize;
        match rng.below(3) {
            0 => {
                batch.remove(&key(i));
                per_entry.remove(&key(i));
                model.remove(&key(i));
            }
            _ => {
                let v = volatile_value(rng.below(4));
                batch.put(&key(i), &v).unwrap();
                per_entry.put(&key(i), &v).unwrap();
                model.insert(key(i), v);
            }
        }
    }

    let collect = |map: &OakMap, desc: bool, entries: bool, a: Option<usize>, b: Option<usize>| {
        let mut out: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut f = |k: &[u8], v: &[u8]| {
            out.push((k.to_vec(), v.to_vec()));
            true
        };
        let lk = a.map(key);
        let hk = b.map(key); // ascend's hi bound, exclusive
                             // descend's `from` is inclusive: key(b - 1) covers the same range
                             // (the keyspace is exactly the key(i) universe).
        let fk = b.map(|b| key(b - 1));
        match (desc, entries) {
            (false, false) => map.ascend(lk.as_deref(), hk.as_deref(), &mut f),
            (false, true) => map.ascend_entries(lk.as_deref(), hk.as_deref(), &mut f),
            (true, false) => map.descend(fk.as_deref(), lk.as_deref(), &mut f),
            (true, true) => map.descend_entries(fk.as_deref(), lk.as_deref(), &mut f),
        };
        out
    };

    let mut bounds: Vec<(Option<usize>, Option<usize>)> = vec![(None, None)];
    for _ in 0..20 {
        let a = rng.below(UNIVERSE as u64) as usize;
        let b = rng.below(UNIVERSE as u64) as usize;
        bounds.push((Some(a.min(b)), Some(a.max(b) + 1)));
    }

    for &(a, b) in &bounds {
        for desc in [false, true] {
            for entries in [false, true] {
                let got_batch = collect(&batch, desc, entries, a, b);
                let got_legacy = collect(&per_entry, desc, entries, a, b);
                let mut expect: Vec<(Vec<u8>, Vec<u8>)> = match (a, b) {
                    (Some(a), Some(b)) => model
                        .range(key(a)..key(b))
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect(),
                    _ => model.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
                };
                if desc {
                    expect.reverse();
                }
                let ctx = format!("bounds {a:?}..{b:?} desc={desc} entries={entries}");
                assert_eq!(got_batch, expect, "batch vs model diverged: {ctx}");
                assert_eq!(got_legacy, expect, "per-entry vs model diverged: {ctx}");
            }
        }
    }
}

// --- demand-driven fills: scan lengths at the ramp edges ----------------
//
// A Set-API cursor (iterators, the sharded merge) fills 16, 32, 64, then
// 128 entries at a time and judges liveness as it yields; a stream cursor
// leases 128 at once. The cases below put a scan's end on either side of
// every one of those boundaries — and of a chunk's end, with capacity-64
// chunks — in both directions, on OakMap (stream and Set API) and on
// ShardedOak-4, quiescent and under a writer that keeps splitting and
// merging the chunks being scanned, and compare what is delivered with a
// `BTreeMap` model of the keys the writer never touches.

/// Scan lengths, in stable keys: one, and both sides of each fill edge.
const RAMP_LENGTHS: [usize; 14] = [1, 15, 16, 17, 47, 48, 49, 111, 112, 113, 127, 128, 129, 300];
/// Stable keys in the ramp universe (even indices; odd ones are volatile).
const RAMP_STABLE: usize = 340;

fn ramp_key(i: usize) -> Vec<u8> {
    format!("r{i:04}").into_bytes()
}

fn ramp_value(i: usize) -> Vec<u8> {
    format!("stable-{i:04}").into_bytes()
}

/// Stable ramp keys end in an even digit.
fn ramp_stable(key: &[u8]) -> bool {
    key[key.len() - 1].is_multiple_of(2)
}

enum RampTarget<'a> {
    Oak(&'a OakMap),
    Sharded(&'a ShardedOakMap),
}

impl RampTarget<'_> {
    fn map(&self) -> &dyn OrderedKvMap {
        match self {
            RampTarget::Oak(m) => *m,
            RampTarget::Sharded(m) => *m,
        }
    }

    /// One scan, stopped once `limit` stable keys were delivered. `top` is
    /// ascending's exclusive `hi` or descending's inclusive `from`.
    fn scan(
        &self,
        descending: bool,
        set_api: bool,
        lo: &[u8],
        top: Option<&[u8]>,
        limit: usize,
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut stable = 0;
        let mut visit = |k: &[u8], v: &[u8]| {
            out.push((k.to_vec(), v.to_vec()));
            stable += usize::from(ramp_stable(k));
            stable < limit
        };
        match self {
            RampTarget::Oak(m) if set_api => {
                let items: Box<dyn Iterator<Item = _>> = if descending {
                    Box::new(m.iter_descending(top, Some(lo)))
                } else {
                    Box::new(m.iter_range(Some(lo), top))
                };
                for (k, v) in items {
                    // A volatile value may die between its yield and this
                    // read; a stable one never does.
                    let k = k.to_vec().expect("keys are immutable");
                    if let Ok(v) = v.to_vec() {
                        if !visit(&k, &v) {
                            break;
                        }
                    }
                }
            }
            _ if descending => {
                self.map().descend(top, Some(lo), &mut visit);
            }
            _ => {
                self.map().ascend(Some(lo), top, &mut visit);
            }
        }
        out
    }
}

/// Fills a run of volatile keys, then empties another: chunks under the
/// scans fill up and split, drain and merge.
fn ramp_churn(map: &dyn OrderedKvMap, seed: u64, runs: &AtomicUsize, stop: &AtomicBool) {
    let mut rng = SplitMix64::new(seed);
    while !stop.load(Ordering::Relaxed) {
        runs.fetch_add(1, Ordering::Relaxed);
        let base = rng.below(RAMP_STABLE as u64 - 40) as usize;
        let fill = rng.below(2) == 0;
        for j in base..base + 40 {
            let k = ramp_key(2 * j + 1);
            if fill {
                map.put(&k, &volatile_value(rng.below(4))).unwrap();
            } else {
                map.remove(&k);
            }
        }
    }
}

fn run_ramp_edges(target: &RampTarget, churn: bool, seed: u64) {
    use std::collections::BTreeMap;

    let map = target.map();
    let mut rng = SplitMix64::new(seed);
    // Seeded insertion order: chunks end up with bypasses among their
    // sorted cells, which is what widens a descending tail window.
    let mut order: Vec<usize> = (0..RAMP_STABLE).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for i in order {
        map.put(&ramp_key(2 * i), &ramp_value(i)).unwrap();
        model.insert(ramp_key(2 * i), ramp_value(i));
    }

    let stop = AtomicBool::new(false);
    let churn_runs = AtomicUsize::new(0);
    let mut volatile_seen = 0;
    std::thread::scope(|s| {
        if churn {
            s.spawn(|| ramp_churn(map, seed ^ 0xc4a2, &churn_runs, &stop));
        }
        for (round, &len) in RAMP_LENGTHS.iter().cycle().enumerate() {
            // Three passes over the lengths, and under churn as many more
            // as it takes the writer to have rewritten the map a few times.
            let writer_done = !churn || churn_runs.load(Ordering::Relaxed) >= 60;
            if round >= 3 * RAMP_LENGTHS.len() && writer_done {
                break;
            }
            let a = rng.below((RAMP_STABLE - len) as u64 + 1) as usize;
            let (lo, last) = (ramp_key(2 * a), ramp_key(2 * (a + len - 1)));
            // Odd rounds end at a bound, even ones when the callback says so.
            let bounded = round % 2 == 1;
            for descending in [false, true] {
                for set_api in [false, true] {
                    if set_api && matches!(target, RampTarget::Sharded(_)) {
                        continue; // its merge *is* the Set-API cursor
                    }
                    let hi_excl = ramp_key(2 * (a + len - 1) + 1);
                    let got = match (descending, bounded) {
                        (false, true) => {
                            target.scan(false, set_api, &lo, Some(&hi_excl), usize::MAX)
                        }
                        (false, false) => target.scan(false, set_api, &lo, None, len),
                        (true, true) => target.scan(true, set_api, &lo, Some(&last), usize::MAX),
                        (true, false) => target.scan(true, set_api, &ramp_key(0), Some(&last), len),
                    };
                    let ctx = format!(
                        "seed {seed:#x} len {len} from {a} desc={descending} set_api={set_api} \
                         bounded={bounded} churn={churn}"
                    );
                    for w in got.windows(2) {
                        let ordered = if descending {
                            w[0].0 > w[1].0
                        } else {
                            w[0].0 < w[1].0
                        };
                        assert!(ordered, "{ctx}: out of order or repeated: {w:?}");
                    }
                    let (stable, volatile): (Vec<_>, Vec<_>) =
                        got.into_iter().partition(|(k, _)| ramp_stable(k));
                    volatile_seen += volatile.len();
                    for (k, v) in &volatile {
                        assert!(churn, "{ctx}: phantom {:?}", String::from_utf8_lossy(k));
                        assert!(
                            v.len() == 2 && v[0] == b'v' && v[1] % 10 == 0,
                            "{ctx}: torn {v:?}"
                        );
                    }
                    let mut expect: Vec<(Vec<u8>, Vec<u8>)> = model
                        .range(lo.clone()..=last.clone())
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    if descending {
                        expect.reverse();
                    }
                    assert_eq!(stable, expect, "{ctx}: diverged from the model");
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(
        churn,
        volatile_seen > 0,
        "seed {seed:#x}: the writer's keys"
    );
}

#[test]
fn ramp_edge_scans_agree_with_model() {
    for (capacity, seed) in [(64, 0x4a31u64), (512, 0x77e0)] {
        let cfg = || OakMapConfig::small().chunk_capacity(capacity);
        for churn in [false, true] {
            let oak = OakMap::with_config(cfg());
            run_ramp_edges(&RampTarget::Oak(&oak), churn, seed);
            let sharded = ShardedOakMap::with_config(4, cfg());
            run_ramp_edges(&RampTarget::Sharded(&sharded), churn, seed ^ 0x5a);
        }
    }
}
