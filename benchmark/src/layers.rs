//! The traced pass: a single-threaded replay of the workload's op streams
//! with a span around every call and an exact `BTreeMap` shadow, then quiet
//! probes that time the calls into each layer, and the per-layer metrics
//! computed from those spans and from counter deltas.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use oak_core::{OakMap, ShardedOakMap};
use oak_mempool::{MemoryPool, ValueStore};

use crate::counters::{shard_len_max_over_mean, Counters};
use crate::gen::{
    new_key_buf, new_value_buf, stamp_value, value_header, write_key, Op, OpKind, OpStream,
    SplitMix64, ID_RANGE, KEY_LEN, N, VALUE_LEN,
};
use crate::hist::Histogram;
use crate::report::Metric;
use crate::stage::{bump_stamp, Stamps, THREADS};
use crate::target::{map_config, pool_config, Target};
use crate::trace::{self_times, Layer, Tracer};
use crate::verify::{collect_scan, decode, full_scan, raw_entry};
use crate::workloads::{Timed, Workload, STREAM_MAIN};

/// The replay stops at this many ops even if its time is not up, so a
/// trace file stays in the tens of megabytes.
const REPLAY_OP_CAP: u64 = 200_000;

const STREAM_PROBES: u64 = 0x700;

/// `id -> (write stamp, value length)` of every entry the map must hold.
type Shadow = BTreeMap<u64, (u64, usize)>;

/// Ops issued and checks failed in the traced pass.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The failed checks that were structural: a map whose contents or
    /// invariants are wrong, not one op that returned an error.
    pub structural: u64,
}

impl Tally {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += !ok as u64;
    }

    fn structural_check(&mut self, ok: bool) {
        self.check(ok);
        self.structural += !ok as u64;
    }
}

/// Reads a quiet map into a fresh shadow.
fn shadow_of<M: Target>(map: &M, tally: &mut Tally) -> Shadow {
    let mut shadow = Shadow::new();
    let summary = full_scan(map, |id, stamp, len| {
        shadow.insert(id, (stamp, len));
    });
    tally.structural_check(summary.failures == 0);
    shadow
}

/// Ids a bounded scan from `start` must deliver, in delivery order.
fn expected_scan(shadow: &Shadow, start: u64, ascending: bool, limit: usize) -> Vec<u64> {
    let ids = |(&id, _): (&u64, _)| id;
    if ascending {
        shadow.range(start..).take(limit).map(ids).collect()
    } else {
        shadow.range(..=start).rev().take(limit).map(ids).collect()
    }
}

/// Replays the main stage's op streams (the threads' streams interleaved
/// one op each) on one thread for `seconds`, checking every result against
/// the shadow. Returns the ops replayed.
fn replay<M: Target>(
    map: &M,
    w: &Workload,
    seed: u64,
    seconds: f64,
    shadow: &mut Shadow,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> u64 {
    let dist = w.key_dist(seed);
    let mut streams: Vec<OpStream<'_>> = (0..THREADS)
        .map(|t| OpStream::new(seed, STREAM_MAIN + t as u64, w.mixes[t], &dist, w.value_len))
        .collect();
    let mut stamps = Stamps::new(STREAM_PROBES);
    let mut key = new_key_buf();
    let mut value = new_value_buf();
    let mut got = Vec::with_capacity(w.scan_len + 1);
    let mut ops = 0;
    tr.begin_stage("replay");
    while tr.stage_elapsed_s() < seconds && ops < REPLAY_OP_CAP {
        let Op {
            kind,
            id,
            value_len,
        } = streams[ops as usize % THREADS].next_op();
        let op_id = ops as u32;
        ops += 1;
        write_key(&mut key, id);
        let ok = match kind {
            OpKind::Get => {
                let found = tr.call(M::LAYER, "get_with.miss", op_id, || {
                    map.get_with(&key, |v| (value_header(v), v.len()))
                });
                if found.is_some() {
                    tr.relabel_last("get_with.hit");
                }
                let want = shadow
                    .get(&id)
                    .map(|&(stamp, len)| (Some((id, stamp)), len));
                found == want
            }
            OpKind::Put => {
                let stamp = stamps.next();
                stamp_value(&mut value, id, stamp);
                let result = tr.call(M::LAYER, "put.new", op_id, || {
                    map.put(&key, &value[..value_len])
                });
                if shadow.insert(id, (stamp, value_len)).is_some() {
                    tr.relabel_last("put.over");
                }
                result.is_ok()
            }
            OpKind::Remove => {
                let removed = tr.call(M::LAYER, "remove", op_id, || map.remove(&key));
                removed == shadow.remove(&id).is_some()
            }
            OpKind::Compute => {
                let done = tr.call(M::LAYER, "compute_if_present", op_id, || {
                    map.compute_if_present(&key, |b| bump_stamp(b.as_mut_slice()))
                });
                let entry = shadow.get_mut(&id);
                let present = entry.is_some();
                if let Some((stamp, _)) = entry {
                    *stamp = stamp.wrapping_add(1);
                }
                done == present
            }
            OpKind::ScanAsc | OpKind::ScanDesc => {
                let ascending = kind == OpKind::ScanAsc;
                let func = if ascending {
                    "for_each_in"
                } else {
                    "for_each_descending"
                };
                tr.call(M::LAYER, func, op_id, || {
                    collect_scan(map, &key, ascending, w.scan_len, &mut got)
                });
                decode(&got) == expected_scan(shadow, id, ascending, w.scan_len)
            }
        };
        tally.check(ok);
    }
    tr.end_stage();
    ops
}

/// A second map holding exactly the main map's entries, inserted in a
/// seeded random order as set-up inserts them.
fn twin_of<S: Target, D: Target>(source: &S, shadow: &Shadow, seed: u64, tally: &mut Tally) -> D {
    let twin = D::new_map();
    let mut ids: Vec<u64> = shadow.keys().copied().collect();
    let mut rng = SplitMix64::for_stream(seed, STREAM_PROBES + 4);
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut key = new_key_buf();
    let mut copied = 0;
    for &id in &ids {
        write_key(&mut key, id);
        let ok = source.get_with(&key, |v| twin.put(&key, v).is_ok());
        copied += (ok == Some(true)) as usize;
    }
    tally.structural_check(copied == ids.len());
    twin
}

/// What the quiet probes of the maps share: the shadow of the maps' (equal)
/// contents, random picks from the ids present in and absent from it, and
/// where spans and check results go.
struct Probes<'a> {
    shadow: &'a Shadow,
    present: Vec<u64>,
    /// Shuffled.
    absent: Vec<u64>,
    rng: SplitMix64,
    key: [u8; KEY_LEN],
    tr: &'a mut Tracer,
    tally: &'a mut Tally,
}

impl<'a> Probes<'a> {
    fn new(shadow: &'a Shadow, seed: u64, tr: &'a mut Tracer, tally: &'a mut Tally) -> Self {
        let mut absent: Vec<u64> = (0..ID_RANGE)
            .filter(|id| !shadow.contains_key(id))
            .collect();
        let mut rng = SplitMix64::for_stream(seed, STREAM_PROBES);
        for i in (1..absent.len()).rev() {
            absent.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Probes {
            shadow,
            present: shadow.keys().copied().collect(),
            absent,
            rng,
            key: new_key_buf(),
            tr,
            tally,
        }
    }

    /// Sets the key to a random present id.
    fn key_hit(&mut self) -> u64 {
        let id = self.present[self.rng.below(self.present.len() as u64) as usize];
        write_key(&mut self.key, id);
        id
    }

    /// Sets the key to a random absent id.
    fn key_miss(&mut self) {
        let id = self.absent[self.rng.below(self.absent.len() as u64) as usize];
        write_key(&mut self.key, id);
    }

    /// Sets the key to a uniform id, present or not (a scan's start).
    fn key_any(&mut self) -> u64 {
        let id = self.rng.below(ID_RANGE);
        write_key(&mut self.key, id);
        id
    }

    /// Point-op probes on a quiet map, split by outcome: a miss walks index
    /// and chunk and never touches a value header; a hit adds the header
    /// read lock; `put.new` allocates, `put.over` of the same length writes
    /// in place. Leaves the key set as it found it. Returns allocations per
    /// `put.new`.
    fn point_ops<M: Target>(&mut self, map: &M, w: &Workload) -> f64 {
        const GETS: u32 = 20_000;
        const WRITES: u32 = 10_000;
        let mut value = new_value_buf();
        let mut stamps = Stamps::new(STREAM_PROBES + 1);
        self.tr.begin_stage("probe.point");
        for i in 0..GETS {
            let id = self.key_hit();
            let found = self.tr.call(M::LAYER, "get_with.hit", i, || {
                map.get_with(&self.key, |v| value_header(v).map(|(vid, _)| vid))
            });
            self.tally.check(found == Some(Some(id)));
        }
        for i in 0..GETS {
            self.key_miss();
            let found = self.tr.call(M::LAYER, "get_with.miss", i, || {
                map.get_with(&self.key, |_| ())
            });
            self.tally.check(found.is_none());
        }
        for i in 0..WRITES {
            let id = self.key_hit();
            stamp_value(&mut value, id, stamps.next());
            let len = self.shadow[&id].1;
            let result = self.tr.call(M::LAYER, "put.over", i, || {
                map.put(&self.key, &value[..len])
            });
            self.tally.check(result.is_ok());
        }
        let fresh: Vec<u64> = self.absent.iter().copied().take(WRITES as usize).collect();
        let allocs_before = map.counters().allocs;
        for (i, &id) in fresh.iter().enumerate() {
            write_key(&mut self.key, id);
            stamp_value(&mut value, id, stamps.next());
            let len = w.value_len.draw(&mut self.rng);
            let result = self.tr.call(M::LAYER, "put.new", i as u32, || {
                map.put(&self.key, &value[..len])
            });
            self.tally.check(result.is_ok());
        }
        let allocs_per_put_new =
            (map.counters().allocs - allocs_before) as f64 / fresh.len() as f64;
        for (i, &id) in fresh.iter().enumerate() {
            write_key(&mut self.key, id);
            let removed = self
                .tr
                .call(M::LAYER, "remove", i as u32, || map.remove(&self.key));
            self.tally.check(removed);
        }
        for i in 0..WRITES {
            self.key_hit();
            let done = self.tr.call(M::LAYER, "compute_if_present", i, || {
                map.compute_if_present(&self.key, |b| bump_stamp(b.as_mut_slice()))
            });
            self.tally.check(done);
        }
        self.tr.end_stage();
        allocs_per_put_new
    }

    /// `count` bounded stream scans of `limit` entries from uniform start
    /// keys, each checked entry for entry against the shadow. Returns the
    /// entries delivered, to turn span time into time per entry.
    fn scans<M: Target>(
        &mut self,
        map: &M,
        layer: Layer,
        func: &'static str,
        ascending: bool,
        limit: usize,
        count: u32,
    ) -> u64 {
        let mut got = Vec::with_capacity(limit + 1);
        let mut entries = 0;
        for i in 0..count {
            let start = self.key_any();
            self.tr.call(layer, func, i, || {
                collect_scan(map, &self.key, ascending, limit, &mut got)
            });
            entries += got.len() as u64;
            let want = expected_scan(self.shadow, start, ascending, limit);
            self.tally.check(decode(&got) == want);
        }
        entries
    }

    /// Quiet single-thread scans of an `OakMap`: the scan engine with no
    /// writer in the way.
    fn iter(&mut self, map: &OakMap) -> IterProbes {
        const SEEKS: u32 = 10_000;
        const SCANS: u32 = 2_000;
        const LONG_SCANS: u32 = 200;
        self.tr.begin_stage("probe.iter");
        for i in 0..SEEKS {
            let start = self.key_any();
            let visited = self.tr.call(Layer::Iter, "seek", i, || {
                map.for_each_in(Some(&self.key), None, |_, _| false)
            });
            let want = self.shadow.range(start..).take(1).count();
            self.tally.check(visited == want);
        }
        let before = map.counters();
        let asc = self.scans(map, Layer::Iter, "for_each_in.100", true, 100, SCANS);
        let desc = self.scans(
            map,
            Layer::Iter,
            "for_each_descending.100",
            false,
            100,
            SCANS,
        );
        let counters = map.counters().since(&before);
        let asc_long = self.scans(map, Layer::Iter, "for_each_in.2000", true, 2000, LONG_SCANS);
        let mut entryset = 0;
        let mut got = Vec::with_capacity(100);
        for i in 0..SCANS {
            let start = self.key_any();
            got.clear();
            self.tr.call(Layer::Iter, "iter_range.100", i, || {
                for (k, v) in map.iter_range(Some(&self.key), None).take(100) {
                    let entry = k.read(|kb| v.read(|vb| raw_entry(kb, vb)));
                    got.push(entry.and_then(|e| e).unwrap_or(raw_entry(&[], &[])));
                }
            });
            entryset += got.len() as u64;
            let want = expected_scan(self.shadow, start, true, 100);
            self.tally.check(decode(&got) == want);
        }
        self.tr.end_stage();
        IterProbes {
            asc,
            desc,
            asc_long,
            entryset,
            counters,
            scans: 2 * SCANS as u64,
        }
    }

    /// Routing alone: the same lookups on an empty `ShardedOakMap` and an
    /// empty `OakMap`. Both miss in an empty first chunk, so what differs is
    /// the hash of the 100-byte key and the shard indirection. (A populated
    /// sharded map against a populated `OakMap` does not isolate routing:
    /// each shard holds a quarter of the keys, so its index walk is shorter
    /// and the difference comes out negative.)
    fn route(&mut self) {
        const GETS: u32 = 20_000;
        let oak = OakMap::new_map();
        let sharded = ShardedOakMap::new_map();
        self.tr.begin_stage("probe.route");
        for i in 0..GETS {
            self.key_any();
            let a = self.tr.call(Layer::Core, "get_with.empty", i, || {
                oak.get_with(&self.key, |_| ())
            });
            let b = self.tr.call(Layer::Sharded, "get_with.empty", i, || {
                sharded.get_with(&self.key, |_| ())
            });
            self.tally.check(a.is_none() && b.is_none());
        }
        self.tr.end_stage();
    }

    /// Merged scans of the sharded map. Returns entries delivered ascending
    /// and descending.
    fn sharded_scans(&mut self, map: &ShardedOakMap) -> (u64, u64) {
        const SCANS: u32 = 2_000;
        self.tr.begin_stage("probe.sharded_scan");
        let asc = self.scans(map, Layer::Sharded, "for_each_in.50", true, 50, SCANS);
        let desc = self.scans(
            map,
            Layer::Sharded,
            "for_each_descending.50",
            false,
            50,
            SCANS,
        );
        self.tr.end_stage();
        (asc, desc)
    }
}

/// Entries delivered by each of the iter probe's scan kinds, and the scan
/// counters' growth over its `scans` 100-entry stream scans.
struct IterProbes {
    asc: u64,
    desc: u64,
    asc_long: u64,
    entryset: u64,
    counters: Counters,
    scans: u64,
}

/// `MemoryPool` alone, default allocator tier: a standing population of
/// key+value slice pairs with the workload's value lengths, then a churn
/// that frees a random pair and allocates a new one — the interleaving a
/// remove and a put of a new key imply.
fn mempool_probe(w: &Workload, seed: u64, tr: &mut Tracer, tally: &mut Tally) {
    const STANDING: u32 = 10_000;
    const CHURN: u32 = 20_000;
    let pool = MemoryPool::new(pool_config());
    let mut rng = SplitMix64::for_stream(seed, STREAM_PROBES + 2);
    let mut pairs = Vec::with_capacity(STANDING as usize);
    tr.begin_stage("probe.mempool");
    let mut alloc_pair = |tr: &mut Tracer, rng: &mut SplitMix64, op: u32| {
        let k = tr.call(Layer::Mempool, "allocate", op, || pool.allocate(KEY_LEN));
        let len = w.value_len.draw(rng);
        let v = tr.call(Layer::Mempool, "allocate", op, || pool.allocate(len));
        tally.check(k.is_ok() && v.is_ok());
        k.ok().zip(v.ok())
    };
    for i in 0..STANDING {
        pairs.extend(alloc_pair(tr, &mut rng, i));
    }
    for i in 0..CHURN {
        let victim = rng.below(pairs.len() as u64) as usize;
        let (k, v) = pairs.swap_remove(victim);
        tr.call(Layer::Mempool, "free", i, || pool.free(k));
        tr.call(Layer::Mempool, "free", i, || pool.free(v));
        pairs.extend(alloc_pair(tr, &mut rng, i));
    }
    tr.end_stage();
}

/// `ValueStore` alone, 1 KiB payloads: the header lock word plus the copy.
fn value_probe(seed: u64, tr: &mut Tracer, tally: &mut Tally) {
    const VALUES: u32 = 10_000;
    const READS: u32 = 20_000;
    const WRITES: u32 = 10_000;
    const RESIZES: u32 = 5_000;
    /// Values the resize loop cycles over.
    const RESIZED: u32 = 1_000;
    let store = ValueStore::new(Arc::new(MemoryPool::new(pool_config())));
    let mut rng = SplitMix64::for_stream(seed, STREAM_PROBES + 3);
    let mut value = new_value_buf();
    tr.begin_stage("probe.value");
    let mut headers = Vec::with_capacity(VALUES as usize);
    for i in 0..VALUES {
        stamp_value(&mut value, i as u64, 0);
        let h = tr.call(Layer::Value, "allocate_value", i, || {
            store.allocate_value(&value[..VALUE_LEN])
        });
        tally.check(h.is_ok());
        headers.extend(h.ok());
    }
    let pick = |rng: &mut SplitMix64| rng.below(headers.len() as u64) as usize;
    for i in 0..READS {
        let at = pick(&mut rng);
        let read = tr.call(Layer::Value, "read", i, || {
            store.read(headers[at], |v| value_header(v).map(|(id, _)| id))
        });
        tally.check(read == Ok(Some(at as u64)));
    }
    for i in 0..WRITES {
        let at = pick(&mut rng);
        stamp_value(&mut value, at as u64, i as u64);
        let wrote = tr.call(Layer::Value, "put", i, || {
            store.put(headers[at], &value[..VALUE_LEN])
        });
        tally.check(wrote == Ok(true));
    }
    // A value's length alternates between 1.5 KiB and 1 KiB from one pass
    // over the cycled values to the next, so every put moves the payload.
    for i in 0..RESIZES {
        let at = (i % RESIZED) as usize;
        let len = if (i / RESIZED).is_multiple_of(2) {
            VALUE_LEN + 512
        } else {
            VALUE_LEN
        };
        stamp_value(&mut value, at as u64, i as u64);
        let wrote = tr.call(Layer::Value, "put.resize", i, || {
            store.put(headers[at], &value[..len])
        });
        tally.check(wrote == Ok(true));
    }
    for i in 0..WRITES {
        let at = pick(&mut rng);
        let done = tr.call(Layer::Value, "compute", i, || {
            store.compute(headers[at], |b| bump_stamp(b.as_mut_slice()))
        });
        tally.check(done.is_some());
    }
    for (i, &h) in headers.iter().enumerate() {
        let removed = tr.call(Layer::Value, "remove", i as u32, || store.remove(h));
        tally.check(removed);
    }
    tr.end_stage();
}

/// Checkpoints the map, recovers it into a fresh one, and compares the two
/// maps' full-scan digests. Returns the segment file's bytes per byte of
/// user data. Sandbox disk: the two spans' times are the sandbox's.
fn durable_probe(map: &OakMap, dir: &Path, tr: &mut Tracer, tally: &mut Tally) -> f64 {
    let _ = std::fs::remove_dir_all(dir);
    let source = full_scan(map, |_, _, _| ());
    let written = tr.call(Layer::Durable, "checkpoint", 0, || {
        oak_durable::checkpoint(map, dir)
    });
    let recovered = tr.call(Layer::Durable, "open", 0, || {
        oak_durable::open(dir, map_config())
    });
    tally.check(written.is_ok());
    match &recovered {
        Ok(copy) => {
            copy.validate();
            tally.structural_check(full_scan(copy, |_, _, _| ()) == source);
        }
        Err(_) => tally.structural_check(false),
    }
    drop(recovered);
    let _ = std::fs::remove_dir_all(dir);
    written.map_or(0.0, |stats| stats.bytes as f64) / source.user_bytes as f64
}

/// Cost of the harness's own per-op work: a back-to-back timer read pair,
/// and one op generation plus key encoding.
fn harness_costs(w: &Workload, seed: u64) -> (f64, f64) {
    const REPS: u32 = 1_000_000;
    let begin = Instant::now();
    let mut sink = 0u128;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let t1 = Instant::now();
        sink += (t1 - t0).as_nanos();
    }
    std::hint::black_box(sink);
    let timer_ns = begin.elapsed().as_nanos() as f64 / REPS as f64;
    let dist = w.key_dist(seed);
    let mut ops = OpStream::new(seed, STREAM_PROBES + 5, w.mixes[0], &dist, w.value_len);
    let mut key = new_key_buf();
    let begin = Instant::now();
    for _ in 0..REPS {
        write_key(&mut key, ops.next_op().id);
        std::hint::black_box(&key);
    }
    (timer_ns, begin.elapsed().as_nanos() as f64 / REPS as f64)
}

pub struct Traced {
    pub metrics: Vec<Metric>,
    pub tracer: Tracer,
    pub tally: Tally,
}

fn per_k(count: u64, ops: u64) -> f64 {
    1000.0 * count as f64 / ops.max(1) as f64
}

/// The traced pass of one workload, on the map the timed pass left behind.
/// The replay runs on that map; the probes run on it and on a twin of the
/// other map type holding the same entries.
pub fn run_traced<M: Target>(
    main: M,
    w: &Workload,
    seed: u64,
    seconds: f64,
    timed: &Timed,
    ingest_ops_s: f64,
    out_dir: &Path,
) -> Traced {
    let mut tr = Tracer::new();
    let mut tally = Tally::default();
    let mut shadow = shadow_of(&main, &mut tally);
    let replay_ops = replay(&main, w, seed, seconds, &mut shadow, &mut tr, &mut tally);
    // The replay stage is span 0; its self time is the harness's own.
    let replay_outside_share =
        self_times(tr.spans())[0] as f64 / tr.spans()[0].duration_ns() as f64;
    let twin: M::Twin = twin_of(&main, &shadow, seed, &mut tally);
    let (oak, sharded) = main.into_pair(twin);

    mempool_probe(w, seed, &mut tr, &mut tally);
    value_probe(seed, &mut tr, &mut tally);
    let mut probes = Probes::new(&shadow, seed, &mut tr, &mut tally);
    let allocs_per_put_new = probes.point_ops(&oak, w);
    let iters = probes.iter(&oak);
    probes.point_ops(&sharded, w);
    probes.route();
    let (sharded_asc, sharded_desc) = probes.sharded_scans(&sharded);
    let checkpoint_dir = out_dir.join(format!("{}.ckpt", w.name));
    let file_bytes_per_user_byte = durable_probe(&oak, &checkpoint_dir, &mut tr, &mut tally);
    let (timer_ns, keygen_ns) = harness_costs(w, seed);
    tally.structural_check({
        oak.validate();
        sharded.validate();
        full_scan(&oak, |_, _, _| ()).failures + full_scan(&sharded, |_, _, _| ()).failures == 0
    });

    // Probe spans only: the replay's calls follow the workload's key
    // distribution and mix, the probes' are the same on every workload.
    let h = |layer, func| tr.durations("probe.", layer, func);
    let m = |name, unit, value: f64, samples: u64| Metric::new(name, unit, value).samples(samples);
    let quantile = |name, layer, func, q: f64| {
        let hist: Histogram = h(layer, func);
        m(name, "ns", hist.quantile(q), hist.count())
    };
    let p50 = |layer, func| h(layer, func).quantile(0.5);
    // Span time of a probe's scans over the entries they delivered.
    let per_entry = |name, layer, func, entries: u64| {
        let ns = h(layer, func).sum() as f64 / entries.max(1) as f64;
        m(name, "ns", ns, entries)
    };
    // The only spans outside a stage: one checkpoint, one open.
    let durable_ms = |func| {
        let mut spans = tr.spans().iter();
        let span = spans.find(|s| s.layer == Layer::Durable && s.func == func);
        span.map_or(0.0, |s| s.duration_ns() as f64 / 1e6)
    };

    let main = &timed.main;
    let main_ops = main.ops();
    let end = &timed.at_main_end;
    let mib = |bytes: u64| bytes as f64 / (1u64 << 20) as f64;
    let allocs = h(Layer::Mempool, "allocate");
    let mut puts = h(Layer::Core, "put.new");
    puts.merge(&h(Layer::Core, "put.over"));

    // Scans of the timed pass (main stage or scan probe) against the quiet
    // scans of the same map type and length.
    let (scan_source, scan_stage) = timed.stage_for(OpKind::ScanAsc);
    let timed_asc = scan_stage.class(OpKind::ScanAsc);
    let quiet_asc_p50 = if w.sharded {
        p50(Layer::Sharded, "for_each_in.50")
    } else {
        p50(Layer::Iter, "for_each_in.100")
    };
    let iter_asc = per_entry(
        "iter.asc_ns_per_entry",
        Layer::Iter,
        "for_each_in.100",
        iters.asc,
    );
    let sharded_scan = per_entry(
        "sharded.scan_ns_per_entry",
        Layer::Sharded,
        "for_each_in.50",
        sharded_asc,
    );
    let merge_slowdown = sharded_scan.value / iter_asc.value;

    #[rustfmt::skip]
    let metrics = vec![
        // mempool: the pool alone, then the map's pool over the main stage.
        quantile("mempool.alloc_p50_ns", Layer::Mempool, "allocate", 0.5),
        quantile("mempool.alloc_p99_ns", Layer::Mempool, "allocate", 0.99),
        m("mempool.alloc_max_ns", "ns", allocs.max() as f64, allocs.count()),
        quantile("mempool.free_p50_ns", Layer::Mempool, "free", 0.5),
        quantile("mempool.free_p99_ns", Layer::Mempool, "free", 0.99),
        m("mempool.allocs_per_op", "1/op", main.delta.allocs as f64 / main_ops as f64, main_ops),
        m("mempool.freelist_locks_per_kop", "1/kop", per_k(main.delta.freelist_locks, main_ops), main_ops),
        m("mempool.failed_allocs", "count", end.failed_allocs as f64, 0),
        m("mempool.free_segments_end", "count", end.free_segments as f64, 0),
        m("mempool.fragmentation_pct_end", "%", end.fragmentation_pct, 0),
        m("mempool.reserved_mb_end", "MiB", mib(end.reserved_bytes), 0),
        m("mempool.live_mb_end", "MiB", mib(end.live_bytes), 0),
        // value
        quantile("value.read_p50_ns", Layer::Value, "read", 0.5),
        quantile("value.read_p99_ns", Layer::Value, "read", 0.99),
        quantile("value.put_p50_ns", Layer::Value, "put", 0.5),
        quantile("value.put_p99_ns", Layer::Value, "put", 0.99),
        quantile("value.put_resize_p50_ns", Layer::Value, "put.resize", 0.5),
        quantile("value.compute_p50_ns", Layer::Value, "compute", 0.5),
        m("value.lock_retries_per_kop", "1/kop", per_k(main.delta.lock_retries, main_ops), main_ops),
        // core
        quantile("core.get_hit_p50_ns", Layer::Core, "get_with.hit", 0.5),
        quantile("core.get_hit_p99_ns", Layer::Core, "get_with.hit", 0.99),
        quantile("core.get_miss_p50_ns", Layer::Core, "get_with.miss", 0.5),
        quantile("core.get_miss_p99_ns", Layer::Core, "get_with.miss", 0.99),
        quantile("core.put_new_p50_ns", Layer::Core, "put.new", 0.5),
        quantile("core.put_over_p50_ns", Layer::Core, "put.over", 0.5),
        m("core.put_p999_ns", "ns", puts.quantile(0.999), puts.count()),
        m("core.put_max_ns", "ns", puts.max() as f64, puts.count()),
        quantile("core.remove_p50_ns", Layer::Core, "remove", 0.5),
        quantile("core.remove_p99_ns", Layer::Core, "remove", 0.99),
        quantile("core.compute_p50_ns", Layer::Core, "compute_if_present", 0.5),
        m("core.rebalances_per_kop", "1/kop", per_k(main.delta.rebalances, main_ops), main_ops),
        m("core.chunks_end", "count", end.chunks as f64, 0),
        m("core.ingest_ops_s", "ops/s", ingest_ops_s, N),
        m("core.allocs_per_put_new", "1/op", allocs_per_put_new, 0),
        m("core.get_self_ns", "ns", p50(Layer::Core, "get_with.hit") - p50(Layer::Value, "read"), 0),
        m(
            "core.put_self_ns",
            "ns",
            p50(Layer::Core, "put.new")
                - (allocs_per_put_new * p50(Layer::Mempool, "allocate") + p50(Layer::Value, "put")),
            0,
        ),
        // iter
        quantile("iter.seek_p50_ns", Layer::Iter, "seek", 0.5),
        iter_asc,
        per_entry("iter.desc_ns_per_entry", Layer::Iter, "for_each_descending.100", iters.desc),
        per_entry("iter.asc_long_ns_per_entry", Layer::Iter, "for_each_in.2000", iters.asc_long),
        per_entry("iter.entryset_asc_ns_per_entry", Layer::Iter, "iter_range.100", iters.entryset),
        m("iter.churn_slowdown", "ratio", timed_asc.quantile(0.5) / quiet_asc_p50, timed_asc.count())
            .source(scan_source),
        m("iter.batches_per_scan", "1/scan", iters.counters.scan_batches as f64 / iters.scans as f64, iters.scans),
        m(
            "iter.revalidations_per_kscan",
            "1/kscan",
            per_k(scan_stage.delta.scan_revalidations, scan_stage.scans()),
            scan_stage.scans(),
        )
        .source(scan_source),
        // sharded
        quantile("sharded.get_p50_ns", Layer::Sharded, "get_with.hit", 0.5),
        quantile("sharded.get_p99_ns", Layer::Sharded, "get_with.hit", 0.99),
        quantile("sharded.put_p50_ns", Layer::Sharded, "put.over", 0.5),
        m(
            "sharded.route_self_ns",
            "ns",
            p50(Layer::Sharded, "get_with.empty") - p50(Layer::Core, "get_with.empty"),
            0,
        ),
        sharded_scan,
        per_entry("sharded.desc_scan_ns_per_entry", Layer::Sharded, "for_each_descending.50", sharded_desc),
        m("sharded.merge_slowdown", "ratio", merge_slowdown, 0),
        m("sharded.shard_len_max_over_mean", "ratio", shard_len_max_over_mean(&sharded.shard_stats()), 0),
        // durable
        m("durable.checkpoint_ms", "ms", durable_ms("checkpoint"), 1),
        m("durable.recover_ms", "ms", durable_ms("open"), 1),
        m("durable.file_bytes_per_user_byte", "bytes/byte", file_bytes_per_user_byte, 0),
        // harness
        m("harness.timer_overhead_ns", "ns", timer_ns, 1_000_000),
        m("harness.keygen_ns", "ns", keygen_ns, 1_000_000),
        m("harness.trace_overhead_pct", "%", 100.0 * replay_outside_share, replay_ops),
        m(
            "failed_ops_share",
            "ratio",
            (timed.failed + tally.failed) as f64 / (timed.attempted + tally.attempted) as f64,
            timed.attempted + tally.attempted,
        ),
    ];
    Traced {
        metrics,
        tracer: tr,
        tally,
    }
}
