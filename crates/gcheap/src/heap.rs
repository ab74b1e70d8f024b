//! The managed heap: registry, budget, and stop-the-world mark/sweep.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use oak_sync::{Mutex, RwLock};

use crate::model::{HeapModel, ObjToken};
use crate::stats::GcStats;

/// Number of registry shards (keeps registration cheap under concurrency).
const SHARDS: usize = 16;

const STATE_EMPTY: u8 = 0;
const STATE_LIVE: u8 = 1;
const STATE_DEAD: u8 = 2;

/// Configuration for a [`ManagedHeap`].
#[derive(Debug, Clone)]
pub struct HeapConfig {
    /// Heap budget in bytes (the `-Xmx` analogue).
    pub capacity_bytes: u64,
    /// Occupancy fraction that triggers a collection. Real collectors start
    /// before the heap is completely full; 0.95 is a reasonable stand-in.
    pub trigger_ratio: f64,
    /// Number of passes over the live set per collection. 1 models a plain
    /// mark phase; higher values model costlier collectors (e.g. compaction).
    pub mark_passes: u32,
    /// Garbage volume that triggers a minor collection, modelling young-gen
    /// fills: real JVMs collect every few MB of allocation regardless of
    /// total occupancy, with cost proportional to the live set.
    pub young_bytes: u64,
    /// Fraction of the budget the *live* set may occupy before the heap
    /// declares OOM. Real collectors need substantial headroom to sustain
    /// allocation-heavy workloads (HotSpot's "GC overhead limit"); the Oak
    /// paper measures `Skiplist-OnHeap` capping below 40% raw-data
    /// utilization of its heap (§5.2), so 0.5 is a *generous* stand-in.
    pub oom_live_ratio: f64,
    /// Generational mode: young-fill triggers a *minor* collection that
    /// scans only the objects allocated since the last collection
    /// (survivors are promoted), as in HotSpot's young generation; major
    /// collections still run at the occupancy trigger. When off, every
    /// collection is a full mark/sweep (conservative: costlier per cycle).
    pub generational: bool,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            capacity_bytes: 1 << 30,
            trigger_ratio: 0.95,
            mark_passes: 1,
            young_bytes: (1 << 30) / 64,
            oom_live_ratio: 0.5,
            generational: false,
        }
    }
}

impl HeapConfig {
    /// A heap with the given budget and default tuning.
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        HeapConfig {
            capacity_bytes,
            young_bytes: (capacity_bytes / 64).max(256 << 10),
            ..Default::default()
        }
    }
}

#[derive(Clone, Copy)]
struct Entry {
    size: u32,
    state: u8,
    /// In the young generation (generational mode): not yet examined by
    /// any collection.
    young: bool,
}

struct Slab {
    entries: Vec<Entry>,
    free_slots: Vec<u32>,
}

impl Slab {
    fn new() -> Self {
        Slab {
            entries: Vec::new(),
            free_slots: Vec::new(),
        }
    }

    fn insert(&mut self, size: u32) -> u32 {
        if let Some(slot) = self.free_slots.pop() {
            let e = &mut self.entries[slot as usize];
            debug_assert_eq!(e.state, STATE_EMPTY);
            *e = Entry {
                size,
                state: STATE_LIVE,
                young: true,
            };
            slot
        } else {
            self.entries.push(Entry {
                size,
                state: STATE_LIVE,
                young: true,
            });
            (self.entries.len() - 1) as u32
        }
    }
}

/// A simulated managed heap with a byte budget and stop-the-world
/// mark/sweep collection. See the crate docs for the model.
///
/// ```
/// use oak_gcheap::{HeapConfig, HeapModel, ManagedHeap};
///
/// let heap = ManagedHeap::new(HeapConfig::with_capacity(1 << 20));
/// let obj = heap.alloc(1024);      // register a simulated Java object
/// heap.free(obj);                  // it becomes garbage…
/// heap.collect_now();              // …and a STW collection sweeps it
/// let stats = heap.stats();
/// assert_eq!(stats.live_bytes, 0);
/// assert_eq!(stats.swept_bytes, 1024);
/// assert!(!heap.oom());
/// ```
pub struct ManagedHeap {
    config: HeapConfig,
    trigger_bytes: u64,
    live_limit: u64,
    shards: Box<[Mutex<Slab>]>,
    next_shard: AtomicUsize,

    /// live + garbage bytes; reset to live at each collection.
    occupancy: AtomicU64,
    live_bytes: AtomicU64,
    live_objects: AtomicU64,
    garbage_bytes: AtomicU64,
    /// Garbage still in the young generation (generational mode): drives
    /// the minor-collection trigger.
    young_garbage: AtomicU64,

    /// Mutators hold read; the collector holds write (the STW pause).
    gate: RwLock<()>,
    /// Serializes the collect decision.
    collector: Mutex<()>,

    /// Objects allocated since the last collection (the young set),
    /// drained by minor collections in generational mode.
    young: Mutex<Vec<ObjToken>>,
    collections: AtomicU64,
    minor_collections: AtomicU64,
    total_pause_ns: AtomicU64,
    max_pause_ns: AtomicU64,
    swept_bytes: AtomicU64,
    oom: AtomicBool,
}

impl ManagedHeap {
    /// Creates a heap with the given configuration.
    pub fn new(config: HeapConfig) -> Self {
        assert!(config.capacity_bytes > 0);
        assert!(config.trigger_ratio > 0.0 && config.trigger_ratio <= 1.0);
        assert!(config.oom_live_ratio > 0.0 && config.oom_live_ratio <= 1.0);
        let trigger_bytes = (config.capacity_bytes as f64 * config.trigger_ratio) as u64;
        let live_limit = (config.capacity_bytes as f64 * config.oom_live_ratio) as u64;
        ManagedHeap {
            trigger_bytes,
            live_limit,
            config,
            shards: (0..SHARDS).map(|_| Mutex::new(Slab::new())).collect(),
            next_shard: AtomicUsize::new(0),
            occupancy: AtomicU64::new(0),
            live_bytes: AtomicU64::new(0),
            live_objects: AtomicU64::new(0),
            garbage_bytes: AtomicU64::new(0),
            young_garbage: AtomicU64::new(0),
            gate: RwLock::new(()),
            collector: Mutex::new(()),
            young: Mutex::new(Vec::new()),
            collections: AtomicU64::new(0),
            minor_collections: AtomicU64::new(0),
            total_pause_ns: AtomicU64::new(0),
            max_pause_ns: AtomicU64::new(0),
            swept_bytes: AtomicU64::new(0),
            oom: AtomicBool::new(false),
        }
    }

    /// The heap configuration.
    pub fn config(&self) -> &HeapConfig {
        &self.config
    }

    /// Snapshot of collection statistics.
    pub fn stats(&self) -> GcStats {
        GcStats {
            capacity: self.config.capacity_bytes,
            live_bytes: self.live_bytes.load(Ordering::Relaxed),
            garbage_bytes: self.garbage_bytes.load(Ordering::Relaxed),
            live_objects: self.live_objects.load(Ordering::Relaxed),
            collections: self.collections.load(Ordering::Relaxed),
            minor_collections: self.minor_collections.load(Ordering::Relaxed),
            total_pause_ns: self.total_pause_ns.load(Ordering::Relaxed),
            max_pause_ns: self.max_pause_ns.load(Ordering::Relaxed),
            swept_bytes: self.swept_bytes.load(Ordering::Relaxed),
            oom: self.oom.load(Ordering::Relaxed),
        }
    }

    /// Runs a collection now (if one is not already running) regardless of
    /// occupancy. Mainly for tests and explicit `System.gc()`-style calls.
    pub fn collect_now(&self) {
        let Some(_decision) = self.collector.try_lock() else {
            // Another thread is collecting; wait for it to finish.
            let _sync = self.collector.lock();
            return;
        };
        let _pause = self.gate.write();
        self.run_collection();
    }

    /// Mark/sweep over the registry. Caller holds both the collector mutex
    /// and the write gate.
    fn run_collection(&self) {
        let start = Instant::now();
        let mut marked: u64 = 0;
        let mut swept: u64 = 0;

        for _pass in 0..self.config.mark_passes.max(1) {
            marked = 0;
            for shard in self.shards.iter() {
                let slab = shard.lock();
                // Mark: touch every live entry — real work ∝ live set, the
                // essence of tracing-collector cost.
                for e in slab.entries.iter() {
                    if e.state == STATE_LIVE {
                        marked = marked.wrapping_add(std::hint::black_box(e.size) as u64);
                    }
                }
            }
        }
        // Sweep: reclaim dead entries.
        for shard in self.shards.iter() {
            let mut slab = shard.lock();
            let Slab {
                entries,
                free_slots,
            } = &mut *slab;
            for (i, e) in entries.iter_mut().enumerate() {
                if e.state == STATE_DEAD {
                    swept += e.size as u64;
                    e.state = STATE_EMPTY;
                    e.size = 0;
                    free_slots.push(i as u32);
                }
            }
        }
        std::hint::black_box(marked);
        self.young.lock().clear();
        self.young_garbage.store(0, Ordering::Relaxed);
        // Everything surviving a full collection is old now.
        for shard in self.shards.iter() {
            let mut slab = shard.lock();
            for e in slab.entries.iter_mut() {
                e.young = false;
            }
        }

        self.swept_bytes.fetch_add(swept, Ordering::Relaxed);
        self.garbage_bytes.fetch_sub(swept, Ordering::Relaxed);
        // Occupancy collapses to the live set.
        self.occupancy
            .store(self.live_bytes.load(Ordering::Relaxed), Ordering::Relaxed);
        self.collections.fetch_add(1, Ordering::Relaxed);

        let pause = start.elapsed().as_nanos() as u64;
        self.total_pause_ns.fetch_add(pause, Ordering::Relaxed);
        self.max_pause_ns.fetch_max(pause, Ordering::Relaxed);
    }

    fn young_fill(&self) -> u64 {
        if self.config.generational {
            self.young_garbage.load(Ordering::Relaxed)
        } else {
            self.garbage_bytes.load(Ordering::Relaxed)
        }
    }

    fn maybe_collect(&self) {
        let over_trigger = self.occupancy.load(Ordering::Relaxed) > self.trigger_bytes;
        let young_full = self.young_fill() > self.config.young_bytes;
        if !over_trigger && !young_full {
            return;
        }
        let Some(_decision) = self.collector.try_lock() else {
            return; // someone else is already on it
        };
        let over_trigger = self.occupancy.load(Ordering::Relaxed) > self.trigger_bytes;
        let young_full = self.young_fill() > self.config.young_bytes;
        if !over_trigger && !young_full {
            return;
        }
        // The STW pause: blocks every mutator at its next safepoint.
        let _pause = self.gate.write();
        if self.config.generational && young_full && !over_trigger {
            self.run_minor_collection();
        } else {
            self.run_collection();
        }
    }

    /// Minor collection: examine only objects allocated since the last
    /// collection. Dead ones are swept; survivors are "promoted" (left in
    /// the registry, no longer tracked as young). Work ∝ young-set size,
    /// not the live set — the generational hypothesis.
    fn run_minor_collection(&self) {
        let start = Instant::now();
        let young = std::mem::take(&mut *self.young.lock());
        let mut swept = 0u64;
        let mut survivors = 0u64;
        for token in young {
            let shard_idx = (token.0 >> 48) as usize;
            let slot = (token.0 & 0xFFFF_FFFF_FFFF) as usize;
            let mut slab = self.shards[shard_idx].lock();
            let e = &mut slab.entries[slot];
            if !e.young {
                continue; // already handled by a full collection
            }
            e.young = false;
            match e.state {
                STATE_DEAD => {
                    swept += e.size as u64;
                    e.state = STATE_EMPTY;
                    e.size = 0;
                    slab.free_slots.push(slot as u32);
                }
                STATE_LIVE => {
                    // Promotion: real copy cost in HotSpot; here the touch
                    // of the entry is the modelled work.
                    survivors = survivors.wrapping_add(std::hint::black_box(e.size) as u64);
                }
                _ => {}
            }
        }
        std::hint::black_box(survivors);
        self.swept_bytes.fetch_add(swept, Ordering::Relaxed);
        self.garbage_bytes.fetch_sub(swept, Ordering::Relaxed);
        self.young_garbage.store(0, Ordering::Relaxed);
        self.occupancy.fetch_sub(swept, Ordering::Relaxed);
        self.collections.fetch_add(1, Ordering::Relaxed);
        self.minor_collections.fetch_add(1, Ordering::Relaxed);
        let pause = start.elapsed().as_nanos() as u64;
        self.total_pause_ns.fetch_add(pause, Ordering::Relaxed);
        self.max_pause_ns.fetch_max(pause, Ordering::Relaxed);
    }
}

impl HeapModel for ManagedHeap {
    fn alloc(&self, bytes: usize) -> ObjToken {
        let bytes = bytes as u64;
        {
            // Behave like a mutator while touching the registry.
            let _mutator = self.gate.read();
            let shard_idx = self.next_shard.fetch_add(1, Ordering::Relaxed) % SHARDS;
            let slot = self.shards[shard_idx].lock().insert(bytes as u32);
            self.live_bytes.fetch_add(bytes, Ordering::Relaxed);
            self.live_objects.fetch_add(1, Ordering::Relaxed);
            self.occupancy.fetch_add(bytes, Ordering::Relaxed);

            let token = ObjToken(((shard_idx as u64) << 48) | slot as u64);
            if self.config.generational {
                self.young.lock().push(token);
            }
            // OOM when the *live* set exceeds the practically usable
            // fraction of the budget: collection cannot help then.
            if self.live_bytes.load(Ordering::Relaxed) > self.live_limit {
                self.oom.store(true, Ordering::Relaxed);
            }
            if self.occupancy.load(Ordering::Relaxed) <= self.trigger_bytes
                && self.young_fill() <= self.config.young_bytes
            {
                return token;
            }
            drop(_mutator);
            self.maybe_collect();
            token
        }
    }

    fn free(&self, token: ObjToken) {
        if token == ObjToken::NONE {
            return;
        }
        let _mutator = self.gate.read();
        let shard_idx = (token.0 >> 48) as usize;
        let slot = (token.0 & 0xFFFF_FFFF_FFFF) as usize;
        let mut slab = self.shards[shard_idx].lock();
        let e = &mut slab.entries[slot];
        assert_eq!(e.state, STATE_LIVE, "double free of heap object");
        e.state = STATE_DEAD;
        let size = e.size as u64;
        let was_young = e.young;
        drop(slab);
        if was_young {
            self.young_garbage.fetch_add(size, Ordering::Relaxed);
        }
        self.live_bytes.fetch_sub(size, Ordering::Relaxed);
        self.live_objects.fetch_sub(1, Ordering::Relaxed);
        self.garbage_bytes.fetch_add(size, Ordering::Relaxed);
        // Note: occupancy stays up until the next collection sweeps it.
    }

    #[inline]
    fn safepoint(&self) {
        // Blocks only while a collector holds the write gate.
        drop(self.gate.read());
    }

    fn oom(&self) -> bool {
        self.oom.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for ManagedHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ManagedHeap")
            .field("capacity", &self.config.capacity_bytes)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn accounting_tracks_live_and_garbage() {
        let h = ManagedHeap::new(HeapConfig::with_capacity(10_000));
        let a = h.alloc(1000);
        let b = h.alloc(2000);
        let s = h.stats();
        assert_eq!(s.live_bytes, 3000);
        assert_eq!(s.live_objects, 2);
        h.free(a);
        let s = h.stats();
        assert_eq!(s.live_bytes, 2000);
        assert_eq!(s.garbage_bytes, 1000);
        assert_eq!(s.occupancy(), 3000);
        h.collect_now();
        let s = h.stats();
        assert_eq!(s.garbage_bytes, 0);
        assert_eq!(s.occupancy(), 2000);
        assert_eq!(s.swept_bytes, 1000);
        h.free(b);
    }

    #[test]
    fn collection_triggers_at_budget() {
        let h = ManagedHeap::new(HeapConfig::with_capacity(10_000));
        // Allocate and immediately free: all garbage, so collections keep
        // the heap afloat and OOM never fires.
        for _ in 0..100 {
            let t = h.alloc(1000);
            h.free(t);
        }
        let s = h.stats();
        assert!(
            s.collections >= 5,
            "expected several collections, got {}",
            s.collections
        );
        assert!(!s.oom);
        assert!(s.live_bytes == 0);
    }

    #[test]
    fn oom_when_live_exceeds_budget() {
        let h = ManagedHeap::new(HeapConfig::with_capacity(10_000));
        let mut tokens = Vec::new();
        for _ in 0..20 {
            tokens.push(h.alloc(1000));
        }
        assert!(h.oom(), "live set of 20KB must not fit in 10KB budget");
    }

    #[test]
    fn no_oom_below_budget() {
        let h = ManagedHeap::new(HeapConfig::with_capacity(100_000));
        for _ in 0..50 {
            let _ = h.alloc(1000);
        }
        assert!(!h.oom());
    }

    #[test]
    fn gc_frequency_grows_with_live_ratio() {
        // Classical GC cost model: same allocation traffic, less headroom →
        // more collections.
        let run = |live_kb: u64| {
            let h = ManagedHeap::new(HeapConfig::with_capacity(100_000));
            let mut live = Vec::new();
            for _ in 0..live_kb {
                live.push(h.alloc(1000));
            }
            for _ in 0..500 {
                let t = h.alloc(100);
                h.free(t);
            }
            h.stats().collections
        };
        let low = run(10); // 10% live
        let high = run(80); // 80% live
        assert!(
            high > low,
            "less headroom must collect more often ({high} vs {low})"
        );
    }

    #[test]
    fn safepoint_blocks_during_collection() {
        let h = Arc::new(ManagedHeap::new(HeapConfig::with_capacity(1 << 20)));
        // Build a large live set so a collection takes measurable time.
        for _ in 0..10_000 {
            let _ = h.alloc(32);
        }
        let flag = Arc::new(AtomicBool::new(false));
        let (h2, f2) = (h.clone(), flag.clone());
        // Hold the write gate (as a collector would), and check a mutator's
        // safepoint does not return until it is released.
        let gate_held = h.gate.write();
        let t = std::thread::spawn(move || {
            h2.safepoint();
            f2.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(
            !flag.load(Ordering::SeqCst),
            "safepoint returned during STW"
        );
        drop(gate_held);
        t.join().unwrap();
        assert!(flag.load(Ordering::SeqCst));
    }

    #[test]
    fn tokens_survive_slot_reuse() {
        let h = ManagedHeap::new(HeapConfig::with_capacity(1 << 20));
        let a = h.alloc(128);
        h.free(a);
        h.collect_now();
        // The freed slot may be reused; the new token must be independent.
        let b = h.alloc(256);
        let s = h.stats();
        assert_eq!(s.live_bytes, 256);
        h.free(b);
        h.collect_now();
        assert_eq!(h.stats().live_bytes, 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let h = ManagedHeap::new(HeapConfig::with_capacity(1 << 20));
        let a = h.alloc(128);
        h.free(a);
        h.free(a);
    }
}

#[cfg(test)]
mod generational_tests {
    use super::*;

    fn gen_heap(capacity: u64, young: u64) -> ManagedHeap {
        ManagedHeap::new(HeapConfig {
            capacity_bytes: capacity,
            young_bytes: young,
            generational: true,
            ..HeapConfig::with_capacity(capacity)
        })
    }

    #[test]
    fn minor_collections_sweep_young_garbage() {
        let h = gen_heap(1 << 20, 4 << 10);
        // Transient-heavy: everything dies young.
        for _ in 0..1_000 {
            let t = h.alloc(128);
            h.free(t);
        }
        let s = h.stats();
        assert!(s.minor_collections >= 10, "minors: {}", s.minor_collections);
        assert_eq!(s.live_bytes, 0);
        // Residual garbage: the un-triggered young tail plus the handful of
        // objects promoted while momentarily live and freed afterwards
        // (premature promotion — real generational behaviour).
        assert!(s.garbage_bytes <= 16 << 10, "garbage: {}", s.garbage_bytes);
        assert!(!s.oom);
    }

    #[test]
    fn survivors_are_promoted_not_reswept() {
        let h = gen_heap(1 << 20, 2 << 10);
        // Long-lived objects survive minors; they must not be swept.
        let mut keep = Vec::new();
        for i in 0..200 {
            keep.push(h.alloc(64));
            // Interleave garbage to drive minors.
            let t = h.alloc(64);
            h.free(t);
            if i % 50 == 0 {
                // occasional extra churn
                let t = h.alloc(256);
                h.free(t);
            }
        }
        let s = h.stats();
        assert_eq!(s.live_objects, 200);
        assert_eq!(s.live_bytes, 200 * 64);
        assert!(s.minor_collections > 0);
        for t in keep {
            h.free(t);
        }
        h.collect_now();
        assert_eq!(h.stats().live_bytes, 0);
    }

    #[test]
    fn major_still_runs_at_occupancy_trigger() {
        let h = ManagedHeap::new(HeapConfig {
            capacity_bytes: 64 << 10,
            young_bytes: 1 << 20, // young never fills → only majors
            generational: true,
            trigger_ratio: 0.5,
            ..HeapConfig::with_capacity(64 << 10)
        });
        for _ in 0..1_000 {
            let t = h.alloc(512);
            h.free(t);
        }
        let s = h.stats();
        assert!(s.collections > s.minor_collections, "majors must fire");
        assert_eq!(s.live_bytes, 0);
    }

    #[test]
    fn minor_pause_is_cheaper_than_major() {
        // With a large promoted live set, minors (scanning the small young
        // set) must be far cheaper than majors (scanning everything).
        let h = gen_heap(64 << 20, 16 << 10);
        for _ in 0..100_000 {
            let _ = h.alloc(64); // big long-lived population
        }
        // Flush the population out of the young set so the measured minors
        // only pay for fresh garbage.
        h.collect_now();
        let before = h.stats();
        // Drive a few minors with fresh garbage.
        for _ in 0..1_000 {
            let t = h.alloc(64);
            h.free(t);
        }
        let after_minors = h.stats();
        let minors = after_minors.minor_collections - before.minor_collections;
        assert!(minors >= 2, "minors: {minors}");
        let minor_avg = (after_minors.total_pause_ns - before.total_pause_ns) / minors.max(1);
        let t0 = std::time::Instant::now();
        h.collect_now(); // full scan over 100K live objects
        let major_pause = t0.elapsed().as_nanos() as u64;
        assert!(
            major_pause > minor_avg * 3,
            "major {major_pause}ns !≫ minor {minor_avg}ns"
        );
    }
}
