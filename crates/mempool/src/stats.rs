//! Footprint accounting.
//!
//! Oak "supports fast estimation of its RAM footprint – a common application
//! requirement" (§1.1). The pool keeps exact atomic counters so footprint
//! queries are O(1) reads, and Figure 5c-style memory-overhead reports can be
//! produced without walking the data structure. Free-space fragmentation
//! figures are gathered by briefly walking the per-arena free lists in
//! [`MemoryPool::stats`](crate::MemoryPool::stats).
//!
//! # The metric table
//!
//! Every pool metric is declared exactly once, as one row of the
//! `pool_metrics!` invocation below; adding a metric is one row plus its
//! increment site. A row reads
//!
//! ```text
//! /// doc comment (becomes the `PoolStats` field doc)
//! <storage> <merge> <name> [incident] => note_fn;
//! ```
//!
//! - **storage** — `striped`: a hot per-operation counter, one 8-lane
//!   [`Striped`] field of `Counters`, so the accounting never becomes the
//!   shared cache line it measures; `atomic`: a rare-event counter, one
//!   `AtomicU64` field of `Counters`; `gauge`: no stored counter —
//!   [`MemoryPool::stats`](crate::MemoryPool::stats) measures it at
//!   snapshot time.
//! - **merge** — how [`PoolStats::merged`] combines the row across pools:
//!   `sum` or `max`.
//! - **`[incident]`** (optional) — non-zero means something went wrong
//!   (contention abort, failed allocation, missed deadline); reports
//!   surface these rows beside throughput and keep quiet about healthy
//!   traffic counters.
//! - **`=> note_fn`** (optional) — the counter is bumped by the map layer;
//!   generates `pub fn note_fn(&self)` on
//!   [`MemoryPool`](crate::MemoryPool).
//!
//! From the table the macro generates `Counters`, its snapshot read,
//! [`PoolStats`] (one `pub u64` field per row), [`PoolStats::merged`],
//! [`PoolStats::METRICS`] / [`PoolStats::values`] (what exporters iterate)
//! and the `note_*` methods. Everything is expanded at compile time into
//! plain field accesses: no lookup by name or index happens on an
//! increment or in `stats()`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of lanes in a [`Striped`] counter. A power of two so the lane
/// pick is a mask; 8 lanes × 64 B padding = 512 B per striped counter.
const LANES: usize = 8;

/// Process-wide thread counter: each thread draws its index once.
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_INDEX: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// This thread's index, dealt in the order threads first ask for one.
/// Counter lanes take it modulo their width, so threads below that width
/// never share a lane.
#[inline]
fn thread_index() -> usize {
    THREAD_INDEX.with(|i| *i)
}

/// One cache-line-padded counter lane, so two threads bumping different
/// lanes never write the same line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Lane(AtomicU64);

/// A thread-striped monotonic counter: increments go to a thread-affine
/// cache-line-padded lane, reads sum the lanes. Used for the hot-path
/// traffic counters (allocations, frees, key dereferences, free-list
/// locks) where a single shared `fetch_add` line becomes the scaling
/// bottleneck it is supposed to measure.
#[derive(Debug, Default)]
pub(crate) struct Striped {
    lanes: [Lane; LANES],
}

impl Striped {
    #[inline]
    pub(crate) fn add(&self, n: u64) {
        self.lanes[thread_index() % LANES]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn incr(&self) {
        self.add(1);
    }

    pub(crate) fn sum(&self) -> u64 {
        self.lanes.iter().map(|l| l.0.load(Ordering::Relaxed)).sum()
    }
}

/// How [`PoolStats::merged`] combines one metric across pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// Field-wise sum.
    Sum,
    /// Maximum of the two sides.
    Max,
}

/// One row of the metric table, as exporters see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// The [`PoolStats`] field name; exporters use it as the column / key.
    pub name: &'static str,
    /// How the metric merges across pools.
    pub merge: Merge,
    /// Whether a non-zero value means something went wrong.
    pub incident: bool,
}

macro_rules! pool_metrics {
    // `Counters`: one field per `striped` / `atomic` row, none per gauge.
    (@counters [$($fields:tt)*]) => {
        /// Internal atomic counters owned by the pool.
        #[derive(Debug, Default)]
        pub(crate) struct Counters { $($fields)* }
    };
    (@counters [$($fields:tt)*] striped $name:ident $($rest:tt)*) => {
        pool_metrics!(@counters [$($fields)* pub(crate) $name: Striped,] $($rest)*);
    };
    (@counters [$($fields:tt)*] atomic $name:ident $($rest:tt)*) => {
        pool_metrics!(@counters [$($fields)* pub(crate) $name: AtomicU64,] $($rest)*);
    };
    (@counters [$($fields:tt)*] gauge $name:ident $($rest:tt)*) => {
        pool_metrics!(@counters [$($fields)*] $($rest)*);
    };

    (@read striped $counter:expr, $gauge:expr) => { $counter.sum() };
    (@read atomic $counter:expr, $gauge:expr) => { $counter.load(Ordering::Relaxed) };
    (@read gauge $counter:expr, $gauge:expr) => { $gauge };

    (@bump striped $counter:expr) => { $counter.incr() };
    (@bump atomic $counter:expr) => { $counter.fetch_add(1, Ordering::Relaxed) };

    (@rule sum) => { Merge::Sum };
    (@rule max) => { Merge::Max };
    (@merge sum $a:expr, $b:expr) => { $a += $b };
    (@merge max $a:expr, $b:expr) => { $a = $a.max($b) };

    (@incident) => { false };
    (@incident incident) => { true };

    ($(
        $(#[$doc:meta])*
        $storage:ident $merge:ident $name:ident $([$flag:ident])? $(=> $note:ident)?;
    )*) => {
        pool_metrics!(@counters [] $($storage $name)*);

        impl Counters {
            /// Reads every stored counter; gauge rows are taken from `gauges`.
            fn read(&self, gauges: PoolStats) -> PoolStats {
                PoolStats {
                    $($name: pool_metrics!(@read $storage self.$name, gauges.$name),)*
                }
            }
        }

        /// A point-in-time snapshot of pool memory usage.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct PoolStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl PoolStats {
            /// One descriptor per field, in declaration order: what the
            /// report exporters iterate instead of naming fields.
            pub const METRICS: &'static [Metric] = &[
                $(Metric {
                    name: stringify!($name),
                    merge: pool_metrics!(@rule $merge),
                    incident: pool_metrics!(@incident $($flag)?),
                },)*
            ];

            /// Every metric with its value, in [`METRICS`](Self::METRICS)
            /// order.
            pub fn values(&self) -> impl Iterator<Item = (&'static Metric, u64)> {
                Self::METRICS.iter().zip([$(self.$name),*])
            }

            /// Builds a snapshot whose `i`-th metric (in
            /// [`METRICS`](Self::METRICS) order) is `f(i)`.
            pub fn from_fn(mut f: impl FnMut(usize) -> u64) -> PoolStats {
                let mut i = 0;
                let mut next = || {
                    i += 1;
                    f(i - 1)
                };
                PoolStats { $($name: next(),)* }
            }

            /// Merges two snapshots by each metric's rule, for aggregating
            /// the footprint of several pools (e.g. the shards of a sharded
            /// map). Note that pools drawing arenas from one shared
            /// [`ArenaPool`](crate::ArenaPool) reserve disjoint arenas, so
            /// summing `reserved_bytes` stays exact. Every row sums except
            /// `largest_free_segment`, which takes the max (it answers
            /// "what is the biggest allocation any pool can satisfy").
            #[must_use]
            pub fn merged(mut self, other: &PoolStats) -> PoolStats {
                $(pool_metrics!(@merge $merge self.$name, other.$name);)*
                self
            }
        }

        /// Counters bumped by the map layer that owns the pool; they are
        /// kept here so they travel with the rest of the pool's statistics.
        impl crate::MemoryPool {
            $($(
                #[doc = concat!("Records one [`PoolStats::", stringify!($name), "`] event.")]
                #[inline]
                pub fn $note(&self) {
                    pool_metrics!(@bump $storage self.counters().$name);
                }
            )?)*
        }
    };
}

pool_metrics! {
    /// Number of arenas currently reserved.
    gauge   sum arenas;
    /// Total bytes reserved from the OS (arenas × arena size). This is the
    /// pool's RAM footprint.
    gauge   sum reserved_bytes;
    /// Bytes currently allocated to live slices (granularity-rounded).
    gauge   sum live_bytes;
    /// Cumulative bytes ever allocated.
    striped sum allocated_bytes;
    /// Cumulative bytes ever freed.
    striped sum freed_bytes;
    /// Number of allocations performed.
    striped sum alloc_count;
    /// Number of frees performed.
    striped sum free_count;
    /// Bytes of value-header slots carved from the arenas. A recycled slot
    /// is not counted again, so under `ReclaimHeaders` this stays near the
    /// peak number of live values; under `RetainHeaders` (the paper's
    /// memory manager, §3.3) it grows with every insert.
    striped sum header_bytes;
    /// Header-lock acquisition attempts that found the lock busy and had to
    /// back off (spin/yield/sleep rounds, summed over all acquisitions).
    striped sum lock_retries [incident];
    /// Allocation requests that returned an error (exhaustion, oversize,
    /// injected faults, internal errors).
    atomic  sum failed_allocs [incident];
    /// Values logically deleted by the panic-safety guard because a user
    /// closure panicked inside `compute` while holding the write lock.
    atomic  sum poisoned_values [incident];
    /// Bytes currently on the free lists across all reserved arenas.
    gauge   sum free_bytes;
    /// Number of free segments across all arenas (external-fragmentation
    /// indicator: more segments for the same `free_bytes` is worse).
    gauge   sum free_segments;
    /// Bytes of `free_bytes` parked in exact-size bins: free, but reused
    /// only by a request of the same padded length until the pool flushes
    /// the bins into the coalesced segments. The rest of `free_bytes` is
    /// coalesced free space. Each binned slice counts as a segment of its
    /// own in `free_segments`, `largest_free_segment` and
    /// [`fragmentation`](PoolStats::fragmentation).
    gauge   sum binned_bytes;
    /// Largest single free segment in any arena — the biggest allocation
    /// the pool can satisfy without reserving a new arena.
    gauge   max largest_free_segment;
    /// Each pool's largest free segment, summed when snapshots merge (for
    /// one pool it equals `largest_free_segment`).
    /// [`fragmentation`](PoolStats::fragmentation) is computed from this,
    /// so N compact pools merge to a compact whole instead of `1 − 1/N`.
    gauge   sum largest_free_segment_sum;
    /// High-water mark of `live_bytes` (low-watermark of available space).
    atomic  sum peak_live_bytes;
    /// Emergency reclamation passes run in response to pool exhaustion.
    atomic  sum emergency_reclaims [incident] => note_emergency_reclaim;
    /// Operations that surfaced out-of-memory to the caller even after
    /// emergency reclamation.
    atomic  sum oom_failures [incident] => note_oom_failure;
    /// Off-heap key-byte dereferences performed by chunk search
    /// (`pool.slice()` on a key), and by a rebalance that has to derive a
    /// key's cached prefix again. The key-prefix cache exists to shrink
    /// this number; it is the primary hot-path proof counter.
    striped sum offheap_key_derefs => note_key_deref;
    /// Times an allocation or free path locked a per-arena free list: one
    /// per free, and one per arena an allocation probes.
    striped sum freelist_lock_acquires;
    /// Arenas this pool took from the shared reservoir
    /// ([`ArenaPool`](crate::ArenaPool)). Zero for private-reservation
    /// pools.
    atomic  sum reservoir_takes;
    /// Arenas this pool handed back to the shared reservoir while alive:
    /// the arenas of growth races it lost. The arenas it returns when
    /// dropped never show here, since no snapshot outlives the pool; the
    /// reservoir's own [`ArenaPoolStats::returned`](crate::ArenaPoolStats)
    /// counts them.
    atomic  sum reservoir_returns;
    /// Point-operation retries of an injected allocation fault under a
    /// deadline: each is a fresh attempt, taken at once.
    atomic  sum op_retries => note_op_retry;
    /// Operations that surfaced `DeadlineExceeded`: their deadline passed
    /// before their retries converged.
    atomic  sum deadline_exceeded [incident] => note_deadline_exceeded;
    /// Chunk batches snapshotted by the batch scan pipeline: each is one
    /// staleness/revision check amortized over every entry it yields (the
    /// one-check-per-chunk invariant's proof counter).
    striped sum scan_chunk_batches;
    /// Batch refills that found their chunk changed (frozen/replaced,
    /// revision stamp advanced) and re-located via the index. Low values
    /// relative to `scan_chunk_batches` show scans revalidate only when a
    /// chunk actually changed.
    atomic  sum scan_revalidations => note_scan_revalidation;
    /// Batch refills that reused the cursor's on-heap buffer capacity
    /// instead of allocating a fresh one (per-scan allocation is O(1), not
    /// O(entries)).
    striped sum scan_buffer_reuses => note_scan_buffer_reuse;
    /// Entries the batch scan pipeline snapshotted out of chunk entry
    /// arrays, delivered or not. Against the entries scans delivered it
    /// shows over-collection: a fill is sized by what its cursor has
    /// delivered so far, so a short scan snapshots a small multiple of what
    /// it hands out.
    striped sum scan_entries_snapshotted;
}

impl crate::MemoryPool {
    /// Records one batch fill that snapshotted `entries` entries: one
    /// [`PoolStats::scan_chunk_batches`] event and `entries` more
    /// [`PoolStats::scan_entries_snapshotted`].
    #[inline]
    pub fn note_scan_fill(&self, entries: usize) {
        let counters = self.counters();
        counters.scan_chunk_batches.incr();
        counters.scan_entries_snapshotted.add(entries as u64);
    }
}

impl Counters {
    /// Snapshots the counters. `gauges` carries the rows measured by the
    /// caller at snapshot time (arena and free-space figures); `live_bytes`
    /// and `peak_live_bytes` are derived here.
    pub(crate) fn snapshot(&self, gauges: PoolStats) -> PoolStats {
        let mut s = self.read(gauges);
        s.live_bytes = s.allocated_bytes.saturating_sub(s.freed_bytes);
        // The peak is maintained at snapshot time from the striped
        // allocated/freed sums (a per-alloc `fetch_max` would re-sum eight
        // lanes on every call), so it is the highest live footprint *seen
        // by any snapshot*, which is what footprint reporting reads.
        s.peak_live_bytes = self
            .peak_live_bytes
            .fetch_max(s.live_bytes, Ordering::Relaxed)
            .max(s.live_bytes);
        s
    }
}

impl PoolStats {
    /// Fraction of reserved memory holding live data; 0 for an empty pool.
    pub fn utilization(&self) -> f64 {
        if self.reserved_bytes == 0 {
            0.0
        } else {
            self.live_bytes as f64 / self.reserved_bytes as f64
        }
    }

    /// External fragmentation of the free space in `[0, 1]`: the fraction
    /// of free bytes *not* in a pool's largest free segment. 0 when each
    /// pool's free space is one contiguous run (or there is none);
    /// approaching 1 when free space is shattered into many small holes.
    pub fn fragmentation(&self) -> f64 {
        if self.free_bytes == 0 {
            0.0
        } else {
            1.0 - self.largest_free_segment_sum as f64 / self.free_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryPool, PoolConfig};

    #[test]
    fn merged_applies_each_rows_rule() {
        let a = PoolStats::from_fn(|i| i as u64 + 1);
        let b = PoolStats::from_fn(|i| 100 + i as u64);
        let merged = a.merged(&b);
        for (i, (m, v)) in merged.values().enumerate() {
            let (x, y) = (i as u64 + 1, 100 + i as u64);
            let want = match m.merge {
                Merge::Sum => x + y,
                Merge::Max => x.max(y),
            };
            assert_eq!(v, want, "{}", m.name);
        }
        let max_rows: Vec<_> = PoolStats::METRICS
            .iter()
            .filter(|m| m.merge == Merge::Max)
            .map(|m| m.name)
            .collect();
        assert_eq!(max_rows, ["largest_free_segment"]);
    }

    #[test]
    fn compact_pools_merge_to_zero_fragmentation() {
        let mut merged = PoolStats::default();
        for _ in 0..4 {
            let pool = MemoryPool::new(PoolConfig::small());
            pool.allocate(100).expect("fresh pool allocates");
            let s = pool.stats();
            assert_eq!(s.free_segments, 1, "one free run per pool: {s:?}");
            assert_eq!(s.largest_free_segment_sum, s.largest_free_segment);
            assert_eq!(s.fragmentation(), 0.0);
            merged = merged.merged(&s);
        }
        assert_eq!(merged.free_segments, 4);
        assert_eq!(merged.fragmentation(), 0.0, "{merged:?}");
    }
}
