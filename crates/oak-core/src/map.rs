//! The Oak map's public shell: construction, configuration, statistics,
//! and invariant checking.
//!
//! The heavy lifting lives in the sibling modules: [`ops`](crate::ops)
//! holds the operation retry loops (Algorithms 1–3), [`index`](crate::index)
//! the lazy minKey→chunk index, [`iter`](crate::iter) the ascending and
//! descending scans, and [`rebalance`](crate::rebalance) the chunk
//! split/merge machinery.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use oak_mempool::{MemoryPool, PoolStats, SliceRef, ValueStore};

use crate::chunk::Chunk;
use crate::cmp::{KeyComparator, Lexicographic};
use crate::config::OakMapConfig;
use crate::index::ChunkIndex;
use crate::iter::{DescendIter, EntryIter};
use crate::overload::{OverloadController, OverloadState};
use crate::reclaim::Quarantine;
use crate::zc::ZeroCopyView;

/// A concurrent ordered map from byte keys to byte values, allocated in
/// self-managed off-heap arenas. See the [crate docs](crate) for an
/// overview and the paper mapping.
pub struct OakMap<C: KeyComparator = Lexicographic> {
    pub(crate) store: ValueStore,
    pub(crate) cmp: C,
    pub(crate) config: OakMapConfig,
    /// Chunk location: the lazy minKey index plus the first-chunk pointer.
    pub(crate) index: ChunkIndex<C>,
    pub(crate) len: AtomicUsize,
    pub(crate) rebalances: AtomicU64,
    /// Epoch-based quarantine for dead key slices of replaced chunks (see
    /// [`crate::reclaim`]): rebalance retires into it, readers pin it.
    pub(crate) reclaim: Arc<Quarantine>,
    /// Degraded-mode controller (see [`crate::overload`]): samples pool
    /// health on the write path and sheds load before the OOM ladder.
    pub(crate) overload: OverloadController,
}

/// Point-in-time statistics about an [`OakMap`].
#[derive(Debug, Clone, Copy)]
pub struct OakStats {
    /// Live key-value pairs.
    pub len: usize,
    /// Chunks currently in the chunk list.
    pub chunks: usize,
    /// Rebalances performed since creation.
    pub rebalances: u64,
    /// Key bytes currently quarantined: retired by rebalance, awaiting the
    /// epoch grace period before returning to the pool.
    pub quarantine_pending_bytes: u64,
    /// Dead key slices ever retired into the quarantine.
    pub keys_retired: u64,
    /// Quarantined bytes already drained back to the pool.
    pub reclaimed_bytes: u64,
    /// Off-heap pool footprint.
    pub pool: PoolStats,
}

impl OakStats {
    /// Field-wise sum of two stat snapshots (shard aggregation).
    pub(crate) fn merged(mut self, other: &OakStats) -> OakStats {
        self.len += other.len;
        self.chunks += other.chunks;
        self.rebalances += other.rebalances;
        self.quarantine_pending_bytes += other.quarantine_pending_bytes;
        self.keys_retired += other.keys_retired;
        self.reclaimed_bytes += other.reclaimed_bytes;
        self.pool = self.pool.merged(&other.pool);
        self
    }
}

impl OakMap<Lexicographic> {
    /// Creates a map with default configuration and lexicographic key
    /// order.
    pub fn new() -> Self {
        Self::with_config(OakMapConfig::default())
    }

    /// Creates a map with the given configuration and lexicographic key
    /// order.
    pub fn with_config(config: OakMapConfig) -> Self {
        Self::with_comparator(config, Lexicographic)
    }
}

impl Default for OakMap<Lexicographic> {
    fn default() -> Self {
        Self::new()
    }
}

/// Builds a map from `(key, value)` pairs with default configuration.
/// Panics if the off-heap pool cannot hold the data (use explicit
/// [`OakMap::put`] calls to handle allocation failure).
impl FromIterator<(Vec<u8>, Vec<u8>)> for OakMap<Lexicographic> {
    fn from_iter<I: IntoIterator<Item = (Vec<u8>, Vec<u8>)>>(iter: I) -> Self {
        let map = OakMap::new();
        for (k, v) in iter {
            map.put(&k, &v).expect("off-heap allocation failed");
        }
        map
    }
}

impl<C: KeyComparator> OakMap<C> {
    /// Creates a map with a custom comparator over serialized keys.
    pub fn with_comparator(config: OakMapConfig, cmp: C) -> Self {
        let pool = Arc::new(match &config.shared_arenas {
            Some(shared) => MemoryPool::with_shared(config.pool.max_arenas, shared.clone()),
            None => MemoryPool::new(config.pool.clone()),
        });
        let first = Arc::new(Chunk::new_empty(config.chunk_capacity, Box::new([])));
        let reclaim = Arc::new(Quarantine::new(pool.clone()));
        // Hard byte ceiling this map's pool can ever reach — the overload
        // controller's headroom denominator.
        let capacity = match &config.shared_arenas {
            Some(shared) => config.pool.max_arenas as u64 * shared.arena_size() as u64,
            None => config.pool.max_arenas as u64 * config.pool.arena_size as u64,
        };
        let overload = OverloadController::new(config.overload, capacity);
        OakMap {
            store: ValueStore::with_policy(pool, config.reclamation).lock_wait(config.lock_wait),
            cmp: cmp.clone(),
            config,
            index: ChunkIndex::new(cmp, first),
            len: AtomicUsize::new(0),
            rebalances: AtomicU64::new(0),
            reclaim,
            overload,
        }
    }

    /// The overload controller's current verdict. Always
    /// [`OverloadState::Healthy`] when the controller is disabled (the
    /// default).
    pub fn overload_state(&self) -> OverloadState {
        self.overload.state()
    }

    /// The zero-copy API view (the paper's `map.zc()`, §2.2).
    pub fn zc(&self) -> ZeroCopyView<'_, C> {
        ZeroCopyView::new(self)
    }

    /// Number of live key-value pairs.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The off-heap pool backing this map (footprint queries).
    pub fn pool(&self) -> &Arc<MemoryPool> {
        self.store.pool()
    }

    /// The configuration this map was created with. Durable checkpoints
    /// stamp [`OakMapConfig::fingerprint`] into their manifest through
    /// this accessor.
    pub fn config(&self) -> &OakMapConfig {
        &self.config
    }

    /// Map statistics, including the RAM footprint (§1.1's "fast estimation
    /// of its RAM footprint").
    pub fn stats(&self) -> OakStats {
        let mut chunks = 1;
        let mut c = self.first_chunk();
        while let Some(n) = c.next_chunk() {
            chunks += 1;
            c = n;
        }
        OakStats {
            len: self.len(),
            chunks,
            rebalances: self.rebalances.load(Ordering::Relaxed),
            quarantine_pending_bytes: self.reclaim.pending_bytes(),
            keys_retired: self.reclaim.retired_count(),
            reclaimed_bytes: self.reclaim.drained_bytes(),
            pool: self.pool().stats(),
        }
    }

    /// Drains the dead-key quarantine as far as the current reader
    /// population allows, returning the bytes released to the pool. Tests
    /// and memory-pressure tooling call this to settle the footprint;
    /// normal operation drains opportunistically.
    #[doc(hidden)]
    pub fn drain_quarantine(&self) -> u64 {
        self.reclaim.drain_now()
    }

    /// Validates internal invariants: the chunk list covers disjoint,
    /// ascending key ranges; every chunk's linked list is sorted and within
    /// its range; every cached key prefix agrees with its key; live
    /// entries reconcile with `len()`. Quiescent-state checker for tests
    /// and debugging — not thread-safe against writers.
    #[doc(hidden)]
    pub fn validate(&self) {
        let mut c = self.first_chunk();
        assert!(c.min_key.is_empty(), "first chunk must start at -∞");
        let mut live_total = 0usize;
        loop {
            // Entries sorted and within [min_key, next.min_key).
            let next = c.next_chunk();
            let items =
                c.collect_live(|raw| raw != 0 && !self.store.is_deleted(SliceRef::from_raw(raw)));
            let mut prev: Option<&[u8]> = None;
            for (kref, _) in &items {
                let kb = unsafe { self.pool().slice(*kref) };
                if let Some(p) = prev {
                    assert!(
                        self.cmp.compare(p, kb) == std::cmp::Ordering::Less,
                        "chunk list out of order"
                    );
                }
                if !c.min_key.is_empty() {
                    assert!(
                        self.cmp.compare(kb, &c.min_key) != std::cmp::Ordering::Less,
                        "entry below chunk minKey"
                    );
                }
                if let Some(n) = &next {
                    assert!(
                        self.cmp.compare(kb, &n.min_key) == std::cmp::Ordering::Less,
                        "entry at/above successor minKey"
                    );
                }
                prev = Some(kb);
            }
            live_total += items.len();
            c.assert_prefixes(self.pool(), &self.cmp);
            // The heuristic live counter brackets reality from below only
            // loosely; just ensure it is sane.
            let _ = c.live_count();
            match next {
                Some(n) => {
                    if !c.min_key.is_empty() {
                        assert!(
                            self.cmp.compare(&c.min_key, &n.min_key) == std::cmp::Ordering::Less,
                            "chunk ranges not ascending"
                        );
                    }
                    c = n;
                }
                None => break,
            }
        }
        assert_eq!(live_total, self.len(), "live entries disagree with len()");
    }

    /// Cross-checks the pool's allocation ledger against the map: every
    /// ledger-live key or value-payload slice must be reachable from the
    /// live chunk chain (linked entries, their headers' payloads) or be
    /// quarantined awaiting reclamation. Anything else is a leak,
    /// attributed to its allocation site class. Quiescent-state checker —
    /// call with no concurrent writers.
    ///
    /// Reachability deliberately walks the *linked lists* only: a slice
    /// sitting in a chunk's entry array but never linked is owned by
    /// nobody (its allocator must free it on the failure path), and
    /// counting it as reachable would mask exactly the leaks this auditor
    /// exists to find.
    #[cfg(feature = "audit")]
    pub fn audit(&self) -> MapAuditReport {
        use std::collections::HashSet;
        let addr = |r: SliceRef| ((r.block() as u64) << 32) | r.offset() as u64;
        let mut reachable: HashSet<u64> = HashSet::new();
        let mut c = self.first_chunk();
        loop {
            for (kref, raw) in c.collect_live(|_| true) {
                reachable.insert(addr(kref));
                if raw != 0 {
                    let h: oak_mempool::HeaderRef = SliceRef::from_raw(raw);
                    reachable.insert(addr(h));
                    if let Some(p) = self.store.payload_of(h) {
                        reachable.insert(addr(p));
                    }
                }
            }
            match c.next_chunk() {
                Some(n) => c = n,
                None => break,
            }
        }
        for r in self.reclaim.pending_refs() {
            reachable.insert(addr(r));
        }
        let mut leaked = Vec::new();
        let mut leaked_bytes = 0u64;
        for (r, info) in self.pool().live_allocations() {
            let tracked = matches!(
                info.class,
                oak_mempool::AllocClass::Key | oak_mempool::AllocClass::ValuePayload
            );
            if tracked && !reachable.contains(&addr(r)) {
                leaked_bytes += info.padded_len as u64;
                leaked.push((r, info));
            }
        }
        MapAuditReport {
            pool: self.pool().audit(),
            leaked,
            leaked_bytes,
            quarantined_bytes: self.reclaim.pending_bytes(),
        }
    }

    /// The current first chunk, with replacement chains resolved.
    pub(crate) fn first_chunk(&self) -> Arc<Chunk> {
        self.index.first_resolved()
    }

    /// `locateChunk(key)` (§3.1) for callers that keep the chunk (cursors):
    /// an owned reference. Point operations borrow through
    /// [`ChunkIndex::locate`] instead.
    pub(crate) fn locate_chunk(&self, key: &[u8]) -> Arc<Chunk> {
        self.index.locate(key, &oak_sync::epoch::pin()).clone()
    }

    // --- scans (bodies in `iter`) ----------------------------------------

    /// Ascending *Set API* iterator: yields `(OakRBuffer, OakRBuffer)`
    /// pairs, one ephemeral pair per entry (Figure 4e's slower variant).
    pub fn iter_range(&self, lo: Option<&[u8]>, hi: Option<&[u8]>) -> EntryIter<'_, C> {
        EntryIter::new(self, lo, hi)
    }

    /// Descending *Set API* iterator from `from` (inclusive; `None` = from
    /// the last key) down to `lo` (inclusive; `None` = unbounded), using
    /// the chunk-local stack algorithm of Figure 2.
    pub fn iter_descending(&self, from: Option<&[u8]>, lo: Option<&[u8]>) -> DescendIter<'_, C> {
        DescendIter::new(self, from, lo)
    }
}

/// Result of a quiescent [`OakMap::audit`] walk (`audit` feature).
#[cfg(feature = "audit")]
#[derive(Debug)]
pub struct MapAuditReport {
    /// The pool-side ledger report (balance check, violations, per-class
    /// live bytes).
    pub pool: oak_mempool::AuditReport,
    /// Ledger-live key/value-payload slices unreachable from the map and
    /// not quarantined — leaks, attributed by allocation-site class.
    pub leaked: Vec<(SliceRef, oak_mempool::LiveAlloc)>,
    /// Total padded bytes held by `leaked`.
    pub leaked_bytes: u64,
    /// Bytes quarantined at audit time (owned, not leaked).
    pub quarantined_bytes: u64,
}

impl<C: KeyComparator> std::fmt::Debug for OakMap<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OakMap").field("len", &self.len()).finish()
    }
}

// SAFETY: all shared state is behind atomics, locks, or immutable arenas.
unsafe impl<C: KeyComparator> Send for OakMap<C> {}
unsafe impl<C: KeyComparator> Sync for OakMap<C> {}
