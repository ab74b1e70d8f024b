//! [`ShardedOakMap`]: N independent [`OakMap`] shards behind one ordered
//! map.
//!
//! The paper scales a single Oak instance by rebalancing chunks; real
//! deployments (e.g. Druid's incremental ingestion, §2.1) also shard at a
//! coarser grain so rebalance and GC contention stay local to a fraction
//! of the key space. `ShardedOakMap` provides that layer: point operations
//! route to one shard via a [`ShardSplitter`]; scans k-way–merge the
//! per-shard chunk iterators so global key order is preserved under either
//! splitter; statistics aggregate per shard and across the map.
//!
//! Memory: with [`OakMapConfig::shared_arenas`] set, every shard draws its
//! arenas from the same pre-allocated reservoir, so the global off-heap
//! budget is enforced by the reservoir no matter how writes skew. Without
//! it, each shard gets a private pool with `1 / shards` of the configured
//! byte budget in arenas `1 / shards` the configured size (not below
//! 1 MiB): the aggregate ceiling stays comparable to an unsharded map, and
//! so does the step the footprint grows by.

use std::sync::Arc;

use std::cmp::Ordering::{Greater, Less};

use oak_mempool::{AccessError, ArenaPool};

use crate::budget::{Budgeted, OpBudget, ScanRules, Unbounded};
use crate::buffer::{OakRBuffer, OakWBuffer};
use crate::cmp::{KeyComparator, Lexicographic};
use crate::config::OakMapConfig;
use crate::error::OakError;
use crate::iter::{AscendCursor, ScanCursor, Yielded};
use crate::map::{OakMap, OakStats};
use crate::overload::OverloadState;

/// How keys are partitioned across shards.
#[derive(Debug, Clone)]
pub enum ShardSplitter {
    /// Route by a hash of the first `prefix_len` key bytes (the whole
    /// key when shorter). Spreads load uniformly; shards hold
    /// interleaved slices of the key space, so scans always merge.
    HashPrefix {
        /// Number of leading key bytes hashed for routing.
        prefix_len: usize,
    },
    /// Route by explicit range boundaries: `boundaries[i]` is the minimal
    /// key of shard `i + 1` (so `N` shards take `N - 1` strictly
    /// ascending boundaries). Keeps each shard a contiguous key range —
    /// scans touch only the shards a range overlaps (they still merge,
    /// but non-overlapping shards drain instantly).
    KeyRanges(Vec<Vec<u8>>),
}

impl ShardSplitter {
    /// The default routing: hash of the whole key.
    ///
    /// Earlier revisions hashed only the first 8 bytes; any key family
    /// sharing a fixed header — zero-padded decimal keys, a common table
    /// prefix — then collapsed onto a single shard, which silently turned
    /// the sharded map into one hot shard with 1/N of the arena budget.
    /// Use an explicit [`ShardSplitter::HashPrefix`] `prefix_len` only to
    /// deliberately colocate keys that share a routing prefix.
    pub fn hash_prefix() -> Self {
        ShardSplitter::HashPrefix {
            prefix_len: usize::MAX,
        }
    }
}

/// 64-bit finalizer (murmur-style xor-shift/multiply avalanche): spreads
/// every input bit over the whole word so the high bits are usable for a
/// multiply-shift range reduction.
#[inline]
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h
}

/// 64-bit routing hash, folded 8 bytes at a time (rotate-xor-multiply, an
/// FxHash-style word mixer). Byte-at-a-time FNV-1a costs one multiply per
/// byte — ~10% of a whole point op on 100-byte keys once the router hashes
/// the full key — while this does one multiply per word. Word mixing is
/// weaker per step than FNV, so the caller must finalize with [`fmix64`];
/// the trailing length fold keeps a short key and its zero-padded
/// extension from colliding.
fn route_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h.rotate_left(5) ^ w).wrapping_mul(K);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut buf = [0u8; 8];
        buf[..rem.len()].copy_from_slice(rem);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(buf)).wrapping_mul(K);
    }
    h ^ bytes.len() as u64
}

/// One shard, padded to its own pair of cache lines. The shards sit in a
/// contiguous `Vec`, and each `OakMap` header carries hot atomics (length,
/// overload sampling state); without the padding, two shards can share a
/// line and read-only traffic on one shard pays for writes on its
/// neighbor (the ShardedOak 1→2-thread read regression).
#[repr(align(128))]
struct Shard<C: KeyComparator>(OakMap<C>);

/// A sharded front-end over `N` independent [`OakMap`]s.
///
/// Implements the same [`OrderedKvMap`](crate::OrderedKvMap) interface as
/// a single map: point operations are linearizable per key (they execute
/// on exactly one shard), and scans are non-atomic exactly as a single
/// map's are (§1.1), merging per-shard iterators in comparator order.
pub struct ShardedOakMap<C: KeyComparator = Lexicographic> {
    shards: Vec<Shard<C>>,
    splitter: ShardSplitter,
    cmp: C,
    /// The shared arena reservoir, when the shards draw from one.
    reservoir: Option<Arc<ArenaPool>>,
}

impl ShardedOakMap<Lexicographic> {
    /// Creates `shards` lexicographic shards with default configuration
    /// and hash-prefix routing.
    pub fn new(shards: usize) -> Self {
        Self::with_config(shards, OakMapConfig::default())
    }

    /// Creates `shards` lexicographic shards with hash-prefix routing.
    pub fn with_config(shards: usize, config: OakMapConfig) -> Self {
        Self::with_splitter(shards, ShardSplitter::hash_prefix(), config)
    }

    /// Creates `shards` lexicographic shards with an explicit splitter.
    pub fn with_splitter(shards: usize, splitter: ShardSplitter, config: OakMapConfig) -> Self {
        Self::with_comparator(shards, splitter, config, Lexicographic)
    }
}

impl Default for ShardedOakMap<Lexicographic> {
    /// Four default-configured shards with hash-prefix routing.
    fn default() -> Self {
        Self::new(4)
    }
}

impl<C: KeyComparator> ShardedOakMap<C> {
    /// Creates `shards` shards ordered by `cmp`.
    ///
    /// # Panics
    ///
    /// If `shards == 0`, or a [`ShardSplitter::KeyRanges`] splitter does
    /// not carry exactly `shards - 1` strictly ascending boundaries
    /// (under `cmp`).
    pub fn with_comparator(
        shards: usize,
        splitter: ShardSplitter,
        config: OakMapConfig,
        cmp: C,
    ) -> Self {
        assert!(shards >= 1, "a sharded map needs at least one shard");
        match &splitter {
            ShardSplitter::HashPrefix { prefix_len } => {
                assert!(*prefix_len >= 1, "hash prefix must cover at least one byte");
            }
            ShardSplitter::KeyRanges(bounds) => {
                assert_eq!(
                    bounds.len(),
                    shards - 1,
                    "{} shards need exactly {} range boundaries",
                    shards,
                    shards - 1
                );
                for w in bounds.windows(2) {
                    assert!(
                        cmp.compare(&w[0], &w[1]) == std::cmp::Ordering::Less,
                        "range boundaries must be strictly ascending"
                    );
                }
            }
        }
        let reservoir = config.shared_arenas.clone();
        let shard_config = match &reservoir {
            Some(_) => config,
            None => {
                // Private pools: split the byte budget so the aggregate
                // off-heap ceiling matches the unsharded configuration,
                // and split the arena with it. Balanced shards fill up
                // together, so with full-size arenas they would each
                // reserve a fresh one within a few thousand inserts of one
                // another and the map would grow `shards × arena_size` at
                // a step; with `arena_size / shards` the map-wide growth
                // step is the arena size the caller configured. Never
                // split below 1 MiB, so the largest legal slice
                // (`MAX_SLICE_LEN`) still fits an arena.
                const MIN_SPLIT_ARENA: usize = 1 << 20;
                // When the budget would still leave a shard fewer than
                // MIN_SHARD_ARENAS arenas, shrink the arena further
                // instead of starving the shard of granularity: a
                // single-arena shard has no headroom for quarantine lag
                // under put churn and tips into OutOfMemory long before
                // its byte budget is actually exhausted.
                const MIN_SHARD_ARENAS: usize = 4;
                const MIN_ARENA: usize = 64 << 10;
                let mut c = config;
                let shard_budget = (c.pool.arena_size * c.pool.max_arenas) / shards;
                let floor = MIN_SPLIT_ARENA.min(c.pool.arena_size);
                c.pool.arena_size = ((c.pool.arena_size / shards) & !7).max(floor);
                c.pool.max_arenas = shard_budget.div_ceil(c.pool.arena_size).max(1);
                if c.pool.max_arenas < MIN_SHARD_ARENAS && c.pool.arena_size > MIN_ARENA {
                    c.pool.arena_size = (shard_budget / MIN_SHARD_ARENAS).max(MIN_ARENA) & !7;
                    c.pool.max_arenas = (shard_budget / c.pool.arena_size).max(1);
                }
                c
            }
        };
        let maps = (0..shards)
            .map(|_| Shard(OakMap::with_comparator(shard_config.clone(), cmp.clone())))
            .collect();
        ShardedOakMap {
            shards: maps,
            splitter,
            cmp,
            reservoir,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The routing splitter.
    pub fn splitter(&self) -> &ShardSplitter {
        &self.splitter
    }

    /// The shared arena reservoir, when configured with one.
    pub fn reservoir(&self) -> Option<&Arc<ArenaPool>> {
        self.reservoir.as_ref()
    }

    /// Index of the shard responsible for `key`. The hash is computed
    /// exactly once per operation and the index passed through; the range
    /// reduction is a multiply-shift on the high hash bits instead of a
    /// 64-bit modulo (a ~20-cycle divide on the point-op fast path).
    #[inline]
    fn shard_index(&self, key: &[u8]) -> usize {
        match &self.splitter {
            ShardSplitter::HashPrefix { prefix_len } => {
                let p = &key[..key.len().min(*prefix_len)];
                // Fixed-point map of h/2^32 onto [0, shards): unbiased for
                // shard counts far below 2^32 and division-free (a 64-bit
                // modulo is a ~20-cycle divide on the point-op fast path).
                // The word mixer leaves trailing-input differences poorly
                // spread, so the hash runs through an avalanche step first
                // — a multiply-shift reduction is driven entirely by the
                // high bits.
                let h = fmix64(route_hash(p));
                (((h >> 32) * self.shards.len() as u64) >> 32) as usize
            }
            ShardSplitter::KeyRanges(bounds) => {
                bounds.partition_point(|b| self.cmp.compare(b, key) != std::cmp::Ordering::Greater)
            }
        }
    }

    /// The shard responsible for `key`.
    #[inline]
    fn shard_of(&self, key: &[u8]) -> &OakMap<C> {
        &self.shards[self.shard_index(key)].0
    }

    // --- point operations (route to one shard) ----------------------------

    /// Zero-copy get: applies `f` to the value bytes of `key`.
    pub fn get_with<R>(&self, key: &[u8], f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        self.shard_of(key).get_with(key, f)
    }

    /// Zero-copy get returning an [`OakRBuffer`] view.
    pub fn get(&self, key: &[u8]) -> Option<OakRBuffer> {
        self.shard_of(key).get(key)
    }

    /// Copying get.
    pub fn get_copy(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.shard_of(key).get_copy(key)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &[u8]) -> bool {
        self.shard_of(key).contains_key(key)
    }

    /// Inserts or replaces `key → value`.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), OakError> {
        self.shard_of(key).put(key, value)
    }

    /// Inserts `key → value` if absent; returns whether this call
    /// inserted.
    pub fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool, OakError> {
        self.shard_of(key).put_if_absent(key, value)
    }

    /// Atomically applies `f` to the value mapped to `key`, in place.
    pub fn compute_if_present(&self, key: &[u8], f: impl Fn(&mut OakWBuffer<'_>)) -> bool {
        self.shard_of(key).compute_if_present(key, f)
    }

    /// If `key` is absent, inserts `value`; otherwise atomically applies
    /// `f` to the present value in place. Returns `true` if this call
    /// inserted.
    pub fn put_if_absent_compute_if_present(
        &self,
        key: &[u8],
        value: &[u8],
        f: impl Fn(&mut OakWBuffer<'_>),
    ) -> Result<bool, OakError> {
        self.shard_of(key)
            .put_if_absent_compute_if_present(key, value, f)
    }

    /// Removes the mapping for `key`; returns whether this call removed
    /// it.
    pub fn remove(&self, key: &[u8]) -> bool {
        self.shard_of(key).remove(key)
    }

    // --- budgeted point operations (route to one shard) -------------------
    //
    // Budgets are per *operation*, not per shard: routing is a pure
    // in-memory hash/partition step, so the full deadline reaches the one
    // shard that executes the call.

    /// Budgeted zero-copy get (see [`OakMap::get_with_budgeted`]).
    pub fn get_with_budgeted<R>(
        &self,
        key: &[u8],
        budget: &OpBudget,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<Option<R>, OakError> {
        self.shard_of(key).get_with_budgeted(key, budget, f)
    }

    /// Budgeted insert-or-replace (see [`OakMap::put_budgeted`]).
    pub fn put_budgeted(
        &self,
        key: &[u8],
        value: &[u8],
        budget: &OpBudget,
    ) -> Result<(), OakError> {
        self.shard_of(key).put_budgeted(key, value, budget)
    }

    /// Budgeted insert-if-absent (see [`OakMap::put_if_absent_budgeted`]).
    pub fn put_if_absent_budgeted(
        &self,
        key: &[u8],
        value: &[u8],
        budget: &OpBudget,
    ) -> Result<bool, OakError> {
        self.shard_of(key)
            .put_if_absent_budgeted(key, value, budget)
    }

    /// Budgeted in-place update (see
    /// [`OakMap::compute_if_present_budgeted`]).
    pub fn compute_if_present_budgeted(
        &self,
        key: &[u8],
        budget: &OpBudget,
        f: impl Fn(&mut OakWBuffer<'_>),
    ) -> Result<bool, OakError> {
        self.shard_of(key)
            .compute_if_present_budgeted(key, budget, f)
    }

    /// Budgeted remove (see [`OakMap::remove_budgeted`]).
    pub fn remove_budgeted(&self, key: &[u8], budget: &OpBudget) -> Result<bool, OakError> {
        self.shard_of(key).remove_budgeted(key, budget)
    }

    /// The worst (most degraded) overload verdict across shards. With a
    /// shared reservoir every controller samples the same pool, so shards
    /// normally agree; with private pools a single hot shard is enough to
    /// degrade the map-wide verdict — back off before that shard starts
    /// rejecting.
    pub fn overload_state(&self) -> OverloadState {
        self.shards
            .iter()
            .map(|s| s.0.overload_state())
            .max()
            .unwrap_or(OverloadState::Healthy)
    }

    // --- merged scans -----------------------------------------------------

    /// The one k-way merge body: pulls from one cursor per shard (either
    /// direction) and delivers the head that wins under `want` — `Less` is
    /// the argmin of an ascending merge, `Greater` the argmax of a
    /// descending one — until the cursors drain, `f` returns `false`, or
    /// `rules` end the scan. Returns entries delivered.
    fn merge_scan<'a, R: ScanRules>(
        &'a self,
        mut iters: Vec<impl ScanCursor<'a>>,
        want: std::cmp::Ordering,
        rules: &R,
        mut f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<u64, R::Error> {
        // Zero-copy merge heads, allocated once per scan and refilled in
        // place. Each head is the entry its shard cursor yielded, key
        // bytes resolved by the cursor's own fill — readable while that
        // cursor lives, and `iters` lives for the whole merge — so the
        // pick compares slices and no per-entry key buffer or second
        // address translation is made.
        let mut heads: Vec<Option<Yielded<'a>>> =
            iters.iter_mut().map(|it| it.next_raw()).collect();
        let mut count: u64 = 0;
        loop {
            // Keys are unique across shards (routing is deterministic), so
            // no tie-breaking is needed.
            let Some(best) = Self::pick(&self.cmp, &heads, want) else {
                return Ok(count);
            };
            let shard = &self.shards[best].0;
            rules.admit(count, shard.pool())?;
            let head = heads[best].take().expect("picked head is live");
            let kb = head.key_bytes;
            match shard
                .store
                .read_at(head.hdr, rules.deadline(), |v| f(kb, v))
            {
                Ok(keep) => {
                    count += 1;
                    if !keep {
                        return Ok(count);
                    }
                }
                // Deleted under the scan: skip without counting.
                Err(AccessError::Deleted) => {}
                Err(AccessError::Contended(info)) => rules.lock_lost(info, shard.pool())?,
            }
            heads[best] = iters[best].next_raw();
        }
    }

    /// Ascending zero-copy scan over `[lo, hi)` across all shards, in
    /// global comparator order (k-way merge of the per-shard chunk
    /// cursors). Returns entries visited; stops early when `f` returns
    /// `false`.
    pub fn for_each_in(
        &self,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> usize {
        let Ok(n) = self.merge_scan(self.ascending(lo, hi), Less, &Unbounded, f);
        n as usize
    }

    /// Budgeted ascending merged scan: like
    /// [`for_each_in`](ShardedOakMap::for_each_in) but cooperative — the
    /// deadline is checked periodically, per-shard header-lock waits are
    /// clamped by it, and when any shard's controller reports degradation
    /// the scan is shed after the configured entry limit. Returns entries
    /// visited or the typed budget error; entries already handed to `f`
    /// stay handed (shedding truncates, never rolls back).
    pub fn for_each_in_budgeted(
        &self,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        budget: &OpBudget,
        f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<u64, OakError> {
        // Shards share one configuration; the verdict that sheds is the
        // worst across them.
        let first = &self.shards[0].0;
        let rules = Budgeted::start(budget, first.pool(), &first.overload, || {
            self.overload_state()
        })?;
        self.merge_scan(self.ascending(lo, hi), Less, &rules, f)
    }

    /// One ascending Set-API cursor per shard over `[lo, hi)`.
    fn ascending<'a>(&'a self, lo: Option<&[u8]>, hi: Option<&[u8]>) -> Vec<AscendCursor<'a, C>> {
        self.shards
            .iter()
            .map(|s| AscendCursor::new(&s.0, lo, hi))
            .collect()
    }

    /// Descending zero-copy scan from `from` (inclusive; `None` = from
    /// the global last key) down to `lo` (inclusive), in global
    /// comparator order across shards. Returns entries visited.
    pub fn for_each_descending(
        &self,
        from: Option<&[u8]>,
        lo: Option<&[u8]>,
        f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> usize {
        let iters = self
            .shards
            .iter()
            .map(|s| s.0.iter_descending(from, lo))
            .collect();
        let Ok(n) = self.merge_scan(iters, Greater, &Unbounded, f);
        n as usize
    }

    /// Index of the head whose key wins under `want` (Less = argmin for
    /// ascending, Greater = argmax for descending); `None` when all
    /// iterators are drained. Heads carry their key bytes resolved, so one
    /// merge step costs k−1 slice comparisons and zero off-heap reference
    /// resolutions.
    fn pick(cmp: &C, heads: &[Option<Yielded<'_>>], want: std::cmp::Ordering) -> Option<usize> {
        let mut best: Option<(usize, &[u8])> = None;
        for (i, head) in heads.iter().enumerate() {
            let Some(head) = head else { continue };
            match best {
                Some((_, bk)) if cmp.compare(head.key_bytes, bk) != want => {}
                _ => best = Some((i, head.key_bytes)),
            }
        }
        best.map(|(i, _)| i)
    }

    // --- aggregate queries ------------------------------------------------

    /// Total live key-value pairs across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.0.len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.0.is_empty())
    }

    /// Aggregated statistics: field-wise sum over shards (shards draw
    /// disjoint arenas, so pool footprints add exactly).
    pub fn stats(&self) -> OakStats {
        let mut it = self.shards.iter().map(|s| s.0.stats());
        let first = it.next().expect("at least one shard");
        it.fold(first, |acc, s| acc.merged(&s))
    }

    /// Per-shard statistics, in shard order.
    pub fn shard_stats(&self) -> Vec<OakStats> {
        self.shards.iter().map(|s| s.0.stats()).collect()
    }

    /// Drains every shard's dead-key quarantine as far as current readers
    /// allow; returns the total bytes released to the pools (test and
    /// memory-pressure tooling support).
    #[doc(hidden)]
    pub fn drain_quarantine(&self) -> u64 {
        self.shards.iter().map(|s| s.0.drain_quarantine()).sum()
    }

    /// Runs the quiescent memory audit on every shard, in shard order
    /// (see [`OakMap::audit`]; `audit` feature).
    #[cfg(feature = "audit")]
    pub fn audit(&self) -> Vec<crate::map::MapAuditReport> {
        self.shards.iter().map(|s| s.0.audit()).collect()
    }

    /// Validates every shard's chunk-list invariants (test support).
    ///
    /// # Panics
    ///
    /// If any shard's invariants are violated.
    pub fn validate(&self) {
        for s in &self.shards {
            s.0.validate();
        }
    }
}

impl<C: KeyComparator> std::fmt::Debug for ShardedOakMap<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedOakMap")
            .field("shards", &self.shards.len())
            .field("splitter", &self.splitter)
            .field("len", &self.len())
            .finish()
    }
}
