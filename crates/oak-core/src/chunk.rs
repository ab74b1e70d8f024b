//! Chunk objects (§3.1, §4.1).
//!
//! A chunk covers a contiguous key range `[minKey, next.minKey)` and holds
//! an array of entries referencing off-heap keys and values. When a chunk
//! is created (by rebalance) a *sorted prefix* of the array is filled and
//! linked in order; later insertions take a cell by fetch-and-add and are
//! spliced into the intra-chunk linked list as *bypasses*, keeping searches
//! logarithmic-plus-short-walk (binary search on the prefix, then a list
//! walk).
//!
//! ## Publish/freeze protocol
//!
//! The paper coordinates updates with the rebalancer through a per-thread
//! publication array; rebalance "may help published operations complete
//! (for lock-freedom), but for simplicity, our description herein assumes
//! that it does not. Hence, we always retry an operation upon failure"
//! (§4.1). Since helping is explicitly out of scope, we implement the same
//! guarantee with a single word per chunk: a publication *counter* plus a
//! FROZEN bit. `publish` increments the counter unless the chunk is frozen;
//! `freeze` sets the bit and waits for the counter to drain. After `freeze`
//! returns, no published mutation is in flight and none can start — exactly
//! the invariant the rebalancer needs before copying entries.
//!
//! ## Memory-ordering table
//!
//! Every atomic in the hot path carries the weakest ordering that still
//! upholds its role. Two distinct roles exist:
//!
//! | atomic              | ordering           | role |
//! |---------------------|--------------------|------|
//! | `Entry::key`        | Release / Acquire  | publication: the Release store (and the Release link CAS on `next`) makes the off-heap key bytes and the cached `prefix` visible to any searcher that Acquire-loads the entry |
//! | `Entry::value`      | Release / Acquire, AcqRel CAS | same publication role, plus the value-CAS linearization points of Algorithms 2–3 |
//! | `Entry::next`       | Release-CAS / Acquire | list splice = publication of the entry |
//! | `Entry::prefix`     | Relaxed            | written before the publishing Release store of `key`, read only after an Acquire load reached the entry — the neighbouring Release/Acquire pair orders it, so the field itself needs no ordering; a reader that races ahead sees `0` = "no info" and falls back to a full compare (slow, never wrong). The chunk's `base` it is relative to is immutable and published with the chunk pointer |
//! | `sync` (pub/freeze) | AcqRel / Acquire   | handshake: `unpublish`'s AcqRel decrement synchronizes every completed mutation with the freezer's Acquire drain loop — this is what makes frozen entries stable for copying, NOT the cursor below |
//! | `alloc_cursor`      | Relaxed            | pure index reservation / monotone accounting: the fetch-add precedes the entry-field writes, so no ordering on it could ever publish them; readers of `allocated()` only gate heuristics (`needs_reorg`) or scan entries whose own `key` loads synchronize |
//! | `live_hint`         | Relaxed            | monotone merge heuristic, tolerates drift by design |
//! | `next` (chunk list) | Acquire load under an `oak_sync::epoch` guard, AcqRel CAS, deferred destroy | an epoch-protected box holding the successor's `Arc`, like the index's first-chunk pointer, not a lock: a reader pins, Acquire-loads the box and *borrows* the `Arc` inside it for the guard's lifetime — no lock word, no reference count, nothing written. `set_next`/`swing_next` install a fresh box with an AcqRel CAS (Release publishes the successor built before it, Acquire orders the swing after the box it read) and hand the old box to the collector, which destroys it — dropping its `Arc` — only after every guard that could have loaded it is released |
//! | `revision`          | Relaxed            | Jiffy-style change stamp for batch scans: bumped at freeze and replacement publication, compared once per drained batch. A missed bump only delays the scan's index re-location by one hop — hopping through a replaced chunk's `next`/replacement chain is independently §1.1-correct — so the stamp is a staleness *hint* and needs no ordering; the `replacement` `OnceLock` carries its own synchronization |
//!
//! Pool statistics (`oak_mempool::stats::Counters`) and the reclamation
//! byte/count gauges are likewise Relaxed: they are monotone accounting
//! read only by observers. The one deliberate exception is the epoch
//! quarantine (`reclaim.rs`), which keeps `SeqCst` on its epoch/bin
//! operations — its grace-period proof needs the store-load fences of a
//! total order, and must not be weakened.

use std::cmp::Ordering as KeyOrder;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use oak_sync::epoch::{self, Atomic, Guard, Owned, Pointer, Shared};
use oak_sync::Mutex;

use oak_mempool::{HeaderRef, MemoryPool, SliceRef};

use crate::cmp::KeyComparator;

/// Sentinel entry index for "no entry".
pub(crate) const NONE: u32 = u32::MAX;

const FROZEN: u32 = 1 << 31;

/// One slot of the entries array. `key` is written once before the entry is
/// published (linked); `value` is the CAS target of Algorithms 2–3.
///
/// `prefix` caches an order-preserving 64-bit prefix of the key *on-heap*,
/// so searches can usually decide an inequality without dereferencing the
/// off-heap key bytes (KiWi-style cache-resident in-chunk search). The
/// prefix is relative to the entry's chunk ([`Chunk::key_prefix`]) and
/// means nothing outside it. It is written once, before the entry is
/// published, exactly like `key`; `0` means "no prefix information" and
/// forces a full compare. See [`Probe::cmp_entry`] for the ordering
/// argument.
pub(crate) struct Entry {
    key: AtomicU64,
    value: AtomicU64,
    next: AtomicU32,
    prefix: AtomicU64,
}

impl Entry {
    fn empty() -> Self {
        Entry {
            key: AtomicU64::new(0),
            value: AtomicU64::new(0),
            next: AtomicU32::new(NONE),
            prefix: AtomicU64::new(0),
        }
    }
}

/// Prefix of a key that sorts before every key starting with the chunk's
/// base. `1` rather than `0`, which is taken by "no information".
const BELOW_BASE: u64 = 1;
/// Prefix of a key that sorts after every key starting with the chunk's
/// base.
const ABOVE_BASE: u64 = u64::MAX;

/// A search key bound to one chunk: the key bytes plus their prefix
/// relative to that chunk.
///
/// A cached prefix belongs to the chunk that produced it — two chunks skip
/// different leading bytes, so the same key has different prefixes in
/// each. The only way to compare a key against entries through their
/// prefixes is therefore a `Probe`, which only [`Chunk::probe`] builds and
/// which compares against entries of *its own* chunk: a cursor that hops
/// to another chunk cannot carry a prefix along, it has to probe again.
pub(crate) struct Probe<'a, C> {
    chunk: &'a Chunk,
    pool: &'a MemoryPool,
    cmp: &'a C,
    key: &'a [u8],
    prefix: u64,
}

impl<C: KeyComparator> Probe<'_, C> {
    /// Orders entry `idx` of the probe's chunk against the probe's key,
    /// touching off-heap key bytes only on a prefix tie.
    ///
    /// Correctness: [`Chunk::key_prefix`] is monotone in the key, so
    /// *strict* prefix inequality implies the same strict key order and
    /// the early return is exact. Equal, zero, or missing prefixes decide
    /// nothing and fall back to the full comparator — a stale or unwritten
    /// (zero) prefix can therefore only cost a slow full compare, never a
    /// wrong verdict.
    #[inline]
    pub(crate) fn cmp_entry(&self, idx: u32) -> KeyOrder {
        if self.prefix != 0 {
            let ep = self.chunk.entry_prefix(idx);
            if ep != 0 && ep != self.prefix {
                return ep.cmp(&self.prefix);
            }
        }
        self.cmp
            .compare(self.chunk.key_bytes(self.pool, idx), self.key)
    }
}

/// A live entry lifted out of a frozen chunk by rebalance. Its cached
/// prefix is relative to the chunk it came `from`, so
/// [`Chunk::new_sorted`] carries it over only into a chunk with the same
/// base and derives it afresh otherwise.
pub(crate) struct Survivor<'a> {
    pub(crate) key: SliceRef,
    pub(crate) value: u64,
    prefix: u64,
    from: &'a Chunk,
}

/// Outcome of [`Chunk::ll_put_if_absent`].
pub(crate) enum LinkOutcome {
    /// The entry was linked.
    Linked,
    /// An entry with the same key already exists; its index is returned.
    Found(u32),
    /// The chunk is frozen; the caller must retry after rebalance.
    Frozen,
}

/// One snapshot record in a scan batch: the key's slice reference, the
/// key bytes' address (the pool block translation runs once at fill time
/// instead of once per yield), the value header, and — once a stream
/// cursor has leased the batch — the scan-lock lease with the payload's
/// resolved address.
#[derive(Clone, Copy)]
pub(crate) struct BatchEntry {
    /// The key's pool reference (revalidation re-locates from this).
    pub(crate) key: SliceRef,
    /// `pool.slice(key).as_ptr()`, stored untyped so batch buffers stay
    /// `Send`. Valid while the filling scan's epoch pin is held: key bytes
    /// are immutable and pinned slices are never reclaimed.
    pub(crate) kptr: usize,
    /// The entry's value header.
    pub(crate) hdr: HeaderRef,
    /// Release token of the read lock taken at fill time
    /// ([`ValueStore::scan_lock`](oak_mempool::ValueStore::scan_lock));
    /// 0 when this entry holds no lease (Set-API cursors, or a writer was
    /// active when the batch was leased) — such entries are read
    /// individually at yield.
    pub(crate) hbase: usize,
    /// Resolved payload address (valid only when `hbase != 0`; 0 for
    /// empty values).
    pub(crate) vptr: usize,
    /// Payload length in bytes (valid only when `hbase != 0`).
    pub(crate) vlen: u32,
}

impl BatchEntry {
    /// The key bytes through the fill-time resolved address.
    ///
    /// # Safety
    /// The epoch pin held when the batch was filled must still be held
    /// (scan cursors hold theirs for their whole lifetime) for as long as
    /// the bytes are used: the lifetime is the caller's to choose, since
    /// the bytes live in the pool, not in this record.
    #[inline]
    pub(crate) unsafe fn key_bytes<'k>(&self) -> &'k [u8] {
        std::slice::from_raw_parts(self.kptr as *const u8, self.key.len() as usize)
    }
}

/// A chunk of the Oak map.
pub(crate) struct Chunk {
    /// Lower bound of this chunk's key range (invariant over its lifetime).
    pub(crate) min_key: Box<[u8]>,
    /// What this chunk's cached prefixes are relative to (immutable): the
    /// leading bytes a key must start with for the eight bytes after them
    /// to be its prefix — see [`Chunk::key_prefix`]. Empty unless rebalance
    /// found the chunk's sorted keys sharing a leading run under a
    /// [bytewise](KeyComparator::bytewise) comparator.
    base: Box<[u8]>,
    entries: Box<[Entry]>,
    /// Number of entries in the sorted prefix (immutable after creation).
    sorted_count: u32,
    /// Allocation cursor: next free cell (starts at `sorted_count`).
    alloc_cursor: AtomicU32,
    /// First entry of the intra-chunk linked list.
    head: AtomicU32,
    /// FROZEN bit + count of published (in-flight) mutations.
    sync: AtomicU32,
    /// Heuristic count of live entries (maintained at insert/remove
    /// linearization points; drives the merge policy).
    live_hint: AtomicU32,
    /// Index of a recently linked entry (NONE when unset): a search-start
    /// hint that turns monotone ingestion (e.g. Druid's time-ordered keys,
    /// §6) from an O(suffix) walk per insert into O(1) amortized. Purely an
    /// optimization — the hint is validated by key comparison before use
    /// and only ever set to entries that are linked (linked entries never
    /// leave the list until the chunk is replaced).
    link_hint: AtomicU32,
    /// Next chunk in the chunk list (null for the tail): an
    /// epoch-protected box, so list walks write nothing — see the ordering
    /// table.
    next: Atomic<Arc<Chunk>>,
    /// Jiffy-style revision stamp: advanced when the chunk stops being a
    /// safe resting point for a batch scan (freeze, replacement
    /// publication). Batch cursors record it once per chunk snapshot and
    /// compare it once per drained batch — one staleness check per chunk,
    /// not per entry (see the ordering table).
    revision: AtomicU64,
    /// Set when this chunk has been replaced by rebalance: the chunks that
    /// now cover its range (first element starts at `min_key`).
    replacement: OnceLock<Arc<Chunk>>,
    /// Serializes rebalances engaging this chunk.
    pub(crate) rebalance_lock: Mutex<()>,
}

impl Chunk {
    /// Creates an empty chunk (used for the initial chunk, `minKey` = −∞).
    /// Its prefixes are of whole keys.
    pub(crate) fn new_empty(capacity: u32, min_key: Box<[u8]>) -> Self {
        Chunk {
            min_key,
            base: Box::default(),
            entries: (0..capacity).map(|_| Entry::empty()).collect(),
            sorted_count: 0,
            alloc_cursor: AtomicU32::new(0),
            head: AtomicU32::new(NONE),
            sync: AtomicU32::new(0),
            live_hint: AtomicU32::new(0),
            link_hint: AtomicU32::new(NONE),
            revision: AtomicU64::new(0),
            next: Atomic::null(),
            replacement: OnceLock::new(),
            rebalance_lock: Mutex::new(()),
        }
    }

    /// Creates a chunk pre-filled with a sorted prefix of `items` (used by
    /// rebalance).
    ///
    /// Under a [bytewise](KeyComparator::bytewise) comparator the chunk's
    /// base is the leading run shared by its first and last item — and so,
    /// the items being sorted, by all of them. An item whose old chunk had
    /// the same base keeps its cached prefix, so a rebalance that leaves
    /// the base alone re-reads no off-heap key; otherwise the prefix is
    /// derived again from the key bytes (one read per item).
    pub(crate) fn new_sorted<C: KeyComparator>(
        capacity: u32,
        min_key: Box<[u8]>,
        items: &[Survivor<'_>],
        pool: &MemoryPool,
        cmp: &C,
    ) -> Self {
        let n = items.len() as u32;
        assert!(n <= capacity);
        let mut chunk = Chunk::new_empty(capacity, min_key);
        if cmp.bytewise() {
            if let (Some(first), Some(last)) = (items.first(), items.last()) {
                // SAFETY: key buffers are immutable and live.
                let (a, b) = unsafe { (pool.slice(first.key), pool.slice(last.key)) };
                let skip = a.iter().zip(b).take_while(|(x, y)| x == y).count();
                chunk.base = a[..skip].into();
            }
        }
        for (i, it) in items.iter().enumerate() {
            let prefix = if it.from.base == chunk.base {
                it.prefix
            } else {
                pool.note_key_deref();
                // SAFETY: key buffers are immutable and live.
                chunk.key_prefix(cmp, unsafe { pool.slice(it.key) })
            };
            let e = &chunk.entries[i];
            e.key.store(it.key.to_raw(), Ordering::Relaxed);
            e.value.store(it.value, Ordering::Relaxed);
            e.prefix.store(prefix, Ordering::Relaxed);
            let nxt = if i as u32 + 1 < n { i as u32 + 1 } else { NONE };
            e.next.store(nxt, Ordering::Relaxed);
        }
        chunk.sorted_count = n;
        *chunk.alloc_cursor.get_mut() = n;
        *chunk.head.get_mut() = if n == 0 { NONE } else { 0 };
        *chunk.live_hint.get_mut() = n;
        chunk
    }

    pub(crate) fn capacity(&self) -> u32 {
        self.entries.len() as u32
    }

    pub(crate) fn sorted_count(&self) -> u32 {
        self.sorted_count
    }

    /// Entries allocated so far (sorted prefix + bypass suffix). Relaxed:
    /// the cursor is reservation accounting; entry visibility comes from
    /// per-entry `key` publication (see the ordering table).
    pub(crate) fn allocated(&self) -> u32 {
        self.alloc_cursor
            .load(Ordering::Relaxed)
            .min(self.capacity())
    }

    /// Whether the unsorted suffix has outgrown the configured ratio of the
    /// sorted prefix — the paper's rebalance trigger (§5.1).
    pub(crate) fn needs_reorg(&self, ratio: f64) -> bool {
        let unsorted = self.allocated().saturating_sub(self.sorted_count);
        unsorted as f64 > (self.sorted_count.max(8)) as f64 * ratio
    }

    /// Records a fresh insertion (heuristic for the merge policy).
    pub(crate) fn note_insert(&self) {
        self.live_hint.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a removal; returns the updated live estimate.
    pub(crate) fn note_remove(&self) -> u32 {
        // Saturating: hints can drift when operations land on stale chunks.
        let mut cur = self.live_hint.load(Ordering::Relaxed);
        loop {
            if cur == 0 {
                return 0;
            }
            match self.live_hint.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return cur - 1,
                Err(x) => cur = x,
            }
        }
    }

    // --- publish / freeze -------------------------------------------------

    /// Announces an impending mutation (Algorithm 2 line 33). Fails if the
    /// chunk is frozen.
    pub(crate) fn publish(&self) -> bool {
        // Injected refusal: callers treat it exactly like publishing against
        // a frozen chunk (help rebalance, retry).
        oak_failpoints::sync_point!("chunk/publish");
        oak_failpoints::fail_point!("chunk/publish", false);
        let mut cur = self.sync.load(Ordering::Acquire);
        loop {
            if cur & FROZEN != 0 {
                return false;
            }
            match self
                .sync
                .compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return true,
                Err(x) => cur = x,
            }
        }
    }

    /// Clears the publication made by [`publish`](Self::publish).
    pub(crate) fn unpublish(&self) {
        // Perturbation point: a delay here holds the publication open,
        // forcing concurrent freezers to drain longer.
        oak_failpoints::fail_point!("chunk/unpublish");
        let prev = self.sync.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev & !FROZEN > 0, "unpublish without publish");
    }

    /// Freezes the chunk and waits for in-flight publications to drain.
    /// After this returns, entry values are stable for copying.
    pub(crate) fn freeze(&self) {
        oak_failpoints::sync_point!("chunk/freeze");
        // A frozen chunk is no longer a safe resting point for batch scans
        // (its replacement is imminent): advance the revision stamp so a
        // scan draining a pre-freeze snapshot re-locates at its next
        // refill instead of trusting `next`.
        self.revision.fetch_add(1, Ordering::Relaxed);
        self.sync.fetch_or(FROZEN, Ordering::AcqRel);
        let mut spins = 0u32;
        while self.sync.load(Ordering::Acquire) & !FROZEN != 0 {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    pub(crate) fn is_frozen(&self) -> bool {
        self.sync.load(Ordering::Acquire) & FROZEN != 0
    }

    // --- chunk list -------------------------------------------------------

    /// The successor, lent for the guard's lifetime: no reference count
    /// moves. The box the link pointed at when it was loaded — and so the
    /// `Arc` in it, and so the successor — outlives every guard pinned
    /// before the box was swung out.
    #[inline]
    pub(crate) fn next_ref<'g>(&self, guard: &'g Guard) -> Option<&'g Arc<Chunk>> {
        // SAFETY: a non-null `next` points at a box that `install_next`
        // retires through the collector, never frees in place; `Drop` frees
        // it only once no reference to this chunk is left.
        unsafe { self.next.load(Ordering::Acquire, guard).as_ref() }
    }

    /// The successor, owned (cursors, rebalance, whole-map walks).
    pub(crate) fn next_chunk(&self) -> Option<Arc<Chunk>> {
        self.next_ref(&epoch::pin()).cloned()
    }

    pub(crate) fn set_next(&self, next: Option<Arc<Chunk>>) {
        let guard = epoch::pin();
        let mut cur = self.next.load(Ordering::Acquire, &guard);
        loop {
            let installed = match &next {
                Some(n) => self.install_next(cur, Owned::new(n.clone()), &guard),
                None => self.install_next(cur, Shared::null(), &guard),
            };
            match installed {
                Ok(()) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// CAS-like guarded update of `next`: only swings the pointer if it
    /// still refers to `expect`. Returns success.
    pub(crate) fn swing_next(&self, expect: &Arc<Chunk>, to: Arc<Chunk>) -> bool {
        let guard = epoch::pin();
        let mut cur = self.next.load(Ordering::Acquire, &guard);
        loop {
            // A box is installed once and never reused while a guard that
            // saw it is live, so a CAS from `cur` succeeding proves the
            // link held `expect` all along.
            // SAFETY: see `next_ref`.
            if !unsafe { cur.as_ref() }.is_some_and(|c| Arc::ptr_eq(c, expect)) {
                return false;
            }
            match self.install_next(cur, Owned::new(to.clone()), &guard) {
                Ok(()) => return true,
                Err(now) => cur = now,
            }
        }
    }

    /// Replaces the box `cur` with `new` (a fresh box, or null) and retires
    /// `cur`; on a lost race returns what the link holds now.
    fn install_next<'g>(
        &self,
        cur: Shared<'g, Arc<Chunk>>,
        new: impl Pointer<Arc<Chunk>>,
        guard: &'g Guard,
    ) -> Result<(), Shared<'g, Arc<Chunk>>> {
        self.next
            .compare_exchange(cur, new, Ordering::AcqRel, Ordering::Acquire, guard)
            .map_err(|e| e.current)?;
        if !cur.is_null() {
            // SAFETY: the CAS just unlinked `cur`, so no later pin can
            // reach it and this is its only retirement; guards pinned
            // before keep it alive until they drop.
            unsafe { guard.defer_destroy(cur) };
        }
        Ok(())
    }

    pub(crate) fn replacement(&self) -> Option<&Arc<Chunk>> {
        self.replacement.get()
    }

    pub(crate) fn set_replacement(&self, r: Arc<Chunk>) {
        self.replacement
            .set(r)
            .unwrap_or_else(|_| panic!("chunk replaced twice"));
        // Stamp after the pointer publishes: a batch refill that reads the
        // pre-bump revision in the race window still sees the replacement
        // via its own `replacement()` check (refills test both).
        self.revision.fetch_add(1, Ordering::Relaxed);
    }

    /// The chunk's current revision stamp (see the ordering table).
    #[inline]
    pub(crate) fn revision(&self) -> u64 {
        self.revision.load(Ordering::Relaxed)
    }

    // --- entries ----------------------------------------------------------

    pub(crate) fn key_ref(&self, idx: u32) -> SliceRef {
        SliceRef::from_raw(self.entries[idx as usize].key.load(Ordering::Acquire))
    }

    /// Raw value-reference word (0 = ⊥).
    pub(crate) fn value_raw(&self, idx: u32) -> u64 {
        self.entries[idx as usize].value.load(Ordering::Acquire)
    }

    /// Value header reference, or `None` for ⊥.
    pub(crate) fn value_ref(&self, idx: u32) -> Option<HeaderRef> {
        let raw = self.value_raw(idx);
        if raw == 0 {
            None
        } else {
            Some(SliceRef::from_raw(raw))
        }
    }

    /// CAS on an entry's value reference (Algorithms 2–3). The caller must
    /// have published.
    pub(crate) fn cas_value(&self, idx: u32, expect: u64, new: u64) -> bool {
        oak_failpoints::sync_point!("chunk/cas-value");
        oak_failpoints::fail_point!("chunk/cas-value");
        self.entries[idx as usize]
            .value
            .compare_exchange(expect, new, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    pub(crate) fn entry_next(&self, idx: u32) -> u32 {
        self.entries[idx as usize].next.load(Ordering::Acquire)
    }

    pub(crate) fn head_entry(&self) -> u32 {
        self.head.load(Ordering::Acquire)
    }

    /// Reads an entry's key bytes, counting the off-heap dereference in
    /// the pool's hot-path statistics.
    ///
    /// # Safety-adjacent contract
    /// Key buffers are immutable and live for the map's lifetime under the
    /// default memory manager.
    pub(crate) fn key_bytes<'a>(&self, pool: &'a MemoryPool, idx: u32) -> &'a [u8] {
        let r = self.key_ref(idx);
        debug_assert!(!r.is_null(), "reading key of unallocated entry");
        pool.note_key_deref();
        unsafe { pool.slice(r) }
    }

    /// The entry's cached key prefix (0 = no information).
    ///
    /// Relaxed suffices: the prefix is written before the entry is
    /// published (linked via a Release CAS, or part of a sorted prefix
    /// published with the chunk itself), and searches only reach entries
    /// through an Acquire load of `head`/`next`/the chunk pointer, so a
    /// visible entry's prefix store happens-before this load. An entry
    /// observed mid-publication would read the initial `0`, which is the
    /// "no information" value and merely costs a full compare.
    #[inline]
    fn entry_prefix(&self, idx: u32) -> u64 {
        self.entries[idx as usize].prefix.load(Ordering::Relaxed)
    }

    /// The one place a key's prefix relative to this chunk is computed
    /// (`0` = no information; always, under a comparator whose
    /// [`prefix`](KeyComparator::prefix) is `None`).
    ///
    /// A key that starts with the chunk's base maps to the comparator's
    /// prefix of the bytes after it; a key that does not sorts before or
    /// after *every* key that does, and maps to the matching end of the
    /// range. The map is monotone — `a ≤ b` implies `prefix(a) ≤
    /// prefix(b)` — which is all [`Probe::cmp_entry`] needs: a base is
    /// only ever non-empty under a bytewise comparator, where for keys
    /// `a`, `b` that both start with it `compare(a, b) ==
    /// compare(a[skip..], b[skip..])`, so [`KeyComparator::prefix`]'s own
    /// contract carries over to the suffixes. A badly chosen base
    /// therefore costs ties (full compares), never a wrong order.
    fn key_prefix<C: KeyComparator>(&self, cmp: &C, key: &[u8]) -> u64 {
        let skip = self.base.len();
        match key[..key.len().min(skip)].cmp(&self.base) {
            KeyOrder::Equal => cmp.prefix(&key[skip..]).unwrap_or(0),
            KeyOrder::Less => BELOW_BASE,
            KeyOrder::Greater => ABOVE_BASE,
        }
    }

    /// Binds `key` to this chunk for prefix-accelerated comparisons
    /// against its entries.
    #[inline]
    pub(crate) fn probe<'a, C: KeyComparator>(
        &'a self,
        pool: &'a MemoryPool,
        cmp: &'a C,
        key: &'a [u8],
    ) -> Probe<'a, C> {
        Probe {
            chunk: self,
            pool,
            cmp,
            key,
            prefix: self.key_prefix(cmp, key),
        }
    }

    /// Length of this chunk's base (test support).
    #[cfg(test)]
    pub(crate) fn skip(&self) -> usize {
        self.base.len()
    }

    /// Quiescent check for [`OakMap::validate`](crate::OakMap::validate):
    /// every linked entry's cached prefix is `0` or exactly what
    /// [`key_prefix`](Self::key_prefix) derives from its key — a carried
    /// or re-derived prefix that disagreed could misorder a search.
    pub(crate) fn assert_prefixes<C: KeyComparator>(&self, pool: &MemoryPool, cmp: &C) {
        let mut cur = self.head_entry();
        while cur != NONE {
            let cached = self.entry_prefix(cur);
            // SAFETY: key buffers are immutable and live.
            let kb = unsafe { pool.slice(self.key_ref(cur)) };
            assert!(
                cached == 0 || cached == self.key_prefix(cmp, kb),
                "entry prefix disagrees with its key"
            );
            cur = self.entry_next(cur);
        }
    }

    /// Compares the keys of two entries via their cached prefixes,
    /// dereferencing off-heap bytes only on a tie.
    #[inline]
    fn compare_entries<C: KeyComparator>(
        &self,
        pool: &MemoryPool,
        cmp: &C,
        a: u32,
        b: u32,
    ) -> std::cmp::Ordering {
        let (pa, pb) = (self.entry_prefix(a), self.entry_prefix(b));
        if pa != 0 && pb != 0 && pa != pb {
            return pa.cmp(&pb);
        }
        cmp.compare(self.key_bytes(pool, a), self.key_bytes(pool, b))
    }

    /// Allocates a fresh entry referring to `key_ref` (Algorithm 2 line
    /// 28), caching the prefix of `key` — the bytes `key_ref` holds —
    /// alongside it. Returns `None` when the chunk is full — the caller
    /// triggers a rebalance and retries.
    pub(crate) fn allocate_entry<C: KeyComparator>(
        &self,
        cmp: &C,
        key_ref: SliceRef,
        key: &[u8],
    ) -> Option<u32> {
        // Injected exhaustion: the caller frees its speculative key and
        // rebalances, as if the chunk were full.
        oak_failpoints::fail_point!("chunk/allocate-entry", None);
        // Relaxed: the fetch-add only reserves a unique cell; it happens
        // *before* the cell's fields are written, so no ordering here could
        // publish them (the `key` Release store below does).
        let idx = self.alloc_cursor.fetch_add(1, Ordering::Relaxed);
        if idx >= self.capacity() {
            // Saturate the cursor so it cannot wrap on pathological retry
            // storms.
            self.alloc_cursor.store(self.capacity(), Ordering::Relaxed);
            return None;
        }
        let e = &self.entries[idx as usize];
        e.prefix.store(self.key_prefix(cmp, key), Ordering::Relaxed);
        e.key.store(key_ref.to_raw(), Ordering::Release);
        e.value.store(0, Ordering::Release);
        e.next.store(NONE, Ordering::Release);
        Some(idx)
    }

    /// Binary search on the sorted prefix: the largest prefix index whose
    /// key is ≤ `key`, or `None` if the prefix is empty / all keys > `key`.
    /// The flag reports whether the floor's key *equals* `key` — sorted
    /// keys are unique, so an `Equal` probe is necessarily the floor, and
    /// callers use the flag to skip a redundant re-compare of the floor
    /// entry (one off-heap dereference per hit). Each step consults the
    /// entry's cached prefix first and dereferences off-heap key bytes
    /// only on a prefix tie.
    pub(crate) fn prefix_floor<C: KeyComparator>(
        &self,
        probe: &Probe<'_, C>,
    ) -> Option<(u32, bool)> {
        let n = self.sorted_count;
        if n == 0 {
            return None;
        }
        let (mut lo, mut hi) = (0u32, n); // invariant: keys[lo-1] <= key < keys[hi]
        let mut exact = false;
        while lo < hi {
            let mid = (lo + hi) / 2;
            match probe.cmp_entry(mid) {
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    exact = true;
                    lo = mid + 1;
                }
                std::cmp::Ordering::Less => lo = mid + 1,
            }
        }
        if lo == 0 {
            None
        } else {
            Some((lo - 1, exact))
        }
    }

    /// The chunk's `lookUp(k)` (§4.1): binary search on the prefix, then a
    /// walk of the linked list. Returns the entry index holding `key`.
    pub(crate) fn lookup<C: KeyComparator>(
        &self,
        pool: &MemoryPool,
        cmp: &C,
        key: &[u8],
    ) -> Option<u32> {
        let probe = self.probe(pool, cmp, key);
        let mut cur = match self.prefix_floor(&probe) {
            // The floor itself matched during the binary search.
            Some((i, true)) => return Some(i),
            // The floor compared strictly less: resume from its successor
            // (re-comparing the floor would be a wasted dereference).
            Some((i, false)) => {
                let nxt = self.entry_next(i);
                if nxt == NONE {
                    return None;
                }
                nxt
            }
            None => {
                let h = self.head_entry();
                if h == NONE {
                    return None;
                }
                h
            }
        };
        loop {
            match probe.cmp_entry(cur) {
                std::cmp::Ordering::Equal => return Some(cur),
                std::cmp::Ordering::Greater => return None,
                std::cmp::Ordering::Less => {
                    let nxt = self.entry_next(cur);
                    if nxt == NONE {
                        return None;
                    }
                    cur = nxt;
                }
            }
        }
    }

    /// First entry with key ≥ `key` (for range scans); `NONE` if none.
    pub(crate) fn lower_bound<C: KeyComparator>(
        &self,
        pool: &MemoryPool,
        cmp: &C,
        key: &[u8],
    ) -> u32 {
        let probe = self.probe(pool, cmp, key);
        let mut cur = match self.prefix_floor(&probe) {
            // Exact floor: it is itself the first entry ≥ `key`.
            Some((i, true)) => return i,
            // Floor compared strictly less: start the walk at its
            // successor instead of re-comparing it.
            Some((i, false)) => self.entry_next(i),
            None => self.head_entry(),
        };
        while cur != NONE {
            if probe.cmp_entry(cur) != std::cmp::Ordering::Less {
                return cur;
            }
            cur = self.entry_next(cur);
        }
        NONE
    }

    /// `entriesLLputIfAbsent` (§4.1): links an allocated entry into the
    /// sorted list with CAS, preserving key uniqueness. Fails with
    /// [`LinkOutcome::Frozen`] during rebalance.
    pub(crate) fn ll_put_if_absent<C: KeyComparator>(
        &self,
        pool: &MemoryPool,
        cmp: &C,
        new_idx: u32,
    ) -> LinkOutcome {
        // The new entry's prefix was cached by `allocate_entry`; reuse it
        // for the splice-position walk so prefix mismatches skip the
        // off-heap compare.
        let probe = Probe {
            chunk: self,
            pool,
            cmp,
            key: self.key_bytes(pool, new_idx),
            prefix: self.entry_prefix(new_idx),
        };
        loop {
            // Find (pred, succ) bracketing the new key; pred == NONE means
            // the head pointer is the predecessor link.
            let mut pred = NONE;
            let mut succ = match self.prefix_floor(&probe) {
                // The floor equals the new key: the key is already linked.
                Some((i, true)) => return LinkOutcome::Found(i),
                // The floor is strictly less; walk from it. (Equality is
                // fully handled above, so no floor re-compare is needed.)
                Some((i, false)) => {
                    pred = i;
                    self.entry_next(i)
                }
                None => self.head_entry(),
            };
            // Fast-forward through the bypass run using the last-linked
            // hint when it lies strictly between pred and the new key.
            let hint = self.link_hint.load(Ordering::Acquire);
            if hint != NONE {
                let hint_usable = probe.cmp_entry(hint) == std::cmp::Ordering::Less
                    && (pred == NONE
                        || self.compare_entries(pool, cmp, pred, hint) == std::cmp::Ordering::Less);
                if hint_usable {
                    pred = hint;
                    succ = self.entry_next(hint);
                }
            }
            while succ != NONE {
                match probe.cmp_entry(succ) {
                    std::cmp::Ordering::Less => {
                        pred = succ;
                        succ = self.entry_next(succ);
                    }
                    std::cmp::Ordering::Equal => return LinkOutcome::Found(succ),
                    std::cmp::Ordering::Greater => break,
                }
            }
            // Splice: new → succ, then pred → new (CAS).
            self.entries[new_idx as usize]
                .next
                .store(succ, Ordering::Release);
            // Guard the structural CAS with the publish protocol so the
            // rebalancer never copies a list in mid-splice.
            if !self.publish() {
                return LinkOutcome::Frozen;
            }
            let link = if pred == NONE {
                &self.head
            } else {
                &self.entries[pred as usize].next
            };
            let ok = link
                .compare_exchange(succ, new_idx, Ordering::AcqRel, Ordering::Acquire)
                .is_ok();
            self.unpublish();
            if ok {
                self.link_hint.store(new_idx, Ordering::Release);
                return LinkOutcome::Linked;
            }
            // Lost a race; retry the position search.
        }
    }

    /// Snapshots up to `max` entries into `out` in one pass over the sorted
    /// linked list, starting at entry `start` — the batch-scan building
    /// block. The walk reads the entry array and nothing off-heap: every
    /// entry with a value reference (non-⊥) is appended as a
    /// [`BatchEntry`] with the key bytes' address resolved, holding no
    /// lease; whether its value is still live is the cursor's to judge,
    /// when it leases the batch or yields the entry. With `request_headers`
    /// the walk asks for each appended entry's value-header line as it goes
    /// (a stream cursor is about to lock every one of them).
    ///
    /// `strict_after` skips entries ≤ the given key — the cursor's resume
    /// bound after a hop or re-entry; since the list is sorted the
    /// comparison stops being evaluated after the first entry beyond the
    /// bound. `hi` is an upper bound `(key, inclusive)` checked per entry
    /// through the cached prefixes (both bounds are probed against this
    /// chunk once per call); callers pass `None`
    /// when the successor chunk's `min_key` already proves the whole chunk
    /// in range (the chunk-range fast path — zero per-entry bound checks).
    ///
    /// Returns `(resume, bounded)`: `resume` is the entry to continue from
    /// when `max` stopped the walk (`NONE` when the list or bound ended
    /// it), `bounded` reports that the upper bound was reached — the scan
    /// is finished, not just this chunk.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn collect_batch<C: KeyComparator>(
        &self,
        pool: &MemoryPool,
        cmp: &C,
        start: u32,
        strict_after: Option<&[u8]>,
        hi: Option<(&[u8], bool)>,
        max: usize,
        request_headers: bool,
        out: &mut Vec<BatchEntry>,
    ) -> (u32, bool) {
        let mut cur = start;
        let mut skipping = strict_after.map(|k| self.probe(pool, cmp, k));
        let hi = hi.map(|(b, inclusive)| (self.probe(pool, cmp, b), inclusive));
        while cur != NONE {
            if out.len() >= max {
                return (cur, false);
            }
            if let Some(bound) = &skipping {
                if bound.cmp_entry(cur) != std::cmp::Ordering::Greater {
                    cur = self.entry_next(cur);
                    continue;
                }
                // Sorted list: every later entry is beyond the bound too.
                skipping = None;
            }
            if let Some((bound, inclusive)) = &hi {
                let ord = bound.cmp_entry(cur);
                let beyond = if *inclusive {
                    ord == std::cmp::Ordering::Greater
                } else {
                    ord != std::cmp::Ordering::Less
                };
                if beyond {
                    return (NONE, true);
                }
            }
            if let Some(hdr) = self.value_ref(cur) {
                if request_headers {
                    pool.prefetch(hdr);
                }
                let key = self.key_ref(cur);
                // SAFETY: key bytes are immutable and the scan's epoch
                // pin keeps the slice from being reclaimed, so the
                // address stays valid for the batch's lifetime.
                let kptr = unsafe { pool.slice(key) }.as_ptr() as usize;
                out.push(BatchEntry {
                    key,
                    kptr,
                    hdr,
                    hbase: 0,
                    vptr: 0,
                    vlen: 0,
                });
            }
            cur = self.entry_next(cur);
        }
        (NONE, false)
    }

    /// Iterates the linked list collecting live `(key_ref, value_raw)`
    /// pairs in key order. Called by the rebalancer after freeze, and by
    /// tests. `keep` decides entry liveness from its raw value word.
    pub(crate) fn collect_live(&self, keep: impl Fn(u64) -> bool) -> Vec<(SliceRef, u64)> {
        let mut out = Vec::with_capacity(self.allocated() as usize);
        let mut cur = self.head_entry();
        while cur != NONE {
            let v = self.value_raw(cur);
            if keep(v) {
                out.push((self.key_ref(cur), v));
            }
            cur = self.entry_next(cur);
        }
        out
    }

    /// Iterates the linked list once, splitting entries into live
    /// [`Survivor`]s (key order, each with its cached prefix so a
    /// successor chunk with the same base needs no off-heap reads to stay
    /// accelerated) and the key refs of dead entries (⊥ value or `keep`
    /// says deleted). Called by the rebalancer
    /// after freeze so the live/dead partition comes from a *single* walk:
    /// post-freeze an entry can still flip live→deleted (remove needs no
    /// publish), and two separate walks could then classify one key as
    /// both copied-live and dead — double ownership of its slice.
    pub(crate) fn partition_entries(
        &self,
        keep: impl Fn(u64) -> bool,
    ) -> (Vec<Survivor<'_>>, Vec<SliceRef>) {
        let mut live = Vec::with_capacity(self.allocated() as usize);
        let mut dead = Vec::new();
        let mut cur = self.head_entry();
        while cur != NONE {
            let v = self.value_raw(cur);
            if keep(v) {
                live.push(Survivor {
                    key: self.key_ref(cur),
                    value: v,
                    prefix: self.entry_prefix(cur),
                    from: self,
                });
            } else {
                dead.push(self.key_ref(cur));
            }
            cur = self.entry_next(cur);
        }
        (live, dead)
    }

    /// Whether any linked entry is dead per `is_dead` — i.e. compacting
    /// this chunk would return key bytes to the pool. Used by the
    /// emergency-reclamation sweep to pick rebalance targets.
    pub(crate) fn has_dead(&self, is_dead: impl Fn(u64) -> bool) -> bool {
        let mut cur = self.head_entry();
        while cur != NONE {
            if is_dead(self.value_raw(cur)) {
                return true;
            }
            cur = self.entry_next(cur);
        }
        false
    }

    /// Number of linked entries with non-⊥ values (diagnostic).
    pub(crate) fn live_count(&self) -> usize {
        self.collect_live(|v| v != 0).len()
    }
}

impl Drop for Chunk {
    fn drop(&mut self) {
        // SAFETY: the last reference to this chunk is gone, and a reader
        // borrows a chunk only through a link that holds one (`next_ref`),
        // so nobody can be reading `next` any more: free its box in place.
        unsafe {
            let last = self.next.load(Ordering::Relaxed, epoch::unprotected());
            if !last.is_null() {
                drop(last.into_owned());
            }
        }
    }
}

impl std::fmt::Debug for Chunk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chunk")
            .field("min_key_len", &self.min_key.len())
            .field("sorted", &self.sorted_count)
            .field("allocated", &self.allocated())
            .field("frozen", &self.is_frozen())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmp::Lexicographic;
    use oak_mempool::PoolConfig;

    fn pool() -> Arc<MemoryPool> {
        Arc::new(MemoryPool::new(PoolConfig::small()))
    }

    fn alloc_key(pool: &MemoryPool, key: &[u8]) -> SliceRef {
        let r = pool.allocate(key.len()).unwrap();
        unsafe { pool.write_initial(r, key) };
        r
    }

    /// Sorted keys as rebalance would lift them out of `from`, values 1….
    fn survivors<'a>(
        from: &'a Chunk,
        pool: &MemoryPool,
        keys: impl Iterator<Item = String>,
    ) -> Vec<Survivor<'a>> {
        keys.enumerate()
            .map(|(i, k)| Survivor {
                key: alloc_key(pool, k.as_bytes()),
                value: i as u64 + 1,
                prefix: from.key_prefix(&Lexicographic, k.as_bytes()),
                from,
            })
            .collect()
    }

    /// Inserts a key with a dummy value reference and returns its index.
    fn insert(chunk: &Chunk, pool: &MemoryPool, key: &[u8], val: u64) -> u32 {
        let kr = alloc_key(pool, key);
        let idx = chunk
            .allocate_entry(&Lexicographic, kr, key)
            .expect("chunk not full");
        match chunk.ll_put_if_absent(pool, &Lexicographic, idx) {
            LinkOutcome::Linked => {
                assert!(chunk.cas_value(idx, 0, val));
                idx
            }
            LinkOutcome::Found(existing) => existing,
            LinkOutcome::Frozen => panic!("unexpected freeze"),
        }
    }

    #[test]
    fn entry_stays_half_a_cache_line() {
        assert_eq!(std::mem::size_of::<Entry>(), 32);
    }

    #[test]
    fn empty_chunk_lookup() {
        let p = pool();
        let c = Chunk::new_empty(16, Box::new([]));
        assert_eq!(c.lookup(&p, &Lexicographic, b"x"), None);
        assert_eq!(c.lower_bound(&p, &Lexicographic, b"x"), NONE);
    }

    #[test]
    fn insert_and_lookup_bypasses() {
        let p = pool();
        let c = Chunk::new_empty(16, Box::new([]));
        for key in [b"m", b"c", b"x", b"a", b"t"] {
            insert(&c, &p, key, 7);
        }
        for key in [b"a", b"c", b"m", b"t", b"x"] {
            let idx = c.lookup(&p, &Lexicographic, key).expect("found");
            assert_eq!(c.key_bytes(&p, idx), key);
        }
        assert_eq!(c.lookup(&p, &Lexicographic, b"b"), None);
        // Linked list is in sorted order.
        let live = c.collect_live(|v| v != 0);
        let keys: Vec<&[u8]> = live.iter().map(|(k, _)| unsafe { p.slice(*k) }).collect();
        assert_eq!(keys, vec![&b"a"[..], b"c", b"m", b"t", b"x"]);
    }

    #[test]
    fn duplicate_key_reports_existing() {
        let p = pool();
        let c = Chunk::new_empty(16, Box::new([]));
        let first = insert(&c, &p, b"dup", 1);
        let kr = alloc_key(&p, b"dup");
        let idx = c.allocate_entry(&Lexicographic, kr, b"dup").unwrap();
        match c.ll_put_if_absent(&p, &Lexicographic, idx) {
            LinkOutcome::Found(i) => assert_eq!(i, first),
            _ => panic!("expected Found"),
        }
    }

    #[test]
    fn sorted_chunk_binary_search() {
        let p = pool();
        let src = Chunk::new_empty(1, Box::new([]));
        let items = survivors(&src, &p, (0..50).map(|i| format!("k{i:03}")));
        let c = Chunk::new_sorted(64, Box::new([]), &items, &p, &Lexicographic);
        assert_eq!(c.sorted_count(), 50);
        // "k000".."k049" share "k0"; the prefixes were re-derived past it.
        assert_eq!(c.skip(), 2);
        c.assert_prefixes(&p, &Lexicographic);
        for i in 0..50u32 {
            let idx = c
                .lookup(&p, &Lexicographic, format!("k{i:03}").as_bytes())
                .expect("present");
            assert_eq!(c.value_raw(idx), i as u64 + 1);
        }
        assert_eq!(c.lookup(&p, &Lexicographic, b"k0505"), None);
        // Mixed: bypass insert into a sorted chunk.
        insert(&c, &p, b"k025x", 99);
        let idx = c.lookup(&p, &Lexicographic, b"k025x").unwrap();
        assert_eq!(c.value_raw(idx), 99);
    }

    /// The invariant every prefix-decided comparison rests on: within one
    /// chunk the key → prefix map is monotone, so two unequal non-zero
    /// prefixes order their keys. Bases of every length, keys inside the
    /// base, outside it on both sides, shorter than it, and with all-zero
    /// tails (prefix `0`, "no information").
    #[test]
    fn relative_prefix_never_contradicts_key_order() {
        let mut keys: Vec<Vec<u8>> = vec![vec![], vec![0], vec![0; 9], vec![255; 12]];
        for stem in [&b"0000000000000001"[..], b"0000000000000002", b"00000000"] {
            for cut in [0, 3, 8, stem.len()] {
                for tail in [
                    &b""[..],
                    b"\0",
                    b"\0\0\0\0\0\0\0\0",
                    b"\0\0\0\0\0\0\0\x01",
                    b"7",
                    b"70",
                    b"7\xff\xff\xff\xff\xff\xff\xff\xff",
                ] {
                    let mut k = stem[..cut].to_vec();
                    k.extend_from_slice(tail);
                    keys.push(k);
                }
            }
        }
        let stem = b"0000000000000001";
        for skip in 0..=stem.len() {
            let mut c = Chunk::new_empty(4, Box::new([]));
            c.base = stem[..skip].into();
            for a in &keys {
                for b in &keys {
                    let pa = c.key_prefix(&Lexicographic, a);
                    let pb = c.key_prefix(&Lexicographic, b);
                    if pa != 0 && pb != 0 && pa != pb {
                        assert_eq!(pa.cmp(&pb), a.cmp(b), "skip {skip}: {a:?} vs {b:?}");
                    }
                }
            }
        }
        // Where the comparator has no prefix for a key (`U64BeComparator`
        // off eight bytes): no information.
        let c = Chunk::new_empty(4, Box::new([]));
        let mut odd = keys.iter().filter(|k| k.len() != 8);
        assert!(odd.all(|k| c.key_prefix(&crate::cmp::U64BeComparator, k) == 0));
    }

    /// A replacement chunk with the same base carries cached prefixes; one
    /// with a different base derives them again (one counted key read per
    /// item) — either way they agree with the keys.
    #[test]
    fn new_sorted_carries_or_rederives_prefixes() {
        let p = pool();
        let src = Chunk::new_empty(1, Box::new([]));
        let items = survivors(&src, &p, (0..40).map(|i| format!("id-{:04}", 95 + i)));
        let wide = Chunk::new_sorted(64, Box::new([]), &items, &p, &Lexicographic);
        assert_eq!(wide.skip(), 4, "id-0095..id-0134 share \"id-0\"");
        wide.assert_prefixes(&p, &Lexicographic);

        let (live, dead) = wide.partition_entries(|v| v != 0);
        assert!(dead.is_empty());
        let before = p.stats().offheap_key_derefs;
        let same = Chunk::new_sorted(64, Box::new([]), &live, &p, &Lexicographic);
        assert_eq!(same.skip(), 4);
        assert_eq!(p.stats().offheap_key_derefs, before, "same base: carried");
        same.assert_prefixes(&p, &Lexicographic);

        // The upper half alone shares one more byte ("id-01").
        let upper = &live[5..];
        let narrow = Chunk::new_sorted(64, Box::new([]), upper, &p, &Lexicographic);
        assert_eq!(narrow.skip(), 4 + 1);
        assert_eq!(
            p.stats().offheap_key_derefs - before,
            upper.len() as u64,
            "new base: one key read per item"
        );
        narrow.assert_prefixes(&p, &Lexicographic);
        for i in 5..40u32 {
            let k = format!("id-{:04}", 95 + i);
            let idx = narrow
                .lookup(&p, &Lexicographic, k.as_bytes())
                .expect("present");
            assert_eq!(narrow.value_raw(idx), i as u64 + 1);
        }
        // Keys outside the base on either side are still ordered right.
        assert_eq!(narrow.lookup(&p, &Lexicographic, b"id-0099"), None);
        assert_eq!(narrow.lower_bound(&p, &Lexicographic, b"id-0099"), 0);
        assert_eq!(narrow.lower_bound(&p, &Lexicographic, b"id-02"), NONE);
        insert(&narrow, &p, b"id-0200", 77);
        insert(&narrow, &p, b"id-00", 78);
        narrow.assert_prefixes(&p, &Lexicographic);
        let keys: Vec<&[u8]> = narrow
            .collect_live(|v| v != 0)
            .iter()
            .map(|(k, _)| unsafe { p.slice(*k) })
            .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(
            (keys[0], keys[keys.len() - 1]),
            (&b"id-00"[..], &b"id-0200"[..])
        );
    }

    #[test]
    fn chunk_fills_up() {
        let p = pool();
        let c = Chunk::new_empty(8, Box::new([]));
        for i in 0..8u32 {
            insert(&c, &p, format!("{i}").as_bytes(), 1);
        }
        let kr = alloc_key(&p, b"overflow");
        assert!(c.allocate_entry(&Lexicographic, kr, b"overflow").is_none());
    }

    #[test]
    fn freeze_blocks_publish_and_linking() {
        let p = pool();
        let c = Chunk::new_empty(16, Box::new([]));
        insert(&c, &p, b"pre", 1);
        c.freeze();
        assert!(c.is_frozen());
        assert!(!c.publish());
        let kr = alloc_key(&p, b"post");
        let idx = c.allocate_entry(&Lexicographic, kr, b"post").unwrap();
        assert!(matches!(
            c.ll_put_if_absent(&p, &Lexicographic, idx),
            LinkOutcome::Frozen
        ));
        // Lookups still proceed on frozen chunks (paper §4.1).
        assert!(c.lookup(&p, &Lexicographic, b"pre").is_some());
    }

    #[test]
    fn freeze_waits_for_inflight_publication() {
        let c = Arc::new(Chunk::new_empty(16, Box::new([])));
        assert!(c.publish());
        let c2 = c.clone();
        let froze = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let f2 = froze.clone();
        let t = std::thread::spawn(move || {
            c2.freeze();
            f2.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!froze.load(Ordering::SeqCst), "freeze returned too early");
        c.unpublish();
        t.join().unwrap();
        assert!(froze.load(Ordering::SeqCst));
    }

    // --- the `next` link ---------------------------------------------------
    //
    // The collector is global to the process and the tests run on parallel
    // threads, so another test's pin can delay a destruction here, never
    // make one early: "is destroyed" is checked by retrying, "is not
    // destroyed" after a fixed amount of collector churn.

    fn link(min_key: &[u8]) -> Arc<Chunk> {
        Arc::new(Chunk::new_empty(4, min_key.into()))
    }

    /// Pins and unpins: every 128th pin of a thread makes the collector try
    /// to advance the epoch and destroy what this thread retired.
    fn churn_collector(pins: usize) {
        for _ in 0..pins {
            drop(epoch::pin());
        }
    }

    fn destroyed_eventually(alive: &std::sync::Weak<Chunk>) -> bool {
        for _ in 0..2_000 {
            if alive.strong_count() == 0 {
                return true;
            }
            churn_collector(128);
        }
        false
    }

    #[test]
    fn swing_next_refuses_a_mismatched_expect() {
        let (a, b, c, d) = (link(b""), link(b"b"), link(b"c"), link(b"d"));
        a.set_next(Some(b.clone()));
        assert!(!a.swing_next(&c, d.clone()), "the link holds b, not c");
        assert!(Arc::ptr_eq(&a.next_chunk().expect("linked"), &b));
        assert!(a.swing_next(&b, c.clone()));
        assert!(Arc::ptr_eq(&a.next_chunk().expect("linked"), &c));
        assert!(!a.swing_next(&b, d.clone()), "b was swung out");
        assert!(!c.swing_next(&b, d), "a tail has nothing to swing from");
        assert!(c.next_chunk().is_none());
    }

    #[test]
    fn set_next_none_on_a_tail_and_on_a_link() {
        let a = link(b"");
        a.set_next(None);
        assert!(a.next_chunk().is_none());
        let b = link(b"b");
        let b_alive = Arc::downgrade(&b);
        a.set_next(Some(b)); // the link's box holds the only reference
        assert_eq!(b_alive.strong_count(), 1);
        a.set_next(None);
        assert!(a.next_chunk().is_none());
        assert!(destroyed_eventually(&b_alive), "the unlinked box leaked");
    }

    #[test]
    fn racing_swings_have_exactly_one_winner() {
        for _ in 0..if cfg!(miri) { 10 } else { 300 } {
            let (a, b) = (link(b""), link(b"b"));
            a.set_next(Some(b.clone()));
            let mine = [link(b"c"), link(b"d")];
            let start = std::sync::Barrier::new(2);
            let won: Vec<bool> = std::thread::scope(|s| {
                let racers: Vec<_> = mine
                    .iter()
                    .map(|to| {
                        s.spawn(|| {
                            start.wait();
                            a.swing_next(&b, to.clone())
                        })
                    })
                    .collect();
                racers.into_iter().map(|r| r.join().unwrap()).collect()
            });
            assert_eq!(won.iter().filter(|w| **w).count(), 1, "{won:?}");
            let winner = &mine[won.iter().position(|w| *w).expect("one winner")];
            assert!(Arc::ptr_eq(&a.next_chunk().expect("linked"), winner));
        }
    }

    /// The successor's only strong reference lives in the link's box, so
    /// its `Weak` count is a drop counter for that box: it must stay 1
    /// while a guard pinned across the swing still borrows through it, and
    /// reach 0 — once, or the box would be freed twice — after.
    #[test]
    fn a_swung_out_link_outlives_guards_pinned_across_the_swing() {
        use std::sync::mpsc;

        let a = link(b"");
        let b = link(b"b");
        let b_alive = Arc::downgrade(&b);
        a.set_next(Some(b));
        let (pinned_tx, pinned_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let a = &a;
        std::thread::scope(|s| {
            let reader = s.spawn(move || {
                let guard = epoch::pin();
                let lent = a.next_ref(&guard).expect("linked");
                pinned_tx.send(()).expect("main is waiting");
                release_rx.recv().expect("main releases the reader");
                // Still readable: neither the box nor the chunk is gone.
                assert_eq!(&*lent.min_key, b"b");
            });
            pinned_rx.recv().expect("reader pinned");

            let expect = b_alive.upgrade().expect("held by the link");
            assert!(a.swing_next(&expect, link(b"c")));
            drop(expect);
            churn_collector(if cfg!(miri) { 1_024 } else { 20_000 });
            assert_eq!(b_alive.strong_count(), 1, "destroyed under a live guard");

            release_tx.send(()).expect("reader is waiting");
            reader.join().expect("reader thread");
        });
        assert!(destroyed_eventually(&b_alive), "never destroyed");
    }

    #[test]
    fn needs_reorg_tracks_unsorted_ratio() {
        let p = pool();
        let src = Chunk::new_empty(1, Box::new([]));
        let items = survivors(&src, &p, (0..20).map(|i| format!("s{i:03}")));
        let c = Chunk::new_sorted(64, Box::new([]), &items, &p, &Lexicographic);
        assert!(!c.needs_reorg(0.5));
        for i in 0..11u32 {
            insert(&c, &p, format!("u{i:03}").as_bytes(), 1);
        }
        assert!(c.needs_reorg(0.5), "11 unsorted > 20 × 0.5");
    }

    #[test]
    fn concurrent_inserts_distinct_keys() {
        let p = pool();
        let c = Arc::new(Chunk::new_empty(1024, Box::new([])));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let c = c.clone();
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200u32 {
                    let key = format!("{:04}", t * 200 + i);
                    let kr = alloc_key(&p, key.as_bytes());
                    let idx = c
                        .allocate_entry(&Lexicographic, kr, key.as_bytes())
                        .unwrap();
                    match c.ll_put_if_absent(&p, &Lexicographic, idx) {
                        LinkOutcome::Linked => assert!(c.cas_value(idx, 0, 1)),
                        _ => panic!("distinct keys cannot collide"),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let live = c.collect_live(|v| v != 0);
        assert_eq!(live.len(), 800);
        // Sorted.
        let keys: Vec<Vec<u8>> = live
            .iter()
            .map(|(k, _)| unsafe { p.slice(*k) }.to_vec())
            .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }
}
