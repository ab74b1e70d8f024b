//! Ascending and descending scans (§4.2, Figure 2).
//!
//! Scans are non-atomic (§1.1): keys inserted before the scan starts and
//! not removed before it ends are returned; keys never present (or removed
//! before the start and not re-inserted) are not; no key is returned twice.
//! Concurrent insertions/removals may or may not be observed.
//!
//! Both directions tolerate concurrent rebalances: when the chunk under a
//! scan is frozen and replaced, the walker chases the replacement chain and
//! re-enters the live chunk covering its position, bounded by the last
//! yielded key so no key is skipped or returned twice. Sync points
//! (`iter/*`) let the deterministic interleaving harness pause a scan at
//! every decision site.
//!
//! Two execution modes share each cursor
//! ([`OakMapConfig::batch_scan`](crate::OakMapConfig)):
//!
//! * **Batch mode** (default): the cursor snapshots a run of a chunk's
//!   sorted entries into a reusable on-heap buffer in one linked-list pass
//!   — one staleness check per *chunk-batch* (replacement pointer plus
//!   Jiffy-style revision stamp), zero per-entry bound checks when the
//!   successor's `min_key` proves the whole chunk in range — then drains
//!   the buffer. Refills revalidate: a chunk whose revision moved since
//!   the fill re-locates through the index, bounded by the last drained
//!   key. Sync points `iter/batch-step` (per drain) and
//!   `iter/batch-refill` (per snapshot) give the harness entry- and
//!   batch-granularity witnesses.
//! * **Per-entry mode**: the historical walker — one staleness check and
//!   one linked-list hop per yielded entry. Kept as the A/B baseline and
//!   the finest-grained interleaving surface.
//!
//! A batch pays off-heap misses only for what it delivers, and asks for
//! them early. The snapshot walk reads the entry array and nothing else;
//! what the array gives a chunk over a skiplist is that it names the next
//! headers, keys and payloads *before* the walk reaches them, so their
//! cache lines are requested ([`prefetch_line`]) ahead of use and the
//! misses overlap instead of queueing behind one another:
//!
//! * A **Set-API cursor** (iterators, both sharded merges) holds no lease.
//!   It judges an entry live when it *yields* it, not when it snapshots
//!   it, so an entry it never delivers costs no header read; each yield
//!   asks for the next slot's header and key lines and for the yielded
//!   entry's payload line. Its fills follow demand: [`SCAN_BATCH`]` / 8`
//!   entries first, doubling to [`SCAN_BATCH`], so a short scan snapshots
//!   a small multiple of what it hands out.
//! * A **stream cursor** leases the whole batch, in two passes: the walk
//!   requests every header line, then the leases are taken on lines that
//!   are arriving, each requesting its entry's key and payload line. The
//!   lock CASes themselves do not overlap (a locked read-modify-write
//!   drains the pipeline on x86); the requested lines do.
//!
//! Both modes satisfy the same §1.1 contract. An entry is in the batch
//! because it was linked, with a value, at some instant of the snapshot
//! walk — which is what the per-entry walker could observe under some
//! interleaving — and its liveness is judged later still, on the shared
//! value-header state, when it is leased or yielded: a key removed after
//! the fill and before its yield is simply not delivered, which §1.1
//! permits of any removal concurrent with the scan. Judging late is safe
//! for the same reason the snapshot is: the revision stamp is re-read at
//! every refill, so a batch never outlives one revalidation interval of
//! its chunk, and the cursor's epoch pin keeps every key it parked
//! readable for as long.

use std::cell::Cell;
use std::sync::Arc;

use oak_mempool::{prefetch_line, AccessError, HeaderRef, ScanLock, SliceRef, ValueStore};

use crate::budget::{Budgeted, ScanRules, Unbounded};
use crate::buffer::OakRBuffer;
use crate::chunk::{BatchEntry, Chunk, NONE};
use crate::cmp::KeyComparator;
use crate::map::OakMap;
use crate::reclaim::CursorPin;

/// Most entries one batch fill snapshots. Bounds the reusable buffer (and
/// the staleness window of a snapshot) while still amortizing the
/// per-chunk checks over enough entries that they vanish from the
/// per-entry cost. A stream cursor fills this many at once; a Set-API
/// cursor works up to it from an eighth ([`LeasedBatch::next_size`]).
/// Descending scans need the highest keys first, so they bound their
/// snapshot from the top instead: a *tail window* starting at most a
/// fill's worth of prefix cells below the upper bound.
const SCAN_BATCH: usize = 128;

thread_local! {
    /// Read leases this thread's stream scans hold on values they have not
    /// delivered yet (the one being delivered included). Non-zero only
    /// inside a stream-scan callback, which is how a writer that lost a
    /// lock wait can tell it may be waiting for its own thread.
    static LEASES_HELD: Cell<usize> = const { Cell::new(0) };
}

/// See [`LEASES_HELD`].
pub(crate) fn leases_held() -> usize {
    LEASES_HELD.with(Cell::get)
}

/// One entry as a cursor yields it.
pub(crate) struct Yielded<'a> {
    /// The key's pool reference.
    pub(crate) key: SliceRef,
    /// The key's bytes (batch mode resolved their address when it filled).
    /// Immutable, and readable for as long as the cursor that yielded them
    /// lives and holds its epoch pin — *not* for all of `'a`: whoever
    /// keeps them past the next call keeps the cursor too.
    pub(crate) key_bytes: &'a [u8],
    /// The entry's value header.
    pub(crate) hdr: HeaderRef,
}

impl<'a> Yielded<'a> {
    /// The per-entry walker's yield: resolves the key's bytes now.
    ///
    /// # Safety
    /// `key` must be pinned by the yielding cursor (read from a chunk the
    /// cursor observed unreplaced under its epoch pin).
    unsafe fn resolve<C: KeyComparator>(map: &'a OakMap<C>, key: SliceRef, hdr: HeaderRef) -> Self {
        Yielded {
            key,
            key_bytes: map.pool().slice(key),
            hdr,
        }
    }
}

/// How a cursor's drain delivers one entry's value to the visit closure.
pub(crate) enum ValueView<'a> {
    /// The bytes, delivered under the batch's fill-time read-lock lease:
    /// no per-entry lock acquisition or address translation remains.
    Leased(&'a [u8]),
    /// No lease (Set-API cursor, per-entry mode, or a writer was active at
    /// fill time): read through the value store's waiting path.
    Read(HeaderRef),
}

/// What the scan skeletons need from a cursor over a map borrowed for
/// `'a`, in either direction: the stream scan ([`OakMap::stream_scan`])
/// pushes through `drain`, the Set-API iterators and the sharded k-way
/// merge pull through `next_raw`.
pub(crate) trait ScanCursor<'a> {
    /// Advances to the next live entry.
    fn next_raw(&mut self) -> Option<Yielded<'a>>;

    /// Bulk drain: feeds every remaining live entry to `f` as resolved key
    /// bytes plus a [`ValueView`], until `f` returns `false` or the scan
    /// ends. Equivalent to repeated `next_raw`, but in batch mode a whole
    /// batch span is walked inline, and (on a stream cursor) with no
    /// per-entry lock traffic: leased entries hand out the payload bytes
    /// resolved at fill time, still covered by the fill-time read lock.
    fn drain(&mut self, f: impl FnMut(&[u8], ValueView<'_>) -> bool);
}

/// One chunk-batch of a scan: the reusable snapshot buffer and, on a
/// stream cursor, the value read locks taken when it was filled.
///
/// Stream-drain cursors ([`OakMap::for_each_in`] and friends) lease every
/// entry's read lock at fill time, on header lines the snapshot walk asked
/// for, and the drain then delivers payload bytes with no per-entry lock
/// traffic. A lease is retired as its entry is delivered; an early-stopped
/// scan's undrained tail releases at the next fill or on drop. Until then
/// a writer to a leased value waits — for one callback at most if it aims
/// at the entry being delivered, for every delivery still ahead of its
/// target otherwise; a write *from* the callback to a value its own batch
/// holds can never get the lock (see [`OakMap::for_each_in`]). Set-API
/// cursors take no lease — their consumers read values at their own pace
/// (an iterator may be held indefinitely, and a lease would block writers
/// for that long) — and judge each entry's liveness as they yield it.
///
/// Every `unsafe` step of the lease protocol is here, once.
struct LeasedBatch<'a> {
    store: &'a ValueStore,
    /// Entries of the current chunk-batch in ascending order, key
    /// addresses resolved at fill time. Capacity is reserved once and
    /// survives refills, so a whole scan allocates O(1) buffers.
    entries: Vec<BatchEntry>,
    /// Take fill-time leases (stream cursor)?
    leased: bool,
    /// Entries the next fill aims for ([`Self::next_size`]).
    want: usize,
}

impl<'a> LeasedBatch<'a> {
    fn new(store: &'a ValueStore, leased: bool) -> Self {
        LeasedBatch {
            store,
            entries: Vec::new(),
            leased,
            // A stream scan of a hundred entries is one fill, one lease
            // pass; a ramp there measured within 3 % of it either way
            // (EXPERIMENTS.md, "Demand-driven scan fill").
            want: if leased { SCAN_BATCH } else { SCAN_BATCH / 8 },
        }
    }

    /// How many entries the coming fill should snapshot (ascending) or
    /// how many prefix cells its tail window should span (descending).
    /// Each fill happens because the one before was delivered in full, so
    /// doubling per fill makes the size follow what the cursor has
    /// delivered: a scan that stops after `n` entries has snapshotted
    /// fewer than `2n + SCAN_BATCH / 8`.
    fn next_size(&mut self) -> usize {
        let n = self.want;
        self.want = (n * 2).min(SCAN_BATCH);
        n
    }

    /// Releases every lease still held. Tokens are zeroed, so release is
    /// exactly-once even though both refill and drop call here.
    fn release(&mut self) {
        if !self.leased {
            return;
        }
        let mut released = 0;
        for e in &mut self.entries {
            if e.hbase != 0 {
                // SAFETY: the token was minted by `scan_lock` during this
                // batch's fill and the read lock is still held.
                unsafe { self.store.scan_unlock(e.hbase) };
                e.hbase = 0;
                released += 1;
            }
        }
        LEASES_HELD.with(|n| n.set(n.get() - released));
    }

    /// Replaces the batch with a snapshot of up to `max` entries of
    /// `chunk` from entry `start` on, leasing their values on a stream
    /// cursor. Bounds and result are
    /// [`collect_batch`](Chunk::collect_batch)'s.
    fn fill<C: KeyComparator>(
        &mut self,
        map: &OakMap<C>,
        chunk: &Chunk,
        start: u32,
        strict_after: Option<&[u8]>,
        hi: Option<(&[u8], bool)>,
        max: usize,
    ) -> (u32, bool) {
        self.release();
        let pool = map.pool();
        if self.entries.capacity() == 0 {
            self.entries.reserve(SCAN_BATCH);
        } else {
            pool.note_scan_buffer_reuse();
        }
        self.entries.clear();
        let out = chunk.collect_batch(
            pool,
            &map.cmp,
            start,
            strict_after,
            hi,
            max,
            self.leased,
            &mut self.entries,
        );
        pool.note_scan_fill(self.entries.len());
        if self.leased {
            self.lease();
        }
        out
    }

    /// The second pass of a stream fill: takes a read lease on every
    /// snapshotted value — on header lines the walk already asked for —
    /// drops the entries found dead, and asks for the key and payload line
    /// of each one kept, which the drain is about to read.
    fn lease(&mut self) {
        let store = self.store;
        let mut held = 0;
        self.entries.retain_mut(|e| {
            match store.scan_lock(e.hdr) {
                ScanLock::Held { hbase, vptr, vlen } => {
                    (e.hbase, e.vptr, e.vlen) = (hbase, vptr, vlen);
                    prefetch_line(vptr);
                    held += 1;
                }
                // A header a writer holds right now degrades that one
                // entry to the waiting read path at drain time.
                ScanLock::Contended => {}
                ScanLock::Dead => return false,
            }
            prefetch_line(e.kptr);
            true
        });
        LEASES_HELD.with(|n| n.set(n.get() + held));
    }

    /// Asks for the header and key lines of entry `i` (if there is one):
    /// what yielding it will read. Of the key, the lines under its first 64
    /// bytes: a key sits wherever the allocator put it, so the bytes the
    /// merge's comparison looks at straddle two lines as often as not, and
    /// half a key arriving late stalled the k-way pick for 15 % of a
    /// 50-entry merged scan.
    #[inline]
    fn request(&self, i: usize) {
        if let Some(e) = self.entries.get(i) {
            self.store.pool().prefetch(e.hdr);
            prefetch_line(e.kptr);
            prefetch_line(e.kptr + (e.key.len() as usize).clamp(1, 64) - 1);
        }
    }

    /// Yields entry `i` of an unleased batch if its value is live *now*,
    /// asking for what comes after: the header and key lines of entry
    /// `ahead` — the slot the cursor visits next, out of range at the
    /// batch's end — and the payload line of the entry yielded, which its
    /// consumer reads next.
    #[inline]
    fn yield_live(&self, i: usize, ahead: usize) -> Option<Yielded<'a>> {
        self.request(ahead);
        let e = &self.entries[i];
        if self.store.is_deleted(e.hdr) {
            return None;
        }
        self.store.prefetch_payload(e.hdr);
        Some(Yielded {
            key: e.key,
            // SAFETY: the filling cursor holds its epoch pin for its
            // lifetime, which is how long `Yielded` lets the bytes be used.
            key_bytes: unsafe { e.key_bytes() },
            hdr: e.hdr,
        })
    }

    /// Hands entry `i` to `f`; returns whether the drain should go on.
    #[inline]
    fn deliver(&mut self, i: usize, f: &mut impl FnMut(&[u8], ValueView<'_>) -> bool) -> bool {
        let item = self.entries[i];
        // SAFETY: the filling cursor holds its epoch pin for its lifetime.
        let kb = unsafe { item.key_bytes() };
        if item.hbase == 0 {
            return f(kb, ValueView::Read(item.hdr));
        }
        oak_failpoints::fail_point!("value/read");
        let vb: &[u8] = if item.vlen == 0 {
            &[]
        } else {
            // SAFETY: the fill-time read lock is still held, so the payload
            // cannot be torn, resized, or freed under the callback.
            unsafe { std::slice::from_raw_parts(item.vptr as *const u8, item.vlen as usize) }
        };
        let keep = f(kb, ValueView::Leased(vb));
        // Retire the lease the moment the callback returns: a writer to
        // this value waited for one delivery, not for the rest of the
        // batch (a paused scan must not wedge removes of what it has
        // already handed out).
        // SAFETY: minted by this batch's fill, still held.
        unsafe { self.store.scan_unlock(item.hbase) };
        self.entries[i].hbase = 0;
        LEASES_HELD.with(|n| n.set(n.get() - 1));
        keep
    }
}

impl Drop for LeasedBatch<'_> {
    fn drop(&mut self) {
        // An early-stopped scan's undrained tail still holds its leases.
        self.release();
    }
}

/// Shared ascending walker over live entries.
///
/// One copy of the hop / dedup / hi-bound / replacement-chase logic, used
/// by both the Set-API [`EntryIter`] and the zero-copy stream scan
/// ([`OakMap::for_each_in`]) so scan fixes land once.
pub(crate) struct AscendCursor<'a, C: KeyComparator> {
    /// The current chunk-batch (and, on a stream cursor, its leases).
    /// Declared first so that it drops first: an early-stopped scan's
    /// leases are released before the rest of the cursor is torn down.
    batch: LeasedBatch<'a>,
    map: &'a OakMap<C>,
    chunk: Option<Arc<Chunk>>,
    entry: u32,
    lo: Option<Box<[u8]>>,
    hi: Option<Box<[u8]>>,
    last_key: Option<SliceRef>,
    /// Per-entry mode: the walk just entered a chunk at
    /// `lower_bound(last_key)` (hop or re-entry), so leading entries ≤
    /// `last_key` are skipped until one compares greater. The bounds are
    /// probed against the chunk under the cursor where they are checked —
    /// a key's cached prefix is relative to one chunk
    /// ([`Chunk::probe`](crate::chunk::Chunk::probe)), so the cursor keeps
    /// none of its own.
    resumed: bool,
    /// Epoch pin held for the cursor's whole lifetime: every chunk the
    /// walk enters was observed unreplaced under this pin, so its key
    /// slices (including `last_key` and everything parked in `batch`)
    /// cannot be quarantine-freed while the cursor lives. Shared into
    /// yielded key buffers.
    pin: Arc<CursorPin>,
    /// Batch mode on (`OakMapConfig::batch_scan`)?
    batch_mode: bool,
    /// Next undrained element of `batch`.
    batch_pos: usize,
    /// The chunk's revision stamp when `batch` was snapshotted; a refill
    /// that reads a different stamp revalidates through the index.
    batch_rev: u64,
    /// The upper bound was reached inside a batch: the scan is over once
    /// `batch` drains.
    tail_done: bool,
}

impl<'a, C: KeyComparator> AscendCursor<'a, C> {
    /// Set-API cursor: no fill-time leases (see [`LeasedBatch`]).
    pub(crate) fn new(map: &'a OakMap<C>, lo: Option<&[u8]>, hi: Option<&[u8]>) -> Self {
        Self::with_mode(map, lo, hi, false)
    }

    /// Stream-drain cursor: fill-time value leases on.
    pub(crate) fn new_stream(map: &'a OakMap<C>, lo: Option<&[u8]>, hi: Option<&[u8]>) -> Self {
        Self::with_mode(map, lo, hi, true)
    }

    fn with_mode(map: &'a OakMap<C>, lo: Option<&[u8]>, hi: Option<&[u8]>, leased: bool) -> Self {
        // Pin *before* locating: the safety argument needs the
        // unreplaced-observation of every entered chunk to happen pinned.
        let pin = Arc::new(map.reclaim.pin_owned());
        let mut cursor = AscendCursor {
            map,
            chunk: None,
            entry: NONE,
            lo: lo.map(|l| l.into()),
            hi: hi.map(|h| h.into()),
            last_key: None,
            resumed: false,
            pin,
            batch_mode: map.config.batch_scan,
            batch: LeasedBatch::new(&map.store, leased),
            batch_pos: 0,
            batch_rev: 0,
            tail_done: false,
        };
        let (chunk, entry) = cursor.resume_point();
        if cursor.batch_mode {
            cursor.fill_batch(chunk, entry, None);
        } else {
            (cursor.chunk, cursor.entry) = (Some(chunk), entry);
        }
        cursor
    }

    /// Where the index says the scan continues: the live chunk covering
    /// the last yielded key (the scan's lower bound, or the first chunk,
    /// when nothing was yielded yet) and the first entry at or above it.
    /// The start of every scan, and the re-entry after the chunk under the
    /// cursor was replaced.
    fn resume_point(&self) -> (Arc<Chunk>, u32) {
        let map = self.map;
        match self.yielded().or(self.lo.as_deref()) {
            Some(k) => {
                let c = map.locate_chunk(k);
                let e = c.lower_bound(map.pool(), &map.cmp, k);
                (c, e)
            }
            None => {
                let c = map.first_chunk();
                let e = c.head_entry();
                (c, e)
            }
        }
    }

    /// The bytes of the last yielded key: the resume and dedup bound.
    fn yielded(&self) -> Option<&'a [u8]> {
        // SAFETY: key buffers are immutable; `last_key` is pinned.
        self.last_key.map(|lk| unsafe { self.map.pool().slice(lk) })
    }

    /// The chunk after `chunk`, replacement chains resolved, and the entry
    /// the scan resumes from in it: the first at or above the last yielded
    /// key.
    fn successor(&self, chunk: &Chunk) -> Option<(Arc<Chunk>, u32)> {
        let mut n = chunk.next_chunk()?;
        while let Some(r) = n.replacement() {
            n = r.clone();
        }
        let e = match self.yielded() {
            Some(lb) => n.lower_bound(self.map.pool(), &self.map.cmp, lb),
            None => n.head_entry(),
        };
        Some((n, e))
    }

    /// Snapshots the next run of `chunk`'s entries ([`LeasedBatch::next_size`]
    /// of them) into the reusable buffer, starting at entry `start` and
    /// skipping entries ≤ `strict_after`. Applies the chunk-range fast path: when the
    /// successor chunk's `min_key` is ≤ `hi`, the chunk invariant
    /// (entries < successor `min_key`) already proves every entry in
    /// range, so the snapshot walk performs zero per-entry bound checks.
    fn fill_batch(&mut self, chunk: Arc<Chunk>, start: u32, strict_after: Option<&[u8]>) {
        let map = self.map;
        self.batch_pos = 0;
        self.batch_rev = chunk.revision();
        let hi_opt: Option<(&[u8], bool)> = match &self.hi {
            None => None,
            Some(h) => {
                let covered = chunk.next_chunk().is_some_and(|n| {
                    !n.min_key.is_empty()
                        && map.cmp.compare(&n.min_key, h) != std::cmp::Ordering::Greater
                });
                if covered {
                    None // whole chunk < successor minKey ≤ hi
                } else {
                    Some((h, false)) // hi is exclusive
                }
            }
        };
        let max = self.batch.next_size();
        let (resume, bounded) = self
            .batch
            .fill(map, &chunk, start, strict_after, hi_opt, max);
        // Nothing has asked for the first slot's lines yet.
        self.batch.request(0);
        self.entry = resume;
        if bounded {
            self.tail_done = true;
        }
        self.chunk = Some(chunk);
    }

    /// Prepares the next batch after the current one drained: revalidate
    /// the chunk (replacement pointer + revision stamp — the *only*
    /// staleness check the batch path performs, once per batch), then
    /// either continue a capped snapshot in the same chunk, or hop to the
    /// successor.
    fn refill_batch(&mut self) {
        oak_failpoints::sync_point!("iter/batch-refill");
        oak_failpoints::fail_point!("iter/batch-refill");
        let map = self.map;
        // The resume/dedup bound: the last key the drained batch examined
        // (yielded, or found dead at its yield — behind the scan either way).
        if let Some(&BatchEntry { key: lk, .. }) = self.batch.entries.last() {
            self.last_key = Some(lk);
        }
        let Some(chunk) = self.chunk.clone() else {
            return;
        };
        if chunk.replacement().is_some() || chunk.revision() != self.batch_rev {
            // The chunk changed under the drained snapshot: re-locate the
            // live chunk covering the resume point. `strict_after` keeps
            // already-yielded keys from repeating when the replacement's
            // range overlaps what the batch covered.
            map.pool().note_scan_revalidation();
            let (c, e) = self.resume_point();
            self.fill_batch(c, e, self.yielded());
            return;
        }
        if self.entry != NONE {
            // Same chunk, next slice of a capped snapshot: the resume
            // index still names the same immutable key, so no bound
            // needed.
            self.fill_batch(chunk, self.entry, None);
            return;
        }
        // Chunk exhausted: hop to the successor.
        match self.successor(&chunk) {
            Some((n, e)) => self.fill_batch(n, e, self.yielded()),
            None => self.chunk = None,
        }
    }

    /// Batch-mode advance: the index in `batch` of the next entry to
    /// yield, refilling between batches.
    #[inline]
    fn next_slot(&mut self) -> Option<usize> {
        loop {
            if self.batch_pos < self.batch.entries.len() {
                oak_failpoints::sync_point!("iter/batch-step");
                self.batch_pos += 1;
                return Some(self.batch_pos - 1);
            }
            if self.tail_done || self.chunk.is_none() {
                self.chunk = None;
                return None;
            }
            self.refill_batch();
        }
    }
}

impl<'a, C: KeyComparator> ScanCursor<'a> for AscendCursor<'a, C> {
    fn next_raw(&mut self) -> Option<Yielded<'a>> {
        while self.batch_mode {
            let i = self.next_slot()?;
            if let Some(y) = self.batch.yield_live(i, i + 1) {
                return Some(y);
            }
        }
        loop {
            // Unconditional per-iteration decision site, *before* the
            // staleness check — so an interleaving schedule can park the
            // cursor here regardless of whether a concurrent rebalance
            // has already frozen the chunk (mirrors "iter/descend-step").
            oak_failpoints::sync_point!("iter/ascend-step");
            let chunk = self.chunk.clone()?;
            if chunk.replacement().is_some() {
                oak_failpoints::sync_point!("iter/stale-reenter");
                oak_failpoints::fail_point!("iter/stale-reenter");
                // The `resumed` dedup keeps already-yielded keys from
                // repeating when the replacement's range overlaps what
                // the walk covered.
                let (live, e) = self.resume_point();
                (self.chunk, self.entry) = (Some(live), e);
                self.resumed = true;
                continue;
            }
            if self.entry == NONE {
                // Hop to the next chunk.
                oak_failpoints::sync_point!("iter/ascend-hop");
                oak_failpoints::fail_point!("iter/ascend-hop");
                let Some((n, e)) = self.successor(&chunk) else {
                    self.chunk = None;
                    return None;
                };
                (self.chunk, self.entry) = (Some(n), e);
                self.resumed = true;
                continue;
            }
            let idx = self.entry;
            self.entry = chunk.entry_next(idx);
            // Bound and dedup checks go through the entries' cached
            // prefixes; off-heap key bytes are dereferenced only on ties.
            let (pool, cmp) = (self.map.pool(), &self.map.cmp);
            if let Some(h) = &self.hi {
                if chunk.probe(pool, cmp, h).cmp_entry(idx) != std::cmp::Ordering::Less {
                    self.chunk = None;
                    return None;
                }
            }
            if self.resumed {
                if let Some(lb) = self.yielded() {
                    if chunk.probe(pool, cmp, lb).cmp_entry(idx) != std::cmp::Ordering::Greater {
                        continue; // already covered before a hop / re-entry
                    }
                }
                // Sorted list: the rest of this chunk is beyond it too.
                self.resumed = false;
            }
            let Some(h) = chunk.value_ref(idx) else {
                continue;
            };
            if self.map.store.is_deleted(h) {
                continue;
            }
            let key = chunk.key_ref(idx);
            self.last_key = Some(key);
            // SAFETY: key buffers are immutable; `key` is pinned.
            return Some(unsafe { Yielded::resolve(self.map, key, h) });
        }
    }

    fn drain(&mut self, mut f: impl FnMut(&[u8], ValueView<'_>) -> bool) {
        while !self.batch_mode {
            let Some(y) = self.next_raw() else {
                return;
            };
            if !f(y.key_bytes, ValueView::Read(y.hdr)) {
                return;
            }
        }
        while let Some(i) = self.next_slot() {
            if !self.batch.deliver(i, &mut f) {
                return;
            }
        }
    }
}

/// Ascending Set-API iterator: yields an ephemeral `(key, value)` buffer
/// pair per entry. The stream API ([`OakMap::for_each_in`]) avoids these
/// per-entry objects — the distinction Figure 4e measures. Both are thin
/// wrappers over the same `AscendCursor` walker.
pub struct EntryIter<'a, C: KeyComparator> {
    cursor: AscendCursor<'a, C>,
}

impl<'a, C: KeyComparator> EntryIter<'a, C> {
    pub(crate) fn new(map: &'a OakMap<C>, lo: Option<&[u8]>, hi: Option<&[u8]>) -> Self {
        EntryIter {
            cursor: AscendCursor::new(map, lo, hi),
        }
    }
}

impl<C: KeyComparator> Iterator for EntryIter<'_, C> {
    type Item = (OakRBuffer, OakRBuffer);

    fn next(&mut self) -> Option<Self::Item> {
        let y = self.cursor.next_raw()?;
        Some((
            OakRBuffer::key(
                self.cursor.map.pool().clone(),
                y.key,
                self.cursor.pin.clone(),
            ),
            OakRBuffer::value(self.cursor.map.store.clone(), y.hdr),
        ))
    }
}

/// Descending iterator implementing the stack algorithm of Figure 2.
///
/// Within a chunk: locate the last relevant entry via the sorted prefix,
/// walk each bypass run while pushing entries on a stack, pop to yield,
/// step one prefix cell back when the stack drains. On chunk exhaustion,
/// query the index for the chunk with the greatest `minKey` strictly
/// smaller than the current chunk's. When the chunk is frozen and replaced
/// mid-scan, drop the (stale) stack and re-enter the live replacement
/// bounded strictly below the last yielded key. Complexity for a scan of S
/// keys over N: O(S/B · log N + S) instead of the skiplist's O(S log N).
pub struct DescendIter<'a, C: KeyComparator> {
    /// The current chunk-batch (and, on a stream iterator, its leases;
    /// declared first so that it drops first, like [`AscendCursor`]'s): a
    /// tail window of the chunk's in-range entries in *ascending*
    /// order, drained from the back. Descending scans need the highest
    /// keys first, so the [`SCAN_BATCH`] cap bounds the window's start
    /// *below the upper bound* (see [`Self::window_bound`]).
    batch: LeasedBatch<'a>,
    map: &'a OakMap<C>,
    chunk: Option<Arc<Chunk>>,
    /// Entries pending in descending order (top = largest remaining).
    stack: Vec<u32>,
    /// Next prefix cell to refill from; -1 = the pre-prefix head run,
    /// -2 = chunk exhausted.
    next_prefix: i64,
    /// Inclusive upper bound the scan started from (`None` = the end).
    from: Option<Box<[u8]>>,
    /// Inclusive lower bound of the scan.
    lo: Option<Box<[u8]>>,
    /// Last key yielded: the strict re-entry bound after a concurrent
    /// rebalance replaces the chunk under the scan.
    last_yielded: Option<SliceRef>,
    /// One-item lookahead (set by [`skip_exact`](Self::skip_exact)).
    pending: Option<Yielded<'a>>,
    done: bool,
    /// Lifetime epoch pin (see [`AscendCursor::pin`]).
    pin: Arc<CursorPin>,
    /// Batch mode on (`OakMapConfig::batch_scan`)?
    batch_mode: bool,
    /// Elements of `batch` not yet drained (drain position counts down).
    rpos: usize,
    /// The chunk's revision stamp when `batch` was snapshotted.
    batch_rev: u64,
    /// Set when the current batch is a capped *tail window* of the chunk:
    /// the key of the prefix cell the snapshot started from (pinned, like
    /// `last_yielded`). In-range entries below it were deliberately left
    /// uncollected, so the refill must re-enter this chunk with it as the
    /// exclusive upper bound — everything at or above it was already
    /// examined — instead of hopping to the predecessor.
    window_bound: Option<SliceRef>,
    /// This chunk covers the scan's lower end: once `batch` drains the
    /// scan is over, no predecessor hop needed.
    tail_done: bool,
}

impl<'a, C: KeyComparator> DescendIter<'a, C> {
    /// Set-API iterator: no fill-time leases (see [`LeasedBatch`]).
    pub(crate) fn new(map: &'a OakMap<C>, from: Option<&[u8]>, lo: Option<&[u8]>) -> Self {
        Self::with_mode(map, from, lo, false)
    }

    /// Stream-drain iterator: fill-time value leases on.
    pub(crate) fn new_stream(map: &'a OakMap<C>, from: Option<&[u8]>, lo: Option<&[u8]>) -> Self {
        Self::with_mode(map, from, lo, true)
    }

    fn with_mode(map: &'a OakMap<C>, from: Option<&[u8]>, lo: Option<&[u8]>, leased: bool) -> Self {
        let pin = Arc::new(map.reclaim.pin_owned());
        let mut it = DescendIter {
            map,
            chunk: None,
            stack: Vec::new(),
            next_prefix: -2,
            from: from.map(|f| f.into()),
            lo: lo.map(|l| l.into()),
            last_yielded: None,
            pending: None,
            done: false,
            pin,
            batch_mode: map.config.batch_scan,
            batch: LeasedBatch::new(&map.store, leased),
            rpos: 0,
            batch_rev: 0,
            window_bound: None,
            tail_done: false,
        };
        it.reposition();
        it
    }

    /// Positions the scan at its resume point through the index — the
    /// start of every scan, and the re-entry after the chunk under it was
    /// replaced (its stack, bypass links or snapshot are then stale):
    /// enters the live chunk covering the last yielded key, bounded
    /// strictly below it so no key repeats; or, with nothing yielded yet,
    /// the chunk covering `from`, inclusively.
    fn reposition(&mut self) {
        self.chunk = None;
        let map = self.map;
        match self.last_yielded {
            Some(lk) => {
                // SAFETY: key buffers are immutable; `lk` is pinned.
                let lb = unsafe { map.pool().slice(lk) };
                self.enter(map.locate_chunk(lb), Some((lb, false)));
            }
            None => {
                let from = self.from.take();
                let chunk = self.start_chunk(from.as_deref());
                self.enter(chunk, from.as_deref().map(|f| (f, true)));
                self.from = from;
            }
        }
    }

    /// Enters `chunk` below the upper bound `ub = (key, inclusive)` — the
    /// scan start, the predecessor hop's exclusive old `min_key`, or the
    /// strict re-entry bound — in the iterator's mode.
    fn enter(&mut self, chunk: Arc<Chunk>, ub: Option<(&[u8], bool)>) {
        if self.batch_mode {
            self.enter_chunk_batch(chunk, ub);
        } else {
            self.enter_chunk(chunk, ub);
        }
    }

    /// Snapshots `chunk`'s in-range entries (ascending) into the
    /// reusable buffer, below the upper bound `ub`; the lower end is
    /// positioned once via `lower_bound(lo)`, so the drain needs no
    /// per-entry `lo` checks.
    fn enter_chunk_batch(&mut self, chunk: Arc<Chunk>, ub: Option<(&[u8], bool)>) {
        let map = self.map;
        let pool = map.pool();
        self.batch_rev = chunk.revision();
        let mut start = match &self.lo {
            Some(l) => chunk.lower_bound(pool, &map.cmp, l),
            None => chunk.head_entry(),
        };
        // Tail-window cap: the drain needs the *highest* in-range keys
        // first, and a capped stream scan (the common case) may never
        // reach the low end — snapshotting (and leasing) the whole
        // in-range chunk would waste collection work on entries the
        // drain never delivers. Start at most a fill's worth of prefix
        // cells below the upper bound instead (bypass runs between the
        // cells only widen the window); a drained window re-enters this
        // chunk with the bound tightened to its start cell.
        self.window_bound = None;
        let window = self.batch.next_size();
        let sc = chunk.sorted_count();
        if start != NONE && start < sc {
            // Count of prefix cells within the upper bound.
            let top = match ub {
                Some((b, inclusive)) => match chunk.prefix_floor(&chunk.probe(pool, &map.cmp, b)) {
                    Some((floor, exact)) => floor as i64 + i64::from(inclusive || !exact),
                    None => 0,
                },
                None => sc as i64,
            };
            let capped = top - window as i64;
            if capped > start as i64 {
                start = capped as u32;
                self.window_bound = Some(chunk.key_ref(start));
            }
        }
        self.batch.fill(map, &chunk, start, None, ub, usize::MAX);
        self.rpos = self.batch.entries.len();
        // Nothing has asked for the first slot's lines yet.
        self.batch.request(self.rpos.wrapping_sub(1));
        // Predecessor chunks hold keys < minKey; when minKey ≤ lo (or
        // this is the first chunk) they are all out of range. A capped
        // window is never the end: lower in-range entries remain here.
        self.tail_done = self.window_bound.is_none()
            && (chunk.min_key.is_empty()
                || self.lo.as_ref().is_some_and(|l| {
                    map.cmp.compare(&chunk.min_key, l) != std::cmp::Ordering::Greater
                }));
        self.chunk = Some(chunk);
    }

    /// Prepares the next descending batch: revalidate the drained chunk
    /// (replacement pointer + revision stamp, once per batch), then
    /// either re-locate through the index (stale) or hop to the
    /// predecessor chunk.
    fn refill_batch(&mut self) {
        oak_failpoints::sync_point!("iter/batch-refill");
        oak_failpoints::fail_point!("iter/batch-refill");
        let map = self.map;
        let Some(chunk) = self.chunk.take() else {
            return;
        };
        if chunk.replacement().is_some() || chunk.revision() != self.batch_rev {
            map.pool().note_scan_revalidation();
            self.reposition();
            return;
        }
        if let Some(wb) = self.window_bound {
            // The capped tail window drained; lower in-range entries of
            // this same chunk remain. Re-enter strictly below the
            // window's start cell — everything at or above it was
            // examined (live entries delivered, dead ones skipped; a
            // concurrent revive of a dead one counts as an insert after
            // the scan start, which §1.1 lets us miss).
            // SAFETY: key buffers are immutable; `wb` is pinned.
            let bb = unsafe { map.pool().slice(wb) };
            self.enter_chunk_batch(chunk, Some((bb, false)));
            return;
        }
        self.enter_predecessor(&chunk);
    }

    /// Batch-mode advance: the index in `batch` of the next entry to
    /// yield (back to front), refilling between chunks.
    #[inline]
    fn next_slot(&mut self) -> Option<usize> {
        loop {
            if self.rpos > 0 {
                oak_failpoints::sync_point!("iter/batch-step");
                self.rpos -= 1;
                self.last_yielded = Some(self.batch.entries[self.rpos].key);
                return Some(self.rpos);
            }
            if self.tail_done || self.chunk.is_none() {
                self.done = true;
                return None;
            }
            self.refill_batch();
        }
    }

    /// The chunk containing `from`, or the last chunk when unbounded.
    fn start_chunk(&self, from: Option<&[u8]>) -> Arc<Chunk> {
        match from {
            Some(k) => self.map.locate_chunk(k),
            None => {
                let mut c = self.map.first_chunk();
                loop {
                    while let Some(r) = c.replacement() {
                        c = r.clone();
                    }
                    match c.next_chunk() {
                        Some(n) => c = n,
                        None => break,
                    }
                }
                c
            }
        }
    }

    /// Initializes the stack for `chunk`: pushes every entry with key ≤
    /// the bound (or < when it is exclusive; unbounded when `None`).
    fn enter_chunk(&mut self, chunk: Arc<Chunk>, ub: Option<(&[u8], bool)>) {
        let pool = self.map.pool();
        let cmp = &self.map.cmp;
        self.stack.clear();
        // The bound, probed once per chunk entry: the cell search and the
        // in-bound walk compare cached prefixes first, dereferencing
        // off-heap key bytes only on ties.
        let inclusive = ub.is_none_or(|(_, inclusive)| inclusive);
        let bound = ub.map(|(b, _)| chunk.probe(pool, cmp, b));

        let in_bound = |idx: u32| match &bound {
            None => true,
            Some(b) => match b.cmp_entry(idx) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => inclusive,
                std::cmp::Ordering::Greater => false,
            },
        };

        // The starting prefix cell: the last prefix entry with key ≤ the
        // bound. It may still be out of bound in the exclusive case —
        // `in_bound` filters.
        let start = match &bound {
            Some(b) => chunk.prefix_floor(b).map_or(-1, |(floor, _)| floor as i64),
            None => chunk.sorted_count() as i64 - 1,
        };

        // Initial run: from prefix cell `start` (or the head run when the
        // prefix is empty / bound precedes it) pushing in-bound entries.
        let first_entry = if start >= 0 {
            start as u32
        } else {
            chunk.head_entry()
        };
        let mut cur = first_entry;
        let mut first = true;
        while cur != NONE {
            // Stop when the run flows into the prefix region (those cells
            // are handled by later refills), except for the starting cell.
            if !first && start >= 0 && cur < chunk.sorted_count() {
                break;
            }
            if start < 0 && cur < chunk.sorted_count() {
                // Head run reached the first prefix cell: prefix cells are
                // all > bound here (start < 0), so stop.
                break;
            }
            if !in_bound(cur) {
                break;
            }
            self.stack.push(cur);
            first = false;
            cur = chunk.entry_next(cur);
        }
        self.next_prefix = if start >= 0 { start - 1 } else { -2 };
        self.chunk = Some(chunk);
    }

    /// Refills the stack from the next prefix cell back (Figure 2's
    /// "move one entry back in the prefix and traverse the bypass").
    fn refill(&mut self) -> bool {
        oak_failpoints::sync_point!("iter/descend-refill");
        oak_failpoints::fail_point!("iter/descend-refill");
        let Some(chunk) = self.chunk.clone() else {
            return false;
        };
        loop {
            if self.next_prefix == -2 {
                return false;
            }
            if self.next_prefix == -1 {
                // The run of bypasses before the first prefix cell.
                let mut cur = chunk.head_entry();
                while cur != NONE && cur >= chunk.sorted_count() {
                    self.stack.push(cur);
                    cur = chunk.entry_next(cur);
                }
                self.next_prefix = -2;
                return !self.stack.is_empty();
            }
            // Walk from prefix cell p through its bypass run, stopping at
            // the next prefix cell (already covered by a previous run).
            let p = self.next_prefix as u32;
            self.next_prefix -= 1;
            let mut cur = p;
            let mut first = true;
            while cur != NONE {
                if !first && cur < chunk.sorted_count() {
                    break;
                }
                self.stack.push(cur);
                first = false;
                cur = chunk.entry_next(cur);
            }
            if !self.stack.is_empty() {
                return true;
            }
        }
    }

    /// Per-entry mode's hop to the chunk preceding the current one.
    fn prev_chunk(&mut self) -> bool {
        oak_failpoints::sync_point!("iter/descend-prev");
        oak_failpoints::fail_point!("iter/descend-prev");
        match self.chunk.take() {
            Some(chunk) => self.enter_predecessor(&chunk),
            None => false,
        }
    }

    /// Enters the chunk preceding `chunk` (index query for the greatest
    /// `minKey` strictly smaller — §4.2); `false` when there is none.
    fn enter_predecessor(&mut self, chunk: &Chunk) -> bool {
        if chunk.min_key.is_empty() {
            return false; // the first chunk has no predecessor
        }
        let prev = self.map.index.floor_before(&chunk.min_key);
        // Everything ≥ old minKey was already returned: bound strictly.
        self.enter(prev, Some((&chunk.min_key, false)));
        true
    }

    /// Drops the next entry if its key is exactly `key` (used by bounded
    /// views whose upper bound is exclusive).
    pub(crate) fn skip_exact(&mut self, key: &[u8]) {
        if let Some(y) = self.next_raw() {
            if self.map.cmp.compare(y.key_bytes, key) != std::cmp::Ordering::Equal {
                self.pending = Some(y);
            }
        }
    }
}

impl<'a, C: KeyComparator> ScanCursor<'a> for DescendIter<'a, C> {
    fn next_raw(&mut self) -> Option<Yielded<'a>> {
        if let Some(item) = self.pending.take() {
            return Some(item);
        }
        if self.done {
            return None;
        }
        while self.batch_mode {
            let i = self.next_slot()?;
            if let Some(y) = self.batch.yield_live(i, i.wrapping_sub(1)) {
                return Some(y);
            }
        }
        loop {
            oak_failpoints::sync_point!("iter/descend-step");
            let stale = self
                .chunk
                .as_ref()
                .is_some_and(|c| c.replacement().is_some());
            if stale {
                oak_failpoints::sync_point!("iter/stale-reenter");
                oak_failpoints::fail_point!("iter/stale-reenter");
                self.reposition();
            }
            if self.stack.is_empty() && !self.refill() && !self.prev_chunk() {
                self.done = true;
                return None;
            }
            let Some(idx) = self.stack.pop() else {
                continue;
            };
            let chunk = self.chunk.as_ref()?;
            if let Some(l) = &self.lo {
                let ord = chunk
                    .probe(self.map.pool(), &self.map.cmp, l)
                    .cmp_entry(idx);
                if ord == std::cmp::Ordering::Less {
                    self.done = true; // descending: below lo means finished
                    return None;
                }
            }
            let Some(h) = chunk.value_ref(idx) else {
                continue;
            };
            if self.map.store.is_deleted(h) {
                continue;
            }
            let key = chunk.key_ref(idx);
            self.last_yielded = Some(key);
            // SAFETY: key buffers are immutable; `key` is pinned.
            return Some(unsafe { Yielded::resolve(self.map, key, h) });
        }
    }

    fn drain(&mut self, mut f: impl FnMut(&[u8], ValueView<'_>) -> bool) {
        // Per-entry mode drains through `next_raw`; so does a parked
        // `skip_exact` lookahead, which precedes the batch.
        while !self.batch_mode || self.pending.is_some() {
            let Some(y) = self.next_raw() else {
                return;
            };
            if !f(y.key_bytes, ValueView::Read(y.hdr)) {
                return;
            }
        }
        while let Some(i) = self.next_slot() {
            if !self.batch.deliver(i, &mut f) {
                return;
            }
        }
    }
}

impl<C: KeyComparator> Iterator for DescendIter<'_, C> {
    type Item = (OakRBuffer, OakRBuffer);

    fn next(&mut self) -> Option<Self::Item> {
        let y = self.next_raw()?;
        Some((
            OakRBuffer::key(self.map.pool().clone(), y.key, self.pin.clone()),
            OakRBuffer::value(self.map.store.clone(), y.hdr),
        ))
    }
}

// Stream scans (no per-entry objects): the fast path Figure 4e/4f contrast
// against the Set-API iterators above.
impl<C: KeyComparator> OakMap<C> {
    /// The one stream-scan body: drains `cursor` (either direction) into
    /// `f` under `rules`, counting the entries delivered.
    #[inline]
    fn stream_scan<'a, R: ScanRules>(
        &'a self,
        mut cursor: impl ScanCursor<'a>,
        rules: &R,
        mut f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<u64, R::Error> {
        let mut count: u64 = 0;
        let mut failure = None;
        cursor.drain(|kb, v| {
            if let Err(e) = rules.admit(count, self.pool()) {
                failure = Some(e);
                return false;
            }
            let read = match v {
                // Leased bytes are pre-resolved and lock-covered since
                // fill: no waiting, so nothing for a deadline to clamp.
                ValueView::Leased(vb) => Ok(f(kb, vb)),
                ValueView::Read(h) => self.store.read_at(h, rules.deadline(), |vb| f(kb, vb)),
            };
            match read {
                Ok(keep) => {
                    count += 1;
                    keep
                }
                Err(AccessError::Deleted) => true, // deleted under the scan: skip
                Err(AccessError::Contended(info)) => {
                    match rules.lock_lost(info, self.pool()) {
                        Ok(()) => true, // skip
                        Err(e) => {
                            failure = Some(e);
                            false
                        }
                    }
                }
            }
        });
        match failure {
            Some(e) => Err(e),
            None => Ok(count),
        }
    }

    /// Ascending zero-copy scan over `[lo, hi)` (unbounded where `None`):
    /// the *stream* API — no per-entry objects, `f` borrows key and value
    /// bytes directly. Returns entries visited; stops early when `f`
    /// returns `false`.
    ///
    /// # Writing from the callback
    ///
    /// While `f` runs, the scan holds read locks on the value it is showing
    /// and on the values it has snapshotted and not delivered yet (up to
    /// 127 of them), so `f` must not write to this map. Another thread's
    /// write to one of those values waits until the scan has delivered it;
    /// a write made *by `f`* to one of them can never get the lock. A
    /// budgeted write then fails as its budget says (`DeadlineExceeded`,
    /// `Contended`); an unbudgeted one (`put`, `remove`,
    /// `compute_if_present`, …), which would otherwise wait and retry for
    /// ever, **panics** with a message naming this cause once its first
    /// lock wait ([`OakMapConfig::lock_wait`](crate::OakMapConfig)) is
    /// given up. To update what a scan finds, collect the keys and write
    /// after it returns, or scan with [`iter_range`](OakMap::iter_range) /
    /// [`iter_descending`](OakMap::iter_descending), which hold no lock
    /// between entries.
    pub fn for_each_in(
        &self,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> usize {
        let Ok(n) = self.stream_scan(AscendCursor::new_stream(self, lo, hi), &Unbounded, f);
        n as usize
    }

    /// Budgeted ascending stream scan: like
    /// [`for_each_in`](OakMap::for_each_in) but cooperative — the deadline
    /// is checked periodically, header-lock waits are clamped by it, and
    /// the degraded-mode controller may shed the scan once it has visited
    /// [`OverloadConfig::degraded_scan_limit`](crate::OverloadConfig)
    /// entries. Returns the entries visited, or the typed budget error
    /// ([`OakError::DeadlineExceeded`](crate::OakError), `Overloaded`, or
    /// `Contended`). Entries already handed to `f` stay handed — shedding
    /// is a truncation, never a rollback. `f` must not write to this map
    /// (see [`for_each_in`](OakMap::for_each_in), "Writing from the
    /// callback"): the budget bounds the scan's own waits, not a write `f`
    /// makes.
    pub fn for_each_in_budgeted(
        &self,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        budget: &crate::OpBudget,
        f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<u64, crate::OakError> {
        let rules = Budgeted::start(budget, self.pool(), &self.overload, || {
            self.overload.state()
        })?;
        self.stream_scan(AscendCursor::new_stream(self, lo, hi), &rules, f)
    }

    /// Descending stream scan (no per-entry objects). Returns entries
    /// visited; stops early when `f` returns `false`. `f` must not write
    /// to this map (see [`for_each_in`](OakMap::for_each_in), "Writing from
    /// the callback").
    pub fn for_each_descending(
        &self,
        from: Option<&[u8]>,
        lo: Option<&[u8]>,
        f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> usize {
        let Ok(n) = self.stream_scan(DescendIter::new_stream(self, from, lo), &Unbounded, f);
        n as usize
    }
}
