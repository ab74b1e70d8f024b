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
//! * **Batch mode** (default): the cursor snapshots a chunk's sorted live
//!   entries into a reusable on-heap buffer in one linked-list pass —
//!   one staleness check per *chunk-batch* (replacement pointer plus
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
//! Both modes satisfy the same §1.1 contract: every entry in a batch is
//! read point-in-time during the snapshot walk, which is exactly what the
//! per-entry walker could observe under some interleaving; liveness is
//! still judged per yielded entry via the shared value-header state.

use std::sync::Arc;

use oak_mempool::{HeaderRef, ScanLock, SliceRef};

use crate::buffer::OakRBuffer;
use crate::chunk::{BatchEntry, Chunk, NONE};
use crate::cmp::KeyComparator;
use crate::map::OakMap;
use crate::reclaim::EpochPin;

/// Entries snapshotted per ascending batch refill. Bounds the reusable
/// buffer (and the staleness window of a snapshot) while still amortizing
/// the per-chunk checks over enough entries that they vanish from the
/// per-entry cost. Descending scans need the highest keys first, so they
/// bound their snapshot from the top instead: a *tail window* starting at
/// most this many prefix cells below the upper bound.
const SCAN_BATCH: usize = 128;

/// How a batch drain delivers one entry's value to the visit closure.
pub(crate) enum ValueView<'a> {
    /// The bytes, delivered under the batch's fill-time read-lock lease:
    /// no per-entry lock acquisition or address translation remains.
    Leased(&'a [u8]),
    /// No lease (Set-API cursor, or a writer was active at fill time):
    /// read through the value store's waiting path.
    Read(HeaderRef),
}

/// Shared ascending walker over live entries.
///
/// One copy of the hop / dedup / hi-bound / replacement-chase logic, used
/// by both the Set-API [`EntryIter`] and the zero-copy stream scan
/// ([`OakMap::for_each_in`]) so scan fixes land once.
pub(crate) struct AscendCursor<'a, C: KeyComparator> {
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
    pin: Arc<EpochPin>,
    /// Batch mode on (`OakMapConfig::batch_scan`)?
    batch_mode: bool,
    /// Stream-drain cursors take each entry's value read lock at fill
    /// time (a bounded lease, retired as each entry is delivered — an
    /// early-stopped scan's undrained tail releases at refill/drop), so
    /// the drain delivers pre-resolved bytes with no lock waits. Off for
    /// Set-API cursors, whose consumers read values at their own pace.
    locked_scan: bool,
    /// Reusable snapshot buffer: live entries of the current chunk-batch
    /// in ascending order, key addresses resolved at fill time. Capacity
    /// survives refills, so a whole scan allocates O(1) buffers.
    batch: Vec<BatchEntry>,
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
    /// Set-API cursor: values are read by the consumer at its own pace,
    /// so no fill-time leases are taken (an iterator may be held
    /// indefinitely, and a lease would block writers for that long).
    pub(crate) fn new(map: &'a OakMap<C>, lo: Option<&[u8]>, hi: Option<&[u8]>) -> Self {
        Self::with_mode(map, lo, hi, false)
    }

    /// Stream-drain cursor: bounded-lifetime scans
    /// ([`OakMap::for_each_in`] and friends) take fill-time value leases
    /// — see [`Self::locked_scan`].
    pub(crate) fn new_stream(map: &'a OakMap<C>, lo: Option<&[u8]>, hi: Option<&[u8]>) -> Self {
        Self::with_mode(map, lo, hi, true)
    }

    fn with_mode(
        map: &'a OakMap<C>,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        locked_scan: bool,
    ) -> Self {
        // Pin *before* locating: the safety argument needs the
        // unreplaced-observation of every entered chunk to happen pinned.
        let pin = Arc::new(map.reclaim.pin());
        let chunk = match lo {
            Some(k) => map.locate_chunk(k),
            None => map.first_chunk(),
        };
        let entry = match lo {
            Some(k) => chunk.lower_bound(map.pool(), &map.cmp, k),
            None => chunk.head_entry(),
        };
        let mut cursor = AscendCursor {
            map,
            chunk: Some(chunk.clone()),
            entry,
            lo: lo.map(|l| l.into()),
            hi: hi.map(|h| h.into()),
            last_key: None,
            resumed: false,
            pin,
            batch_mode: map.config.batch_scan,
            locked_scan,
            batch: Vec::new(),
            batch_pos: 0,
            batch_rev: 0,
            tail_done: false,
        };
        if cursor.batch_mode {
            cursor.fill_batch(chunk, entry, None);
        }
        cursor
    }

    /// Releases every fill-time value lease still parked in the batch
    /// buffer. Tokens are zeroed, so release is exactly-once even though
    /// both refill and drop call here.
    fn release_batch_locks(&mut self) {
        if !self.locked_scan {
            return;
        }
        let store = self.map.value_store();
        for e in &mut self.batch {
            if e.hbase != 0 {
                // SAFETY: the token was minted by `scan_lock` during this
                // batch's fill and the read lock is still held.
                unsafe { store.scan_unlock(e.hbase) };
                e.hbase = 0;
            }
        }
    }

    /// Snapshots up to [`SCAN_BATCH`] live entries of `chunk` into the
    /// reusable buffer, starting at entry `start` and skipping entries ≤
    /// `strict_after`. Applies the chunk-range fast path: when the
    /// successor chunk's `min_key` is ≤ `hi`, the chunk invariant
    /// (entries < successor `min_key`) already proves every entry in
    /// range, so the snapshot walk performs zero per-entry bound checks.
    fn fill_batch(&mut self, chunk: Arc<Chunk>, start: u32, strict_after: Option<&[u8]>) {
        self.release_batch_locks();
        let map = self.map;
        let pool = map.pool();
        if self.batch.capacity() > 0 {
            pool.note_scan_buffer_reuse();
        }
        self.batch.clear();
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
        let store = map.value_store();
        let locked = self.locked_scan;
        let (resume, bounded) = chunk.collect_batch(
            pool,
            &map.cmp,
            start,
            strict_after,
            hi_opt,
            SCAN_BATCH,
            |h| {
                if locked {
                    // Fill-time lease: independent CASes pipeline across
                    // the snapshot walk; the drain then delivers payload
                    // bytes with no per-entry lock traffic. A header a
                    // writer holds right now degrades that one entry to
                    // the waiting read path at drain time.
                    match store.scan_lock(h) {
                        ScanLock::Held { hbase, vptr, vlen } => Some((hbase, vptr, vlen)),
                        ScanLock::Contended => Some((0, 0, 0)),
                        ScanLock::Dead => None,
                    }
                } else if store.is_deleted(h) {
                    None
                } else {
                    Some((0, 0, 0))
                }
            },
            &mut self.batch,
        );
        self.entry = resume;
        if bounded {
            self.tail_done = true;
        }
        pool.note_scan_chunk_batch();
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
        // The resume/dedup bound: the last key the drained batch yielded.
        if let Some(&BatchEntry { key: lk, .. }) = self.batch.last() {
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
            match self.last_key {
                Some(lk) => {
                    // SAFETY: key buffers are immutable; `lk` is pinned.
                    let lb = unsafe { map.pool().slice(lk) };
                    let c = map.locate_chunk(lb);
                    let e = c.lower_bound(map.pool(), &map.cmp, lb);
                    self.fill_batch(c, e, Some(lb));
                }
                None => {
                    let (c, e) = match self.lo.take() {
                        Some(l) => {
                            let c = map.locate_chunk(&l);
                            let e = c.lower_bound(map.pool(), &map.cmp, &l);
                            self.lo = Some(l);
                            (c, e)
                        }
                        None => {
                            let c = map.first_chunk();
                            let e = c.head_entry();
                            (c, e)
                        }
                    };
                    self.fill_batch(c, e, None);
                }
            }
            return;
        }
        if self.entry != NONE {
            // Same chunk, next slice of a capped snapshot: the resume
            // index still names the same immutable key, so no bound
            // needed.
            self.fill_batch(chunk, self.entry, None);
            return;
        }
        // Chunk exhausted: hop to the successor, resolving replacement
        // chains.
        let Some(mut n) = chunk.next_chunk() else {
            self.chunk = None;
            return;
        };
        while let Some(r) = n.replacement() {
            n = r.clone();
        }
        match self.last_key {
            Some(lk) => {
                // SAFETY: key buffers are immutable; `lk` is pinned.
                let lb = unsafe { map.pool().slice(lk) };
                let e = n.lower_bound(map.pool(), &map.cmp, lb);
                self.fill_batch(n, e, Some(lb));
            }
            None => {
                let e = n.head_entry();
                self.fill_batch(n, e, None);
            }
        }
    }

    /// Batch-mode advance: drain the buffer, refilling between batches.
    fn next_batch(&mut self) -> Option<(SliceRef, HeaderRef)> {
        loop {
            if self.batch_pos < self.batch.len() {
                oak_failpoints::sync_point!("iter/batch-step");
                let item = self.batch[self.batch_pos];
                self.batch_pos += 1;
                return Some((item.key, item.hdr));
            }
            if self.tail_done || self.chunk.is_none() {
                self.chunk = None;
                return None;
            }
            self.refill_batch();
        }
    }

    /// Bulk drain: feeds every remaining live entry to `f` as resolved
    /// key bytes plus a [`ValueView`], until `f` returns `false` or the
    /// scan ends. Equivalent to repeated [`next`](Self::next), but a
    /// whole batch span is walked inline — no per-entry cursor dispatch,
    /// no per-entry key translation, and (on a stream cursor) no
    /// per-entry lock traffic: leased entries hand out the payload bytes
    /// resolved at fill time, still covered by the fill-time read lock.
    pub(crate) fn drain(&mut self, mut f: impl FnMut(&[u8], ValueView<'_>) -> bool) {
        if !self.batch_mode {
            while let Some((kref, h)) = self.next() {
                // SAFETY: key buffers are immutable; `kref` is pinned.
                let kb = unsafe { self.map.pool().slice(kref) };
                if !f(kb, ValueView::Read(h)) {
                    return;
                }
            }
            return;
        }
        let store = self.map.value_store();
        loop {
            while self.batch_pos < self.batch.len() {
                oak_failpoints::sync_point!("iter/batch-step");
                let item = self.batch[self.batch_pos];
                self.batch_pos += 1;
                // SAFETY: the cursor's epoch pin is held for its lifetime.
                let kb = unsafe { item.key_bytes() };
                let keep = if item.hbase != 0 {
                    oak_failpoints::fail_point!("value/read");
                    // SAFETY: the fill-time read lock is still held, so the
                    // payload cannot be torn, resized, or freed under the
                    // callback.
                    let vb: &[u8] = if item.vlen == 0 {
                        &[]
                    } else {
                        unsafe {
                            std::slice::from_raw_parts(item.vptr as *const u8, item.vlen as usize)
                        }
                    };
                    let keep = f(kb, ValueView::Leased(vb));
                    // Retire the lease the moment the callback returns:
                    // a writer is blocked for one delivery at most, never
                    // a whole batch drain (a paused scan must not wedge
                    // concurrent removes).
                    // SAFETY: minted by this batch's fill, still held.
                    unsafe { store.scan_unlock(item.hbase) };
                    self.batch[self.batch_pos - 1].hbase = 0;
                    keep
                } else {
                    f(kb, ValueView::Read(item.hdr))
                };
                if !keep {
                    return;
                }
            }
            if self.tail_done || self.chunk.is_none() {
                self.chunk = None;
                return;
            }
            self.refill_batch();
        }
    }

    /// The chunk under us was frozen and replaced by a concurrent
    /// rebalance: re-locate the live chunk covering the resume point and
    /// re-position there (the `last_key` dedup keeps already-yielded keys
    /// from repeating when the replacement's range overlaps what we
    /// covered).
    fn reposition(&mut self) {
        let map = self.map;
        let (chunk, entry) = match self.last_key {
            Some(lk) => {
                // SAFETY: key buffers are immutable and never freed.
                let lb = unsafe { map.pool().slice(lk) };
                let c = map.locate_chunk(lb);
                let e = c.lower_bound(map.pool(), &map.cmp, lb);
                (c, e)
            }
            None => match &self.lo {
                Some(l) => {
                    let c = map.locate_chunk(l);
                    let e = c.lower_bound(map.pool(), &map.cmp, l);
                    (c, e)
                }
                None => {
                    let c = map.first_chunk();
                    let e = c.head_entry();
                    (c, e)
                }
            },
        };
        self.entry = entry;
        self.chunk = Some(chunk);
        self.resumed = true;
    }

    /// Advances to the next live entry, returning raw references.
    pub(crate) fn next(&mut self) -> Option<(SliceRef, HeaderRef)> {
        if self.batch_mode {
            return self.next_batch();
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
                self.reposition();
                continue;
            }
            if self.entry == NONE {
                // Hop to the next chunk, resolving replacement chains.
                oak_failpoints::sync_point!("iter/ascend-hop");
                oak_failpoints::fail_point!("iter/ascend-hop");
                let Some(mut n) = chunk.next_chunk() else {
                    self.chunk = None;
                    return None;
                };
                while let Some(r) = n.replacement() {
                    n = r.clone();
                }
                self.entry = match self.last_key {
                    Some(lk) => {
                        let lb = unsafe { self.map.pool().slice(lk) };
                        n.lower_bound(self.map.pool(), &self.map.cmp, lb)
                    }
                    None => n.head_entry(),
                };
                self.chunk = Some(n);
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
                if let Some(lk) = self.last_key {
                    // SAFETY: key buffers are immutable; `lk` is pinned.
                    let lb = unsafe { pool.slice(lk) };
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
            if self.map.value_store().is_deleted(h) {
                continue;
            }
            self.last_key = Some(chunk.key_ref(idx));
            return Some((chunk.key_ref(idx), h));
        }
    }
}

impl<C: KeyComparator> Drop for AscendCursor<'_, C> {
    fn drop(&mut self) {
        // An early-stopped scan's undrained tail still holds its
        // fill-time leases; retire them here.
        self.release_batch_locks();
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

    /// Advances to the next live entry, returning raw references.
    pub(crate) fn next_raw(&mut self) -> Option<(SliceRef, HeaderRef)> {
        self.cursor.next()
    }
}

impl<C: KeyComparator> Iterator for EntryIter<'_, C> {
    type Item = (OakRBuffer, OakRBuffer);

    fn next(&mut self) -> Option<Self::Item> {
        let (kref, h) = self.next_raw()?;
        Some((
            OakRBuffer::key(
                self.cursor.map.pool().clone(),
                kref,
                self.cursor.pin.clone(),
            ),
            OakRBuffer::value(self.cursor.map.value_store().clone(), h),
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
    pending: Option<(SliceRef, HeaderRef)>,
    done: bool,
    /// Lifetime epoch pin (see [`AscendCursor::pin`]).
    pin: Arc<EpochPin>,
    /// Batch mode on (`OakMapConfig::batch_scan`)?
    batch_mode: bool,
    /// Fill-time value leases on (see [`AscendCursor::locked_scan`]).
    locked_scan: bool,
    /// Reusable snapshot buffer: a tail window of the current chunk's
    /// in-range live entries in *ascending* order, drained from the
    /// back. Descending scans need the highest keys first, so the
    /// [`SCAN_BATCH`] cap bounds the window's start *below the upper
    /// bound* (see [`Self::window_more`]).
    batch: Vec<BatchEntry>,
    /// Elements of `batch` not yet drained (drain position counts down).
    rpos: usize,
    /// The chunk's revision stamp when `batch` was snapshotted.
    batch_rev: u64,
    /// The current batch is a capped *tail window* of the chunk: in-range
    /// entries below [`Self::window_bound`] were deliberately left
    /// uncollected, and the refill must re-enter this chunk (bound
    /// tightened) instead of hopping to the predecessor.
    window_more: bool,
    /// The key of the prefix cell the capped snapshot started from
    /// (pinned, like `last_yielded`): the next window's exclusive upper
    /// bound. Everything at or above it was already examined.
    window_bound: Option<SliceRef>,
    /// This chunk covers the scan's lower end: once `batch` drains the
    /// scan is over, no predecessor hop needed.
    tail_done: bool,
}

impl<'a, C: KeyComparator> DescendIter<'a, C> {
    /// Set-API iterator: no fill-time leases (see [`AscendCursor::new`]).
    pub(crate) fn new(map: &'a OakMap<C>, from: Option<&[u8]>, lo: Option<&[u8]>) -> Self {
        Self::with_mode(map, from, lo, false)
    }

    /// Stream-drain iterator: fill-time value leases on.
    pub(crate) fn new_stream(map: &'a OakMap<C>, from: Option<&[u8]>, lo: Option<&[u8]>) -> Self {
        Self::with_mode(map, from, lo, true)
    }

    fn with_mode(
        map: &'a OakMap<C>,
        from: Option<&[u8]>,
        lo: Option<&[u8]>,
        locked_scan: bool,
    ) -> Self {
        let pin = Arc::new(map.reclaim.pin());
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
            locked_scan,
            batch: Vec::new(),
            rpos: 0,
            batch_rev: 0,
            window_more: false,
            window_bound: None,
            tail_done: false,
        };
        let chunk = it.start_chunk(from);
        if it.batch_mode {
            it.enter_chunk_batch(chunk, from.map(|f| (f, true)));
        } else {
            it.enter_chunk(chunk, from, true);
        }
        it
    }

    /// Releases every fill-time value lease still parked in the batch
    /// buffer (see [`AscendCursor::release_batch_locks`]).
    fn release_batch_locks(&mut self) {
        if !self.locked_scan {
            return;
        }
        let store = self.map.value_store();
        for e in &mut self.batch {
            if e.hbase != 0 {
                // SAFETY: the token was minted by `scan_lock` during this
                // batch's fill and the read lock is still held.
                unsafe { store.scan_unlock(e.hbase) };
                e.hbase = 0;
            }
        }
    }

    /// Snapshots `chunk`'s in-range live entries (ascending) into the
    /// reusable buffer. `ub` is the batch's upper bound
    /// `(key, inclusive)` — the scan start, the predecessor hop's
    /// exclusive old `min_key`, or the strict revalidation bound; the
    /// lower end is positioned once via `lower_bound(lo)`, so the drain
    /// needs no per-entry `lo` checks.
    fn enter_chunk_batch(&mut self, chunk: Arc<Chunk>, ub: Option<(&[u8], bool)>) {
        self.release_batch_locks();
        let map = self.map;
        let pool = map.pool();
        if self.batch.capacity() > 0 {
            pool.note_scan_buffer_reuse();
        }
        self.batch.clear();
        self.batch_rev = chunk.revision();
        let mut start = match &self.lo {
            Some(l) => chunk.lower_bound(pool, &map.cmp, l),
            None => chunk.head_entry(),
        };
        // Tail-window cap: the drain needs the *highest* in-range keys
        // first, and a capped stream scan (the common case) may never
        // reach the low end — snapshotting (and leasing) the whole
        // in-range chunk would waste collection work on entries the
        // drain never delivers. Start at most [`SCAN_BATCH`] prefix
        // cells below the upper bound instead (bypass runs between the
        // cells only widen the window); a drained window re-enters this
        // chunk with the bound tightened to its start cell.
        self.window_more = false;
        self.window_bound = None;
        let sc = chunk.sorted_count();
        if start != NONE && start < sc {
            let top = match ub {
                Some((b, inclusive)) => {
                    // Count of prefix cells within the upper bound.
                    let bound = chunk.probe(pool, &map.cmp, b);
                    let (mut a, mut z) = (0i64, sc as i64);
                    while a < z {
                        let mid = (a + z) / 2;
                        let below = match bound.cmp_entry(mid as u32) {
                            std::cmp::Ordering::Less => true,
                            std::cmp::Ordering::Equal => inclusive,
                            std::cmp::Ordering::Greater => false,
                        };
                        if below {
                            a = mid + 1;
                        } else {
                            z = mid;
                        }
                    }
                    a
                }
                None => sc as i64,
            };
            let capped = top - SCAN_BATCH as i64;
            if capped > start as i64 {
                start = capped as u32;
                self.window_more = true;
                self.window_bound = Some(chunk.key_ref(start));
            }
        }
        let store = map.value_store();
        let locked = self.locked_scan;
        chunk.collect_batch(
            pool,
            &map.cmp,
            start,
            None,
            ub,
            usize::MAX,
            |h| {
                if locked {
                    // Fill-time lease (see the ascending fill site).
                    match store.scan_lock(h) {
                        ScanLock::Held { hbase, vptr, vlen } => Some((hbase, vptr, vlen)),
                        ScanLock::Contended => Some((0, 0, 0)),
                        ScanLock::Dead => None,
                    }
                } else if store.is_deleted(h) {
                    None
                } else {
                    Some((0, 0, 0))
                }
            },
            &mut self.batch,
        );
        self.rpos = self.batch.len();
        pool.note_scan_chunk_batch();
        // Predecessor chunks hold keys < minKey; when minKey ≤ lo (or
        // this is the first chunk) they are all out of range. A capped
        // window is never the end: lower in-range entries remain here.
        self.tail_done = !self.window_more
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
            match self.last_yielded {
                Some(lk) => {
                    // SAFETY: key buffers are immutable; `lk` is pinned.
                    let lb = unsafe { map.pool().slice(lk) };
                    let live = map.locate_chunk(lb);
                    self.enter_chunk_batch(live, Some((lb, false)));
                }
                None => {
                    // Nothing yielded yet: redo the initial positioning.
                    let from = self.from.take();
                    let chunk = self.start_chunk(from.as_deref());
                    self.enter_chunk_batch(chunk, from.as_deref().map(|f| (f, true)));
                    self.from = from;
                }
            }
            return;
        }
        if self.window_more {
            // The capped tail window drained; lower in-range entries of
            // this same chunk remain. Re-enter strictly below the
            // window's start cell — everything at or above it was
            // examined (live entries delivered, dead ones skipped; a
            // concurrent revive of a dead one counts as an insert after
            // the scan start, which §1.1 lets us miss).
            let wb = self
                .window_bound
                .expect("a capped fill records its start key");
            // SAFETY: key buffers are immutable; `wb` is pinned.
            let bb = unsafe { map.pool().slice(wb) };
            self.enter_chunk_batch(chunk, Some((bb, false)));
            return;
        }
        if chunk.min_key.is_empty() {
            self.chunk = None; // the first chunk has no predecessor
            return;
        }
        let prev = map.index.floor_before(&chunk.min_key);
        // Everything ≥ old minKey was already returned: bound strictly.
        self.enter_chunk_batch(prev, Some((&chunk.min_key, false)));
    }

    /// Batch-mode advance: drain the buffer back-to-front, refilling
    /// between chunks.
    fn next_batch(&mut self) -> Option<(SliceRef, HeaderRef)> {
        loop {
            if self.rpos > 0 {
                oak_failpoints::sync_point!("iter/batch-step");
                let item = self.batch[self.rpos - 1];
                self.rpos -= 1;
                self.last_yielded = Some(item.key);
                return Some((item.key, item.hdr));
            }
            if self.tail_done || self.chunk.is_none() {
                self.done = true;
                return None;
            }
            self.refill_batch();
        }
    }

    /// Bulk drain (descending): see [`AscendCursor::drain`]. Honors a
    /// parked [`skip_exact`](Self::skip_exact) lookahead first.
    pub(crate) fn drain(&mut self, mut f: impl FnMut(&[u8], ValueView<'_>) -> bool) {
        if let Some((kref, h)) = self.pending.take() {
            // SAFETY: key buffers are immutable; `kref` is pinned.
            let kb = unsafe { self.map.pool().slice(kref) };
            if !f(kb, ValueView::Read(h)) {
                return;
            }
        }
        if self.done {
            return;
        }
        if !self.batch_mode {
            while let Some((kref, h)) = self.next_raw() {
                // SAFETY: key buffers are immutable; `kref` is pinned.
                let kb = unsafe { self.map.pool().slice(kref) };
                if !f(kb, ValueView::Read(h)) {
                    return;
                }
            }
            return;
        }
        let store = self.map.value_store();
        loop {
            while self.rpos > 0 {
                oak_failpoints::sync_point!("iter/batch-step");
                let item = self.batch[self.rpos - 1];
                self.rpos -= 1;
                self.last_yielded = Some(item.key);
                // SAFETY: the iterator's epoch pin is held for its
                // lifetime.
                let kb = unsafe { item.key_bytes() };
                let keep = if item.hbase != 0 {
                    oak_failpoints::fail_point!("value/read");
                    // SAFETY: the fill-time read lock is still held, so the
                    // payload cannot be torn, resized, or freed under the
                    // callback.
                    let vb: &[u8] = if item.vlen == 0 {
                        &[]
                    } else {
                        unsafe {
                            std::slice::from_raw_parts(item.vptr as *const u8, item.vlen as usize)
                        }
                    };
                    let keep = f(kb, ValueView::Leased(vb));
                    // Retire the lease the moment the callback returns
                    // (see the ascending drain).
                    // SAFETY: minted by this batch's fill, still held.
                    unsafe { store.scan_unlock(item.hbase) };
                    self.batch[self.rpos].hbase = 0;
                    keep
                } else {
                    f(kb, ValueView::Read(item.hdr))
                };
                if !keep {
                    return;
                }
            }
            if self.tail_done || self.chunk.is_none() {
                self.done = true;
                return;
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
    /// `bound` (or < when `inclusive` is false; unbounded when `None`).
    fn enter_chunk(&mut self, chunk: Arc<Chunk>, bound: Option<&[u8]>, inclusive: bool) {
        let pool = self.map.pool();
        let cmp = &self.map.cmp;
        self.stack.clear();
        // The bound, probed once per chunk entry: the cell search and the
        // in-bound walk compare cached prefixes first, dereferencing
        // off-heap key bytes only on ties.
        let bound = bound.map(|b| chunk.probe(pool, cmp, b));

        let in_bound = |idx: u32| match &bound {
            None => true,
            Some(b) => match b.cmp_entry(idx) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => inclusive,
                std::cmp::Ordering::Greater => false,
            },
        };

        // The starting prefix cell: the last prefix entry within bound.
        // (prefix_floor is inclusive-≤; adjust for the exclusive case by
        // walking with `in_bound` below anyway.)
        let start = match &bound {
            Some(b) => {
                // Largest prefix index with key ≤ b; may still be out of
                // bound in the exclusive case — in_bound filters.
                let n = chunk.sorted_count() as i64;
                let (mut a, mut z) = (0i64, n);
                while a < z {
                    let mid = (a + z) / 2;
                    if b.cmp_entry(mid as u32) == std::cmp::Ordering::Greater {
                        z = mid;
                    } else {
                        a = mid + 1;
                    }
                }
                a - 1
            }
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

    /// The chunk under us was frozen and replaced by a concurrent
    /// rebalance (the stack and bypass links are a stale snapshot): chase
    /// to the live chunk covering the resume point and rebuild the stack,
    /// bounded strictly below the last yielded key so no key repeats.
    fn reposition(&mut self) {
        self.chunk = None;
        match self.last_yielded {
            Some(lk) => {
                let map = self.map;
                // SAFETY: key buffers are immutable and never freed.
                let lb = unsafe { map.pool().slice(lk) };
                let live = map.locate_chunk(lb);
                self.enter_chunk(live, Some(lb), false);
            }
            None => {
                // Nothing yielded yet: redo the initial positioning.
                let from = self.from.clone();
                let chunk = self.start_chunk(from.as_deref());
                self.enter_chunk(chunk, from.as_deref(), true);
            }
        }
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
                if !self.stack.is_empty() {
                    return true;
                }
                return false;
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

    /// Moves to the chunk preceding the current one (index query for the
    /// greatest `minKey` strictly smaller — §4.2).
    fn prev_chunk(&mut self) -> bool {
        oak_failpoints::sync_point!("iter/descend-prev");
        oak_failpoints::fail_point!("iter/descend-prev");
        let Some(chunk) = self.chunk.take() else {
            return false;
        };
        if chunk.min_key.is_empty() {
            return false; // the first chunk has no predecessor
        }
        let prev = self.map.index.floor_before(&chunk.min_key);
        // Everything ≥ old minKey was already returned: bound strictly.
        let bound = chunk.min_key.clone();
        self.enter_chunk(prev, Some(&bound), false);
        true
    }

    /// Drops the next entry if its key is exactly `key` (used by bounded
    /// views whose upper bound is exclusive).
    pub(crate) fn skip_exact(&mut self, key: &[u8]) {
        if let Some((kref, h)) = self.next_raw() {
            let kb = unsafe { self.map.pool().slice(kref) };
            if self.map.cmp.compare(kb, key) != std::cmp::Ordering::Equal {
                self.pending = Some((kref, h));
            }
        }
    }

    /// Next raw live entry in descending order.
    pub(crate) fn next_raw(&mut self) -> Option<(SliceRef, HeaderRef)> {
        if let Some(item) = self.pending.take() {
            return Some(item);
        }
        if self.done {
            return None;
        }
        if self.batch_mode {
            return self.next_batch();
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
            if self.map.value_store().is_deleted(h) {
                continue;
            }
            self.last_yielded = Some(chunk.key_ref(idx));
            return Some((chunk.key_ref(idx), h));
        }
    }
}

impl<C: KeyComparator> Drop for DescendIter<'_, C> {
    fn drop(&mut self) {
        // An early-stopped scan's undrained tail still holds its
        // fill-time leases; retire them here.
        self.release_batch_locks();
    }
}

impl<C: KeyComparator> Iterator for DescendIter<'_, C> {
    type Item = (OakRBuffer, OakRBuffer);

    fn next(&mut self) -> Option<Self::Item> {
        let (kref, h) = self.next_raw()?;
        Some((
            OakRBuffer::key(self.map.pool().clone(), kref, self.pin.clone()),
            OakRBuffer::value(self.map.value_store().clone(), h),
        ))
    }
}

// Stream scans (no per-entry objects): the fast path Figure 4e/4f contrast
// against the Set-API iterators above.
impl<C: KeyComparator> OakMap<C> {
    /// Ascending zero-copy scan over `[lo, hi)` (unbounded where `None`):
    /// the *stream* API — no per-entry objects, `f` borrows key and value
    /// bytes directly. Returns entries visited; stops early when `f`
    /// returns `false`.
    pub fn for_each_in(
        &self,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        mut f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> usize {
        let mut count = 0;
        let mut cursor = AscendCursor::new_stream(self, lo, hi);
        cursor.drain(|kb, v| match v {
            // Leased bytes are pre-resolved and lock-covered since fill.
            ValueView::Leased(vb) => {
                count += 1;
                f(kb, vb)
            }
            ValueView::Read(h) => match self.value_store().read(h, |vb| f(kb, vb)) {
                Ok(keep) => {
                    count += 1;
                    keep
                }
                Err(_) => true, // deleted under the iterator: skip
            },
        });
        count
    }

    /// Budgeted ascending stream scan: like
    /// [`for_each_in`](OakMap::for_each_in) but cooperative — the deadline
    /// is checked periodically, header-lock waits are clamped by it, and
    /// the degraded-mode controller may shed the scan once it has visited
    /// [`OverloadConfig::degraded_scan_limit`](crate::OverloadConfig)
    /// entries. Returns the entries visited, or the typed budget error
    /// ([`OakError::DeadlineExceeded`](crate::OakError), `Overloaded`, or
    /// `Contended`). Entries already handed to `f` stay handed — shedding
    /// is a truncation, never a rollback.
    pub fn for_each_in_budgeted(
        &self,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        budget: &crate::OpBudget,
        mut f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<u64, crate::OakError> {
        use crate::overload::OverloadState;
        /// Entries between deadline checks: cheap enough to keep overrun
        /// small, coarse enough to keep `Instant::now` off the per-entry
        /// path.
        const SCAN_CHECK_INTERVAL: u64 = 64;
        budget.check(self.pool())?;
        let shed_after = match self.overload.state() {
            OverloadState::Healthy => u64::MAX,
            OverloadState::Degraded | OverloadState::Critical => {
                let limit = self.overload.config().degraded_scan_limit;
                if limit == 0 {
                    u64::MAX
                } else {
                    limit
                }
            }
        };
        let mut count: u64 = 0;
        let mut failure: Option<crate::OakError> = None;
        let mut cursor = AscendCursor::new_stream(self, lo, hi);
        cursor.drain(|kb, v| {
            if count >= shed_after {
                self.pool().note_scan_shed();
                failure = Some(crate::OakError::Overloaded);
                return false;
            }
            if count > 0 && count.is_multiple_of(SCAN_CHECK_INTERVAL) && budget.expired() {
                self.pool().note_deadline_exceeded();
                failure = Some(crate::OakError::DeadlineExceeded);
                return false;
            }
            match v {
                // Leased bytes involve no waiting, so the deadline cannot
                // clamp anything — deliver directly.
                ValueView::Leased(vb) => {
                    count += 1;
                    f(kb, vb)
                }
                ValueView::Read(h) => {
                    match self
                        .value_store()
                        .read_at(h, budget.deadline, |vb| f(kb, vb))
                    {
                        Ok(keep) => {
                            count += 1;
                            keep
                        }
                        Err(oak_mempool::AccessError::Deleted) => true, // skip
                        Err(oak_mempool::AccessError::Contended(info)) => {
                            if budget.expired() {
                                self.pool().note_deadline_exceeded();
                                failure = Some(crate::OakError::DeadlineExceeded);
                            } else {
                                failure = Some(crate::OakError::Contended(info));
                            }
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

    /// Descending stream scan (no per-entry objects). Returns entries
    /// visited; stops early when `f` returns `false`.
    pub fn for_each_descending(
        &self,
        from: Option<&[u8]>,
        lo: Option<&[u8]>,
        mut f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> usize {
        let mut count = 0;
        let mut it = DescendIter::new_stream(self, from, lo);
        it.drain(|kb, v| match v {
            // Leased bytes are pre-resolved and lock-covered since fill.
            ValueView::Leased(vb) => {
                count += 1;
                f(kb, vb)
            }
            ValueView::Read(h) => match self.value_store().read(h, |vb| f(kb, vb)) {
                Ok(keep) => {
                    count += 1;
                    keep
                }
                Err(_) => true, // deleted under the iterator: skip
            },
        });
        count
    }
}
