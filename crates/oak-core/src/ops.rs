//! Query and update operations: the paper's three bodies — `get`
//! (Algorithm 1), `doPut` (Algorithm 2) and `doIfPresent` (Algorithm 3) —
//! with their retry loops, help paths and linearization points.
//!
//! [`map`](crate::map) holds the public shell and construction;
//! [`index`](crate::index) resolves keys to chunks. Every public point
//! operation here, budgeted, copying or plain, is a one-line call into one
//! of the three bodies and differs only in the `PutOp` / `PresentOp` and
//! the `deadline: Option<Instant>` it passes (`None` from a plain entry
//! point).
//!
//! Every retry loop consults the deadline at the top of each attempt —
//! before the attempt allocates or publishes anything — and ends every
//! wait at it: header locks and rebalance engagement. Without one a
//! header-lock wait lasts until the lock is free; with one an injected
//! fault is retried at once until it passes ([`budget`](crate::budget)).
//!
//! Every attempt opens the same way and writes no cache line another
//! thread uses on its way to the value: one *borrowed* quarantine pin (the
//! thread's own stripe, [`reclaim`](crate::reclaim)), under which
//! [`ChunkIndex::locate`] *lends* the chunk — no reference count moves
//! ([`index`](crate::index), "Borrowed location") — and the chunk's keys
//! are read. Whatever may rebalance or reclaim runs unpinned: those paths
//! clone the chunk out of the borrow and give the pin up first
//! ([`OakMap::rebalance_borrowed`], `recover_or_err`).
//!
//! [`ChunkIndex::locate`]: crate::index::ChunkIndex::locate

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oak_mempool::{AccessError, AllocClass, AllocError, HeaderRef, SliceRef};
use oak_sync::reclaim::Reclaim;

use crate::budget;
use crate::buffer::{OakRBuffer, OakWBuffer};
use crate::chunk::{Chunk, LinkOutcome};
use crate::cmp::KeyComparator;
use crate::error::OakError;
use crate::map::OakMap;
use crate::reclaim::{LendKeys, OpPin};

/// Emergency-reclamation retries per operation: one allocation failure may
/// be recovered per allocation site an operation has (key + value).
const OOM_RECOVER_BUDGET: u32 = 2;

/// How long an unbudgeted write waits for a value lock while its own
/// thread's stream scan holds read leases: a wait that may be for itself
/// and then could never end. Far beyond any legitimate hold time (a writer
/// copies or computes one bounded payload).
const SELF_WAIT_GUARD: Duration = Duration::from_secs(2);

/// The deadline of a write's value-lock wait: the caller's. Without one
/// the wait lasts until the lock is free — unless this thread is inside a
/// stream-scan callback, whose scan may lease the very value: then
/// [`SELF_WAIT_GUARD`] from now, and `recover_or_err` panics if it passes.
#[inline]
fn write_deadline(deadline: Option<Instant>) -> Option<Instant> {
    if deadline.is_none() && crate::iter::leases_held() > 0 {
        return Some(Instant::now() + SELF_WAIT_GUARD);
    }
    deadline
}

/// Which insertion operation `do_put` is executing (Algorithm 2).
enum PutOp<'f> {
    Put,
    /// `put` that also hands back a copy of the value it replaced (the
    /// legacy `ConcurrentNavigableMap.put` shape): read and overwritten
    /// under one hold of the header write lock.
    Replace(&'f mut Option<Vec<u8>>),
    PutIfAbsent,
    /// `putIfAbsentComputeIfPresent` with its compute lambda.
    Compute(&'f dyn Fn(&mut OakWBuffer<'_>)),
}

/// Which non-insertion operation `do_if_present` is executing (Algorithm 3).
enum PresentOp<'f> {
    Compute(&'f dyn Fn(&mut OakWBuffer<'_>)),
    Remove,
    /// `remove` that also hands back a copy of the removed value (the
    /// legacy `ConcurrentNavigableMap.remove` shape), copied under the same
    /// hold of the header write lock that sets the deleted bit.
    RemoveReturning(&'f mut Option<Vec<u8>>),
}

impl<C: KeyComparator> OakMap<C> {
    /// `locateChunk(key)` for a point operation: the chunk is lent for the
    /// borrow of the operation's pin.
    #[inline(always)]
    fn locate<'p>(&'p self, key: &[u8], pin: &'p OpPin<'_>) -> &'p Arc<Chunk> {
        let c = self.index.locate(key, pin);
        oak_failpoints::sync_point!("ops/located");
        c
    }

    /// Rebalances a chunk an operation holds borrowed: `c` is the clone
    /// taken from the borrow, `pin` the pin it was borrowed under, given
    /// up before the rebalance may wait, freeze or reclaim. Returns
    /// `false` when the engage wait outlasted `deadline`.
    fn rebalance_borrowed(&self, c: Arc<Chunk>, pin: OpPin<'_>, deadline: Option<Instant>) -> bool {
        drop(pin);
        self.rebalance(&c, deadline)
    }

    // --- queries (Algorithm 1) -------------------------------------------

    /// The prologue both gets share: the reference of the value mapped to
    /// `key`, `None` for no entry or ⊥, located under the caller's pin.
    /// The chunk borrow ends here — a value header outlives its chunk.
    #[inline(always)]
    fn value_of(&self, pin: &OpPin<'_>, key: &[u8]) -> Option<HeaderRef> {
        let c = self.locate(key, pin);
        let ei = c.lookup(pin.keys(), &self.cmp, key)?;
        c.value_ref(ei)
    }

    /// Zero-copy get through a closure (Algorithm 1): applies `f` to the
    /// value bytes under the header read lock, waiting for a writer to
    /// finish. Returns `None` if absent.
    #[inline]
    pub fn get_with<R>(&self, key: &[u8], f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        // Pinned for the lookup only: the lock wait and `f` run unpinned.
        let h = self.value_of(&self.reclaim.pin(), key)?;
        // Without a deadline, a read fails only on a deletion.
        self.store.read(h, f).ok()
    }

    /// Budgeted zero-copy get: like [`get_with`](OakMap::get_with) but the
    /// header-lock wait ends at `deadline`, with
    /// [`OakError::DeadlineExceeded`].
    pub fn get_with_budgeted<R>(
        &self,
        key: &[u8],
        deadline: Instant,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<Option<R>, OakError> {
        let deadline = Some(deadline);
        budget::check(deadline, self.pool())?;
        let Some(h) = self.value_of(&self.reclaim.pin(), key) else {
            return Ok(None);
        };
        match self.store.read_at(h, deadline, f) {
            Ok(r) => Ok(Some(r)),
            Err(AccessError::Deleted) => Ok(None),
            Err(AccessError::TimedOut) => Err(budget::timed_out(self.pool())),
        }
    }

    /// Zero-copy get returning an [`OakRBuffer`] view (the ZC API's
    /// `get`). The buffer stays valid indefinitely; reads fail with
    /// [`OakError::ConcurrentModification`] after a concurrent remove.
    pub fn get(&self, key: &[u8]) -> Option<OakRBuffer> {
        let h = self.value_of(&self.reclaim.pin(), key)?;
        if self.store.is_deleted(h) {
            return None;
        }
        Some(OakRBuffer::value(self.store.clone(), h))
    }

    /// Copying get (the legacy API shape).
    pub fn get_copy(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.get_with(key, |b| b.to_vec())
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &[u8]) -> bool {
        self.get_with(key, |_| ()).is_some()
    }

    // --- insertion operations (Algorithm 2) -------------------------------

    /// Unconditionally associates `key` with `value` (ZC `put`: does not
    /// return the old value, §2.2).
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), OakError> {
        self.do_put(key, value, PutOp::Put, None).map(|_| ())
    }

    /// [`put`](OakMap::put) under a per-call deadline.
    pub fn put_budgeted(
        &self,
        key: &[u8],
        value: &[u8],
        deadline: Instant,
    ) -> Result<(), OakError> {
        self.do_put(key, value, PutOp::Put, Some(deadline))
            .map(|_| ())
    }

    /// [`put`](OakMap::put) that returns a copy of the value it replaced
    /// (`None`: this call inserted) — the legacy API's `V put(K, V)`.
    pub(crate) fn put_returning(
        &self,
        key: &[u8],
        value: &[u8],
    ) -> Result<Option<Vec<u8>>, OakError> {
        let mut old = None;
        self.do_put(key, value, PutOp::Replace(&mut old), None)?;
        Ok(old)
    }

    /// Associates `key` with `value` if absent; returns whether this call
    /// inserted.
    pub fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool, OakError> {
        self.do_put(key, value, PutOp::PutIfAbsent, None)
    }

    /// [`put_if_absent`](OakMap::put_if_absent) under a per-call deadline.
    pub fn put_if_absent_budgeted(
        &self,
        key: &[u8],
        value: &[u8],
        deadline: Instant,
    ) -> Result<bool, OakError> {
        self.do_put(key, value, PutOp::PutIfAbsent, Some(deadline))
    }

    /// If `key` is absent, inserts `value`; otherwise atomically applies
    /// `f` to the present value in place. Returns `true` if this call
    /// inserted a new mapping.
    ///
    /// `f` runs under the value's write lock and must not call into this
    /// map, as [`compute_if_present`](OakMap::compute_if_present) says.
    pub fn put_if_absent_compute_if_present(
        &self,
        key: &[u8],
        value: &[u8],
        f: impl Fn(&mut OakWBuffer<'_>),
    ) -> Result<bool, OakError> {
        self.do_put(key, value, PutOp::Compute(&f), None)
    }

    /// Algorithm 2's `doPut`, with its `case 1` / `case 2` structure and
    /// retry discipline. Returns whether a *new* mapping was inserted.
    ///
    /// Deadline discipline: the deadline is checked at the top of every
    /// attempt — before the attempt pins, allocates, or publishes — so
    /// abandoning here is leak-free: either nothing happened yet, or a
    /// prior sub-step (a linked ⊥ entry, a quarantined key) is owned by
    /// the chunk and reclaimed by rebalance exactly as in the OOM path.
    fn do_put(
        &self,
        key: &[u8],
        value: &[u8],
        mut op: PutOp<'_>,
        deadline: Option<Instant>,
    ) -> Result<bool, OakError> {
        if key.is_empty() {
            return Err(OakError::Alloc(AllocError::ZeroSized));
        }
        let mut oom_budget = OOM_RECOVER_BUDGET;
        loop {
            budget::check(deadline, self.pool())?;
            // Per-attempt pin: the chunks this attempt walks, and their
            // keys, stay mapped and stable until it ends.
            let pin = self.reclaim.pin();
            let c = self.locate(key, &pin);
            let ei = c.lookup(pin.keys(), &self.cmp, key);

            if let Some(ei) = ei {
                if let Some(h) = c.value_ref(ei) {
                    if !self.store.is_deleted(h) {
                        // Case 1: key present. `Ok(false)` below means
                        // the value was deleted under us.
                        let wait = write_deadline(deadline);
                        let wrote: Result<bool, OakError> = match &mut op {
                            PutOp::PutIfAbsent => return Ok(false),
                            PutOp::Put => self.store.put_at(h, value, wait).map_err(Into::into),
                            PutOp::Replace(old) => self
                                .store
                                .replace_at(h, value, wait)
                                .map(|prev| {
                                    **old = prev;
                                    old.is_some()
                                })
                                .map_err(Into::into),
                            PutOp::Compute(f) => {
                                self.compute_guarded(h, *f, wait).map_err(Into::into)
                            }
                        };
                        match wrote {
                            // l.p.: the nested v.put / v.compute (§4.5).
                            Ok(true) => return Ok(false),
                            Ok(false) => continue,
                            Err(e) => {
                                self.recover_or_err(e, &mut oom_budget, deadline, pin)?;
                                continue;
                            }
                        }
                    }
                    // Value deleted but reference not yet ⊥: help the
                    // remover finish (mirrors Algorithm 3 case 2, avoiding
                    // a blocking wait on finalizeRemove) and retry.
                    if !c.publish() {
                        self.rebalance_borrowed(c.clone(), pin, deadline);
                        continue;
                    }
                    c.cas_value(ei, h.to_raw(), 0);
                    c.unpublish();
                    continue;
                }
            }

            // Case 2: key absent (no entry, or an entry with valRef = ⊥
            // that we reuse — §4.3).
            let ei = match ei {
                Some(existing) => existing,
                None => {
                    if c.is_frozen() {
                        self.rebalance_borrowed(c.clone(), pin, deadline);
                        continue;
                    }
                    let kref = match self.pool().allocate_copy(key, AllocClass::Key) {
                        Ok(r) => r,
                        Err(e) => {
                            self.recover_or_err(e.into(), &mut oom_budget, deadline, pin)?;
                            continue;
                        }
                    };
                    let Some(new_ei) = c.allocate_entry(&self.cmp, kref, key) else {
                        // Chunk full: free the speculative key, rebalance,
                        // retry (Algorithm 2 line 31).
                        self.pool().free(kref);
                        self.rebalance_borrowed(c.clone(), pin, deadline);
                        continue;
                    };
                    match c.ll_put_if_absent(pin.keys(), &self.cmp, new_ei) {
                        LinkOutcome::Linked => new_ei,
                        LinkOutcome::Found(existing) => {
                            // Our allocated entry stays unlinked and
                            // unreachable; reclaim its key buffer.
                            self.pool().free(kref);
                            existing
                        }
                        LinkOutcome::Frozen => {
                            self.pool().free(kref);
                            self.rebalance_borrowed(c.clone(), pin, deadline);
                            continue;
                        }
                    }
                }
            };

            // Allocate and write the value off-heap (line 30), publish,
            // and CAS it in (line 35). On pool exhaustion the key slice
            // just linked (if any) stays owned by its entry — a retry
            // reuses the ⊥-valued entry rather than re-allocating (§4.3),
            // and a rebalance quarantines it, so nothing leaks. The same
            // argument covers deadline expiry: a ⊥ entry abandoned by a
            // cancelled operation is chunk-owned garbage, not a leak.
            let newh = match self.store.allocate_value(value) {
                Ok(h) => h,
                Err(e) => {
                    self.recover_or_err(e.into(), &mut oom_budget, deadline, pin)?;
                    continue;
                }
            };
            if !c.publish() {
                self.undo_value(newh);
                self.rebalance_borrowed(c.clone(), pin, deadline);
                continue;
            }
            let ok = c.cas_value(ei, 0, newh.to_raw());
            c.unpublish();
            if ok {
                // l.p. of a fresh insertion: the successful CAS (§4.5).
                self.len.fetch_add(1, Ordering::Relaxed);
                c.note_insert();
                // The paper's reorganization policy (§5.1): rebalance a
                // chunk that outgrew its sorted prefix, or is full. One
                // skipped at the deadline is done by the next insert.
                if c.needs_reorg(self.config.rebalance_unsorted_ratio)
                    || c.allocated() >= c.capacity()
                {
                    self.rebalance_borrowed(c.clone(), pin, deadline);
                }
                return Ok(true);
            }
            // CAS failed: a concurrent insertion or removal got there
            // first; undo and retry (line 38).
            self.undo_value(newh);
        }
    }

    /// Runs a user compute closure through
    /// [`ValueStore::compute_at`](oak_mempool::ValueStore::compute_at),
    /// keeping `len` consistent if the closure panics. The store's panic
    /// guard poisons the value (logically deleting it), so the pair it
    /// belonged to is gone from the map; account for that before the panic
    /// resumes — otherwise `len()` and `validate()` would drift after every
    /// poisoning. Returns whether the compute ran (`Ok(false)`: value
    /// deleted; `Err`: the write-lock wait reached `deadline`).
    fn compute_guarded(
        &self,
        h: HeaderRef,
        f: &dyn Fn(&mut OakWBuffer<'_>),
        deadline: Option<Instant>,
    ) -> Result<bool, AccessError> {
        struct LenFixOnPanic<'a>(&'a AtomicUsize);
        impl Drop for LenFixOnPanic<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::Relaxed);
            }
        }
        let fix = LenFixOnPanic(&self.len);
        let ran = self.store.compute_at(h, deadline, |b| f(b));
        std::mem::forget(fix);
        ran.map(|r| r.is_some())
    }

    /// Reclaims a speculative value allocation that was never published.
    fn undo_value(&self, h: HeaderRef) {
        // Marks deleted and frees the payload. Under `RetainHeaders` (the
        // paper's default, §3.3) the 16-byte header is retained; under
        // `ReclaimHeaders` its generation is bumped and the slot recycled.
        // The header is unpublished, so the lock is uncontended by
        // construction and this cannot fail.
        self.store.remove(h);
    }

    /// Decides what to do with a failure mid-operation — the single funnel
    /// for the deadline/retry discipline:
    ///
    /// * **A value-lock wait reached its deadline**: the caller's surfaces
    ///   as [`OakError::DeadlineExceeded`]. Without one, only the
    ///   [`SELF_WAIT_GUARD`] can have passed — an unbudgeted write made from
    ///   a stream-scan callback, waiting for a read lease its own thread
    ///   holds — and that wait could never end: panic, naming the cause.
    /// * **An injected fault under a deadline**: retried at once (`Ok(())`,
    ///   after a `yield_now`) until the deadline passes.
    /// * **Pool exhaustion**: spend one unit of `oom_budget` on an
    ///   emergency reclamation pass and retry; once the budget is gone,
    ///   surface a clean [`OakError::OutOfMemory`]. A pass that compacted
    ///   no chunk and left nothing quarantined spends the whole budget: a
    ///   second pass could only repeat it. An expired deadline
    ///   short-circuits to [`OakError::DeadlineExceeded`] *before* paying
    ///   for reclamation.
    /// * Anything else propagates unchanged.
    ///
    /// The operation has had no effect when an error surfaces and the map
    /// stays fully consistent. Consumes the attempt's pin: reclamation
    /// must run unpinned or it could stall the reclamation of keys,
    /// snapshots and chunk links retired during this very operation.
    fn recover_or_err(
        &self,
        e: OakError,
        oom_budget: &mut u32,
        deadline: Option<Instant>,
        pin: OpPin<'_>,
    ) -> Result<(), OakError> {
        drop(pin);
        match e {
            OakError::DeadlineExceeded if deadline.is_some() => Err(budget::timed_out(self.pool())),
            OakError::DeadlineExceeded => {
                let leases = crate::iter::leases_held();
                panic!(
                    "oak: an unbudgeted write made from a stream-scan callback (for_each_in, \
                     for_each_in_budgeted, for_each_descending) gave up a value-lock wait \
                     while its own scan holds read leases on {leases} undelivered values: it \
                     is almost certainly waiting for itself and would wait for ever. Write \
                     after the scan returns, scan through an iterator (`iter_range`, \
                     `iter_descending`), which holds no leases, or use a `*_budgeted` write \
                     and handle its error."
                )
            }
            OakError::Alloc(AllocError::Injected) if deadline.is_some() => {
                budget::check(deadline, self.pool())?;
                self.pool().note_op_retry();
                std::thread::yield_now();
                Ok(())
            }
            OakError::Alloc(AllocError::PoolExhausted) => {
                budget::check(deadline, self.pool())?;
                if *oom_budget == 0 {
                    self.pool().note_oom_failure();
                    return Err(OakError::OutOfMemory);
                }
                *oom_budget -= 1;
                if !self.emergency_reclaim(deadline) {
                    *oom_budget = 0;
                }
                Ok(())
            }
            _ => Err(e),
        }
    }

    /// Emergency reclamation: drain the dead-key quarantine as far as
    /// concurrent pins allow, compact every chunk holding dead entries
    /// (rebalance drops ⊥/deleted entries and quarantines their keys;
    /// under-used chunks merge), then drain again so the just-retired
    /// slices can return to the pool once their grace period passes.
    /// Called with no pin held. Never allocates from the pool —
    /// replacement chunks are heap objects — so it cannot recurse into
    /// the OOM path it serves. A deadline bounds the chunk walk and each
    /// rebalance's engage wait: past it compaction stops early (the
    /// operation is about to surface `DeadlineExceeded` anyway; whatever
    /// was compacted stays).
    ///
    /// Returns whether another pass could free more: `false` when this one
    /// found no chunk with dead entries and left nothing in the quarantine.
    pub(crate) fn emergency_reclaim(&self, deadline: Option<Instant>) -> bool {
        self.pool().note_emergency_reclaim();
        self.reclaim.drain_now();
        let is_dead = |raw: u64| raw == 0 || self.store.is_deleted(SliceRef::from_raw(raw));
        let mut compacted = false;
        let mut c = self.index.first_resolved(&self.reclaim.pin());
        loop {
            // Snapshot the successor before a rebalance replaces `c`.
            let next = c.next_chunk(&self.reclaim.pin());
            if c.replacement().is_none() && c.has_dead(is_dead) {
                self.rebalance(&c, deadline);
                compacted = true;
            }
            if budget::expired(deadline) {
                break;
            }
            match next {
                Some(n) => c = n,
                None => break,
            }
        }
        self.reclaim.drain_now();
        compacted || self.reclaim.pending_bytes() > 0
    }

    // --- non-insertion operations (Algorithm 3) ----------------------------

    /// Atomically applies `f` to the value mapped to `key`, in place, under
    /// the value's write lock. Returns whether the value was present.
    ///
    /// `f` must not call into this map: every other access to this value
    /// waits for the lock `f`'s own thread holds, and a wait without a
    /// deadline never ends. This is the contract
    /// [`for_each_in`](OakMap::for_each_in) states for stream callbacks.
    pub fn compute_if_present(&self, key: &[u8], f: impl Fn(&mut OakWBuffer<'_>)) -> bool {
        self.do_if_present(key, PresentOp::Compute(&f), None)
            .unwrap_or(false)
    }

    /// [`compute_if_present`](OakMap::compute_if_present) under a per-call
    /// deadline, surfacing its errors instead of swallowing them.
    pub fn compute_if_present_budgeted(
        &self,
        key: &[u8],
        deadline: Instant,
        f: impl Fn(&mut OakWBuffer<'_>),
    ) -> Result<bool, OakError> {
        self.do_if_present(key, PresentOp::Compute(&f), Some(deadline))
    }

    /// Removes the mapping for `key`; returns whether this call removed it.
    pub fn remove(&self, key: &[u8]) -> bool {
        self.do_if_present(key, PresentOp::Remove, None)
            .unwrap_or(false)
    }

    /// [`remove`](OakMap::remove) under a per-call deadline, surfacing its
    /// errors instead of swallowing them.
    pub fn remove_budgeted(&self, key: &[u8], deadline: Instant) -> Result<bool, OakError> {
        self.do_if_present(key, PresentOp::Remove, Some(deadline))
    }

    /// [`remove`](OakMap::remove) that returns a copy of the removed value
    /// — the legacy API's `V remove(K)`.
    pub(crate) fn remove_returning(&self, key: &[u8]) -> Option<Vec<u8>> {
        let mut old = None;
        // Without a deadline only injected faults can fail it;
        // like `remove`, report them as "nothing removed".
        let _ = self.do_if_present(key, PresentOp::RemoveReturning(&mut old), None);
        old
    }

    /// Algorithm 3's `doIfPresent`.
    fn do_if_present(
        &self,
        key: &[u8],
        mut op: PresentOp<'_>,
        deadline: Option<Instant>,
    ) -> Result<bool, OakError> {
        let mut oom_budget = OOM_RECOVER_BUDGET;
        loop {
            budget::check(deadline, self.pool())?;
            let pin = self.reclaim.pin();
            let c = self.locate(key, &pin);
            let ei = c.lookup(pin.keys(), &self.cmp, key);
            let Some(ei) = ei else {
                return Ok(false); // l.p.: entry not found (line 44)
            };
            let Some(h) = c.value_ref(ei) else {
                return Ok(false); // l.p.: valRef = ⊥ (line 44)
            };

            if !self.store.is_deleted(h) {
                // Case 1: value exists and is not deleted. A timed-out
                // header-lock wait goes to `recover_or_err` — unlike a
                // deleted value, it must never fall through to the
                // CAS-to-⊥ cleanup below, which would erase a live entry.
                let removing = !matches!(op, PresentOp::Compute(_));
                let wait = write_deadline(deadline);
                let hit = match &mut op {
                    PresentOp::Compute(f) => self.compute_guarded(h, *f, wait),
                    PresentOp::Remove => self.store.remove_at(h, wait),
                    PresentOp::RemoveReturning(old) => {
                        self.store.remove_returning_at(h, wait).map(|prev| {
                            **old = prev;
                            old.is_some()
                        })
                    }
                };
                match hit {
                    Ok(true) => {
                        // l.p.: the successful nested v.compute (line 46),
                        // or v.remove setting the deleted bit (line 48).
                        if removing {
                            self.len.fetch_sub(1, Ordering::Relaxed);
                            // Merge policy: a removal that leaves the
                            // chunk empty (by the live-entry heuristic)
                            // while it has a successor rebalances it — the
                            // rebalancer folds it into its neighbour
                            // ("merges chunks when they are under-used",
                            // §4.1). Decided on the borrow, done unpinned,
                            // like the helping in between.
                            let merge = (c.note_remove() == 0
                                && !c.is_frozen()
                                && c.next.load(&pin).is_some())
                            .then(|| c.clone());
                            drop(pin);
                            oak_failpoints::sync_point!("ops/remove-marked");
                            oak_failpoints::fail_point!("ops/remove-marked");
                            self.finalize_remove(key, h, deadline);
                            if let Some(c) = merge {
                                self.rebalance(&c, deadline);
                            }
                        }
                        return Ok(true);
                    }
                    Ok(false) => {} // deleted under us: clean below
                    Err(e) => {
                        self.recover_or_err(e.into(), &mut oom_budget, deadline, pin)?;
                        continue;
                    }
                }
            }
            // Case 2: value deleted — ensure the entry is removed by
            // CASing its value reference to ⊥ (lines 50–55).
            if !c.publish() {
                self.rebalance_borrowed(c.clone(), pin, deadline);
                continue;
            }
            let ok = c.cas_value(ei, h.to_raw(), 0);
            c.unpublish();
            if ok {
                return Ok(false); // l.p.: successful CAS to ⊥ (line 52)
            }
            // CAS failed: the entry changed under us; retry (line 54).
        }
    }

    /// Algorithm 3's `finalizeRemove`: best-effort CAS of the entry's value
    /// reference to ⊥ after a successful remove. Comparing against `prev`
    /// is ABA-free (§4.4): under `RetainHeaders` headers are never reused,
    /// and under `ReclaimHeaders` a reused header carries a bumped
    /// generation in its reference, so it never equals `prev`. Purely
    /// *helping* — the remove already linearized — so an expired deadline
    /// simply stops helping (a later operation on the key finishes the
    /// cleanup).
    fn finalize_remove(&self, key: &[u8], prev: HeaderRef, deadline: Option<Instant>) {
        loop {
            if budget::expired(deadline) {
                return;
            }
            let pin = self.reclaim.pin();
            let c = self.locate(key, &pin);
            let Some(ei) = c.lookup(pin.keys(), &self.cmp, key) else {
                return;
            };
            let v = c.value_raw(ei);
            if v != prev.to_raw() {
                return; // key removed or replaced already (line 65)
            }
            if !c.publish() {
                if !self.rebalance_borrowed(c.clone(), pin, deadline) {
                    return;
                }
                continue;
            }
            // Success or failure both fine: remove already linearized.
            c.cas_value(ei, v, 0);
            c.unpublish();
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::config::OakMapConfig;

    /// A structural gate that needs no timing threshold: a point operation
    /// reaches its value without moving a reference count — the map-wide
    /// one of the quarantine or the one of the chunk it located — whether
    /// the chunk was found through the first pointer, an index entry, or a
    /// `next` hop past a stale index entry. Looked at from inside the
    /// callbacks of the two point ops that run caller code, so while the
    /// operation's pin (and, for the compute, its chunk borrow) is live;
    /// "at rest" is read as soon as the operation has returned.
    #[test]
    fn point_ops_move_no_reference_count() {
        let map = OakMap::with_config(OakMapConfig::small().chunk_capacity(64));
        let key = |i: u32| format!("key-{i:05}").into_bytes();
        for i in 0..400 {
            map.put(&key(i), &[0u8; 8]).unwrap();
        }
        let pin = map.reclaim.pin();
        let mut chunks = vec![map.index.first_resolved(&pin)];
        while let Some(n) = chunks.last().expect("non-empty").next_chunk(&pin) {
            chunks.push(n);
        }
        assert!(chunks.len() >= 4, "want a multi-chunk map");
        // Make the index stale for one chunk: its keys now floor to its
        // predecessor and are reached through that chunk's `next`.
        let hop = chunks.len() - 2;
        map.index.retire(&chunks[hop].min_key, &pin);
        drop(pin);

        let first_of = |c: &Chunk| -> Vec<u8> {
            let pin = map.reclaim.pin();
            pin.keys().get(c.key_ref(c.head_entry())).to_vec()
        };
        for (path, at) in [("first pointer", 0), ("index entry", 1), ("next hop", hop)] {
            let (chunk, k) = (&chunks[at], first_of(&chunks[at]));
            assert!(Arc::ptr_eq(map.index.locate(&k, &map.reclaim.pin()), chunk));
            let counts = || (Arc::strong_count(&map.reclaim), Arc::strong_count(chunk));

            let seen = Cell::new((0, 0));
            assert!(map.get_with(&k, |_| seen.set(counts())).is_some());
            assert_eq!(seen.get(), counts(), "get_with via the {path}");
            assert!(map.compute_if_present(&k, |_| seen.set(counts())));
            assert_eq!(seen.get(), counts(), "compute_if_present via the {path}");
            assert_eq!(counts().0, 1, "the map holds the only quarantine reference");
        }
    }

    /// Under a deadline, the rebalances a point operation does not need for
    /// its own result — a put's reorganisation of the chunk it filled,
    /// emergency reclamation's compaction and a remove's merge of the chunk
    /// it emptied — wait for another thread's rebalance of the chunk no
    /// longer than the deadline. That thread is parked at
    /// `rebalance/freeze` (lock held, chunk not frozen) until all three
    /// have returned. `chunk_capacity(8)` with a sky-high unsorted ratio
    /// rebalances exactly when an insert fills the 8th slot: eight keys
    /// split into `[k0..k3]` and `[k4..k7]`. Removing `k0..k3` empties the
    /// first chunk, whose merge is the parked rebalance; four inserts
    /// below `k4` then fill it.
    #[test]
    fn deadline_bounds_the_wait_for_a_parked_rebalance() {
        use std::time::{Duration, Instant};

        use oak_failpoints::{sync_point, sync_role, sync_scenario, SyncSchedule};

        let mut cfg = OakMapConfig::small().chunk_capacity(8);
        cfg.rebalance_unsorted_ratio = 10.0;
        let map = OakMap::with_config(cfg);
        let key = |s: &str| format!("k{s}").into_bytes();
        for i in 0..8 {
            map.put(&key(&i.to_string()), b"v").unwrap();
        }
        let first = map.index.first_resolved(&map.reclaim.pin());
        let session =
            sync_scenario(SyncSchedule::parse("main@test/go -> rb@rebalance/freeze").unwrap());
        std::thread::scope(|s| {
            s.spawn(|| {
                let _role = sync_role("rb");
                for k in ["0", "1", "2", "3"] {
                    assert!(map.remove(&key(k))); // the last merges the chunk
                }
            });
            let _role = sync_role("main");
            while first.rebalance_lock.try_lock().is_some() && !session.abandoned() {
                std::thread::yield_now();
            }
            let bounded = |what: &str, op: &dyn Fn(Instant)| {
                let start = Instant::now();
                op(start + Duration::from_millis(50));
                let elapsed = start.elapsed();
                assert!(
                    elapsed < Duration::from_millis(350),
                    "{what} waited {elapsed:?} for the parked rebalancer"
                );
            };
            for k in ["3a", "3b", "3c"] {
                map.put(&key(k), b"v").unwrap();
            }
            bounded("a put's reorganisation", &|d| {
                assert_eq!(map.put_budgeted(&key("3d"), b"v", d), Ok(()));
            });
            // `k0..k3` are dead entries: the chunk is a compaction candidate.
            bounded("emergency reclamation", &|d| {
                map.emergency_reclaim(Some(d));
            });
            for k in ["3a", "3b", "3c"] {
                assert!(map.remove(&key(k)));
            }
            bounded("a remove's merge", &|d| {
                assert_eq!(map.remove_budgeted(&key("3d"), d), Ok(true));
            });
            sync_point!("test/go");
        });
        assert!(session.completed(), "left: {:?}", session.remaining());
        assert_eq!(map.len(), 4);
        map.validate();
    }
}
