//! Query and update operations: the paper's three bodies — `get`
//! (Algorithm 1), `doPut` (Algorithm 2) and `doIfPresent` (Algorithm 3) —
//! with their retry loops, help paths and linearization points.
//!
//! [`map`](crate::map) holds the public shell and construction;
//! [`index`](crate::index) resolves keys to chunks. Every public point
//! operation here, budgeted, copying or plain, is a one-line call into one
//! of the three bodies and differs only in the `PutOp` / `PresentOp` /
//! [`OpBudget`] it passes.
//!
//! Every retry loop is *budgeted*: the [`OpBudget`]'s deadline is consulted
//! at the top of each attempt — before the attempt allocates or publishes
//! anything — and its [`RetryPolicy`](crate::RetryPolicy) paces retries of
//! transient failures (header-lock contention, injected faults). The
//! unbudgeted entry points pass [`OpBudget::unbounded`]: no deadline,
//! retry immediately and forever.
//!
//! Every attempt opens the same way and writes no cache line another
//! thread uses on its way to the value: a *borrowed* quarantine pin (the
//! thread's own stripe, [`reclaim`](crate::reclaim)), then an
//! `oak_sync::epoch` guard under which [`ChunkIndex::locate`] *lends* the
//! chunk — no reference count moves ([`index`](crate::index), "Borrowed
//! location"). The pin comes first: the quarantine's safety argument needs
//! every chunk to be observed unreplaced while pinned. Whatever may sleep,
//! wait for a lock again, rebalance or reclaim runs outside the guard:
//! those paths clone the chunk out of the borrow and give the guard up
//! first ([`OakMap::rebalance_borrowed`], `recover_or_err`).
//!
//! [`ChunkIndex::locate`]: crate::index::ChunkIndex::locate

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use oak_mempool::{AccessError, AllocError, ContendedInfo, HeaderRef, SliceRef};
use oak_sync::epoch::{self, Guard};

use crate::budget::{OpBudget, RetryState};
use crate::buffer::{OakRBuffer, OakWBuffer};
use crate::chunk::{Chunk, LinkOutcome};
use crate::cmp::KeyComparator;
use crate::error::OakError;
use crate::map::OakMap;
use crate::overload::OverloadState;
use crate::reclaim::OpPin;

/// Emergency-reclamation retries per operation: one allocation failure may
/// be recovered per allocation site an operation has (key + value).
const OOM_RECOVER_BUDGET: u32 = 2;

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

/// What one attempt of an update holds while it reads chunks: its
/// quarantine pin and the guard its chunk is borrowed under — taken in that
/// order, released in the reverse.
struct Attempt<'m> {
    guard: Guard,
    _pin: OpPin<'m>,
}

impl<C: KeyComparator> OakMap<C> {
    #[inline]
    fn attempt(&self) -> Attempt<'_> {
        let _pin = self.reclaim.pin();
        Attempt {
            guard: epoch::pin(),
            _pin,
        }
    }

    /// `locateChunk(key)` for a point operation: the chunk is lent for the
    /// guard's lifetime. The caller holds its quarantine pin already.
    #[inline(always)]
    fn locate<'g>(&self, key: &[u8], guard: &'g Guard) -> &'g Arc<Chunk> {
        let c = self.index.locate(key, guard);
        oak_failpoints::sync_point!("ops/located");
        c
    }

    /// Rebalances a chunk an operation holds borrowed: `c` is the clone
    /// taken from the borrow, `guard` the guard it was borrowed under,
    /// given up before the rebalance may wait, freeze or reclaim. Returns
    /// `false` when the engage wait outlasted `deadline`.
    fn rebalance_borrowed(&self, c: Arc<Chunk>, guard: Guard, deadline: Option<Instant>) -> bool {
        drop(guard);
        self.rebalance_until(&c, deadline)
    }

    // --- queries (Algorithm 1) -------------------------------------------

    /// The prologue both gets share: the reference of the value mapped to
    /// `key`, `None` for no entry or ⊥. The chunk borrow ends here — a
    /// value header outlives its chunk — so the header-lock wait and the
    /// caller's closure run outside the guard. The caller holds its
    /// quarantine pin.
    #[inline(always)]
    fn value_of(&self, key: &[u8]) -> Option<HeaderRef> {
        let guard = epoch::pin();
        let c = self.locate(key, &guard);
        let ei = c.lookup(self.pool(), &self.cmp, key)?;
        c.value_ref(ei)
    }

    /// Algorithm 1's `get`: applies `f` to the value bytes under the header
    /// read lock, waiting for that lock until `deadline` at most. `Ok(None)`
    /// when the key is absent, `Err` when the bounded lock wait was lost.
    /// Inlined into its two entry points, which differ only in how they
    /// report that loss, so the unbudgeted one keeps no trace of a deadline.
    #[inline(always)]
    fn get_at<R>(
        &self,
        key: &[u8],
        deadline: Option<Instant>,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<Option<R>, ContendedInfo> {
        let _pin = self.reclaim.pin();
        let Some(h) = self.value_of(key) else {
            return Ok(None);
        };
        match self.store.read_at(h, deadline, f) {
            Ok(r) => Ok(Some(r)),
            Err(AccessError::Deleted) => Ok(None),
            Err(AccessError::Contended(info)) => Err(info),
        }
    }

    /// Zero-copy get through a closure: applies `f` to the value bytes
    /// under the header read lock. Returns `None` if absent (or if the
    /// bounded wait for that lock was lost).
    // `#[inline]`: with `get_at` folded in, LLVM otherwise stops inlining
    // this into its callers, as it did when the body was four lines.
    #[inline]
    pub fn get_with<R>(&self, key: &[u8], f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        self.get_at(key, None, f).unwrap_or(None)
    }

    /// Budgeted zero-copy get: like [`get_with`](OakMap::get_with) but the
    /// header-lock wait is clamped by the budget's deadline and a losing
    /// acquisition surfaces as a typed error instead of `None` —
    /// [`OakError::Contended`] while the budget has time left,
    /// [`OakError::DeadlineExceeded`] once it expires.
    pub fn get_with_budgeted<R>(
        &self,
        key: &[u8],
        budget: &OpBudget,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<Option<R>, OakError> {
        budget.check(self.pool())?;
        self.get_at(key, budget.deadline, f)
            .map_err(|info| budget.lock_lost(info, self.pool()))
    }

    /// Zero-copy get returning an [`OakRBuffer`] view (the ZC API's
    /// `get`). The buffer stays valid indefinitely; reads fail with
    /// [`OakError::ConcurrentModification`] after a concurrent remove.
    pub fn get(&self, key: &[u8]) -> Option<OakRBuffer> {
        let _pin = self.reclaim.pin();
        let h = self.value_of(key)?;
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
        self.do_put(key, value, PutOp::Put, &OpBudget::unbounded())
            .map(|_| ())
    }

    /// [`put`](OakMap::put) under an explicit per-call budget.
    pub fn put_budgeted(
        &self,
        key: &[u8],
        value: &[u8],
        budget: &OpBudget,
    ) -> Result<(), OakError> {
        self.do_put(key, value, PutOp::Put, budget).map(|_| ())
    }

    /// [`put`](OakMap::put) that returns a copy of the value it replaced
    /// (`None`: this call inserted) — the legacy API's `V put(K, V)`.
    pub(crate) fn put_returning(
        &self,
        key: &[u8],
        value: &[u8],
    ) -> Result<Option<Vec<u8>>, OakError> {
        let mut old = None;
        self.do_put(key, value, PutOp::Replace(&mut old), &OpBudget::unbounded())?;
        Ok(old)
    }

    /// Associates `key` with `value` if absent; returns whether this call
    /// inserted.
    pub fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool, OakError> {
        self.do_put(key, value, PutOp::PutIfAbsent, &OpBudget::unbounded())
    }

    /// [`put_if_absent`](OakMap::put_if_absent) under an explicit budget.
    pub fn put_if_absent_budgeted(
        &self,
        key: &[u8],
        value: &[u8],
        budget: &OpBudget,
    ) -> Result<bool, OakError> {
        self.do_put(key, value, PutOp::PutIfAbsent, budget)
    }

    /// If `key` is absent, inserts `value`; otherwise atomically applies
    /// `f` to the present value in place. Returns `true` if this call
    /// inserted a new mapping.
    pub fn put_if_absent_compute_if_present(
        &self,
        key: &[u8],
        value: &[u8],
        f: impl Fn(&mut OakWBuffer<'_>),
    ) -> Result<bool, OakError> {
        self.do_put(key, value, PutOp::Compute(&f), &OpBudget::unbounded())
    }

    /// Algorithm 2's `doPut`, with its `case 1` / `case 2` structure and
    /// retry discipline. Returns whether a *new* mapping was inserted.
    ///
    /// Budget discipline: the deadline is checked at the top of every
    /// attempt — before the attempt pins, allocates, or publishes — so
    /// abandoning here is leak-free: either nothing happened yet, or a
    /// prior sub-step (a linked ⊥ entry, a quarantined key) is owned by
    /// the chunk and reclaimed by rebalance exactly as in the OOM path.
    fn do_put(
        &self,
        key: &[u8],
        value: &[u8],
        mut op: PutOp<'_>,
        budget: &OpBudget,
    ) -> Result<bool, OakError> {
        if key.is_empty() {
            return Err(OakError::Alloc(AllocError::ZeroSized));
        }
        // Overload gate: reject the write up front when the controller says
        // the map is critically short on memory — cheaper for everyone than
        // letting the write fail through the emergency-reclamation ladder.
        match self
            .overload
            .tick(|| (self.pool().stats(), self.reclaim.pending_bytes()))
        {
            OverloadState::Critical => {
                self.pool().note_overload_shed();
                return Err(OakError::Overloaded);
            }
            OverloadState::Degraded => {
                // Prioritize draining reclamation backlog on the write path.
                self.reclaim.try_drain();
            }
            OverloadState::Healthy => {}
        }
        let mut oom_budget = OOM_RECOVER_BUDGET;
        let mut retry = RetryState::new(key.as_ptr() as u64);
        loop {
            budget.check(self.pool())?;
            // Per-iteration epoch pin: quarantined keys of chunks this
            // iteration may walk stay mapped and stable until it ends.
            let at = self.attempt();
            let c = self.locate(key, &at.guard);
            let ei = c.lookup(self.pool(), &self.cmp, key);

            if let Some(ei) = ei {
                if let Some(h) = c.value_ref(ei) {
                    if !self.store.is_deleted(h) {
                        // Case 1: key present. `Ok(false)` below means
                        // the value was deleted under us.
                        let wrote: Result<bool, OakError> = match &mut op {
                            PutOp::PutIfAbsent => return Ok(false),
                            PutOp::Put => self
                                .store
                                .put_at(h, value, budget.deadline)
                                .map_err(Into::into),
                            PutOp::Replace(old) => self
                                .store
                                .replace_at(h, value, budget.deadline)
                                .map(|prev| {
                                    **old = prev;
                                    old.is_some()
                                })
                                .map_err(Into::into),
                            PutOp::Compute(f) => self
                                .compute_guarded(h, *f, budget.deadline)
                                .map_err(Into::into),
                        };
                        match wrote {
                            // l.p.: the nested v.put / v.compute (§4.5).
                            Ok(true) => return Ok(false),
                            Ok(false) => continue,
                            Err(e) => {
                                self.recover_or_err(e, &mut oom_budget, &mut retry, budget, at)?;
                                continue;
                            }
                        }
                    }
                    // Value deleted but reference not yet ⊥: help the
                    // remover finish (mirrors Algorithm 3 case 2, avoiding
                    // a blocking wait on finalizeRemove) and retry.
                    if !c.publish() {
                        self.rebalance_borrowed(c.clone(), at.guard, budget.deadline);
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
                        self.rebalance_borrowed(c.clone(), at.guard, budget.deadline);
                        continue;
                    }
                    let kref = match self.allocate_key(key) {
                        Ok(r) => r,
                        Err(e) => {
                            self.recover_or_err(e, &mut oom_budget, &mut retry, budget, at)?;
                            continue;
                        }
                    };
                    let Some(new_ei) = c.allocate_entry(&self.cmp, kref, key) else {
                        // Chunk full: free the speculative key, rebalance,
                        // retry (Algorithm 2 line 31).
                        self.pool().free(kref);
                        self.rebalance_borrowed(c.clone(), at.guard, budget.deadline);
                        continue;
                    };
                    match c.ll_put_if_absent(self.pool(), &self.cmp, new_ei) {
                        LinkOutcome::Linked => new_ei,
                        LinkOutcome::Found(existing) => {
                            // Our allocated entry stays unlinked and
                            // unreachable; reclaim its key buffer.
                            self.pool().free(kref);
                            existing
                        }
                        LinkOutcome::Frozen => {
                            self.pool().free(kref);
                            self.rebalance_borrowed(c.clone(), at.guard, budget.deadline);
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
                    self.recover_or_err(e.into(), &mut oom_budget, &mut retry, budget, at)?;
                    continue;
                }
            };
            if !c.publish() {
                self.undo_value(newh);
                self.rebalance_borrowed(c.clone(), at.guard, budget.deadline);
                continue;
            }
            let ok = c.cas_value(ei, 0, newh.to_raw());
            c.unpublish();
            if ok {
                // l.p. of a fresh insertion: the successful CAS (§4.5).
                self.len.fetch_add(1, Ordering::Relaxed);
                c.note_insert();
                // The paper's reorganization policy (§5.1): rebalance a
                // chunk that outgrew its sorted prefix, or is full.
                if c.needs_reorg(self.config.rebalance_unsorted_ratio)
                    || c.allocated() >= c.capacity()
                {
                    self.rebalance_borrowed(c.clone(), at.guard, None);
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
    /// deleted; `Err`: write lock lost within the wait budget).
    fn compute_guarded(
        &self,
        h: HeaderRef,
        f: &dyn Fn(&mut OakWBuffer<'_>),
        deadline: Option<Instant>,
    ) -> Result<bool, ContendedInfo> {
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
        // Marks deleted and frees the payload; the 16-byte header is
        // retained, consistent with the default memory manager (§3.3).
        // The header is unpublished, so the lock is uncontended by
        // construction and this cannot fail.
        self.store.remove(h);
    }

    fn allocate_key(&self, key: &[u8]) -> Result<SliceRef, OakError> {
        let r = self
            .pool()
            .allocate_tagged(key.len(), oak_mempool::AllocClass::Key)?;
        // SAFETY: fresh, unpublished allocation.
        unsafe { self.pool().write_initial(r, key) };
        Ok(r)
    }

    /// Decides what to do with a transient failure mid-operation — the
    /// single funnel for the budget/retry discipline:
    ///
    /// * **Contention** (and, when the policy opts in, injected transient
    ///   faults): consult the [`RetryState`] — either a jittered,
    ///   deadline-clamped backoff is taken and the caller retries
    ///   (`Ok(())`), or the retry budget is exhausted and the error
    ///   surfaces. The one wait no retry can win — an unbudgeted write made
    ///   from a stream-scan callback, waiting for a read lease its own
    ///   thread holds — panics here, naming the cause.
    /// * **Pool exhaustion**: spend one unit of `oom_budget` on an
    ///   emergency reclamation pass and retry; once the budget is gone,
    ///   surface a clean [`OakError::OutOfMemory`]. An expired deadline
    ///   short-circuits to [`OakError::DeadlineExceeded`] *before* paying
    ///   for reclamation.
    /// * Anything else propagates unchanged.
    ///
    /// The operation has had no effect when an error surfaces and the map
    /// stays fully consistent. Consumes the attempt — its quarantine pin and
    /// the guard its chunk was borrowed under: reclamation (and backoff
    /// sleeps) must run unpinned or they could stall the reclamation of
    /// slices — and of index nodes and chunk links — retired during this
    /// very operation.
    fn recover_or_err(
        &self,
        e: OakError,
        oom_budget: &mut u32,
        retry: &mut RetryState,
        budget: &OpBudget,
        at: Attempt<'_>,
    ) -> Result<(), OakError> {
        drop(at);
        match e {
            OakError::Contended(info) => {
                // A budget that neither expires nor counts retries waits
                // for the lock again, for ever. That is right when another
                // thread holds it; it can never end when the holder is a
                // read lease of a stream scan whose callback is making
                // this very call. Say so instead of hanging.
                let leases = crate::iter::leases_held();
                assert!(
                    leases == 0 || budget.deadline.is_some() || budget.policy.max_retries.is_some(),
                    "oak: an unbudgeted write made from a stream-scan callback (for_each_in, \
                     for_each_in_budgeted, for_each_descending) gave up a value-lock wait \
                     ({info:?}) while its own scan holds read leases on {leases} undelivered \
                     values: it is almost certainly waiting for itself and would retry for \
                     ever. Write after the scan returns, scan through an iterator (`iter_range`, \
                     `iter_descending`), which holds no leases, or use a `*_budgeted` write \
                     and handle its error."
                );
                retry.backoff_or(budget, self.pool(), e)
            }
            OakError::Alloc(AllocError::Injected) if budget.policy.retry_transient_faults => {
                retry.backoff_or(budget, self.pool(), e)
            }
            OakError::Alloc(AllocError::PoolExhausted) => {
                if budget.expired() {
                    self.pool().note_deadline_exceeded();
                    return Err(OakError::DeadlineExceeded);
                }
                if *oom_budget == 0 {
                    self.pool().note_oom_failure();
                    return Err(OakError::OutOfMemory);
                }
                *oom_budget -= 1;
                self.emergency_reclaim(budget.deadline);
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
    /// Called with no epoch pin held. Never allocates from the pool —
    /// replacement chunks are heap objects — so it cannot recurse into
    /// the OOM path it serves. A deadline bounds the chunk walk: an
    /// expired budget stops compacting early (the operation is about to
    /// surface `DeadlineExceeded` anyway; whatever was compacted stays).
    pub(crate) fn emergency_reclaim(&self, deadline: Option<Instant>) {
        self.pool().note_emergency_reclaim();
        // First rung: slices parked in allocation magazines are free memory
        // the free lists cannot see; hand them back before paying for a
        // compaction pass (and before `recover_or_err` can ever conclude
        // OutOfMemory with free bytes still parked thread-side).
        self.pool().flush_magazines();
        self.reclaim.drain_now();
        let is_dead = |raw: u64| raw == 0 || self.store.is_deleted(SliceRef::from_raw(raw));
        let expired = || deadline.is_some_and(|d| Instant::now() >= d);
        let mut c = self.first_chunk();
        loop {
            // Snapshot the successor before a rebalance replaces `c`.
            let next = c.next_chunk();
            if c.replacement().is_none() && c.has_dead(is_dead) {
                self.rebalance(&c);
            }
            if expired() {
                break;
            }
            match next {
                Some(n) => c = n,
                None => break,
            }
        }
        self.reclaim.drain_now();
    }

    // --- non-insertion operations (Algorithm 3) ----------------------------

    /// Atomically applies `f` to the value mapped to `key`, in place, under
    /// the value's write lock. Returns whether the value was present.
    pub fn compute_if_present(&self, key: &[u8], f: impl Fn(&mut OakWBuffer<'_>)) -> bool {
        self.do_if_present(key, PresentOp::Compute(&f), &OpBudget::unbounded())
            .unwrap_or(false)
    }

    /// [`compute_if_present`](OakMap::compute_if_present) under an explicit
    /// budget, surfacing budget errors instead of swallowing them.
    pub fn compute_if_present_budgeted(
        &self,
        key: &[u8],
        budget: &OpBudget,
        f: impl Fn(&mut OakWBuffer<'_>),
    ) -> Result<bool, OakError> {
        self.do_if_present(key, PresentOp::Compute(&f), budget)
    }

    /// Removes the mapping for `key`; returns whether this call removed it.
    pub fn remove(&self, key: &[u8]) -> bool {
        self.do_if_present(key, PresentOp::Remove, &OpBudget::unbounded())
            .unwrap_or(false)
    }

    /// [`remove`](OakMap::remove) under an explicit budget, surfacing
    /// budget errors instead of swallowing them.
    pub fn remove_budgeted(&self, key: &[u8], budget: &OpBudget) -> Result<bool, OakError> {
        self.do_if_present(key, PresentOp::Remove, budget)
    }

    /// [`remove`](OakMap::remove) that returns a copy of the removed value
    /// — the legacy API's `V remove(K)`.
    pub(crate) fn remove_returning(&self, key: &[u8]) -> Option<Vec<u8>> {
        let mut old = None;
        // An unbounded budget leaves only injected faults to fail with;
        // like `remove`, report them as "nothing removed".
        let _ = self.do_if_present(
            key,
            PresentOp::RemoveReturning(&mut old),
            &OpBudget::unbounded(),
        );
        old
    }

    /// Algorithm 3's `doIfPresent`.
    fn do_if_present(
        &self,
        key: &[u8],
        mut op: PresentOp<'_>,
        budget: &OpBudget,
    ) -> Result<bool, OakError> {
        let mut oom_budget = OOM_RECOVER_BUDGET;
        let mut retry = RetryState::new(key.as_ptr() as u64);
        loop {
            budget.check(self.pool())?;
            let at = self.attempt();
            let c = self.locate(key, &at.guard);
            let ei = c.lookup(self.pool(), &self.cmp, key);
            let Some(ei) = ei else {
                return Ok(false); // l.p.: entry not found (line 44)
            };
            let Some(h) = c.value_ref(ei) else {
                return Ok(false); // l.p.: valRef = ⊥ (line 44)
            };

            if !self.store.is_deleted(h) {
                // Case 1: value exists and is not deleted. A lost header
                // lock is a *transient* failure routed through the retry
                // funnel — unlike a deleted value, it must never fall
                // through to the CAS-to-⊥ cleanup below, which would erase
                // a live entry.
                let removing = !matches!(op, PresentOp::Compute(_));
                let hit = match &mut op {
                    PresentOp::Compute(f) => self.compute_guarded(h, *f, budget.deadline),
                    PresentOp::Remove => self.store.remove_at(h, budget.deadline),
                    PresentOp::RemoveReturning(old) => self
                        .store
                        .remove_returning_at(h, budget.deadline)
                        .map(|prev| {
                            **old = prev;
                            old.is_some()
                        }),
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
                            // §4.1). Decided on the borrow, done outside
                            // the guard, like the helping in between.
                            let merge = (c.note_remove() == 0
                                && !c.is_frozen()
                                && c.next_ref(&at.guard).is_some())
                            .then(|| c.clone());
                            drop(at.guard);
                            oak_failpoints::sync_point!("ops/remove-marked");
                            oak_failpoints::fail_point!("ops/remove-marked");
                            self.finalize_remove(key, h, budget.deadline);
                            if let Some(c) = merge {
                                self.rebalance(&c);
                            }
                        }
                        return Ok(true);
                    }
                    Ok(false) => {} // deleted under us: clean below
                    Err(info) => {
                        self.recover_or_err(info.into(), &mut oom_budget, &mut retry, budget, at)?;
                        continue;
                    }
                }
            }
            // Case 2: value deleted — ensure the entry is removed by
            // CASing its value reference to ⊥ (lines 50–55).
            if !c.publish() {
                self.rebalance_borrowed(c.clone(), at.guard, budget.deadline);
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
    /// reference to ⊥ after a successful remove. Headers are never reused,
    /// so comparing against `prev` is ABA-free (§4.4). Purely *helping* —
    /// the remove already linearized — so an expired deadline simply stops
    /// helping (a later operation on the key finishes the cleanup).
    fn finalize_remove(&self, key: &[u8], prev: HeaderRef, deadline: Option<Instant>) {
        loop {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return;
            }
            let at = self.attempt();
            let c = self.locate(key, &at.guard);
            let Some(ei) = c.lookup(self.pool(), &self.cmp, key) else {
                return;
            };
            let v = c.value_raw(ei);
            if v != prev.to_raw() {
                return; // key removed or replaced already (line 65)
            }
            if !c.publish() {
                if !self.rebalance_borrowed(c.clone(), at.guard, deadline) {
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
        let mut chunks = vec![map.first_chunk()];
        while let Some(n) = chunks.last().expect("non-empty").next_chunk() {
            chunks.push(n);
        }
        assert!(chunks.len() >= 4, "want a multi-chunk map");
        // Make the index stale for one chunk: its keys now floor to its
        // predecessor and are reached through that chunk's `next`.
        let hop = chunks.len() - 2;
        map.index.retire(&chunks[hop].min_key);

        let first_of = |c: &Chunk| -> Vec<u8> {
            // SAFETY: key buffers are immutable and live.
            unsafe { map.pool().slice(c.key_ref(c.head_entry())) }.to_vec()
        };
        for (path, at) in [("first pointer", 0), ("index entry", 1), ("next hop", hop)] {
            let (chunk, k) = (&chunks[at], first_of(&chunks[at]));
            assert!(Arc::ptr_eq(&map.locate_chunk(&k), chunk));
            let counts = || (Arc::strong_count(&map.reclaim), Arc::strong_count(chunk));

            let seen = Cell::new((0, 0));
            assert!(map.get_with(&k, |_| seen.set(counts())).is_some());
            assert_eq!(seen.get(), counts(), "get_with via the {path}");
            assert!(map.compute_if_present(&k, |_| seen.set(counts())));
            assert_eq!(seen.get(), counts(), "compute_if_present via the {path}");
            assert_eq!(counts().0, 1, "the map holds the only quarantine reference");
        }
    }
}
