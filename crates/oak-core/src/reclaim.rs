//! Deferred reclamation of dead key slices (quarantine).
//!
//! Rebalance replaces a frozen chunk with compacted copies and, until this
//! module existed, simply *leaked* the key slices of the replaced chunk's
//! dead entries (entries whose value was ⊥ or marked deleted) — they stayed
//! linked in the frozen chunk, unreachable through any live chunk, holding
//! pool bytes forever. They cannot be freed eagerly either: a concurrent
//! zero-copy reader or scan may still be walking the frozen chunk's linked
//! list (stale-index windows and the replacement-chase protocol make this
//! legal), and every list walk *compares key bytes of dead entries* to
//! navigate. Freeing a dead key under such a walker would hand its bytes to
//! a later allocation and corrupt comparisons.
//!
//! The fix is a small epoch-based quarantine, deliberately simpler than a
//! general EBR (we reclaim exactly one resource class — key slices of
//! replaced chunks — and the pool keeps all memory mapped, so a late read
//! is a *logical* hazard, not UB):
//!
//! * Readers and writers pin before walking chunk lists and hold the pin
//!   for the whole operation (iterators hold one for their whole
//!   lifetime). Pins count into one of two striped bins, selected by the
//!   low bit of the global epoch at entry. There are two kinds of pin, the
//!   same protocol behind both:
//!   * a point operation takes a *borrowed* pin ([`Quarantine::pin`], an
//!     [`OpPin`]): it holds `&Quarantine` for as long as the operation
//!     borrows the map, so taking and dropping it writes the calling
//!     thread's own padded stripe and nothing else — no line another
//!     thread reads or writes;
//!   * a cursor takes an *owning* pin ([`Quarantine::pin_owned`], a
//!     [`CursorPin`]): it is shared into the [`OakRBuffer`]s the cursor
//!     yields, which may outlive the borrow of the map, so it keeps the
//!     quarantine alive through an `Arc` — one reference-count bump on a
//!     map-wide line per cursor, never per operation.
//! * Rebalance [`retire`](Quarantine::retire)s dead key slices, stamping
//!   them with the current epoch `E`.
//! * The epoch advances `E → E+1` only when the bin of parity `(E+1) & 1`
//!   is empty — i.e. no pin from epoch `E-1` or earlier survives.
//! * A retired slice is freed once `epoch ≥ stamp + 2`: two advances prove
//!   every pin taken at or before the retirement has been dropped.
//!
//! Safety argument (all epoch/bin operations are `SeqCst`, with full fences
//! at the pin and retire sites): a walker may only enter a chunk's linked
//! list after observing `replacement() == None` for that chunk *while
//! pinned* (ops locate this way; cursors re-check at every step and hop).
//! Retirement of a chunk's dead keys happens after `set_replacement`, so if
//! a pinned walker (entry epoch `E`) later walks that chunk, its
//! unreplaced-observation preceded the retirement, whose stamp is then
//! `≥ E` (the epoch cannot pass `E+1` while the pin is held — the walker
//! occupies bin `E & 1`, blocking the `E+1 → E+2` advance). Freeing needs
//! `epoch ≥ stamp + 2 ≥ E + 2`, so it waits for the pin to drop.
//!
//! Retiring threads never block: draining is opportunistic (piggybacked on
//! rebalance and on the emergency-reclamation path) and an operation
//! holding its own pin simply cannot free what it retired in the same epoch
//! window — it defers to a later drain.
//!
//! [`OakRBuffer`]: crate::OakRBuffer

use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use oak_mempool::{MemoryPool, SliceRef};
use oak_sync::Mutex;

/// Number of pin-counter stripes; threads are spread round-robin to keep
/// the pin/unpin hot path from serializing on one cache line.
const STRIPES: usize = 8;

/// One cache line of pin counters. `bins[p]` counts live pins whose entry
/// epoch had parity `p`.
#[repr(align(64))]
#[derive(Default)]
struct Stripe {
    bins: [AtomicUsize; 2],
}

/// A key slice awaiting reclamation, stamped with the epoch at retirement.
struct Retired {
    stamp: u64,
    slice: SliceRef,
}

/// Epoch-based quarantine for dead key slices of replaced chunks.
pub(crate) struct Quarantine {
    pool: Arc<MemoryPool>,
    epoch: AtomicU64,
    stripes: [Stripe; STRIPES],
    /// Retired slices in (approximate) stamp order. Stamps can be out of
    /// order by at most one epoch (retire reads the epoch outside the
    /// lock), so stopping a drain at the first ineligible entry only ever
    /// delays an eligible one by a single drain round.
    pending: Mutex<VecDeque<Retired>>,
    pending_bytes: AtomicU64,
    retired_count: AtomicU64,
    drained_bytes: AtomicU64,
    drained_count: AtomicU64,
}

impl Quarantine {
    pub(crate) fn new(pool: Arc<MemoryPool>) -> Self {
        Quarantine {
            pool,
            epoch: AtomicU64::new(0),
            stripes: std::array::from_fn(|_| Stripe::default()),
            pending: Mutex::new(VecDeque::new()),
            pending_bytes: AtomicU64::new(0),
            retired_count: AtomicU64::new(0),
            drained_bytes: AtomicU64::new(0),
            drained_count: AtomicU64::new(0),
        }
    }

    /// A point operation's pin: borrows the quarantine for the operation's
    /// borrow of the map (see the module docs for the two pin kinds).
    #[inline]
    pub(crate) fn pin(&self) -> OpPin<'_> {
        EpochPin::enter(self)
    }

    /// A cursor's pin: owns a reference to the quarantine, so it can be
    /// shared into buffers that outlive the cursor's borrow of the map.
    pub(crate) fn pin_owned(self: &Arc<Self>) -> CursorPin {
        EpochPin::enter(Arc::clone(self))
    }

    /// Quarantines one dead key slice. The leading fence orders the
    /// caller's `set_replacement` publication before the stamp read, which
    /// the epoch safety argument (module docs) relies on.
    pub(crate) fn retire(&self, slice: SliceRef) {
        debug_assert!(!slice.is_null());
        fence(Ordering::SeqCst);
        let stamp = self.epoch.load(Ordering::SeqCst);
        self.pending_bytes
            .fetch_add(slice.len() as u64, Ordering::Relaxed);
        self.retired_count.fetch_add(1, Ordering::Relaxed);
        self.pending.lock().push_back(Retired { stamp, slice });
    }

    /// Tries to advance the epoch: `E → E+1` is legal only when no pin
    /// from parity `(E+1) & 1` (entry epoch ≤ E-1) survives.
    fn try_advance(&self) -> bool {
        let e = self.epoch.load(Ordering::SeqCst);
        let stale_slot = ((e + 1) & 1) as usize;
        let busy: usize = self
            .stripes
            .iter()
            .map(|s| s.bins[stale_slot].load(Ordering::SeqCst))
            .sum();
        if busy != 0 {
            return false;
        }
        self.epoch
            .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// One opportunistic drain round: attempt a single epoch advance, then
    /// free every quarantined slice whose grace period (two advances past
    /// its stamp) has elapsed. Returns the bytes freed.
    pub(crate) fn try_drain(&self) -> u64 {
        oak_failpoints::fail_point!("reclaim/drain");
        self.try_advance();
        let e = self.epoch.load(Ordering::SeqCst);
        let mut batch = Vec::new();
        {
            let mut q = self.pending.lock();
            while let Some(front) = q.front() {
                if front.stamp + 2 <= e {
                    batch.push(q.pop_front().expect("front observed").slice);
                } else {
                    break;
                }
            }
        }
        let mut freed = 0u64;
        for slice in batch {
            freed += slice.len() as u64;
            self.drained_count.fetch_add(1, Ordering::Relaxed);
            self.pool.free(slice);
        }
        if freed > 0 {
            self.pending_bytes.fetch_sub(freed, Ordering::Relaxed);
            self.drained_bytes.fetch_add(freed, Ordering::Relaxed);
        }
        freed
    }

    /// Drains as much as the current pin population allows: repeated
    /// advance+free rounds until the queue is empty or an advance stalls
    /// on a surviving pin. Used by the emergency-reclamation path (whose
    /// caller has dropped its own pin) and by quiescent tests. Returns the
    /// bytes freed.
    pub(crate) fn drain_now(&self) -> u64 {
        let mut total = 0u64;
        for round in 0..8 {
            let freed = self.try_drain();
            total += freed;
            if self.pending.lock().is_empty() {
                break;
            }
            if freed == 0 && round >= 1 {
                // An advance is stalled on a concurrent pin; yielding once
                // gives short operations a chance to unpin, but we never
                // block — leftover slices wait for the next drain.
                std::thread::yield_now();
            }
        }
        total
    }

    /// Bytes currently quarantined (retired, not yet freed).
    pub(crate) fn pending_bytes(&self) -> u64 {
        self.pending_bytes.load(Ordering::Relaxed)
    }

    /// Total slices ever retired.
    pub(crate) fn retired_count(&self) -> u64 {
        self.retired_count.load(Ordering::Relaxed)
    }

    /// Total bytes freed back to the pool by drains.
    pub(crate) fn drained_bytes(&self) -> u64 {
        self.drained_bytes.load(Ordering::Relaxed)
    }

    /// Total slices freed back to the pool by drains.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn drained_count(&self) -> u64 {
        self.drained_count.load(Ordering::Relaxed)
    }

    /// Snapshot of the quarantined slices; the auditor counts these as
    /// reachable (they are owned by the quarantine, not leaked).
    #[cfg_attr(not(feature = "audit"), allow(dead_code))]
    pub(crate) fn pending_refs(&self) -> Vec<SliceRef> {
        self.pending.lock().iter().map(|r| r.slice).collect()
    }
}

impl std::fmt::Debug for Quarantine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Quarantine")
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .field("pending_bytes", &self.pending_bytes())
            .field("retired", &self.retired_count())
            .field("drained_bytes", &self.drained_bytes())
            .finish()
    }
}

/// An epoch pin: while held, no key slice retired at or after the pin's
/// entry epoch can be freed. `Q` is how the pin reaches its quarantine —
/// borrowed ([`OpPin`]) or owned ([`CursorPin`]).
///
/// Taking and releasing a pin costs two atomic RMWs, both on the calling
/// thread's own cache-line-padded stripe: the `fetch_add` that enters a
/// bin and the `fetch_sub` in `Drop` that leaves it. The epoch word is
/// only read (its line is written by `try_advance` alone, once per drain
/// round). An [`OpPin`] touches nothing else; a [`CursorPin`] adds the two
/// RMWs of its `Arc` on the quarantine's reference count, once per cursor.
pub(crate) struct EpochPin<Q: Deref<Target = Quarantine>> {
    q: Q,
    stripe: usize,
    slot: usize,
}

/// The pin of one point operation: borrows the map's quarantine.
pub(crate) type OpPin<'q> = EpochPin<&'q Quarantine>;
/// The pin of a cursor and of the buffers it yields: owns the quarantine.
pub(crate) type CursorPin = EpochPin<Arc<Quarantine>>;

impl<Q: Deref<Target = Quarantine>> EpochPin<Q> {
    /// Pins the current epoch. Increment-then-validate: bump the bin for
    /// the observed epoch's parity, then re-check the epoch; if it moved,
    /// the increment may be in the wrong (reclaimable) bin — undo and
    /// retry. The trailing fence orders the pin before every subsequent
    /// chunk read.
    #[inline]
    fn enter(q: Q) -> Self {
        let stripe = stripe_index();
        loop {
            let e = q.epoch.load(Ordering::SeqCst);
            let slot = (e & 1) as usize;
            q.stripes[stripe].bins[slot].fetch_add(1, Ordering::SeqCst);
            if q.epoch.load(Ordering::SeqCst) == e {
                fence(Ordering::SeqCst);
                return EpochPin { q, stripe, slot };
            }
            q.stripes[stripe].bins[slot].fetch_sub(1, Ordering::SeqCst);
        }
    }
}

impl<Q: Deref<Target = Quarantine>> Drop for EpochPin<Q> {
    fn drop(&mut self) {
        self.q.stripes[self.stripe].bins[self.slot].fetch_sub(1, Ordering::SeqCst);
    }
}

impl<Q: Deref<Target = Quarantine>> std::fmt::Debug for EpochPin<Q> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochPin").finish()
    }
}

/// Per-thread stripe assignment, handed out round-robin on first use.
fn stripe_index() -> usize {
    use std::cell::Cell;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    STRIPE.with(|s| {
        let mut v = s.get();
        if v == usize::MAX {
            v = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
            s.set(v);
        }
        v
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oak_mempool::{MemoryPool, PoolConfig};

    fn pool() -> Arc<MemoryPool> {
        Arc::new(MemoryPool::new(PoolConfig {
            magazines: false,
            lockfree: false,
            arena_size: 64 * 1024,
            max_arenas: 1,
            ..Default::default()
        }))
    }

    #[test]
    fn unpinned_retire_drains_after_two_advances() {
        let q = Arc::new(Quarantine::new(pool()));
        let r = q.pool.allocate(64).unwrap();
        let live_before = q.pool.stats().live_bytes;
        q.retire(r);
        assert_eq!(q.pending_bytes(), 64);
        let freed = q.drain_now();
        assert_eq!(freed, 64);
        assert_eq!(q.pending_bytes(), 0);
        assert_eq!(q.pool.stats().live_bytes, live_before - 64);
    }

    #[test]
    fn pin_blocks_reclamation_until_dropped() {
        let q = Arc::new(Quarantine::new(pool()));
        for owning in [false, true] {
            let r = q.pool.allocate(64).unwrap();
            let pin = if owning {
                (None, Some(q.pin_owned()))
            } else {
                (Some(q.pin()), None)
            };
            // Only the owning kind holds a reference to the quarantine.
            assert_eq!(Arc::strong_count(&q), 1 + owning as usize);
            q.retire(r);
            // The pin caps the epoch at entry+1 < stamp+2: nothing drains.
            assert_eq!(q.drain_now(), 0);
            assert_eq!(q.pending_bytes(), 64);
            drop(pin);
            assert_eq!(q.drain_now(), 64);
            assert_eq!(q.pending_bytes(), 0);
        }
    }

    #[test]
    fn pin_taken_after_retire_does_not_block_forever() {
        let q = Arc::new(Quarantine::new(pool()));
        let r = q.pool.allocate(64).unwrap();
        q.retire(r);
        // Advance twice while unpinned, then pin: the newly pinned epoch
        // is past the stamp's grace period, so draining proceeds.
        assert!(q.try_advance());
        assert!(q.try_advance());
        let _pin = q.pin();
        assert_eq!(q.drain_now(), 64);
    }

    #[test]
    fn counters_accumulate() {
        let q = Arc::new(Quarantine::new(pool()));
        for _ in 0..3 {
            let r = q.pool.allocate(32).unwrap();
            q.retire(r);
        }
        assert_eq!(q.retired_count(), 3);
        assert_eq!(q.pending_refs().len(), 3);
        q.drain_now();
        assert_eq!(q.drained_count(), 3);
        assert_eq!(q.drained_bytes(), 96);
    }
}
