//! Size-classed allocation magazines.
//!
//! *Concurrent Fixed-Size Allocation and Free in Constant Time* (PAPERS.md)
//! observes that a concurrent allocator's fast path should not take a shared
//! lock. The pool's first-fit free lists are guarded by per-arena mutexes,
//! and every thread probes arenas in the same order, so allocation-heavy
//! workloads serialize on arena 0's lock. This module interposes a magazine
//! layer: small per-slot caches of ready-to-hand-out slices, one stack per
//! size class, refilled in batches from (and flushed in batches back to) the
//! free lists so the lock is amortized over [`REFILL_BATCH`] slices instead
//! of being taken once per allocation.
//!
//! Slots, not threads, own magazines: the rack holds a fixed array of
//! [`SLOTS`] mutex-guarded slot magazines and each thread is pinned to one
//! slot by a process-wide thread counter (threads ≤ slots ⇒ no sharing; more
//! threads degrade gracefully to a shared slot). Compared to true
//! `thread_local!` storage this keeps every cached slice reachable from the
//! pool itself, which buys three properties the design needs:
//!
//! - **Emergency flush**: `recover_or_err`'s out-of-memory ladder can flush
//!   *all* magazines from whichever thread hit exhaustion
//!   ([`MemoryPool::flush_magazines`](crate::MemoryPool::flush_magazines)).
//! - **Audit compatibility**: slices parked in a magazine are *free, not
//!   leaked*. The rack tracks its held bytes so `stats()`/`audit()` can
//!   count them on the free side of the balance sheet.
//! - **No pool-identity hazards**: a thread-local cache keyed by pool
//!   address would outlive the pool and could poison a new pool reusing the
//!   same address; the rack dies with its pool.
//!
//! An uncontended futex-mutex acquisition is a single CAS, so a
//! magazine hit costs one CAS on a slot nothing else touches — the
//! contended path (free-list lock plus first-fit search) is reserved for
//! refills and flushes, which [`PoolStats::magazine_hits`] vs
//! [`PoolStats::freelist_lock_acquires`](crate::PoolStats) quantify.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use oak_sync::Mutex;

use crate::freelist::GRANULARITY;

/// Largest padded slice size served from magazines. Covers keys, value
/// headers, and the benchmark's default 1 KiB values; larger slices skip
/// the magazine batching (which would retain too much memory) and recycle
/// through the oversized class stacks or the free lists.
pub(crate) const MAG_MAX_PADDED: u32 = crate::freelist::SMALL_MAX_PADDED;

/// Number of slot magazines per rack. Threads are striped across slots, so
/// up to this many threads allocate with zero slot sharing.
pub(crate) const SLOTS: usize = 16;

/// Slices grabbed from a free list per refill (one lock acquisition).
pub(crate) const REFILL_BATCH: usize = 16;

/// Per-class capacity of a slot magazine; pushing beyond this trims the
/// magazine back to half, returning the surplus to the free lists.
pub(crate) const MAG_CAP: usize = 64;

/// Process-wide thread counter used to stripe threads across slots.
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % SLOTS;
}

/// The slot this thread is pinned to.
#[inline]
pub(crate) fn thread_slot() -> usize {
    THREAD_SLOT.with(|s| *s)
}

/// A cached slice: arena index and byte offset. The length is implied by
/// the size class it is filed under.
pub(crate) type CachedSlice = (u32, u32);

#[derive(Default)]
struct SlotMag {
    /// One LIFO stack per size class, lazily materialized. Index is
    /// `padded / GRANULARITY - 1`.
    classes: Vec<Vec<CachedSlice>>,
}

impl SlotMag {
    #[inline]
    fn class_mut(&mut self, idx: usize) -> &mut Vec<CachedSlice> {
        if self.classes.len() <= idx {
            self.classes.resize_with(idx + 1, Vec::new);
        }
        &mut self.classes[idx]
    }
}

/// A pool's rack of slot magazines.
pub(crate) struct MagazineRack {
    slots: Box<[Mutex<SlotMag>]>,
    /// Total bytes parked across all slots: free capacity invisible to the
    /// free lists, reported by `stats()`/`audit()` as free.
    held_bytes: AtomicU64,
}

#[inline]
fn class_index(padded: u32) -> usize {
    debug_assert!((GRANULARITY..=MAG_MAX_PADDED).contains(&padded));
    (padded / GRANULARITY) as usize - 1
}

impl MagazineRack {
    pub(crate) fn new() -> Self {
        MagazineRack {
            slots: (0..SLOTS)
                .map(|_| Mutex::new(SlotMag::default()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            held_bytes: AtomicU64::new(0),
        }
    }

    /// Bytes currently parked in magazines.
    #[inline]
    pub(crate) fn held_bytes(&self) -> u64 {
        self.held_bytes.load(Ordering::Relaxed)
    }

    /// Pops a cached slice of class `padded` from the calling thread's
    /// slot, if one is available.
    pub(crate) fn try_pop(&self, padded: u32) -> Option<CachedSlice> {
        let idx = class_index(padded);
        let mut slot = self.slots[thread_slot()].lock();
        let cached = slot.classes.get_mut(idx)?.pop()?;
        self.held_bytes.fetch_sub(padded as u64, Ordering::Relaxed);
        Some(cached)
    }

    /// Files a freed slice into the calling thread's slot. When the class
    /// overflows [`MAG_CAP`], returns the surplus (trimmed to half
    /// capacity) for the pool to hand back to the free lists.
    pub(crate) fn push(&self, padded: u32, slice: CachedSlice) -> Option<Vec<CachedSlice>> {
        let idx = class_index(padded);
        let mut slot = self.slots[thread_slot()].lock();
        let class = slot.class_mut(idx);
        class.push(slice);
        if class.len() <= MAG_CAP {
            self.held_bytes.fetch_add(padded as u64, Ordering::Relaxed);
            return None;
        }
        // Trim from the bottom of the stack so the hottest (most recently
        // freed, cache-warm) slices stay in the magazine.
        let trim = class.len() - MAG_CAP / 2;
        let surplus: Vec<CachedSlice> = class.drain(..trim).collect();
        // The pushed slice is part of the surplus; only the retained delta
        // (if any) counts as newly held. Here exactly one slice's worth
        // leaves relative to before the push, net of the one pushed:
        let released = (surplus.len() as u64 - 1) * padded as u64;
        self.held_bytes.fetch_sub(released, Ordering::Relaxed);
        Some(surplus)
    }

    /// Banks a refill batch into the calling thread's slot.
    pub(crate) fn bank(&self, padded: u32, slices: &[CachedSlice]) {
        if slices.is_empty() {
            return;
        }
        let idx = class_index(padded);
        let mut slot = self.slots[thread_slot()].lock();
        slot.class_mut(idx).extend_from_slice(slices);
        self.held_bytes
            .fetch_add(padded as u64 * slices.len() as u64, Ordering::Relaxed);
    }

    /// Empties every slot, returning `(padded_len, slice)` pairs so the
    /// pool can return them to the free lists. Used by the emergency
    /// out-of-memory ladder and by exhaustion-triggered retries.
    pub(crate) fn drain_all(&self) -> Vec<(u32, CachedSlice)> {
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            let mut slot = slot.lock();
            for (idx, class) in slot.classes.iter_mut().enumerate() {
                let padded = (idx as u32 + 1) * GRANULARITY;
                for slice in class.drain(..) {
                    self.held_bytes.fetch_sub(padded as u64, Ordering::Relaxed);
                    out.push((padded, slice));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_returns_pushed() {
        let rack = MagazineRack::new();
        assert!(rack.try_pop(64).is_none());
        assert!(rack.push(64, (0, 128)).is_none());
        assert_eq!(rack.held_bytes(), 64);
        assert_eq!(rack.try_pop(64), Some((0, 128)));
        assert_eq!(rack.held_bytes(), 0);
        // Different class stays empty.
        assert!(rack.push(64, (0, 256)).is_none());
        assert!(rack.try_pop(72).is_none());
    }

    #[test]
    fn overflow_trims_to_half() {
        let rack = MagazineRack::new();
        for i in 0..MAG_CAP {
            assert!(rack.push(8, (0, i as u32 * 8)).is_none());
        }
        let surplus = rack.push(8, (0, 9999)).expect("overflow");
        assert_eq!(surplus.len(), MAG_CAP / 2 + 1);
        assert_eq!(rack.held_bytes(), (MAG_CAP / 2) as u64 * 8);
    }

    #[test]
    fn drain_all_empties_every_class() {
        let rack = MagazineRack::new();
        rack.bank(8, &[(0, 0), (0, 8)]);
        rack.bank(2048, &[(1, 0)]);
        assert_eq!(rack.held_bytes(), 16 + 2048);
        let mut drained = rack.drain_all();
        drained.sort_unstable();
        assert_eq!(drained, vec![(8, (0, 0)), (8, (0, 8)), (2048, (1, 0))]);
        assert_eq!(rack.held_bytes(), 0);
        assert!(rack.drain_all().is_empty());
    }
}
