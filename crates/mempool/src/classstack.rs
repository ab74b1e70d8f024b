//! Lock-free per-size-class slice stacks.
//!
//! *Concurrent Fixed-Size Allocation and Free in Constant Time* (PAPERS.md,
//! Blelloch & Wei) observes that once allocation is size-classed, the free
//! path and the refill path reduce to push/pop on a per-class pool that a
//! CAS loop can serve in constant time — no allocator-wide mutex. This
//! module supplies that layer for the dominant (≤ 2 KiB padded) classes:
//!
//! - [`ClassStack`] is a bounded Treiber stack of packed `(arena, offset)`
//!   slice words. Nodes are preallocated in one boxed slab and threaded
//!   through **two** tagged intrusive lists (the live stack and the free
//!   node list), so a push is pop-free-node → store value → CAS-publish and
//!   a pop is the mirror image: every operation is a constant number of
//!   CAS attempts per contender, with no locks and no dynamic memory.
//! - [`ClassStacks`] is the pool-facing rack: one lazily-materialized
//!   `ClassStack` per size class, plus the held-bytes ledger that keeps
//!   `stats()`/`audit()` balance sheets exact (stack-parked bytes are free
//!   capacity, not leaks).
//!
//! ## ABA defense: tagged heads
//!
//! Both list heads pack `(tag, node index)` into one `AtomicU64`; every
//! successful CAS bumps the 32-bit tag. A pop that read head `(t, n)` and
//! was preempted while node `n` was popped, recycled, and re-pushed will
//! fail its CAS — the head may hold index `n` again but never tag `t`
//! (wrap-around would require exactly 2³² successful operations between
//! one contender's read and its CAS). Node payloads (`next`, `val`) are
//! plain atomics, so the benign stale reads inherent to Treiber stacks are
//! data-race-free under Miri/TSan: a loser's stale `next`/`val` read is
//! discarded when its tagged CAS fails.
//!
//! ## Ordering
//!
//! `val` is stored `Relaxed` *before* the `Release` CAS that publishes the
//! node on the live stack; the popping thread's `Acquire` CAS on the same
//! head synchronizes-with it (RMWs extend the release sequence), so the
//! value read after winning a pop is the pusher's. Failed CAS loads are
//! `Acquire` only to refresh the head; values read under a stale head are
//! never used.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::freelist::{GRANULARITY, LARGE_GRANULARITY};
use crate::magazine::{CachedSlice, MAG_MAX_PADDED};
use crate::stats::Counters;

/// Sentinel node index for an empty list.
const NIL: u32 = u32::MAX;

/// Nodes per class stack. Bounds how many free slices a class can park
/// off the coalescing free lists (1024 × 2 KiB = 2 MiB worst case per hot
/// class); a push to a full stack falls back to the mutex free list, so
/// the bound is a retention cap, not a correctness limit.
pub(crate) const STACK_CAP: usize = 1024;

/// Number of size classes served lock-free: `8, 16, …, 2048` padded bytes.
pub(crate) const NUM_CLASSES: usize = (MAG_MAX_PADDED / GRANULARITY) as usize;

/// Largest padded size the oversized class-stack tier recycles lock-free.
/// Frees above this take the per-arena mutex free list — they are rare
/// (multi-chunk-entry arrays and jumbo values) and coalescing them eagerly
/// matters more than lock traffic.
pub const LARGE_MAX_PADDED: u32 = 32 * 1024;

/// Oversized size classes: `2048+256, 2048+512, …, 32768` padded bytes —
/// one exact-size stack per [`LARGE_GRANULARITY`] step above the small
/// cutoff (padded sizes over the cutoff are rounded to that granularity,
/// so every oversized padded size names exactly one class).
pub(crate) const NUM_LARGE_CLASSES: usize =
    ((LARGE_MAX_PADDED - MAG_MAX_PADDED) / LARGE_GRANULARITY) as usize;

/// Nodes per oversized class stack: a smaller retention cap because each
/// parked slice is big (128 × 32 KiB = 4 MiB worst case per class).
pub(crate) const LARGE_STACK_CAP: usize = 128;

#[inline]
fn pack(tag: u32, idx: u32) -> u64 {
    ((tag as u64) << 32) | idx as u64
}

#[inline]
fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// Packs a cached slice into the 64-bit node payload.
#[inline]
fn pack_slice((block, offset): CachedSlice) -> u64 {
    ((block as u64) << 32) | offset as u64
}

#[inline]
fn unpack_slice(word: u64) -> CachedSlice {
    ((word >> 32) as u32, word as u32)
}

/// A preallocated stack node. Both fields are atomics because a stalled
/// contender may read them after the node was recycled (see module docs);
/// such reads are discarded when the tagged head CAS fails.
#[derive(Debug)]
struct Node {
    next: AtomicU32,
    val: AtomicU64,
}

/// Outcome of one CAS loop: the popped index (if any) plus how many CAS
/// attempts failed before the loop resolved, for the `cas_retries` counter.
struct PopOutcome {
    idx: Option<u32>,
    retries: u64,
}

/// A bounded lock-free Treiber stack of packed slice words.
#[derive(Debug)]
pub(crate) struct ClassStack {
    nodes: Box<[Node]>,
    /// Tagged head of the live stack (slices ready to hand out).
    head: AtomicU64,
    /// Tagged head of the free-node list (capacity for future pushes).
    free: AtomicU64,
}

impl ClassStack {
    pub(crate) fn new(cap: usize) -> Self {
        assert!(
            cap > 0 && cap < NIL as usize,
            "invalid class-stack capacity"
        );
        let nodes: Box<[Node]> = (0..cap)
            .map(|i| Node {
                next: AtomicU32::new(if i + 1 < cap { i as u32 + 1 } else { NIL }),
                val: AtomicU64::new(0),
            })
            .collect();
        ClassStack {
            nodes,
            head: AtomicU64::new(pack(0, NIL)),
            free: AtomicU64::new(pack(0, 0)),
        }
    }

    /// Treiber pop from `list`. The `next` read under a stale head may be
    /// garbage; the tagged CAS rejects it.
    fn list_pop(&self, list: &AtomicU64) -> PopOutcome {
        let mut retries = 0u64;
        let mut cur = list.load(Ordering::Acquire);
        loop {
            let (tag, idx) = unpack(cur);
            if idx == NIL {
                return PopOutcome { idx: None, retries };
            }
            let next = self.nodes[idx as usize].next.load(Ordering::Relaxed);
            match list.compare_exchange_weak(
                cur,
                pack(tag.wrapping_add(1), next),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    return PopOutcome {
                        idx: Some(idx),
                        retries,
                    }
                }
                Err(seen) => {
                    retries += 1;
                    cur = seen;
                }
            }
        }
    }

    /// Treiber push of owned node `idx` onto `list`.
    fn list_push(&self, list: &AtomicU64, idx: u32) -> u64 {
        let mut retries = 0u64;
        let mut cur = list.load(Ordering::Relaxed);
        loop {
            let (tag, head_idx) = unpack(cur);
            self.nodes[idx as usize]
                .next
                .store(head_idx, Ordering::Relaxed);
            match list.compare_exchange_weak(
                cur,
                pack(tag.wrapping_add(1), idx),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return retries,
                Err(seen) => {
                    retries += 1;
                    cur = seen;
                }
            }
        }
    }

    /// Pushes a slice word. `Err(val)` means the stack is at capacity (no
    /// free node) and the caller must fall back to the mutex free list.
    /// On success returns the CAS retries spent.
    pub(crate) fn try_push(&self, val: u64) -> Result<u64, u64> {
        let PopOutcome { idx, retries } = self.list_pop(&self.free);
        let Some(idx) = idx else {
            return Err(val);
        };
        self.nodes[idx as usize].val.store(val, Ordering::Relaxed);
        let push_retries = self.list_push(&self.head, idx);
        Ok(retries + push_retries)
    }

    /// Pops a slice word, returning `(value, cas_retries)`.
    pub(crate) fn try_pop(&self) -> (Option<u64>, u64) {
        let PopOutcome { idx, retries } = self.list_pop(&self.head);
        let Some(idx) = idx else {
            return (None, retries);
        };
        // The node is exclusively ours after winning the pop CAS; the
        // Acquire edge makes the pusher's val store visible.
        let val = self.nodes[idx as usize].val.load(Ordering::Relaxed);
        let free_retries = self.list_push(&self.free, idx);
        (Some(val), retries + free_retries)
    }

    /// Number of slices currently on the live stack. Exact only at a
    /// quiescent point (walks the intrusive list); bounded by capacity so
    /// a concurrent mutation can't loop it forever.
    #[cfg(test)]
    pub(crate) fn quiescent_len(&self) -> usize {
        let (_, mut idx) = unpack(self.head.load(Ordering::Acquire));
        let mut n = 0usize;
        while idx != NIL && n < self.nodes.len() {
            n += 1;
            idx = self.nodes[idx as usize].next.load(Ordering::Relaxed);
        }
        n
    }
}

/// The pool-facing rack: one lazily-built stack per size class — the
/// fine-grained ≤ 2 KiB tier plus the coarse oversized tier up to
/// [`LARGE_MAX_PADDED`].
pub(crate) struct ClassStacks {
    stacks: Box<[OnceLock<ClassStack>]>,
    /// Oversized tier: exact-size stacks for `(2 KiB, 32 KiB]` classes.
    large: Box<[OnceLock<ClassStack>]>,
    /// Bytes parked across all class stacks: free capacity off the free
    /// lists, counted on the free side by `stats()`/`audit()`. Updated
    /// once per (batched) push/pop call, not per CAS.
    held_bytes: AtomicU64,
}

#[inline]
fn class_index(padded: u32) -> usize {
    debug_assert!((GRANULARITY..=MAG_MAX_PADDED).contains(&padded));
    (padded / GRANULARITY) as usize - 1
}

#[inline]
fn large_index(padded: u32) -> usize {
    debug_assert!(padded > MAG_MAX_PADDED && padded <= LARGE_MAX_PADDED);
    debug_assert!(padded.is_multiple_of(LARGE_GRANULARITY));
    ((padded - MAG_MAX_PADDED) / LARGE_GRANULARITY) as usize - 1
}

/// `true` when `padded` belongs to a lock-free size class (either tier).
#[inline]
pub(crate) fn serves(padded: u32) -> bool {
    padded <= LARGE_MAX_PADDED
}

impl ClassStacks {
    pub(crate) fn new() -> Self {
        ClassStacks {
            stacks: (0..NUM_CLASSES)
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            large: (0..NUM_LARGE_CLASSES)
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            held_bytes: AtomicU64::new(0),
        }
    }

    #[inline]
    fn slot(&self, padded: u32) -> &OnceLock<ClassStack> {
        if padded <= MAG_MAX_PADDED {
            &self.stacks[class_index(padded)]
        } else {
            &self.large[large_index(padded)]
        }
    }

    #[inline]
    fn stack(&self, padded: u32) -> &ClassStack {
        let cap = if padded <= MAG_MAX_PADDED {
            STACK_CAP
        } else {
            LARGE_STACK_CAP
        };
        self.slot(padded).get_or_init(|| ClassStack::new(cap))
    }

    /// Bytes currently parked on the class stacks.
    #[inline]
    pub(crate) fn held_bytes(&self) -> u64 {
        self.held_bytes.load(Ordering::Relaxed)
    }

    /// Pushes one freed slice onto its class stack. `false` means the
    /// stack was full and the caller must take the mutex free list.
    pub(crate) fn try_push(&self, padded: u32, slice: CachedSlice, counters: &Counters) -> bool {
        match self.stack(padded).try_push(pack_slice(slice)) {
            Ok(retries) => {
                if retries > 0 {
                    counters.cas_retries.add(retries);
                }
                counters.class_stack_pushes.incr();
                self.held_bytes.fetch_add(padded as u64, Ordering::Relaxed);
                true
            }
            Err(_) => false,
        }
    }

    /// Pops up to `want` slices of class `padded` into `out`. Returns the
    /// number popped (0 when the class stack is empty).
    pub(crate) fn pop_batch(
        &self,
        padded: u32,
        want: usize,
        out: &mut Vec<CachedSlice>,
        counters: &Counters,
    ) -> usize {
        // Don't materialize a stack just to find it empty.
        let Some(stack) = self.slot(padded).get() else {
            return 0;
        };
        let mut got = 0usize;
        let mut retries = 0u64;
        while got < want {
            let (val, r) = stack.try_pop();
            retries += r;
            match val {
                Some(v) => {
                    out.push(unpack_slice(v));
                    got += 1;
                }
                None => break,
            }
        }
        if retries > 0 {
            counters.cas_retries.add(retries);
        }
        if got > 0 {
            counters.class_stack_pops.add(got as u64);
            self.held_bytes
                .fetch_sub(padded as u64 * got as u64, Ordering::Relaxed);
        }
        got
    }

    /// Drains every class stack, returning `(padded_len, slice)` pairs so
    /// the pool can coalesce them back into the mutex free lists. This is
    /// the class-stack rung of the flush-all ladder; safe to run
    /// concurrently with pushes (it pops until empty, not until a count).
    pub(crate) fn drain_all(&self, counters: &Counters) -> Vec<(u32, CachedSlice)> {
        let mut out = Vec::new();
        let small = self
            .stacks
            .iter()
            .enumerate()
            .map(|(idx, slot)| ((idx as u32 + 1) * GRANULARITY, slot));
        let large = self
            .large
            .iter()
            .enumerate()
            .map(|(idx, slot)| (MAG_MAX_PADDED + (idx as u32 + 1) * LARGE_GRANULARITY, slot));
        for (padded, slot) in small.chain(large) {
            let Some(stack) = slot.get() else { continue };
            let mut drained = 0u64;
            let mut retries = 0u64;
            loop {
                let (val, r) = stack.try_pop();
                retries += r;
                match val {
                    Some(v) => {
                        out.push((padded, unpack_slice(v)));
                        drained += 1;
                    }
                    None => break,
                }
            }
            if retries > 0 {
                counters.cas_retries.add(retries);
            }
            if drained > 0 {
                counters.class_stack_pops.add(drained);
                self.held_bytes
                    .fetch_sub(padded as u64 * drained, Ordering::Relaxed);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_is_lifo() {
        let s = ClassStack::new(8);
        assert_eq!(s.try_pop().0, None);
        s.try_push(10).unwrap();
        s.try_push(20).unwrap();
        s.try_push(30).unwrap();
        assert_eq!(s.quiescent_len(), 3);
        assert_eq!(s.try_pop().0, Some(30));
        assert_eq!(s.try_pop().0, Some(20));
        assert_eq!(s.try_pop().0, Some(10));
        assert_eq!(s.try_pop().0, None);
        assert_eq!(s.quiescent_len(), 0);
    }

    #[test]
    fn full_stack_rejects_push() {
        let s = ClassStack::new(2);
        s.try_push(1).unwrap();
        s.try_push(2).unwrap();
        assert_eq!(s.try_push(3), Err(3));
        // Popping frees a node; pushing works again.
        assert_eq!(s.try_pop().0, Some(2));
        s.try_push(4).unwrap();
        assert_eq!(s.try_pop().0, Some(4));
        assert_eq!(s.try_pop().0, Some(1));
    }

    #[test]
    fn nodes_recycle_without_value_mixups() {
        // Exercises the ABA-prone pattern sequentially: the same node gets
        // reused for many distinct values and each pop sees the matching
        // value, not a stale one.
        let s = ClassStack::new(1);
        for v in 0..10_000u64 {
            s.try_push(v).unwrap();
            assert_eq!(s.try_pop().0, Some(v));
        }
    }

    #[test]
    fn concurrent_push_pop_conserves_values() {
        // N producers push disjoint value ranges while N consumers pop;
        // afterwards every pushed value was popped exactly once. Run under
        // Miri (reduced iterations) and TSan in CI: the all-atomic node
        // design must hold up with no data races and no lost/duplicated
        // slices even under the ABA-heavy recycle pattern a small stack
        // forces.
        let iters: u64 = if cfg!(miri) { 40 } else { 5_000 };
        let threads = 4u64;
        let s = Arc::new(ClassStack::new(16));
        let popped = Arc::new(oak_sync::Mutex::new(Vec::<u64>::new()));
        let mut handles = Vec::new();
        for t in 0..threads {
            let s = Arc::clone(&s);
            let popped = Arc::clone(&popped);
            handles.push(std::thread::spawn(move || {
                let mut mine = Vec::new();
                for i in 0..iters {
                    let v = t * iters + i + 1;
                    // Alternate push/pop so the tiny stack churns nodes.
                    if s.try_push(v).is_err() {
                        mine.push(v); // full: "fell back to the mutex path"
                    }
                    if i % 2 == 1 {
                        if let (Some(got), _) = s.try_pop() {
                            mine.push(got);
                        }
                    }
                }
                popped.lock().extend(mine);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Drain the residue.
        let mut all = popped.lock().clone();
        while let (Some(v), _) = s.try_pop() {
            all.push(v);
        }
        all.sort_unstable();
        let expected: Vec<u64> = (1..=threads * iters).collect();
        assert_eq!(all, expected, "lost or duplicated values");
    }

    #[test]
    fn oversized_tier_recycles_and_accounts() {
        let counters = Counters::default();
        let rack = ClassStacks::new();
        // 2304 is the first oversized class, 32768 the last.
        assert!(rack.try_push(2304, (0, 0), &counters));
        assert!(rack.try_push(LARGE_MAX_PADDED, (1, 4096), &counters));
        assert_eq!(rack.held_bytes(), 2304 + LARGE_MAX_PADDED as u64);
        let mut out = Vec::new();
        assert_eq!(rack.pop_batch(2304, 4, &mut out, &counters), 1);
        assert_eq!(out, vec![(0, 0)]);
        assert_eq!(rack.held_bytes(), LARGE_MAX_PADDED as u64);
        let drained = rack.drain_all(&counters);
        assert_eq!(drained, vec![(LARGE_MAX_PADDED, (1, 4096))]);
        assert_eq!(rack.held_bytes(), 0);
        let snap = counters.snapshot(Default::default());
        assert_eq!(snap.class_stack_pushes, 2);
        assert_eq!(snap.class_stack_pops, 2);
    }

    #[test]
    fn rack_pops_what_it_pushed_and_accounts_bytes() {
        let counters = Counters::default();
        let rack = ClassStacks::new();
        assert!(rack.try_push(64, (3, 4096), &counters));
        assert!(rack.try_push(64, (3, 8192), &counters));
        assert!(rack.try_push(2048, (1, 0), &counters));
        assert_eq!(rack.held_bytes(), 64 + 64 + 2048);
        let mut out = Vec::new();
        assert_eq!(rack.pop_batch(64, 16, &mut out, &counters), 2);
        assert_eq!(out, vec![(3, 8192), (3, 4096)]);
        assert_eq!(rack.held_bytes(), 2048);
        // Unmaterialized class pops nothing and allocates nothing.
        assert_eq!(rack.pop_batch(72, 4, &mut out, &counters), 0);
        let drained = rack.drain_all(&counters);
        assert_eq!(drained, vec![(2048, (1, 0))]);
        assert_eq!(rack.held_bytes(), 0);
        let snap = counters.snapshot(Default::default());
        assert_eq!(snap.class_stack_pushes, 3);
        assert_eq!(snap.class_stack_pops, 3);
    }
}
