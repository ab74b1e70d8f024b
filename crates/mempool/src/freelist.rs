//! First-fit, coalescing free list over a single arena.
//!
//! The paper's default memory manager allocates "from the arena's flat free
//! list using a first-fit approach" (§3.2). We keep free segments in a
//! `BTreeMap` keyed by offset so that freeing can coalesce with both
//! neighbours in O(log n); first-fit scans segments in offset order.
//!
//! All sizes handed to the list are already rounded up to the arena
//! allocation granularity by the pool.

use std::collections::BTreeMap;

/// Allocation granularity in bytes. Every segment offset and length is a
/// multiple of this, which keeps embedded atomics aligned.
pub const GRANULARITY: u32 = 8;

/// Largest padded size still rounded at the fine [`GRANULARITY`]; the
/// magazine and small class-stack tiers serve exactly these sizes.
pub(crate) const SMALL_MAX_PADDED: u32 = 2048;

/// Granularity for oversized (padded > [`SMALL_MAX_PADDED`]) allocations.
/// Coarser rounding keeps the number of oversized size classes small
/// enough that each gets its own exact-size lock-free stack; the cost is
/// at most `LARGE_GRANULARITY - 1` bytes of padding per oversized slice
/// (≤ 11% at the cutoff, shrinking with size).
pub(crate) const LARGE_GRANULARITY: u32 = 256;

/// Rounds `len` up to its allocation granularity: fine-grained up to
/// [`SMALL_MAX_PADDED`], coarse above so every oversized padded size names
/// one of a bounded set of exact-size classes.
#[inline]
pub fn round_up(len: u32) -> u32 {
    let small = (len + GRANULARITY - 1) & !(GRANULARITY - 1);
    if small <= SMALL_MAX_PADDED {
        small
    } else {
        (len + LARGE_GRANULARITY - 1) & !(LARGE_GRANULARITY - 1)
    }
}

/// A first-fit free list managing `[0, capacity)` of one arena.
#[derive(Debug)]
pub struct FreeList {
    /// Free segments: offset → length. Invariant: segments are disjoint,
    /// non-empty, and no two segments are adjacent (they would have been
    /// coalesced).
    free: BTreeMap<u32, u32>,
    capacity: u32,
    free_bytes: u64,
}

impl FreeList {
    /// Creates a list with a single free segment covering the whole arena.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity.is_multiple_of(GRANULARITY));
        let mut free = BTreeMap::new();
        if capacity > 0 {
            free.insert(0, capacity);
        }
        FreeList {
            free,
            capacity,
            free_bytes: capacity as u64,
        }
    }

    /// Total bytes currently free.
    #[inline]
    pub fn free_bytes(&self) -> u64 {
        self.free_bytes
    }

    /// Arena capacity this list manages.
    #[inline]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Allocates `len` bytes (already granularity-rounded), returning the
    /// offset of the segment, or `None` if no segment fits (first-fit).
    pub fn allocate(&mut self, len: u32) -> Option<u32> {
        // Injected miss: the pool skips this arena as if it were full,
        // exercising arena growth and exhaustion paths.
        oak_failpoints::fail_point!("freelist/pop", None);
        debug_assert!(len > 0 && len.is_multiple_of(GRANULARITY));
        // First fit: scan in offset order.
        let (&off, &seg_len) = self.free.iter().find(|&(_, &l)| l >= len)?;
        self.free.remove(&off);
        if seg_len > len {
            self.free.insert(off + len, seg_len - len);
        }
        self.free_bytes -= len as u64;
        Some(off)
    }

    /// Returns a segment to the free list, coalescing with neighbours.
    ///
    /// # Panics
    /// Panics (in debug builds) on double-free or overlapping frees, which
    /// would indicate a reference-management bug upstream.
    pub fn free(&mut self, offset: u32, len: u32) {
        debug_assert!(len > 0 && len.is_multiple_of(GRANULARITY));
        debug_assert!(offset.is_multiple_of(GRANULARITY));
        debug_assert!(offset as u64 + len as u64 <= self.capacity as u64);

        let mut start = offset;
        let mut total = len;

        // Coalesce with predecessor if adjacent.
        if let Some((&p_off, &p_len)) = self.free.range(..offset).next_back() {
            debug_assert!(
                p_off + p_len <= offset,
                "free list corruption: overlapping free of [{offset}, +{len})"
            );
            if p_off + p_len == offset {
                self.free.remove(&p_off);
                start = p_off;
                total += p_len;
            }
        }
        // Coalesce with successor if adjacent.
        if let Some((&s_off, &s_len)) = self.free.range(offset..).next() {
            debug_assert!(
                offset + len <= s_off,
                "free list corruption: overlapping free of [{offset}, +{len})"
            );
            if offset + len == s_off {
                self.free.remove(&s_off);
                total += s_len;
            }
        }
        self.free.insert(start, total);
        self.free_bytes += len as u64;
    }

    /// Number of free segments (fragmentation indicator).
    pub fn segment_count(&self) -> usize {
        self.free.len()
    }

    /// Length of the largest free segment. With `free_bytes`, this bounds
    /// external fragmentation: the biggest allocation this arena can still
    /// satisfy, regardless of how many bytes are free in total.
    //
    // `#[inline]`: only `MemoryPool::stats` calls this. Instantiating its
    // `BTreeMap` iterator in the caller's codegen unit, not next to
    // `allocate`, leaves the first-fit scan as the one local user of
    // `Iter::next`, which LLVM then inlines into the scan loop. Outlined,
    // the loop pays a call per free segment (measured on the repo
    // benchmark: `write-churn` `put_p50_ns` +24 %).
    #[inline]
    pub fn largest_segment(&self) -> u32 {
        self.free.values().copied().max().unwrap_or(0)
    }

    /// Checks structural invariants; used by tests and debug assertions.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut prev_end: u64 = 0;
        let mut sum: u64 = 0;
        let mut first = true;
        for (&off, &len) in &self.free {
            assert!(len > 0, "empty segment at {off}");
            assert!(off % GRANULARITY == 0 && len % GRANULARITY == 0);
            if !first {
                assert!(
                    (off as u64) > prev_end,
                    "segments adjacent or overlapping at {off} (prev end {prev_end})"
                );
            }
            prev_end = off as u64 + len as u64;
            assert!(prev_end <= self.capacity as u64);
            sum += len as u64;
            first = false;
        }
        assert_eq!(sum, self.free_bytes, "free byte accounting drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_list_is_one_segment() {
        let fl = FreeList::new(1024);
        assert_eq!(fl.segment_count(), 1);
        assert_eq!(fl.free_bytes(), 1024);
        fl.check_invariants();
    }

    #[test]
    fn allocate_first_fit_order() {
        let mut fl = FreeList::new(1024);
        let a = fl.allocate(64).unwrap();
        let b = fl.allocate(64).unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 64);
        assert_eq!(fl.free_bytes(), 1024 - 128);
        fl.check_invariants();
    }

    #[test]
    fn free_coalesces_both_sides() {
        let mut fl = FreeList::new(256);
        let a = fl.allocate(64).unwrap();
        let b = fl.allocate(64).unwrap();
        let c = fl.allocate(64).unwrap();
        fl.free(a, 64);
        fl.free(c, 64); // c adjoins the free tail and merges with it
        assert_eq!(fl.segment_count(), 2);
        fl.free(b, 64);
        // Everything merges back to a single segment.
        assert_eq!(fl.segment_count(), 1);
        assert_eq!(fl.free_bytes(), 256);
        fl.check_invariants();
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut fl = FreeList::new(128);
        assert!(fl.allocate(128).is_some());
        assert!(fl.allocate(8).is_none());
    }

    #[test]
    fn first_fit_reuses_freed_hole() {
        let mut fl = FreeList::new(256);
        let a = fl.allocate(64).unwrap();
        let _b = fl.allocate(64).unwrap();
        fl.free(a, 64);
        // A request that fits the hole must take the hole, not the tail.
        let c = fl.allocate(32).unwrap();
        assert_eq!(c, a);
        fl.check_invariants();
    }

    #[test]
    fn split_leaves_remainder() {
        let mut fl = FreeList::new(256);
        let a = fl.allocate(64).unwrap();
        fl.free(a, 64);
        let c = fl.allocate(32).unwrap();
        assert_eq!(c, 0);
        // Remainder of the hole (32 bytes at offset 32) must be allocatable.
        let d = fl.allocate(32).unwrap();
        assert_eq!(d, 32);
        fl.check_invariants();
    }

    #[test]
    fn round_up_is_granular() {
        assert_eq!(round_up(1), 8);
        assert_eq!(round_up(8), 8);
        assert_eq!(round_up(9), 16);
        assert_eq!(round_up(1000), 1000);
        assert_eq!(round_up(1001), 1008);
    }
}
