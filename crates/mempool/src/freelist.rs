//! Free list over a single arena: exact-size bins, coalesced segments and a
//! bump tail.
//!
//! The paper's memory manager allocates "from the arena's flat free list
//! using a first-fit approach" (§3.2). A first-fit walk costs one step per
//! free segment ahead of the first fit, and under churn the segments pile
//! up, so the walk slows down as the map ages. This list answers every
//! request in O(log n) instead, from three places in order:
//!
//! 1. **Bins.** A freed slice whose padded length is at most
//!    [`SMALL_MAX_PADDED`] is pushed whole onto the bin for exactly that
//!    length (an array indexed by `len / GRANULARITY`), with no coalescing;
//!    a request of that length pops the most recently freed one. Value
//!    payloads, keys and headers come in a few fixed sizes, so most frees
//!    are reused by the next request of the same size without splitting
//!    anything.
//! 2. **Segments.** Coalesced free runs, kept twice: by offset, so a free
//!    merges with both neighbours in O(log n), and by `(length, offset)`,
//!    so the smallest fitting run (lowest offset among equals) is found in
//!    O(log n). The request takes the run's low end; the rest stays free.
//! 3. **Tail.** `[tail, capacity)` has never been handed out, or has been
//!    given back whole: a request bumps `tail`, and a coalesced run that
//!    ends at `tail` is absorbed into it.
//!
//! Binned bytes are free bytes, but only a request of their exact length
//! sees them. When every arena misses, the pool calls [`FreeList::flush`]
//! on each, which coalesces the bins into the segments (and the tail), and
//! probes once more before it grows or gives up.
//!
//! A [`Summary`] beside each list answers "could `allocate(len)` serve?"
//! without the list's lock: a bitmap of the non-empty bins and the largest
//! run (segment or tail). The pool publishes it under the lock after every
//! change, so the pool's probe locks only arenas that can serve.
//!
//! All sizes handed to the list are already rounded up to the arena
//! allocation granularity by the pool.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Allocation granularity in bytes. Every segment offset and length is a
/// multiple of this, which keeps embedded atomics aligned.
pub const GRANULARITY: u32 = 8;

/// Largest padded size still rounded at the fine [`GRANULARITY`], and the
/// largest length that has a bin.
const SMALL_MAX_PADDED: u32 = 2048;

/// Number of bins: one per granular length in `[0, SMALL_MAX_PADDED]`
/// (bin 0 stays empty).
const BINS: usize = (SMALL_MAX_PADDED / GRANULARITY) as usize + 1;

/// Words of a bitmap with one bit per bin.
const BIN_WORDS: usize = BINS.div_ceil(64);

/// Granularity for oversized (padded > [`SMALL_MAX_PADDED`]) allocations.
/// Coarser rounding bounds the number of distinct oversized sizes, so a
/// freed oversized hole fits more later requests; the cost is at most
/// `LARGE_GRANULARITY - 1` bytes of padding per oversized slice (≤ 11% at
/// the cutoff, shrinking with size).
const LARGE_GRANULARITY: u32 = 256;

/// Rounds `len` up to its allocation granularity: fine-grained up to
/// [`SMALL_MAX_PADDED`], coarse above.
#[inline]
pub fn round_up(len: u32) -> u32 {
    let small = (len + GRANULARITY - 1) & !(GRANULARITY - 1);
    if small <= SMALL_MAX_PADDED {
        small
    } else {
        (len + LARGE_GRANULARITY - 1) & !(LARGE_GRANULARITY - 1)
    }
}

/// The free space of one arena, `[0, capacity)`: exact-size bins, then
/// coalesced segments (smallest fit), then a bump tail.
#[derive(Debug)]
pub struct FreeList {
    /// `bins[len / GRANULARITY]`: offsets of freed slices of exactly `len`
    /// bytes, most recently freed last.
    bins: Box<[Vec<u32>]>,
    /// Bit `i` is set iff `bins[i]` is not empty.
    bin_mask: [u64; BIN_WORDS],
    /// Bytes parked in `bins`.
    binned_bytes: u64,
    /// Coalesced free segments: offset → length. Invariant: segments are
    /// disjoint, non-empty, no two are adjacent, and none ends at `tail`
    /// (each would have been merged).
    segments: BTreeMap<u32, u32>,
    /// The same segments as `(length, offset)`, for smallest fit.
    by_len: BTreeSet<(u32, u32)>,
    /// Start of the free suffix `[tail, capacity)`.
    tail: u32,
    capacity: u32,
    free_bytes: u64,
}

impl FreeList {
    /// Creates a list whose whole arena is the free tail.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity.is_multiple_of(GRANULARITY));
        FreeList {
            bins: vec![Vec::new(); BINS].into_boxed_slice(),
            bin_mask: [0; BIN_WORDS],
            binned_bytes: 0,
            segments: BTreeMap::new(),
            by_len: BTreeSet::new(),
            tail: 0,
            capacity,
            free_bytes: capacity as u64,
        }
    }

    /// Total bytes currently free: binned, in segments, and in the tail.
    #[inline]
    pub fn free_bytes(&self) -> u64 {
        self.free_bytes
    }

    /// Bytes parked in exact-size bins: free, but reachable only by a
    /// request of their exact length until the next [`flush`](Self::flush).
    #[inline]
    pub fn binned_bytes(&self) -> u64 {
        self.binned_bytes
    }

    /// Arena capacity this list manages.
    #[inline]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Allocates `len` bytes (already granularity-rounded), returning the
    /// slice's offset, or `None` if neither the bin for `len`, nor any
    /// segment, nor the tail can hold it.
    pub fn allocate(&mut self, len: u32) -> Option<u32> {
        // Injected miss: the pool moves on as if this arena were full. Only
        // a locked probe reaches this site, so an arena that its summary
        // rules out never evaluates it; the locked pass before the flush
        // probes every arena, and misses injected there drive the flush,
        // arena growth and exhaustion paths.
        oak_failpoints::fail_point!("freelist/pop", None);
        debug_assert!(len > 0 && len.is_multiple_of(GRANULARITY));
        let b = bin(len);
        let off = if let Some(off) = self.bins.get_mut(b).and_then(Vec::pop) {
            if self.bins[b].is_empty() {
                self.bin_mask[b / 64] &= !(1 << (b % 64));
            }
            self.binned_bytes -= len as u64;
            off
        } else if let Some(&(seg_len, off)) = self.by_len.range((len, 0)..).next() {
            self.unlink(off, seg_len);
            if seg_len > len {
                self.link(off + len, seg_len - len);
            }
            off
        } else if self.capacity - self.tail >= len {
            self.tail += len;
            self.tail - len
        } else {
            return None;
        };
        self.free_bytes -= len as u64;
        Some(off)
    }

    /// Returns a slice to the list: onto the bin for its length if it has
    /// one, else into the segments, coalescing with its neighbours.
    ///
    /// # Panics
    /// Panics (in debug builds) on a free outside the handed-out prefix or
    /// overlapping a free segment, which would indicate a
    /// reference-management bug upstream. A double free of a binned length
    /// is not detected here: the pool's audit ledger catches it before the
    /// push.
    pub fn free(&mut self, offset: u32, len: u32) {
        debug_assert!(len > 0 && len.is_multiple_of(GRANULARITY));
        debug_assert!(offset.is_multiple_of(GRANULARITY));
        debug_assert!(
            offset as u64 + len as u64 <= self.tail as u64,
            "free list corruption: free of [{offset}, +{len}) past the tail"
        );
        let b = bin(len);
        if let Some(slices) = self.bins.get_mut(b) {
            slices.push(offset);
            self.bin_mask[b / 64] |= 1 << (b % 64);
            self.binned_bytes += len as u64;
        } else {
            self.coalesce(offset, len);
        }
        self.free_bytes += len as u64;
    }

    /// Moves every binned slice into the segments, coalescing as it goes.
    /// Returns whether there was anything to move.
    pub fn flush(&mut self) -> bool {
        if self.binned_bytes == 0 {
            return false;
        }
        for i in 1..BINS {
            let len = i as u32 * GRANULARITY;
            while let Some(off) = self.bins[i].pop() {
                self.coalesce(off, len);
            }
        }
        self.bin_mask = [0; BIN_WORDS];
        self.binned_bytes = 0;
        true
    }

    /// Inserts the free run `[offset, +len)` into the segments, merged with
    /// its free neighbours; a run that reaches the tail joins it.
    fn coalesce(&mut self, offset: u32, len: u32) {
        let mut start = offset;
        let mut total = len;
        if let Some((&p_off, &p_len)) = self.segments.range(..offset).next_back() {
            debug_assert!(
                p_off + p_len <= offset,
                "free list corruption: overlapping free of [{offset}, +{len})"
            );
            if p_off + p_len == offset {
                self.unlink(p_off, p_len);
                start = p_off;
                total += p_len;
            }
        }
        if let Some((&s_off, &s_len)) = self.segments.range(offset..).next() {
            debug_assert!(
                offset + len <= s_off,
                "free list corruption: overlapping free of [{offset}, +{len})"
            );
            if offset + len == s_off {
                self.unlink(s_off, s_len);
                total += s_len;
            }
        }
        if start + total == self.tail {
            self.tail = start;
        } else {
            self.link(start, total);
        }
    }

    fn link(&mut self, off: u32, len: u32) {
        self.segments.insert(off, len);
        self.by_len.insert((len, off));
    }

    fn unlink(&mut self, off: u32, len: u32) {
        self.segments.remove(&off);
        self.by_len.remove(&(len, off));
    }

    /// Number of free pieces (fragmentation indicator): each segment, each
    /// binned slice, and the tail if it is not empty.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
            + self.bins.iter().map(Vec::len).sum::<usize>()
            + usize::from(self.tail < self.capacity)
    }

    /// Length of the largest free piece: the biggest allocation this arena
    /// can satisfy without a flush, regardless of how many bytes are free
    /// in total.
    pub fn largest_segment(&self) -> u32 {
        let binned = self
            .bins
            .iter()
            .rposition(|b| !b.is_empty())
            .map_or(0, |i| i as u32 * GRANULARITY);
        self.largest_run().max(binned)
    }

    /// The larger of the largest segment and the tail: every request of at
    /// most this many bytes is served whether or not its bin is empty.
    fn largest_run(&self) -> u32 {
        let segment = self.by_len.last().map_or(0, |&(len, _)| len);
        segment.max(self.capacity - self.tail)
    }

    /// The non-empty bins, recomputed from the bins themselves.
    fn bins_in_use(&self) -> [u64; BIN_WORDS] {
        let mut mask = [0; BIN_WORDS];
        for (i, _) in self.bins.iter().enumerate().filter(|(_, b)| !b.is_empty()) {
            mask[i / 64] |= 1 << (i % 64);
        }
        mask
    }

    /// Checks structural invariants; used by tests and debug assertions.
    /// Bins, segments and tail must be pairwise disjoint and inside the
    /// arena, segments fully coalesced, and the byte counts exact.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        assert!(self.tail <= self.capacity && self.tail.is_multiple_of(GRANULARITY));
        assert_eq!(
            self.segments.len(),
            self.by_len.len(),
            "length index drifted"
        );
        let mut pieces: Vec<(u32, u32)> = Vec::new();
        let mut prev_end: Option<u64> = None;
        for (&off, &len) in &self.segments {
            assert!(len > 0, "empty segment at {off}");
            assert!(
                self.by_len.contains(&(len, off)),
                "segment {off} not indexed"
            );
            if let Some(end) = prev_end {
                assert!(
                    off as u64 > end,
                    "segments adjacent or overlapping at {off} (prev end {end})"
                );
            }
            prev_end = Some(off as u64 + len as u64);
            assert_ne!(
                off + len,
                self.tail,
                "segment at {off} not merged into the tail"
            );
            pieces.push((off, len));
        }
        let mut binned = 0u64;
        for (i, bin) in self.bins.iter().enumerate() {
            let len = i as u32 * GRANULARITY;
            assert!(i > 0 || bin.is_empty(), "bin 0 holds slices");
            binned += bin.len() as u64 * len as u64;
            pieces.extend(bin.iter().map(|&off| (off, len)));
        }
        assert_eq!(binned, self.binned_bytes, "binned byte accounting drifted");
        assert_eq!(self.bin_mask, self.bins_in_use(), "bin bitmap drifted");
        if self.tail < self.capacity {
            pieces.push((self.tail, self.capacity - self.tail));
        }
        pieces.sort_unstable();
        let mut sum = 0u64;
        let mut end = 0u64;
        for &(off, len) in &pieces {
            assert!(off.is_multiple_of(GRANULARITY) && len.is_multiple_of(GRANULARITY));
            assert!(
                off as u64 >= end,
                "free pieces overlap at {off} (prev end {end})"
            );
            end = off as u64 + len as u64;
            assert!(end <= self.capacity as u64, "free piece past the arena");
            sum += len as u64;
        }
        assert_eq!(sum, self.free_bytes, "free byte accounting drifted");
    }
}

/// What one arena's [`FreeList`] can serve, readable without the list's
/// lock: bit `i` of `bins` is set iff bin `i` holds a slice, and
/// `largest_run` is [`FreeList::largest_run`]. Only the holder of the
/// list's lock writes it, through [`publish`](Self::publish) after every
/// change, so whenever that lock is free it equals the list's own answer.
/// It publishes no other data: readers load it `Relaxed`, and the locked
/// probe that follows reads the list itself. A stale value is the answer
/// of a locked probe made a moment earlier.
#[derive(Debug)]
#[repr(align(64))]
pub(crate) struct Summary {
    bins: [AtomicU64; BIN_WORDS],
    largest_run: AtomicU32,
}

impl Summary {
    /// The summary of `list` as it stands.
    pub(crate) fn of(list: &FreeList) -> Self {
        Summary {
            bins: list.bin_mask.map(AtomicU64::new),
            largest_run: AtomicU32::new(list.largest_run()),
        }
    }

    /// Publishes `list`'s state. The caller holds `list`'s lock. A word
    /// that did not change is not stored, so readers' copies of its cache
    /// line stay valid.
    #[inline]
    pub(crate) fn publish(&self, list: &FreeList) {
        for (word, &bits) in self.bins.iter().zip(&list.bin_mask) {
            if word.load(Ordering::Relaxed) != bits {
                word.store(bits, Ordering::Relaxed);
            }
        }
        let run = list.largest_run();
        if self.largest_run.load(Ordering::Relaxed) != run {
            self.largest_run.store(run, Ordering::Relaxed);
        }
    }

    /// Whether `allocate(len)` on the list could serve, as of the last
    /// publish: its bin holds a slice, or a run of at least `len` bytes is
    /// free. `false` exactly when the locked call would return `None`.
    #[inline]
    pub(crate) fn may_serve(&self, len: u32) -> bool {
        let b = bin(len);
        self.largest_run.load(Ordering::Relaxed) >= len
            || (b < BINS && self.bins[b / 64].load(Ordering::Relaxed) & (1 << (b % 64)) != 0)
    }

    /// Asserts that this summary of arena `arena` equals the one
    /// recomputed from `list`, whose lock the caller holds.
    pub(crate) fn check(&self, list: &FreeList, arena: usize) {
        let bins = self.bins.each_ref().map(|w| w.load(Ordering::Relaxed));
        assert_eq!(bins, list.bins_in_use(), "arena {arena}: stale bin bitmap");
        assert_eq!(
            self.largest_run.load(Ordering::Relaxed),
            list.largest_run(),
            "arena {arena}: stale largest run"
        );
    }
}

/// The bin index of a granular length; lengths past
/// [`SMALL_MAX_PADDED`] index past the end of the bins.
#[inline]
fn bin(len: u32) -> usize {
    (len / GRANULARITY) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_list_is_one_segment() {
        let fl = FreeList::new(1024);
        assert_eq!(fl.segment_count(), 1);
        assert_eq!(fl.free_bytes(), 1024);
        assert_eq!(fl.largest_segment(), 1024);
        fl.check_invariants();
    }

    #[test]
    fn fresh_list_bumps_the_tail() {
        let mut fl = FreeList::new(1024);
        assert_eq!(fl.allocate(64), Some(0));
        assert_eq!(fl.allocate(64), Some(64));
        assert_eq!(fl.free_bytes(), 1024 - 128);
        fl.check_invariants();
    }

    #[test]
    fn freed_slice_is_reused_by_its_exact_size_only() {
        let mut fl = FreeList::new(256);
        let a = fl.allocate(64).unwrap();
        let _b = fl.allocate(64).unwrap();
        fl.free(a, 64);
        assert_eq!(fl.binned_bytes(), 64);
        // A smaller request does not split the binned slice: it bumps.
        assert_eq!(fl.allocate(32), Some(128));
        // The same size pops it.
        assert_eq!(fl.allocate(64), Some(a));
        assert_eq!(fl.binned_bytes(), 0);
        fl.check_invariants();
    }

    #[test]
    fn bins_pop_most_recent_first() {
        let mut fl = FreeList::new(256);
        let a = fl.allocate(32).unwrap();
        let b = fl.allocate(32).unwrap();
        fl.free(a, 32);
        fl.free(b, 32);
        assert_eq!(fl.allocate(32), Some(b));
        assert_eq!(fl.allocate(32), Some(a));
        fl.check_invariants();
    }

    #[test]
    fn flush_coalesces_bins_into_the_tail() {
        let mut fl = FreeList::new(256);
        let a = fl.allocate(64).unwrap();
        let b = fl.allocate(64).unwrap();
        let c = fl.allocate(64).unwrap();
        fl.free(a, 64);
        fl.free(c, 64);
        assert_eq!(fl.segment_count(), 3, "two binned slices and the tail");
        assert!(fl.flush());
        // `c` joined the tail; `a` is a segment of its own.
        assert_eq!(fl.segment_count(), 2);
        fl.free(b, 64);
        assert!(fl.flush());
        assert!(!fl.flush(), "nothing left to flush");
        assert_eq!(fl.segment_count(), 1);
        assert_eq!(fl.free_bytes(), 256);
        assert_eq!(fl.largest_segment(), 256);
        fl.check_invariants();
    }

    #[test]
    fn smallest_fit_lowest_offset_among_equals() {
        let mut fl = FreeList::new(4096);
        // Segments of 3072 B at 0, 64 B at 3136 and 64 B at 3264, with
        // live guards between them, then the tail at 3392.
        let big = fl.allocate(3072).unwrap();
        let _g1 = fl.allocate(64).unwrap();
        let s1 = fl.allocate(64).unwrap();
        let _g2 = fl.allocate(64).unwrap();
        let s2 = fl.allocate(64).unwrap();
        let _g3 = fl.allocate(64).unwrap();
        fl.free(big, 3072);
        fl.free(s2, 64);
        fl.free(s1, 64);
        fl.flush();
        fl.check_invariants();
        // A 32 B request takes the lowest of the two smallest fits, not
        // the big segment at offset 0 nor the tail.
        assert_eq!(fl.allocate(32), Some(s1));
        // Its 32 B remainder is now the smallest fit.
        assert_eq!(fl.allocate(24), Some(s1 + 32));
        // Too big for any segment but the first: it splits that one.
        assert_eq!(fl.allocate(2304), Some(big));
        fl.check_invariants();
    }

    #[test]
    fn oversized_frees_coalesce_at_once() {
        let mut fl = FreeList::new(8192);
        let a = fl.allocate(2304).unwrap();
        let b = fl.allocate(2304).unwrap();
        fl.free(b, 2304);
        assert_eq!(fl.binned_bytes(), 0);
        assert_eq!(fl.segment_count(), 1, "b joined the tail");
        fl.free(a, 2304);
        assert_eq!(fl.largest_segment(), 8192);
        fl.check_invariants();
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut fl = FreeList::new(128);
        assert!(fl.allocate(128).is_some());
        assert!(fl.allocate(8).is_none());
    }

    #[test]
    fn split_leaves_remainder() {
        let mut fl = FreeList::new(256);
        let a = fl.allocate(64).unwrap();
        let _guard = fl.allocate(8).unwrap();
        fl.free(a, 64);
        fl.flush();
        assert_eq!(fl.allocate(32), Some(0));
        // Remainder of the hole (32 bytes at offset 32) must be allocatable.
        assert_eq!(fl.allocate(32), Some(32));
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
