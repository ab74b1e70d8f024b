//! Model-based property tests for the first-fit, coalescing [`FreeList`].
//!
//! A naive reference model (sorted vector of free segments, linear
//! first-fit scan, eager full-vector coalescing) runs the same random
//! alloc/free sequence as the real list. The real list must return the
//! *same offsets* (first-fit is deterministic), keep free segments
//! disjoint and never adjacent, and keep `free_bytes` exactly equal to
//! `capacity - live bytes` after every single step. Each property runs 64
//! seeded cases ([`for_each_case`]); a failing case prints its seed.

use oak_failpoints::{for_each_case, SplitMix64};
use oak_mempool::FreeList;

const GRAN: u32 = 8;
const CAPACITY: u32 = 4096;

/// Naive reference allocator: sorted free segments, linear first-fit,
/// eager coalescing by rebuilding the whole vector on every free.
#[derive(Debug)]
struct Model {
    /// `(offset, len)` sorted by offset; disjoint and non-adjacent.
    segs: Vec<(u32, u32)>,
}

impl Model {
    fn new(capacity: u32) -> Self {
        Model {
            segs: if capacity > 0 {
                vec![(0, capacity)]
            } else {
                Vec::new()
            },
        }
    }

    fn allocate(&mut self, len: u32) -> Option<u32> {
        let i = self.segs.iter().position(|&(_, l)| l >= len)?;
        let (off, seg_len) = self.segs[i];
        if seg_len == len {
            self.segs.remove(i);
        } else {
            self.segs[i] = (off + len, seg_len - len);
        }
        Some(off)
    }

    fn free(&mut self, offset: u32, len: u32) {
        let i = self
            .segs
            .iter()
            .position(|&(o, _)| o > offset)
            .unwrap_or(self.segs.len());
        self.segs.insert(i, (offset, len));
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(self.segs.len());
        for &(o, l) in &self.segs {
            match merged.last_mut() {
                Some(last) if last.0 + last.1 == o => last.1 += l,
                _ => merged.push((o, l)),
            }
        }
        self.segs = merged;
    }

    fn free_bytes(&self) -> u64 {
        self.segs.iter().map(|&(_, l)| l as u64).sum()
    }
}

const CASES: u64 = 64;

/// `1..=max_len` raw words; each test decodes an op from a word's bits.
fn words(rng: &mut SplitMix64, max_len: u64) -> Vec<u64> {
    (0..rng.range(1, max_len)).map(|_| rng.next_u64()).collect()
}

#[test]
fn random_alloc_free_matches_model() {
    for_each_case(0xA1, CASES, |rng| {
        let words = words(rng, 299);
        let mut fl = FreeList::new(CAPACITY);
        let mut model = Model::new(CAPACITY);
        let mut live: Vec<(u32, u32)> = Vec::new();
        for w in words {
            if w % 3 != 0 || live.is_empty() {
                // Allocate a granular size in [8, 256].
                let len = (((w >> 8) % 32) as u32 + 1) * GRAN;
                let got = fl.allocate(len);
                let want = model.allocate(len);
                assert_eq!(got, want, "first-fit divergence for len {}", len);
                if let Some(off) = got {
                    for &(o, l) in &live {
                        assert!(
                            off + len <= o || o + l <= off,
                            "allocated [{},+{}) overlaps live [{},+{})",
                            off,
                            len,
                            o,
                            l
                        );
                    }
                    assert!(off as u64 + len as u64 <= CAPACITY as u64);
                    live.push((off, len));
                }
            } else {
                let i = ((w >> 16) as usize) % live.len();
                let (off, len) = live.swap_remove(i);
                fl.free(off, len);
                model.free(off, len);
            }
            // Structural invariants (disjoint, coalesced, granular) plus
            // exact byte accounting, after every operation.
            fl.check_invariants();
            assert_eq!(fl.free_bytes(), model.free_bytes());
            assert_eq!(fl.segment_count(), model.segs.len());
            let live_sum: u64 = live.iter().map(|&(_, l)| l as u64).sum();
            assert_eq!(fl.free_bytes() + live_sum, CAPACITY as u64);
        }
        // Drain: freeing everything must coalesce back to one full segment.
        for (off, len) in live.drain(..) {
            fl.free(off, len);
        }
        fl.check_invariants();
        assert_eq!(fl.free_bytes(), CAPACITY as u64);
        assert_eq!(fl.segment_count(), 1);
        assert_eq!(fl.largest_segment(), CAPACITY);
    });
}

#[test]
fn largest_segment_bounds_allocatability() {
    for_each_case(0xA2, CASES, |rng| {
        let words = words(rng, 79);
        // `largest_segment` is exactly the largest request the list can
        // still satisfy: one byte (granule) more must fail.
        let mut fl = FreeList::new(CAPACITY);
        let mut live: Vec<(u32, u32)> = Vec::new();
        for w in words {
            let len = (((w >> 4) % 64) as u32 + 1) * GRAN;
            if w % 2 == 0 {
                if let Some(off) = fl.allocate(len) {
                    live.push((off, len));
                }
            } else if !live.is_empty() {
                let (off, l) = live.swap_remove(((w >> 32) as usize) % live.len());
                fl.free(off, l);
            }
        }
        let largest = fl.largest_segment();
        if largest > 0 {
            let off = fl.allocate(largest);
            assert!(off.is_some(), "largest_segment {} not allocatable", largest);
            fl.free(off.unwrap(), largest);
        }
        assert!(fl.allocate(largest + GRAN).is_none());
    });
}

/// Regression: freeing the final segment, whose end sits exactly at
/// `capacity`, must pass the bounds check (`offset + len == capacity` is
/// legal, not out of range) and coalesce with a preceding hole.
#[test]
fn free_at_capacity_boundary() {
    let mut fl = FreeList::new(128);
    let a = fl.allocate(64).unwrap();
    let b = fl.allocate(64).unwrap();
    assert_eq!(b + 64, 128, "second allocation must end at capacity");
    fl.free(a, 64);
    fl.free(b, 64);
    fl.check_invariants();
    assert_eq!(fl.free_bytes(), 128);
    assert_eq!(fl.segment_count(), 1);
    assert_eq!(fl.largest_segment(), 128);
}

/// Regression: the same boundary free when it is the *first* free (no
/// predecessor hole to coalesce with) and when offsets near `u32` scale
/// would overflow a careless `offset + len` check done in 32 bits.
#[test]
fn free_boundary_without_predecessor() {
    let mut fl = FreeList::new(256);
    let mut offs = Vec::new();
    while let Some(o) = fl.allocate(64) {
        offs.push(o);
    }
    assert_eq!(fl.free_bytes(), 0);
    // Free back-to-front: each free's end abuts capacity or the previous
    // (already freed) segment's start.
    for &o in offs.iter().rev() {
        fl.free(o, 64);
        fl.check_invariants();
    }
    assert_eq!(fl.segment_count(), 1);
    assert_eq!(fl.free_bytes(), 256);
}
