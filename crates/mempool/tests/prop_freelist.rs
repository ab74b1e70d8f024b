//! Model-based property tests for the [`FreeList`]: exact-size bins,
//! smallest-fit coalesced segments, bump tail.
//!
//! The reference model (`model/mod.rs`: vectors, linear scans, eager
//! coalescing) runs the same random alloc/free sequence as the real list.
//! The real list must return the *same offsets* (the rule is
//! deterministic), keep bins, segments and tail disjoint, and keep
//! `free_bytes` exactly equal to `capacity - live bytes` after every
//! single step. Each property runs 64 seeded cases ([`for_each_case`]); a
//! failing case prints its seed.

mod model;

use oak_failpoints::{for_each_case, SplitMix64};
use oak_mempool::FreeList;

use model::Model;

const GRAN: u32 = 8;
const CAPACITY: u32 = 4096;

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
                // Allocate a granular size in [8, 256], or now and then
                // one past the bins, in [2056, 2560].
                let len =
                    (((w >> 8) % 32) as u32 + 1) * GRAN + if (w >> 40) % 8 == 0 { 2048 } else { 0 };
                if let Some(off) = model::allocate(&mut fl, &mut model, len) {
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
            model::check(&fl, &model);
            let live_sum: u64 = live.iter().map(|&(_, l)| l as u64).sum();
            assert_eq!(fl.free_bytes() + live_sum, CAPACITY as u64);
        }
        // Drain: freeing everything and flushing must coalesce back to one
        // full segment.
        for (off, len) in live.drain(..) {
            fl.free(off, len);
        }
        fl.flush();
        fl.check_invariants();
        assert_eq!(fl.free_bytes(), CAPACITY as u64);
        assert_eq!(fl.binned_bytes(), 0);
        assert_eq!(fl.segment_count(), 1);
        assert_eq!(fl.largest_segment(), CAPACITY);
    });
}

#[test]
fn largest_segment_bounds_allocatability() {
    for_each_case(0xA2, CASES, |rng| {
        let words = words(rng, 79);
        // `largest_segment` is exactly the largest request the list can
        // still satisfy without a flush: one granule more must fail.
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
/// legal, not out of range) and coalesce with a preceding hole once the
/// bins are flushed.
#[test]
fn free_at_capacity_boundary() {
    let mut fl = FreeList::new(128);
    let a = fl.allocate(64).unwrap();
    let b = fl.allocate(64).unwrap();
    assert_eq!(b + 64, 128, "second allocation must end at capacity");
    fl.free(a, 64);
    fl.free(b, 64);
    fl.check_invariants();
    assert!(fl.flush());
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
    assert!(fl.flush());
    fl.check_invariants();
    assert_eq!(fl.segment_count(), 1);
    assert_eq!(fl.free_bytes(), 256);
}
