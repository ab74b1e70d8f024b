//! Property-based tests for the memory pool substrate.
//!
//! These check the allocator invariants the rest of the system leans on:
//! no double-allocation, exact accounting, reference round-trips, and value
//! store sequential consistency against a model. Each property runs a
//! fixed number of seeded cases ([`for_each_case`]); a failing case prints
//! its seed.

use std::collections::HashMap;
use std::sync::Arc;

mod model;

use oak_failpoints::{for_each_case, SplitMix64};
use oak_mempool::{AllocError, FreeList, MemoryPool, PoolConfig, SliceRef, ValueStore};

use model::Model;

/// Model-checks the free list: random interleavings of allocs and frees must
/// keep bins, segments and tail disjoint, keep accounting exact, never hand
/// out overlapping regions, and place every allocation where the shared
/// reference model (`model/mod.rs`) puts it.
#[derive(Debug, Clone)]
enum FlOp {
    Alloc(u32),
    FreeNth(usize),
}

fn fl_ops(rng: &mut SplitMix64) -> Vec<FlOp> {
    (0..rng.range(1, 199))
        .map(|_| match rng.below(2) {
            0 => FlOp::Alloc(rng.range(1, 399) as u32 * 8),
            _ => FlOp::FreeNth(rng.below(64) as usize),
        })
        .collect()
}

const CASES: u64 = 64;

#[test]
fn freelist_never_overlaps() {
    for_each_case(0xF1, CASES, |rng| {
        let ops = fl_ops(rng);
        // A cramped arena, where most requests miss or split the last
        // hole, and a roomy one, where holes accumulate ahead of the tail.
        for cap in [4 * 1024, 64 * 1024] {
            let mut fl = FreeList::new(cap);
            let mut model = Model::new(cap);
            let mut live: Vec<(u32, u32)> = Vec::new();
            for op in ops.iter().cloned() {
                match op {
                    FlOp::Alloc(len) => {
                        if let Some(off) = model::allocate(&mut fl, &mut model, len) {
                            // Must not overlap any live allocation.
                            for &(o, l) in &live {
                                assert!(
                                    off + len <= o || o + l <= off,
                                    "overlap: new [{off},+{len}) vs live [{o},+{l})"
                                );
                            }
                            live.push((off, len));
                        }
                    }
                    FlOp::FreeNth(i) => {
                        if !live.is_empty() {
                            let (off, len) = live.swap_remove(i % live.len());
                            fl.free(off, len);
                            model.free(off, len);
                        }
                    }
                }
                model::check(&fl, &model);
                let live_bytes: u64 = live.iter().map(|&(_, l)| l as u64).sum();
                assert_eq!(fl.free_bytes() + live_bytes, cap as u64);
            }
            // Free everything, flush: one segment of `capacity`.
            for (off, len) in live.drain(..) {
                fl.free(off, len);
                model.free(off, len);
            }
            fl.flush();
            model.flush();
            model::check(&fl, &model);
            assert_eq!(fl.segment_count(), 1);
            assert_eq!(fl.largest_segment(), cap);
        }
    });
}

#[test]
fn slice_refs_round_trip() {
    for_each_case(0xF2, CASES, |rng| {
        let block = rng.below(100) as usize;
        let offset = rng.below(1_000_000) as u32;
        let len = rng.range(1, 99_999) as u32;
        let r = SliceRef::new(block, offset, len);
        let raw = r.to_raw();
        let back = SliceRef::from_raw(raw);
        assert_eq!(back.block(), block);
        assert_eq!(back.offset(), offset);
        assert_eq!(back.len(), len);
        assert!(!back.is_null());
    });
}

/// Pool allocations hold their contents: write a fingerprint into every
/// allocation, free a random subset, allocate more, and verify the
/// survivors are intact (i.e. reuse never clobbers live data).
#[test]
fn pool_preserves_live_contents() {
    for_each_case(0xF3, CASES, |rng| {
        let sizes: Vec<usize> = (0..rng.range(1, 99))
            .map(|_| rng.range(1, 2047) as usize)
            .collect();
        let free_mask: Vec<bool> = (0..rng.range(1, 99)).map(|_| rng.below(2) == 1).collect();
        let pool = MemoryPool::new(PoolConfig {
            arena_size: 1 << 16,
            max_arenas: 64,
        });
        let mut live: HashMap<u64, u8> = HashMap::new();
        for (i, &sz) in sizes.iter().enumerate() {
            let r = pool.allocate(sz).unwrap();
            let tag = (i % 251) as u8;
            // SAFETY: `r` is a fresh allocation no other thread has seen.
            unsafe { pool.slice_mut(r) }.fill(tag);
            live.insert(r.to_raw(), tag);
            if *free_mask.get(i).unwrap_or(&false) {
                // Free a random earlier allocation (the first in map order).
                if let Some((&raw, _)) = live.iter().next() {
                    pool.free(SliceRef::from_raw(raw));
                    live.remove(&raw);
                }
            }
        }
        for (&raw, &tag) in &live {
            let r = SliceRef::from_raw(raw);
            // SAFETY: only this thread writes or frees `r`, and not while the view is live.
            let s = unsafe { pool.slice(r) };
            assert!(s.iter().all(|&b| b == tag), "clobbered allocation");
        }
    });
}

/// The value store agrees with a sequential model under arbitrary
/// single-threaded op sequences.
#[test]
fn value_store_matches_model() {
    for_each_case(0xF4, CASES, |rng| {
        let ops: Vec<u8> = (0..rng.range(1, 199)).map(|_| rng.below(5) as u8).collect();
        let payloads: Vec<Vec<u8>> = (0..rng.range(1, 199))
            .map(|_| (0..rng.below(64)).map(|_| rng.next_u64() as u8).collect())
            .collect();
        let vs = ValueStore::new(Arc::new(MemoryPool::new(PoolConfig::small())));
        let mut handles: Vec<(oak_mempool::HeaderRef, Option<Vec<u8>>)> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let data = &payloads[i % payloads.len()];
            match op {
                0 => {
                    let h = vs.allocate_value(data).unwrap();
                    handles.push((h, Some(data.clone())));
                }
                1 if !handles.is_empty() => {
                    let idx = i % handles.len();
                    let (h, model) = &mut handles[idx];
                    let ok = vs.put(*h, data).unwrap();
                    assert_eq!(ok, model.is_some());
                    if model.is_some() {
                        *model = Some(data.clone());
                    }
                }
                2 if !handles.is_empty() => {
                    let idx = i % handles.len();
                    let (h, model) = &mut handles[idx];
                    let ok = vs.remove(*h);
                    assert_eq!(ok, model.is_some());
                    *model = None;
                }
                3 if !handles.is_empty() => {
                    let idx = i % handles.len();
                    let (h, model) = &handles[idx];
                    match (vs.read_to_vec(*h), model) {
                        (Ok(bytes), Some(m)) => assert_eq!(&bytes, m),
                        (Err(_), None) => {}
                        (got, want) => panic!("mismatch: {got:?} vs {want:?}"),
                    }
                }
                4 if !handles.is_empty() => {
                    let idx = i % handles.len();
                    let (h, model) = &mut handles[idx];
                    let res = vs.compute(*h, |b| {
                        let n = b.len();
                        b.resize(n + 1).unwrap();
                        b.as_mut_slice()[n] = 0xAB;
                    });
                    assert_eq!(res.is_some(), model.is_some());
                    if let Some(m) = model {
                        m.push(0xAB);
                    }
                }
                _ => {}
            }
        }
    });
}

/// Deterministic regression: pool exhaustion surfaces as an error, never a
/// panic or a bogus reference.
#[test]
fn budget_exhaustion_is_clean() {
    let pool = MemoryPool::new(PoolConfig {
        arena_size: 4096,
        max_arenas: 2,
    });
    let mut got = 0;
    loop {
        match pool.allocate(512) {
            Ok(_) => got += 1,
            Err(AllocError::PoolExhausted) => break,
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert_eq!(got, 16);
    assert_eq!(pool.stats().reserved_bytes, 8192);
}
