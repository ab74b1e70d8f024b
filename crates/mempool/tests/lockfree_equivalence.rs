//! Lock-free allocator equivalence and soak tests.
//!
//! The class-stack + magazine fast path must be *observationally
//! equivalent* to the plain mutex free list: the same operation sequence
//! succeeds or fails identically, live contents are never clobbered, and
//! the byte accounting balances to the reserved capacity in both modes.
//! (The op streams are seeded, so both pool modes replay the same one,
//! and short under `cfg(miri)`, so they run in every configuration.)

use std::sync::Arc;

use oak_failpoints::SplitMix64;
use oak_mempool::{AllocError, MemoryPool, PoolConfig, SliceRef};

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Allocate `len` bytes and fill them with a tag.
    Alloc(usize),
    /// Free the n-th live allocation (mod the live count).
    FreeNth(usize),
}

fn op_stream(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed);
    // Track the live count the replay will see (FreeNth is a no-op on an
    // empty set) and keep the working set well under the pool budget:
    // below budget, *both* modes must satisfy every request — the
    // lock-free pool through its flush rung when parked slices hide the
    // contiguous space — so success counts must match exactly.
    //
    // The stream is phase-bursty (grow to 400 live, shrink to 0), the way
    // ingest/teardown cycles behave: the shrink phases free >64 slices of
    // one class in a row, which is exactly what overflows a magazine and
    // cascades onto the class stacks.
    let mut live = 0usize;
    let mut growing = true;
    (0..len)
        .map(|_| {
            if live == 400 {
                growing = false;
            } else if live == 0 {
                growing = true;
            }
            if growing {
                live += 1;
                // Mostly the dominant map classes (key slices, headers,
                // small payloads) — realistic reuse that exercises the
                // stacks — plus scattered sub-2 KiB sizes and the
                // occasional oversized mutex-fallback allocation.
                const DOMINANT: [usize; 3] = [24, 48, 136];
                let sz = match rng.below(20) {
                    0..=15 => DOMINANT[rng.below(3) as usize],
                    16..=18 => 1 + rng.below(2048) as usize,
                    _ => 2049 + rng.below(2048) as usize,
                };
                Op::Alloc(sz)
            } else {
                live -= 1;
                Op::FreeNth(rng.below(64) as usize)
            }
        })
        .collect()
}

/// Replays `ops` against `pool`, checking contents of every live slice
/// before it is freed. Returns (successful allocs, frees, OOM count).
fn replay(pool: &MemoryPool, ops: &[Op]) -> (u64, u64, u64) {
    let mut live: Vec<(SliceRef, u8)> = Vec::new();
    let (mut allocs, mut frees, mut ooms) = (0u64, 0u64, 0u64);
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Alloc(len) => match pool.allocate(len) {
                Ok(r) => {
                    let tag = (i % 251) as u8;
                    unsafe { pool.slice_mut(r) }.fill(tag);
                    live.push((r, tag));
                    allocs += 1;
                }
                Err(AllocError::PoolExhausted) => ooms += 1,
                Err(e) => panic!("unexpected alloc error: {e}"),
            },
            Op::FreeNth(n) => {
                if !live.is_empty() {
                    let (r, tag) = live.swap_remove(n % live.len());
                    let s = unsafe { pool.slice(r) };
                    assert!(s.iter().all(|&b| b == tag), "slice clobbered before free");
                    pool.free(r);
                    frees += 1;
                }
            }
        }
    }
    for (r, tag) in live {
        let s = unsafe { pool.slice(r) };
        assert!(s.iter().all(|&b| b == tag), "slice clobbered at teardown");
        pool.free(r);
        frees += 1;
    }
    (allocs, frees, ooms)
}

fn config(lockfree: bool) -> PoolConfig {
    PoolConfig {
        arena_size: 64 << 10,
        max_arenas: 4,
        magazines: lockfree,
        lockfree,
        ..Default::default()
    }
}

fn assert_balanced(pool: &MemoryPool) {
    let stats = pool.stats();
    assert_eq!(stats.live_bytes, 0, "teardown left live bytes: {stats:?}");
    assert_eq!(
        stats.magazine_bytes + stats.class_stack_bytes + stats.free_bytes,
        stats.reserved_bytes,
        "accounting imbalance: {stats:?}"
    );
}

/// Single-threaded: the lock-free pool must complete the same op stream
/// with the same number of successful allocations as the mutex pool (both
/// never spuriously OOM below capacity) and identical accounting.
#[test]
fn lockfree_matches_mutex_freelist_sequentially() {
    let n = if cfg!(miri) { 300 } else { 4000 };
    for seed in [0x9E37_79B9, 0xDEAD_BEEF, 0x0BAD_F00D] {
        let ops = op_stream(seed, n);
        let mutex_pool = MemoryPool::new(config(false));
        let lf_pool = MemoryPool::new(config(true));
        let (a0, f0, o0) = replay(&mutex_pool, &ops);
        let (a1, f1, o1) = replay(&lf_pool, &ops);
        // The working set never exceeds the budget, so neither mode may
        // refuse a single request (the lock-free pool must flush parked
        // slices rather than spuriously OOM) and the outcomes coincide.
        assert_eq!(o0, 0, "mutex pool spuriously exhausted (seed {seed:x})");
        assert_eq!(o1, 0, "lockfree pool spuriously exhausted (seed {seed:x})");
        assert_eq!((a0, f0), (a1, f1), "op outcomes diverged (seed {seed:x})");
        assert_balanced(&mutex_pool);
        assert_balanced(&lf_pool);
        let lf = lf_pool.stats();
        assert!(lf.class_stack_pushes > 0, "stacks never engaged: {lf:?}");
    }
}

/// Multi-threaded churn: recycled slices circulate through magazines and
/// class stacks across threads without clobbering live data, and the
/// free-list mutex stays cold relative to the op count.
#[test]
fn lockfree_concurrent_churn_stays_coherent() {
    let pool = Arc::new(MemoryPool::new(config(true)));
    let iters = if cfg!(miri) { 60 } else { 3000 };
    // Dominant size classes, as the map produces them (key slices, value
    // headers, small payloads) — class reuse is what the stacks amortize.
    const SIZES: [u64; 5] = [24, 48, 64, 136, 264];
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let pool = Arc::clone(&pool);
            s.spawn(move || {
                let mut rng = SplitMix64::new(0xACE1 << t);
                let mut live: Vec<(SliceRef, u8)> = Vec::new();
                for i in 0..iters {
                    // Keep the working set well under budget: this test
                    // measures steady-state recycling, not the OOM ladder.
                    if (rng.below(5) < 3 && live.len() < 120) || live.is_empty() {
                        let len = SIZES[rng.below(SIZES.len() as u64) as usize] as usize;
                        match pool.allocate(len) {
                            Ok(r) => {
                                let tag = (t as u8) ^ (i as u8);
                                unsafe { pool.slice_mut(r) }.fill(tag);
                                live.push((r, tag));
                            }
                            Err(AllocError::PoolExhausted) => {
                                for (r, _) in live.drain(..) {
                                    pool.free(r);
                                }
                            }
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    } else {
                        let n = rng.below(live.len() as u64) as usize;
                        let (r, tag) = live.swap_remove(n);
                        let s = unsafe { pool.slice(r) };
                        assert!(s.iter().all(|&b| b == tag), "cross-thread clobber");
                        pool.free(r);
                    }
                }
                for (r, tag) in live {
                    let s = unsafe { pool.slice(r) };
                    assert!(s.iter().all(|&b| b == tag), "teardown clobber");
                    pool.free(r);
                }
            });
        }
    });
    assert_balanced(&pool);
    let stats = pool.stats();
    let ops = stats.alloc_count + stats.free_count;
    assert!(
        stats.freelist_lock_acquires * 10 <= ops,
        "free-list mutex stayed hot: {} locks for {} ops",
        stats.freelist_lock_acquires,
        ops
    );
}

/// With the auditor compiled in, the lock-free path must keep the ledger
/// balanced: no double-free, no foreign free, and capacity = live + free
/// with stack-held bytes on the free side.
#[cfg(feature = "audit")]
#[test]
fn lockfree_audit_ledger_stays_balanced() {
    let pool = MemoryPool::new(config(true));
    let ops = op_stream(0x5EED, if cfg!(miri) { 200 } else { 3000 });
    replay(&pool, &ops);
    let report = pool.audit();
    assert!(
        report.violations.is_empty(),
        "audit violations: {:?}",
        report.violations
    );
    assert!(
        report.balanced,
        "live {} + free {} != capacity {}",
        report.live_bytes, report.free_bytes, report.capacity_bytes
    );
    pool.flush_magazines();
    let report = pool.audit();
    assert!(report.balanced, "imbalance after flush");
}
