//! Pool soak tests: seeded alloc/free streams, from one thread and from
//! four, must never clobber live contents, and the byte accounting (and,
//! with the `audit` feature, the allocation ledger) must balance to the
//! reserved capacity afterwards, with every arena's summary exact.
//! (The op streams are seeded and short under `cfg(miri)`, so they run in
//! every configuration.)

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
    // empty set) and keep the working set well under the pool budget, so
    // the pool must satisfy every request.
    //
    // The stream is phase-bursty (grow to 400 live, shrink to 0), the way
    // ingest/teardown cycles behave.
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
                // Mostly the dominant map sizes (key slices, headers,
                // small payloads), plus scattered sub-2 KiB sizes and the
                // occasional coarse-rounded oversized allocation.
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
                    // SAFETY: `r` is a fresh allocation no other thread has seen.
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
                    // SAFETY: only this thread writes or frees `r`, and not while the view is live.
                    let s = unsafe { pool.slice(r) };
                    assert!(s.iter().all(|&b| b == tag), "slice clobbered before free");
                    pool.free(r);
                    frees += 1;
                }
            }
        }
    }
    for (r, tag) in live {
        // SAFETY: only this thread writes or frees `r`, and not while the view is live.
        let s = unsafe { pool.slice(r) };
        assert!(s.iter().all(|&b| b == tag), "slice clobbered at teardown");
        pool.free(r);
        frees += 1;
    }
    (allocs, frees, ooms)
}

fn config() -> PoolConfig {
    PoolConfig {
        arena_size: 64 << 10,
        max_arenas: 4,
    }
}

/// The accounting balances to the reserved capacity, and every arena's
/// lock-free summary equals the one recomputed from its free list.
fn assert_balanced(pool: &MemoryPool) {
    pool.check_summaries();
    let stats = pool.stats();
    assert_eq!(stats.live_bytes, 0, "teardown left live bytes: {stats:?}");
    assert_eq!(
        stats.free_bytes, stats.reserved_bytes,
        "accounting imbalance: {stats:?}"
    );
}

/// Multi-threaded churn: slices freed by one thread are reallocated by
/// others without clobbering live data, and the accounting balances.
#[test]
fn concurrent_churn_stays_coherent() {
    let pool = Arc::new(MemoryPool::new(config()));
    let iters = if cfg!(miri) { 60 } else { 3000 };
    // Dominant sizes, as the map produces them (key slices, value headers,
    // small payloads).
    const SIZES: [u64; 5] = [24, 48, 64, 136, 264];
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let pool = Arc::clone(&pool);
            s.spawn(move || {
                let mut rng = SplitMix64::new(0xACE1 << t);
                let mut live: Vec<(SliceRef, u8)> = Vec::new();
                for i in 0..iters {
                    if i % 256 == 0 {
                        // Summaries are exact whenever their lock is free,
                        // not only once the threads are done.
                        pool.check_summaries();
                    }
                    // Keep the working set well under budget: this test
                    // measures steady-state recycling, not the OOM ladder.
                    if (rng.below(5) < 3 && live.len() < 120) || live.is_empty() {
                        let len = SIZES[rng.below(SIZES.len() as u64) as usize] as usize;
                        match pool.allocate(len) {
                            Ok(r) => {
                                let tag = (t as u8) ^ (i as u8);
                                // SAFETY: `r` is a fresh allocation no other thread has seen.
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
                        // SAFETY: only this thread writes or frees `r`, and not while the view is live.
                        let s = unsafe { pool.slice(r) };
                        assert!(s.iter().all(|&b| b == tag), "cross-thread clobber");
                        pool.free(r);
                    }
                }
                for (r, tag) in live {
                    // SAFETY: only this thread writes or frees `r`, and not while the view is live.
                    let s = unsafe { pool.slice(r) };
                    assert!(s.iter().all(|&b| b == tag), "teardown clobber");
                    pool.free(r);
                }
            });
        }
    });
    assert_balanced(&pool);
}

/// A replayed op stream below the budget never exhausts the pool and
/// leaves the accounting balanced. With the auditor compiled in, the
/// ledger must balance too: no double-free, no foreign free, and
/// capacity = live + free.
#[test]
fn replay_keeps_the_ledger_balanced() {
    let n = if cfg!(miri) { 200 } else { 3000 };
    for seed in [0x5EED, 0x9E37_79B9, 0xDEAD_BEEF] {
        let pool = MemoryPool::new(config());
        let (allocs, frees, ooms) = replay(&pool, &op_stream(seed, n));
        assert_eq!(ooms, 0, "pool exhausted below its budget (seed {seed:x})");
        assert_eq!(allocs, frees, "seed {seed:x}");
        assert_balanced(&pool);
        #[cfg(feature = "audit")]
        {
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
        }
    }
}

/// Four threads churn mixed sizes in a pool held at `max_arenas`, with the
/// live set near capacity, so allocations keep missing every arena and
/// the bin-flush rung runs while other threads allocate and free. Nothing
/// may be clobbered, the accounting must balance, and after teardown one
/// flush leaves each arena whole: an arena-sized request must succeed.
#[test]
fn flush_rung_races_churn_at_max_arenas() {
    const ARENA: usize = 64 << 10;
    let pool = Arc::new(MemoryPool::new(PoolConfig {
        arena_size: ARENA,
        max_arenas: 2,
    }));
    let iters = if cfg!(miri) { 40 } else { 4000 };
    // Each thread keeps at most 28 KiB live: 112 KiB of the 128 KiB budget.
    const LIVE_CAP: usize = 28 << 10;
    let ooms: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    let mut rng = SplitMix64::new(0xF1A5 ^ (t << 32));
                    let mut live: Vec<(SliceRef, u8)> = Vec::new();
                    let mut live_bytes = 0usize;
                    let mut ooms = 0u64;
                    for i in 0..iters {
                        let len = match rng.below(4) {
                            0 => 16,
                            1 => 104,
                            2 => 512 + 64 * rng.below(17) as usize,
                            _ => 1 + rng.below(3000) as usize,
                        };
                        if live_bytes + len <= LIVE_CAP && rng.below(2) == 0 {
                            match pool.allocate(len) {
                                Ok(r) => {
                                    let tag = (t as u8) ^ (i as u8);
                                    // SAFETY: `r` is a fresh allocation no other thread has seen.
                                    unsafe { pool.slice_mut(r) }.fill(tag);
                                    live.push((r, tag));
                                    live_bytes += len;
                                }
                                Err(AllocError::PoolExhausted) => ooms += 1,
                                Err(e) => panic!("unexpected: {e}"),
                            }
                        } else if !live.is_empty() {
                            let n = rng.below(live.len() as u64) as usize;
                            let (r, tag) = live.swap_remove(n);
                            // SAFETY: only this thread writes or frees `r`, and not while the view is live.
                            let s = unsafe { pool.slice(r) };
                            assert!(s.iter().all(|&b| b == tag), "cross-thread clobber");
                            live_bytes -= s.len();
                            pool.free(r);
                        }
                    }
                    for (r, tag) in live {
                        // SAFETY: only this thread writes or frees `r`, and not while the view is live.
                        let s = unsafe { pool.slice(r) };
                        assert!(s.iter().all(|&b| b == tag), "teardown clobber");
                        pool.free(r);
                    }
                    ooms
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_balanced(&pool);
    if !cfg!(miri) {
        // Miri's reduced count may not fill the first arena.
        assert_eq!(pool.stats().arenas, 2, "the churn never reached max_arenas");
    }
    assert!(
        ooms < iters as u64,
        "{ooms} refusals: the flush rung is not reclaiming binned bytes"
    );
    #[cfg(feature = "audit")]
    {
        let report = pool.audit();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.balanced, "{report:?}");
    }
    // Everything is free but parked in bins. Two arena-sized slices fit
    // only if the miss path flushes the bins: each arena becomes one
    // whole segment again.
    let whole = [pool.allocate(ARENA).unwrap(), pool.allocate(ARENA).unwrap()];
    assert!(matches!(pool.allocate(8), Err(AllocError::PoolExhausted)));
    for r in whole {
        pool.free(r);
    }
    assert_balanced(&pool);
}
