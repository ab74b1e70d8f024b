//! The pool's lock-free arena summaries change where nothing lands.
//!
//! `MemoryPool` reads each arena's summary (its non-empty bins and largest
//! free run) before it locks the arena, and skips an arena the summary
//! rules out. A summary may only rule out an arena whose locked probe
//! would miss, so the pool must place every slice at the `(arena, offset)`
//! a pool that locks every arena in order would pick: the reference below,
//! one `model::Model` per arena. `MemoryPool::check_summaries` must hold
//! after every step. Each property runs seeded cases ([`for_each_case`],
//! fewer under Miri); a failing case prints its seed.

#[allow(dead_code)] // its `FreeList`-level helpers serve other tests
mod model;

use oak_failpoints::{for_each_case, SplitMix64};
use oak_mempool::{AllocError, MemoryPool, PoolConfig, SliceRef};

use model::Model;

const ARENA: u32 = 4096;
const MAX_ARENAS: usize = 4;

/// A pool that probes every arena in order: on a miss in all of them it
/// flushes every arena's bins and probes once more, then grows, then
/// refuses.
#[derive(Default)]
struct RefPool {
    arenas: Vec<Model>,
    /// Flushes that found binned bytes, and refusals.
    flushes: u64,
    refusals: u64,
}

impl RefPool {
    fn allocate(&mut self, len: u32) -> Option<(usize, u32)> {
        let mut flushed = false;
        loop {
            let hit = (self.arenas.iter_mut().enumerate())
                .find_map(|(i, arena)| Some((i, arena.allocate(len)?)));
            if hit.is_some() {
                return hit;
            }
            if !flushed {
                flushed = true;
                let mut any = false;
                for arena in &mut self.arenas {
                    any |= arena.flush();
                }
                if any {
                    self.flushes += 1;
                    continue;
                }
            }
            if self.arenas.len() < MAX_ARENAS {
                self.arenas.push(Model::new(ARENA));
                continue;
            }
            self.refusals += 1;
            return None;
        }
    }
}

/// A request length that the pool does not round further: 8-byte steps up
/// to 2 KiB, 256-byte steps above, so the model sees the padded length.
fn length(rng: &mut SplitMix64) -> u32 {
    match rng.below(8) {
        0 => 2048 + 256 * rng.range(1, 8) as u32,
        1..=4 => [24, 48, 136][rng.below(3) as usize],
        _ => 8 * rng.range(1, 256) as u32,
    }
}

#[test]
fn placement_matches_a_pool_that_locks_every_arena() {
    let (cases, steps) = if cfg!(miri) { (4, 60) } else { (48, 600) };
    let (mut flushes, mut refusals, mut full) = (0, 0, 0);
    for_each_case(0x5A11, cases, |rng| {
        let pool = MemoryPool::new(PoolConfig {
            arena_size: ARENA as usize,
            max_arenas: MAX_ARENAS,
        });
        let mut reference = RefPool::default();
        let mut live: Vec<SliceRef> = Vec::new();
        // Phases of growth and shrinkage, so the pool grows to its budget,
        // runs out, flushes, and reuses what it flushed.
        let mut growing = true;
        for _ in 0..steps {
            if live.len() > 40 || (growing && rng.below(16) == 0) {
                growing = !growing;
            }
            if live.is_empty() || (growing && rng.below(4) != 0) || rng.below(4) == 0 {
                let len = length(rng);
                let want = reference.allocate(len);
                match pool.allocate(len as usize) {
                    Ok(r) => {
                        assert_eq!(Some((r.block(), r.offset())), want, "{len} B request");
                        live.push(r);
                    }
                    Err(AllocError::PoolExhausted) => {
                        assert_eq!(want, None, "{len} B request refused");
                    }
                    Err(e) => panic!("unexpected: {e}"),
                }
            } else {
                let r = live.swap_remove(rng.below(live.len() as u64) as usize);
                pool.free(r);
                reference.arenas[r.block()].free(r.offset(), r.len());
            }
            pool.check_summaries();
        }
        assert_eq!(pool.stats().arenas as usize, reference.arenas.len());
        flushes += reference.flushes;
        refusals += reference.refusals;
        full += u64::from(reference.arenas.len() == MAX_ARENAS);
    });
    if !cfg!(miri) {
        // The cases reach every rung: growth to the budget, flushes that
        // free a fit, and refusals.
        assert!(
            flushes > 0 && refusals > 0 && full > 0,
            "flushes {flushes}, refusals {refusals}, cases at the budget {full}"
        );
    }
}

/// At `max_arenas`, with arenas 0 and 1 full and arena 2 holding one
/// binned 64-byte slice (and arena 0 a binned 32-byte one), a 64-byte
/// request takes the binned slice at one lock: arena 2's summary must
/// show the bin `free` filled. A bit `free` failed to set would send the
/// request to the locked pass (three more locks), and a flush would have
/// emptied arena 0's bin.
#[test]
fn a_binned_slice_in_the_last_arena_is_found_without_a_flush() {
    let pool = MemoryPool::new(PoolConfig {
        arena_size: ARENA as usize,
        max_arenas: 3,
    });
    let fill = |len: usize| -> Vec<SliceRef> {
        (0..ARENA as usize / len)
            .map(|_| pool.allocate(len).unwrap())
            .collect()
    };
    let first = fill(32);
    let _second = fill(64);
    let last = fill(64);
    assert!(matches!(pool.allocate(8), Err(AllocError::PoolExhausted)));
    assert_eq!(pool.stats().arenas, 3);
    pool.free(first[7]);
    pool.free(last[9]);
    pool.check_summaries();
    let before = pool.stats();
    assert_eq!(before.binned_bytes, 96);
    assert_eq!(pool.allocate(64), Ok(last[9]));
    let after = pool.stats();
    assert_eq!(
        after.freelist_lock_acquires - before.freelist_lock_acquires,
        1,
        "the probe locked arenas that could not serve"
    );
    assert_eq!(after.binned_bytes, 32, "the request flushed the bins");
    assert_eq!(after.failed_allocs, before.failed_allocs);
    pool.check_summaries();
}
