//! The only file that reads fields of `OakStats` / `PoolStats`. When the
//! library's counters move (ROADMAP item 4's registry), this is the one
//! file of the benchmark to follow them.

use oak_core::OakStats;
use oak_mempool::PoolStats;

/// The counters the benchmark reports, copied out of a stats snapshot.
/// Everything above the blank line only grows; the rest are gauges.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub allocs: u64,
    pub frees: u64,
    pub failed_allocs: u64,
    pub freelist_locks: u64,
    pub lock_retries: u64,
    pub rebalances: u64,
    pub scan_batches: u64,
    pub scan_revalidations: u64,

    pub chunks: u64,
    pub reserved_bytes: u64,
    pub live_bytes: u64,
    pub free_segments: u64,
    pub fragmentation_pct: f64,
}

impl Counters {
    pub fn of_pool(pool: &PoolStats) -> Counters {
        Counters {
            allocs: pool.alloc_count,
            frees: pool.free_count,
            failed_allocs: pool.failed_allocs,
            freelist_locks: pool.freelist_lock_acquires,
            lock_retries: pool.lock_retries,
            scan_batches: pool.scan_chunk_batches,
            scan_revalidations: pool.scan_revalidations,
            reserved_bytes: pool.reserved_bytes,
            live_bytes: pool.live_bytes,
            free_segments: pool.free_segments,
            fragmentation_pct: 100.0 * pool.fragmentation(),
            ..Counters::default()
        }
    }

    pub fn of_map(stats: &OakStats) -> Counters {
        Counters {
            rebalances: stats.rebalances,
            chunks: stats.chunks as u64,
            ..Counters::of_pool(&stats.pool)
        }
    }

    /// Growth of the monotone counters since `earlier`; gauges keep their
    /// current reading.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            allocs: self.allocs - earlier.allocs,
            frees: self.frees - earlier.frees,
            failed_allocs: self.failed_allocs - earlier.failed_allocs,
            freelist_locks: self.freelist_locks - earlier.freelist_locks,
            lock_retries: self.lock_retries - earlier.lock_retries,
            rebalances: self.rebalances - earlier.rebalances,
            scan_batches: self.scan_batches - earlier.scan_batches,
            scan_revalidations: self.scan_revalidations - earlier.scan_revalidations,
            ..*self
        }
    }

    /// Adds the growth a later slice of the same stage saw; gauges take
    /// the later reading.
    pub fn absorb(&mut self, later: &Counters) {
        *self = Counters {
            allocs: self.allocs + later.allocs,
            frees: self.frees + later.frees,
            failed_allocs: self.failed_allocs + later.failed_allocs,
            freelist_locks: self.freelist_locks + later.freelist_locks,
            lock_retries: self.lock_retries + later.lock_retries,
            rebalances: self.rebalances + later.rebalances,
            scan_batches: self.scan_batches + later.scan_batches,
            scan_revalidations: self.scan_revalidations + later.scan_revalidations,
            ..*later
        };
    }
}

/// Largest shard length over the mean shard length (1.0 = even).
pub fn shard_len_max_over_mean(shards: &[OakStats]) -> f64 {
    let lens: Vec<f64> = shards.iter().map(|s| s.len as f64).collect();
    let mean = lens.iter().sum::<f64>() / lens.len() as f64;
    if mean == 0.0 {
        return 1.0;
    }
    lens.iter().cloned().fold(0.0, f64::max) / mean
}
