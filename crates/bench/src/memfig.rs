//! Figure 3: memory efficiency — ingestion throughput under a RAM budget.
//!
//! Fig 3a fixes the RAM budget and sweeps the dataset size; Fig 3b fixes
//! the dataset and sweeps the budget. "Oak and Skiplist-OffHeap split the
//! available memory between the off-heap pool and the heap, allocating the
//! former with just enough resources to host the raw data. Skiplist-OnHeap
//! allocates all the available memory to heap" (§5.1). On-heap solutions
//! run against the [`ManagedHeap`] simulator, so object-layout overhead and
//! stop-the-world collections are actually incurred; a budget the live set
//! cannot fit raises OOM, which is reported in place of a throughput.

use std::sync::Arc;
use std::time::Instant;

use oak_core::{OakMap, OakMapConfig};
use oak_gcheap::{layout, HeapConfig, HeapModel, ManagedHeap};
use oak_mempool::{AllocError, PoolConfig, PoolStats};
use oak_skiplist::offheap::OffHeapSkipListMap;
use oak_skiplist::SkipListMap;

use oak_sync::Mutex;

use crate::report::{Row, Summary};
use crate::workload::WorkloadConfig;

/// Result of one ingestion run.
#[derive(Debug, Clone, Copy)]
pub enum IngestOutcome {
    /// Completed: throughput in Kops/s.
    Done {
        /// Ingestion throughput, thousands of inserts per second.
        kops: f64,
    },
    /// The configuration cannot hold the dataset.
    Oom {
        /// Keys ingested before the budget was exceeded.
        ingested: u64,
    },
}

/// Raw bytes needed off-heap for `n` keys (key + value + value header,
/// rounded to the pool granularity).
pub fn raw_bytes(config: &WorkloadConfig, n: u64) -> u64 {
    let per = round8(config.key_size) + round8(config.value_size) + 16;
    n * per as u64
}

fn round8(n: usize) -> usize {
    (n + 7) & !7
}

/// Bytes of short-lived garbage charged per map operation on simulated
/// JVM heaps (temporary boxes, iterators, serialization scratch).
pub const TRANSIENT_PER_OP: usize = 128;

/// Pool sized "just enough … to host the raw data" plus working slack.
fn pool_for(config: &WorkloadConfig, n: u64) -> PoolConfig {
    let need = (raw_bytes(config, n) as f64 * 1.15) as usize + (1 << 20);
    let arena = 1 << 20; // scaled-down arenas (paper: 100 MB)
    PoolConfig {
        magazines: false,
        lockfree: false,
        arena_size: arena,
        max_arenas: need.div_ceil(arena).max(2),
        ..Default::default()
    }
}

/// Deterministic permutation of `[0, n)`: every key id exactly once, in
/// shuffled order (avoids fully sequential insertion while staying
/// reproducible).
pub fn shuffled_ids(n: u64, seed: u64) -> Vec<u64> {
    let mut ids: Vec<u64> = (0..n).collect();
    let mut state = seed | 1;
    for i in (1..ids.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % (i as u64 + 1)) as usize;
        ids.swap(i, j);
    }
    ids
}

/// Ingests exactly `n` unique keys into Oak under a total RAM budget.
pub fn ingest_oak(config: &WorkloadConfig, n: u64, ram_budget: u64) -> IngestOutcome {
    ingest_oak_stats(config, n, ram_budget).0
}

/// [`ingest_oak`] plus the pool's robustness counters, so OOM rows in the
/// report carry the failed-allocation count that triggered them.
pub fn ingest_oak_stats(
    config: &WorkloadConfig,
    n: u64,
    ram_budget: u64,
) -> (IngestOutcome, Option<PoolStats>) {
    let pool = pool_for(config, n);
    let pool_bytes = (pool.arena_size * pool.max_arenas) as u64;
    if pool_bytes > ram_budget {
        return (IngestOutcome::Oom { ingested: 0 }, None);
    }
    let map = OakMap::with_config(OakMapConfig::default().pool(pool));
    let ids = shuffled_ids(n, config.seed);
    let start = Instant::now();
    for (i, &id) in ids.iter().enumerate() {
        let i = i as u64;
        match map.put_if_absent(&config.key(id), &config.value(id)) {
            Ok(_) => {}
            Err(
                oak_core::OakError::OutOfMemory
                | oak_core::OakError::Alloc(AllocError::PoolExhausted),
            ) => {
                return (IngestOutcome::Oom { ingested: i }, Some(map.pool().stats()));
            }
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    let outcome = IngestOutcome::Done {
        kops: n as f64 / start.elapsed().as_secs_f64() / 1_000.0,
    };
    (outcome, Some(map.pool().stats()))
}

/// Ingests into the on-heap skiplist under a simulated JVM heap of the
/// full RAM budget.
pub fn ingest_onheap(config: &WorkloadConfig, n: u64, ram_budget: u64) -> IngestOutcome {
    let heap = Arc::new(ManagedHeap::new(HeapConfig::with_capacity(ram_budget)));
    let list: SkipListMap<Vec<u8>, Mutex<Vec<u8>>> = SkipListMap::with_heap(
        heap.clone(),
        |k: &Vec<u8>| layout::boxed_bytes(k.len()),
        |v: &Mutex<Vec<u8>>| layout::boxed_bytes(v.lock().len()),
    );
    let ids = shuffled_ids(n, config.seed);
    let start = Instant::now();
    for (i, &id) in ids.iter().enumerate() {
        list.put_if_absent(config.key(id), Mutex::new(config.value(id)));
        // Short-lived per-operation garbage a JVM would produce.
        heap.transient(TRANSIENT_PER_OP);
        if heap.oom() {
            return IngestOutcome::Oom { ingested: i as u64 };
        }
    }
    IngestOutcome::Done {
        kops: n as f64 / start.elapsed().as_secs_f64() / 1_000.0,
    }
}

/// Ingests into the off-heap skiplist: raw data off-heap, cells and nodes
/// charged to a simulated heap holding the remainder of the budget.
pub fn ingest_offheap(config: &WorkloadConfig, n: u64, ram_budget: u64) -> IngestOutcome {
    ingest_offheap_stats(config, n, ram_budget).0
}

/// [`ingest_offheap`] plus the pool's robustness counters.
pub fn ingest_offheap_stats(
    config: &WorkloadConfig,
    n: u64,
    ram_budget: u64,
) -> (IngestOutcome, Option<PoolStats>) {
    let pool = pool_for(config, n);
    let pool_bytes = (pool.arena_size * pool.max_arenas) as u64;
    if pool_bytes >= ram_budget {
        return (IngestOutcome::Oom { ingested: 0 }, None);
    }
    let heap = Arc::new(ManagedHeap::new(HeapConfig::with_capacity(
        ram_budget - pool_bytes,
    )));
    let map = OffHeapSkipListMap::with_heap(pool, heap.clone());
    let stats = |m: &OffHeapSkipListMap| Some(m.pool().stats());
    let ids = shuffled_ids(n, config.seed);
    let start = Instant::now();
    for (i, &id) in ids.iter().enumerate() {
        let i = i as u64;
        match map.put_if_absent(&config.key(id), &config.value(id)) {
            Ok(_) => {}
            Err(AllocError::PoolExhausted) => {
                return (IngestOutcome::Oom { ingested: i }, stats(&map));
            }
            Err(e) => panic!("unexpected: {e}"),
        }
        heap.transient(TRANSIENT_PER_OP);
        if heap.oom() {
            return (IngestOutcome::Oom { ingested: i }, stats(&map));
        }
    }
    let outcome = IngestOutcome::Done {
        kops: n as f64 / start.elapsed().as_secs_f64() / 1_000.0,
    };
    let s = stats(&map);
    (outcome, s)
}

fn push_row(
    summary: &mut Summary,
    scenario: &str,
    bench: &str,
    ram: u64,
    n: u64,
    (o, robustness): (IngestOutcome, Option<PoolStats>),
) {
    let (mops, note) = match o {
        IngestOutcome::Done { kops } => (kops / 1_000.0, String::new()),
        IngestOutcome::Oom { ingested } => (0.0, format!("OOM after {ingested}")),
    };
    summary.push(Row {
        scenario: scenario.to_string(),
        bench: bench.to_string(),
        heap_bytes: ram,
        direct_bytes: 0,
        threads: 1,
        shards: 1,
        final_size: n as usize,
        mops,
        note,
        robustness,
    });
}

/// Figure 3a: fixed RAM, sweep the dataset size.
pub fn fig3a(config: &WorkloadConfig, ram_budget: u64, dataset_sizes: &[u64]) -> Summary {
    let mut s = Summary::new();
    for &n in dataset_sizes {
        push_row(
            &mut s,
            "3a-ingest",
            "OakMap",
            ram_budget,
            n,
            ingest_oak_stats(config, n, ram_budget),
        );
        push_row(
            &mut s,
            "3a-ingest",
            "JavaSkipListMap",
            ram_budget,
            n,
            (ingest_onheap(config, n, ram_budget), None),
        );
        push_row(
            &mut s,
            "3a-ingest",
            "OffHeapList",
            ram_budget,
            n,
            ingest_offheap_stats(config, n, ram_budget),
        );
    }
    s
}

/// Figure 3b: fixed dataset, sweep the RAM budget.
pub fn fig3b(config: &WorkloadConfig, dataset: u64, budgets: &[u64]) -> Summary {
    let mut s = Summary::new();
    for &b in budgets {
        push_row(
            &mut s,
            "3b-ingest",
            "OakMap",
            b,
            dataset,
            ingest_oak_stats(config, dataset, b),
        );
        push_row(
            &mut s,
            "3b-ingest",
            "JavaSkipListMap",
            b,
            dataset,
            (ingest_onheap(config, dataset, b), None),
        );
        push_row(
            &mut s,
            "3b-ingest",
            "OffHeapList",
            b,
            dataset,
            ingest_offheap_stats(config, dataset, b),
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wl() -> WorkloadConfig {
        WorkloadConfig {
            key_range: 10_000,
            key_size: 100,
            value_size: 1024,
            seed: 1,
            distribution: crate::workload::KeyDistribution::Uniform,
        }
    }

    #[test]
    fn oak_fits_more_than_onheap_in_same_ram() {
        // The Figure 3a headline: within a fixed budget, the on-heap
        // skiplist OOMs at a dataset Oak still ingests.
        let config = wl();
        let n = 4_000u64;
        let raw = raw_bytes(&config, n); // ~4.6 MB
        let budget = (raw as f64 * 1.75) as u64;
        match ingest_oak(&config, n, budget) {
            IngestOutcome::Done { kops } => assert!(kops > 0.0),
            IngestOutcome::Oom { ingested } => panic!("oak OOM at {ingested}"),
        }
        // On-heap layout needs ~1.45× raw for data alone, plus index nodes
        // and GC headroom: the same budget must not suffice.
        match ingest_onheap(&config, n, budget) {
            IngestOutcome::Oom { .. } => {}
            IngestOutcome::Done { .. } => {
                panic!("on-heap skiplist unexpectedly fit {n} keys in {budget} bytes")
            }
        }
    }

    #[test]
    fn all_solutions_ingest_with_generous_ram() {
        let config = wl();
        let n = 1_000u64;
        let budget = 1 << 30;
        assert!(matches!(
            ingest_oak(&config, n, budget),
            IngestOutcome::Done { .. }
        ));
        assert!(matches!(
            ingest_onheap(&config, n, budget),
            IngestOutcome::Done { .. }
        ));
        assert!(matches!(
            ingest_offheap(&config, n, budget),
            IngestOutcome::Done { .. }
        ));
    }

    #[test]
    fn fig3a_produces_rows_for_all_solutions() {
        let config = wl();
        let s = fig3a(&config, 64 << 20, &[200, 400]);
        assert_eq!(s.rows().len(), 6);
    }
}
