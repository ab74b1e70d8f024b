//! Figure 4 scenario definitions, named like the artifact's `run.sh`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oak_core::{OakError, OakMap, OakMapConfig, ShardedOakMap};
use oak_failpoints::SplitMix64;
use oak_mempool::{PoolConfig, PoolStats};
use oak_skiplist::btree::LockedBTreeMap;
use oak_skiplist::offheap::OffHeapSkipListMap;
use oak_skiplist::SkipListMap;
use oak_sync::Mutex;

use crate::adapter::MapAdapter;
use crate::driver::{ingest, sustained};
use crate::report::{fragmentation_pct, Row, Summary};
use crate::workload::{KeyDistribution, Mix, WorkloadConfig};

/// A named Figure-4 scenario.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Artifact-style label (first two characters = the paper figure).
    pub label: &'static str,
    /// Operation mix.
    pub mix: Mix,
    /// Key-distribution override: `Some` pins this scenario to a specific
    /// distribution (e.g. the Zipfian hotspot scenario) regardless of the
    /// run's global `--zipf` flag; `None` inherits the run's workload.
    pub dist: Option<KeyDistribution>,
}

impl Scenario {
    /// The run's workload with this scenario's distribution pin applied.
    pub fn workload(&self, base: &WorkloadConfig) -> WorkloadConfig {
        let mut wl = base.clone();
        if let Some(dist) = self.dist {
            wl.distribution = dist;
        }
        wl
    }
}

/// The scenario table from the artifact appendix (§A.7).
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        label: "4a-put",
        mix: Mix::PutOnly,
        dist: None,
    },
    Scenario {
        label: "4b-putIfAbsentComputeIfPresent",
        mix: Mix::ComputeOnly,
        dist: None,
    },
    Scenario {
        label: "4c-get-zc",
        mix: Mix::GetZeroCopy,
        dist: None,
    },
    Scenario {
        label: "4c-get-copy",
        mix: Mix::GetCopy,
        dist: None,
    },
    Scenario {
        label: "4d-95Get5Put",
        mix: Mix::Mixed95,
        dist: None,
    },
    Scenario {
        label: "4e-entryStreamSet-ascend",
        mix: Mix::AscendScan { len: 10_000 },
        dist: None,
    },
    Scenario {
        label: "4f-entryStreamSet-descend",
        mix: Mix::DescendScan { len: 10_000 },
        dist: None,
    },
    // Bounded range scans (not in Figure 4; named after the ~live-entry
    // count — ingestion populates half the ids, so span 100 ≈ 50 pairs).
    // Short scans weigh the fixed positioning/snapshot cost, long scans
    // the per-entry drain cost.
    Scenario {
        label: "4g-scan-50",
        mix: Mix::RangeScan { span: 100 },
        dist: None,
    },
    Scenario {
        label: "4g-scan-1000",
        mix: Mix::RangeScan { span: 2_000 },
        dist: None,
    },
    // Scans racing writers (not in Figure 4): ~10% bounded ascending
    // scans over 45% put / 45% remove churn. Inserting the un-ingested
    // half keeps chunks splitting under the scans, so the ScanRevals
    // column is nonzero here — the read-only 4e/4f scans report 0 by
    // design (their population is frozen after ingest).
    Scenario {
        label: "4h-scan-churn",
        mix: Mix::ScanChurn { len: 1_000 },
        dist: None,
    },
    // Skewed point access (not in Figure 4): the 95/5 mix under a
    // Zipfian hotspot (θ = 0.99, the YCSB default). Hash-prefix routing
    // still spreads the hot head across shards, but per-key contention
    // concentrates — this is where chunk-level locking and the shared
    // reservoir earn their keep relative to uniform keys.
    Scenario {
        label: "4i-zipf-95Get5Put",
        mix: Mix::Mixed95,
        dist: Some(KeyDistribution::Zipfian { theta: 0.99 }),
    },
];

/// The default sharded competitor: four hash-routed shards.
pub const SHARDED_DEFAULT: &str = "ShardedOak-4";

/// Which solutions a scenario runs on (Oak-Copy only for `4c-get-copy`).
pub fn competitors_for(label: &str) -> Vec<&'static str> {
    match label {
        "4c-get-copy" => vec!["Oak-Copy", "JavaSkipListMap", "OffHeapList"],
        _ => vec!["OakMap", SHARDED_DEFAULT, "JavaSkipListMap", "OffHeapList"],
    }
}

/// Builds an adapter by artifact name. `ShardedOak-N` builds an N-shard
/// [`ShardedOakMap`] with hash-prefix routing.
pub fn build(name: &str, pool: PoolConfig, chunk_capacity: u32) -> Arc<MapAdapter> {
    let oak_cfg = OakMapConfig::default()
        .chunk_capacity(chunk_capacity)
        .pool(pool.clone());
    if let Some(n) = name.strip_prefix("ShardedOak-") {
        let shards: usize = n.parse().expect("shard count in ShardedOak-N");
        return Arc::new(
            MapAdapter::new(name, ShardedOakMap::with_config(shards, oak_cfg)).with_shards(shards),
        );
    }
    Arc::new(match name {
        "OakMap" => MapAdapter::new(name, OakMap::with_config(oak_cfg)),
        "Oak-Copy" => MapAdapter::new(name, OakMap::with_config(oak_cfg)).copy_mode(),
        "JavaSkipListMap" => MapAdapter::new(name, SkipListMap::<Vec<u8>, Mutex<Vec<u8>>>::new()),
        "OffHeapList" => MapAdapter::new(name, OffHeapSkipListMap::new(pool)),
        "MapDB-BTree" => MapAdapter::new(name, LockedBTreeMap::new(pool)),
        other => panic!("unknown competitor {other}"),
    })
}

/// Runs one scenario across `threads` for all competitors, appending
/// rows.
#[allow(clippy::too_many_arguments)]
pub fn run_scenario(
    scenario: &Scenario,
    threads: &[usize],
    workload: &WorkloadConfig,
    pool: PoolConfig,
    chunk_capacity: u32,
    duration: Duration,
    summary: &mut Summary,
    verbose: bool,
) {
    // Scenario-pinned distributions (e.g. the 4i Zipfian hotspot) override
    // whatever the run's global flags selected.
    let workload = &scenario.workload(workload);
    for name in competitors_for(scenario.label) {
        for &t in threads {
            let map = build(name, pool.clone(), chunk_capacity);
            ingest(map.as_ref(), workload);
            let r = sustained(&map, workload, scenario.mix, t, duration);
            if verbose {
                eprintln!(
                    "{} / {} / {} threads: {:.1} Kops/s",
                    scenario.label,
                    name,
                    t,
                    r.kops_per_sec()
                );
            }
            summary.push(Row {
                scenario: scenario.label.to_string(),
                bench: name.to_string(),
                heap_bytes: 0,
                direct_bytes: (pool.arena_size * pool.max_arenas) as u64,
                threads: t,
                shards: map.shards(),
                final_size: r.final_size,
                mops: r.mops_per_sec(),
                note: String::new(),
                robustness: map.pool_stats(),
            });
        }
    }
}

/// Point-op scenarios swept by `--grid`: the three Figure-4 curves the
/// thread-scaling acceptance gate reads (insert-only, zero-copy read,
/// and the 95/5 mix).
pub const GRID_SCENARIOS: &[&str] = &["4a-put", "4c-get-zc", "4d-95Get5Put"];

/// Competitors swept by `--grid`: the single-map baseline, three shard
/// widths (so the curve shape vs shard count is visible), and the two
/// skiplist baselines.
pub const GRID_COMPETITORS: &[&str] = &[
    "OakMap",
    "ShardedOak-4",
    "ShardedOak-8",
    "ShardedOak-16",
    "JavaSkipListMap",
    "OffHeapList",
];

/// Thread counts `--grid` sweeps when `--threads` is not given: the
/// paper's Figure-4 x-axis.
pub const GRID_THREADS: &[usize] = &[1, 2, 4, 8, 16, 32];

/// Figure-4 grid mode: throughput-vs-threads curves for the point-op
/// scenarios over [`GRID_COMPETITORS`]. Every grid point gets a freshly
/// built and ingested map, exactly like the flat scenario runs — reusing
/// one map across the sweep looked cheaper but lets put churn outrun the
/// quarantine across runs until the pool reports `OutOfMemory` mid-curve.
/// Rows carry `note == "grid"` so downstream tables and CI gates can
/// select the curves without disturbing the flat scenario rows.
pub fn run_grid(
    threads: &[usize],
    workload: &WorkloadConfig,
    pool: PoolConfig,
    chunk_capacity: u32,
    duration: Duration,
    summary: &mut Summary,
    verbose: bool,
) {
    for label in GRID_SCENARIOS {
        let scenario = SCENARIOS
            .iter()
            .find(|s| s.label == *label)
            .expect("grid scenario registered");
        let workload = scenario.workload(workload);
        for name in GRID_COMPETITORS {
            for &t in threads {
                let map = build(name, pool.clone(), chunk_capacity);
                ingest(map.as_ref(), &workload);
                let r = sustained(&map, &workload, scenario.mix, t, duration);
                if verbose {
                    eprintln!(
                        "grid {} / {} / {} threads: {:.1} Kops/s",
                        scenario.label,
                        name,
                        t,
                        r.kops_per_sec()
                    );
                }
                summary.push(Row {
                    scenario: scenario.label.to_string(),
                    bench: name.to_string(),
                    heap_bytes: 0,
                    direct_bytes: (pool.arena_size * pool.max_arenas) as u64,
                    threads: t,
                    shards: map.shards(),
                    final_size: r.final_size,
                    mops: r.mops_per_sec(),
                    note: "grid".to_string(),
                    robustness: map.pool_stats(),
                });
            }
        }
    }
}

/// Label of the allocation-churn scenario (opt-in: run it with
/// `--scenario alloc-churn`).
pub const ALLOC_CHURN_LABEL: &str = "alloc-churn";

/// Allocation-churn scenario: every thread alternates put and remove over
/// a private key stripe, so each operation pair allocates and frees one
/// fixed-size value payload: the free-list lock's worst case. The
/// `OakMap` row reports it with its `freelist_lock_acquires` column; the
/// `OakMap+reservoir` row then churns whole map instances over a shared
/// arena reservoir, and `alloc_churn_reservoir_ledger_balances` holds
/// that row's take/return ledger to exact balance.
pub fn run_alloc_churn(
    threads: &[usize],
    workload: &WorkloadConfig,
    chunk_capacity: u32,
    duration: Duration,
    summary: &mut Summary,
    verbose: bool,
) {
    let raw = workload.key_range * (workload.key_size + workload.value_size + 24) as u64;
    let pool = PoolConfig::with_budget(8 << 20, (raw as usize * 3).max(16 << 20));
    for &t in threads {
        let map = Arc::new(OakMap::with_config(
            OakMapConfig::default()
                .chunk_capacity(chunk_capacity)
                .pool(pool.clone()),
        ));
        let ops = AtomicU64::new(0);
        let start = Instant::now();
        std::thread::scope(|s| {
            for tid in 0..t {
                let map = &map;
                let ops = &ops;
                s.spawn(move || {
                    // Private stripe: churn stresses the allocator, not
                    // map-level key contention.
                    let stripe = workload.key_range / t.max(1) as u64;
                    let base = stripe * tid as u64;
                    let mut i = 0u64;
                    let mut n = 0u64;
                    while start.elapsed() < duration {
                        let key = workload.key(base + (i % stripe.max(1)));
                        map.put(&key, &workload.value(i)).expect("churn put");
                        map.remove(&key);
                        i += 1;
                        n += 2;
                    }
                    ops.fetch_add(n, Ordering::Relaxed);
                });
            }
        });
        let elapsed = start.elapsed().as_secs_f64();
        let stats = map.pool().stats();
        let total = ops.load(Ordering::Relaxed);
        if verbose {
            eprintln!(
                "{ALLOC_CHURN_LABEL} / OakMap / {t} threads: {total} ops, \
                 {} freelist locks",
                stats.freelist_lock_acquires
            );
        }
        summary.push(Row {
            scenario: ALLOC_CHURN_LABEL.to_string(),
            bench: "OakMap".to_string(),
            heap_bytes: 0,
            direct_bytes: (pool.arena_size * pool.max_arenas) as u64,
            threads: t,
            shards: 1,
            final_size: map.len(),
            mops: total as f64 / elapsed / 1e6,
            note: String::new(),
            robustness: Some(stats),
        });
    }

    // Second row: instance churn over the shared reservoir. Each thread
    // repeatedly builds a small map wired to one [`ArenaPool`], pushes a
    // burst of puts through it (growing the pool via reservoir takes), and
    // drops it (parking every arena back) — the arena hand-off itself is
    // the hot path here, not the byte allocator. The `reservoir_takes` /
    // `reservoir_returns` columns carry the traffic, and takes == returns
    // proves the ledger balances.
    let arena_size = 64 << 10;
    for &t in threads {
        // Fresh reservoir per row: its cumulative take/return ledger is
        // the row's traffic.
        let reservoir = Arc::new(oak_mempool::ArenaPool::new(arena_size, 256));
        let merged = Mutex::new(PoolStats::default());
        let ops = AtomicU64::new(0);
        let start = Instant::now();
        std::thread::scope(|s| {
            for tid in 0..t {
                let reservoir = &reservoir;
                let merged = &merged;
                let ops = &ops;
                s.spawn(move || {
                    let mut acc = PoolStats::default();
                    let mut n = 0u64;
                    let mut round = 0u64;
                    while start.elapsed() < duration {
                        let map = OakMap::with_config(
                            OakMapConfig::default()
                                .chunk_capacity(chunk_capacity)
                                .pool(PoolConfig {
                                    arena_size,
                                    max_arenas: 8,
                                })
                                .shared_arenas(reservoir.clone()),
                        );
                        for i in 0..256u64 {
                            let key = workload.key(tid as u64 * 1_000_003 + round * 257 + i);
                            match map.put(&key, &workload.value(i)) {
                                Ok(()) => n += 1,
                                // A saturated reservoir is a legitimate
                                // outcome at high thread counts.
                                Err(OakError::OutOfMemory | OakError::Alloc(_)) => {}
                                Err(e) => panic!("reservoir churn put: {e}"),
                            }
                        }
                        acc = acc.merged(&map.pool().stats());
                        round += 1;
                    }
                    let mut g = merged.lock();
                    *g = g.merged(&acc);
                    ops.fetch_add(n, Ordering::Relaxed);
                });
            }
        });
        let elapsed = start.elapsed().as_secs_f64();
        let ledger = reservoir.stats();
        assert_eq!(ledger.outstanding, 0, "reservoir churn leaked arenas");
        // Pool-side snapshots are taken while each map is still alive, so
        // the returns (which happen at drop) only show on the reservoir's
        // own ledger — report that, it is also exact across all instances.
        let mut stats = merged.into_inner();
        stats.reservoir_takes = ledger.taken;
        stats.reservoir_returns = ledger.returned;
        let total = ops.load(Ordering::Relaxed);
        if verbose {
            eprintln!(
                "{ALLOC_CHURN_LABEL} / OakMap+reservoir / {t} threads: {total} ops, \
                 {} takes, {} returns",
                stats.reservoir_takes, stats.reservoir_returns
            );
        }
        summary.push(Row {
            scenario: ALLOC_CHURN_LABEL.to_string(),
            bench: "OakMap+reservoir".to_string(),
            heap_bytes: 0,
            direct_bytes: (arena_size * 256) as u64,
            threads: t,
            shards: 1,
            final_size: 0,
            mops: total as f64 / elapsed / 1e6,
            note: String::new(),
            robustness: Some(stats),
        });
    }
}

/// Label of the memory-pressure scenario (not part of the Figure 4 table:
/// run it with `--scenario mem-pressure`).
pub const MEM_PRESSURE_LABEL: &str = "mem-pressure";

/// Memory-pressure scenario: writers churn a working set against a pool
/// deliberately sized below it, so puts exhaust the pool, trigger emergency
/// reclamation, and — once reclamation cannot help — surface
/// [`OakError::OutOfMemory`]. The standard driver panics on any put error,
/// so this scenario runs its own loop that tolerates out-of-memory and
/// reports the OOM / reclaim counts and free-space fragmentation in the
/// robustness columns.
///
/// The work is a fixed, seeded `2 × key_range` operations per thread, not a
/// time window: three puts to one remove over uniform keys would settle at
/// three quarters of the range resident, the pool holds well under half of
/// it, so the run reaches the exhaustion edge within the first `key_range`
/// operations and spends the rest riding it (every failed put runs the
/// whole emergency ladder, which is what makes the scenario slow per op).
pub fn run_memory_pressure(
    threads: &[usize],
    workload: &WorkloadConfig,
    chunk_capacity: u32,
    summary: &mut Summary,
    verbose: bool,
) {
    // ~55% of the raw working-set footprint: exhaustion is guaranteed once
    // the key range fills, and removals keep reclamation productive.
    let raw = workload.key_range * (workload.key_size + workload.value_size + 24) as u64;
    let budget = ((raw / 2) as usize).max(256 << 10);
    let pool = PoolConfig::with_budget((budget / 4).next_power_of_two().max(64 << 10), budget);
    let ops_per_thread = 2 * workload.key_range;
    for &t in threads {
        let map = Arc::new(OakMap::with_config(
            OakMapConfig::default()
                .chunk_capacity(chunk_capacity)
                .pool(pool.clone()),
        ));
        let ooms = AtomicU64::new(0);
        let removes = AtomicU64::new(0);
        let start = Instant::now();
        std::thread::scope(|s| {
            for tid in 0..t {
                let map = &map;
                let ooms = &ooms;
                let removes = &removes;
                s.spawn(move || {
                    let mut rng = SplitMix64::new(workload.seed ^ tid as u64);
                    let mut oom = 0u64;
                    let mut removed = 0u64;
                    for _ in 0..ops_per_thread {
                        // Key and op are independent draws, so that every
                        // key a put writes is one a remove can name.
                        let key_id = rng.below(workload.key_range);
                        let key = workload.key(key_id);
                        if rng.below(4) == 0 {
                            removed += map.remove(&key) as u64;
                        } else {
                            match map.put(&key, &workload.value(key_id)) {
                                Ok(()) => {}
                                Err(OakError::OutOfMemory | OakError::Alloc(_)) => oom += 1,
                                Err(e) => panic!("unexpected: {e}"),
                            }
                        }
                    }
                    ooms.fetch_add(oom, Ordering::Relaxed);
                    removes.fetch_add(removed, Ordering::Relaxed);
                });
            }
        });
        let elapsed = start.elapsed().as_secs_f64();
        map.drain_quarantine();
        let stats = map.pool().stats();
        let total = ops_per_thread * t as u64;
        let oom_seen = ooms.load(Ordering::Relaxed);
        let removed = removes.load(Ordering::Relaxed);
        assert!(removed > 0, "no remove hit a resident key in {total} ops");
        // Post-churn usability: a map that rode the exhaustion edge must
        // still serve clean traffic. The pool may be legitimately full of
        // live pairs, so the probe first removes a few residents: removes
        // giving space back is the contract, and after them a small put
        // that still fails means reclamation broke.
        let mut residents = Vec::new();
        map.for_each_in(None, None, |k, _| {
            residents.push(k.to_vec());
            residents.len() < 8
        });
        for k in &residents {
            map.remove(k);
        }
        map.drain_quarantine();
        let probe_key = b"mem-pressure-probe";
        map.put(probe_key, b"alive")
            .unwrap_or_else(|e| panic!("map unusable after churn and removes: {e}"));
        assert_eq!(
            map.get_copy(probe_key),
            Some(b"alive".to_vec()),
            "post-churn round-trip failed"
        );
        map.remove(probe_key);
        if verbose {
            eprintln!(
                "{MEM_PRESSURE_LABEL} / OakMap / {t} threads: {total} ops, {oom_seen} OOM, \
                 {removed} removed, {} reclaims, frag {}%",
                stats.emergency_reclaims,
                fragmentation_pct(&stats)
            );
        }
        summary.push(Row {
            scenario: MEM_PRESSURE_LABEL.to_string(),
            bench: "OakMap".to_string(),
            heap_bytes: 0,
            direct_bytes: (pool.arena_size * pool.max_arenas) as u64,
            threads: t,
            shards: 1,
            final_size: map.len(),
            mops: total as f64 / elapsed / 1e6,
            note: if oom_seen > 0 {
                format!("OOM x{oom_seen}")
            } else {
                String::new()
            },
            robustness: Some(stats),
        });
    }
}

/// Label of the checkpoint/recovery scenario.
pub const RECOVERY_LABEL: &str = "recovery";

/// Checkpoint/recovery latency: builds a map of `workload.key_range`
/// entries, streams a durable checkpoint image to a temporary directory
/// (`oak_durable::checkpoint`), then recovers it into a fresh map
/// (`oak_durable::open`). Two rows are reported — `checkpoint` and
/// `open` — with entries/second in the Mops column and the image shape
/// (chunks, bytes, wall time) in the note. Single-threaded by nature:
/// checkpoint is one consistent scan, recovery one sequential rebuild.
pub fn run_recovery(
    workload: &WorkloadConfig,
    pool: PoolConfig,
    chunk_capacity: u32,
    summary: &mut Summary,
    verbose: bool,
) {
    let dir = std::env::temp_dir().join(format!("oak-bench-recovery-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = OakMapConfig::default().chunk_capacity(chunk_capacity);
    let map = OakMap::with_config(config.clone().pool(pool));
    for i in 0..workload.key_range {
        map.put(&workload.key(i), &workload.value(i))
            .expect("recovery scenario fill");
    }
    let entries = map.len();

    let start = Instant::now();
    let stats = oak_durable::checkpoint(&map, &dir).expect("checkpoint");
    let ckpt = start.elapsed();
    let start = Instant::now();
    let recovered = oak_durable::open(&dir, config).expect("open");
    let open = start.elapsed();
    assert_eq!(recovered.len(), entries, "recovery lost entries");

    let mib = stats.bytes as f64 / (1 << 20) as f64;
    for (bench, secs) in [
        ("checkpoint", ckpt.as_secs_f64()),
        ("open", open.as_secs_f64()),
    ] {
        if verbose {
            eprintln!(
                "{RECOVERY_LABEL} / {bench}: {entries} entries, {} chunks, {mib:.1} MiB, \
                 {:.1} ms",
                stats.chunks,
                secs * 1e3
            );
        }
        summary.push(Row {
            scenario: RECOVERY_LABEL.to_string(),
            bench: bench.to_string(),
            heap_bytes: 0,
            direct_bytes: stats.bytes,
            threads: 1,
            shards: 1,
            final_size: entries,
            mops: entries as f64 / secs / 1e6,
            note: format!(
                "{} chunks, {mib:.1} MiB, {:.1} ms",
                stats.chunks,
                secs * 1e3
            ),
            robustness: None,
        });
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_table_covers_figure_4() {
        let labels: Vec<&str> = SCENARIOS.iter().map(|s| s.label).collect();
        for fig in ["4a", "4b", "4c", "4d", "4e", "4f", "4g", "4h"] {
            assert!(
                labels.iter().any(|l| l.starts_with(fig)),
                "figure {fig} uncovered"
            );
        }
    }

    #[test]
    fn all_competitors_buildable() {
        for name in [
            "OakMap",
            "Oak-Copy",
            "JavaSkipListMap",
            "OffHeapList",
            "MapDB-BTree",
            "ShardedOak-4",
        ] {
            let m = build(name, PoolConfig::small(), 64);
            m.put(b"k", b"v");
            assert!(m.get_zc(b"k"), "{name}");
            assert_eq!(m.len(), 1);
            let want = if name == "ShardedOak-4" { 4 } else { 1 };
            assert_eq!(m.shards(), want, "{name}");
        }
    }

    #[test]
    fn sharded_competitor_in_every_scan_scenario() {
        for s in SCENARIOS {
            if s.label.starts_with("4e") || s.label.starts_with("4f") || s.label.starts_with("4g") {
                assert!(
                    competitors_for(s.label).contains(&SHARDED_DEFAULT),
                    "{} misses the sharded competitor",
                    s.label
                );
            }
        }
    }

    #[test]
    fn mem_pressure_reports_robustness_columns() {
        let wl = WorkloadConfig {
            key_range: 2_000,
            key_size: 32,
            value_size: 256,
            seed: 9,
            distribution: crate::workload::KeyDistribution::Uniform,
        };
        let mut summary = Summary::new();
        run_memory_pressure(&[2], &wl, 64, &mut summary, false);
        assert_eq!(summary.rows().len(), 1);
        let row = &summary.rows()[0];
        assert_eq!(row.scenario, MEM_PRESSURE_LABEL);
        let rb = row.robustness.expect("pool-backed scenario reports stats");
        // The pool is sized below the working set: exhaustion must have been
        // hit, and every exhaustion first goes through emergency reclamation.
        assert!(rb.failed_allocs > 0, "pool never exhausted: {rb:?}");
        assert!(rb.emergency_reclaims > 0, "no reclamation pass: {rb:?}");
        // The CSV row carries the new columns.
        assert!(summary.to_csv().contains("mem-pressure,OakMap,"));
    }

    #[test]
    fn alloc_churn_reservoir_ledger_balances() {
        // The allocation-churn scenario's gate: both rows carry pool
        // counters, and the instance-churn row must actually move arenas
        // through the shared reservoir with an exactly balanced ledger
        // (`run_alloc_churn` itself asserts none is outstanding).
        let wl = WorkloadConfig {
            key_range: 4_000,
            key_size: 24,
            value_size: 128,
            seed: 5,
            distribution: crate::workload::KeyDistribution::Uniform,
        };
        let mut summary = Summary::new();
        run_alloc_churn(
            &[2],
            &wl,
            64,
            Duration::from_millis(400),
            &mut summary,
            false,
        );
        assert_eq!(summary.rows().len(), 2);
        assert_eq!(summary.rows()[0].bench, "OakMap");
        let churn = summary.rows()[0].robustness.expect("stats churn");
        assert!(churn.alloc_count > 0, "churn never allocated: {churn:?}");
        assert!(
            churn.freelist_lock_acquires >= churn.alloc_count + churn.free_count,
            "every allocation and free takes a free-list lock: {churn:?}"
        );
        assert_eq!(summary.rows()[1].bench, "OakMap+reservoir");
        let rv = summary.rows()[1].robustness.expect("stats reservoir");
        assert!(rv.reservoir_takes > 0, "reservoir never tapped: {rv:?}");
        assert_eq!(
            rv.reservoir_takes, rv.reservoir_returns,
            "reservoir ledger out of balance: {rv:?}"
        );
    }

    #[test]
    fn get_zc_on_synchrobench_keys_stays_off_the_key_bytes() {
        // A structural gate that needs no timing threshold: on
        // synchrobench's own keys (20 zero-padded digits, so the first
        // eight bytes never differ) a zero-copy get may dereference
        // off-heap key bytes at most twice — the confirming compare of a
        // hit plus slack — not once per binary-search probe (≈ 11).
        let wl = WorkloadConfig::small();
        let sc = SCENARIOS
            .iter()
            .find(|s| s.label == "4c-get-zc")
            .expect("4c scenario registered");
        let map = build("OakMap", PoolConfig::with_budget(8 << 20, 256 << 20), 4096);
        ingest(map.as_ref(), &wl);
        let derefs = || map.pool_stats().expect("oak stats").offheap_key_derefs;
        let before = derefs();
        let run = sustained(&map, &wl, sc.mix, 2, Duration::from_millis(200));
        let per_get = (derefs() - before) as f64 / run.ops as f64;
        assert!(run.ops > 0 && per_get <= 2.0, "{per_get} derefs per get");
    }

    #[test]
    fn range_scan_scenario_feeds_batch_counters() {
        // 4g smoke: the scan engine must report chunk-snapshot and
        // buffer-reuse traffic through the robustness columns.
        let wl = WorkloadConfig {
            key_range: 600,
            key_size: 32,
            value_size: 64,
            seed: 11,
            distribution: crate::workload::KeyDistribution::Uniform,
        };
        let sc = SCENARIOS
            .iter()
            .find(|s| s.label == "4g-scan-50")
            .expect("4g scenario registered");
        let mut summary = Summary::new();
        run_scenario(
            sc,
            &[1],
            &wl,
            PoolConfig::small(),
            64,
            Duration::from_millis(40),
            &mut summary,
            false,
        );
        let on = summary
            .rows()
            .iter()
            .find(|r| r.bench == "OakMap")
            .expect("OakMap row")
            .robustness
            .expect("oak reports pool stats");
        assert!(
            on.scan_chunk_batches > 0,
            "batch pipeline never engaged: {on:?}"
        );
        assert!(
            on.scan_buffer_reuses > 0,
            "cursor buffers never reused: {on:?}"
        );
    }

    #[test]
    fn scan_churn_scenario_records_revalidations() {
        // The 4h satellite: every checked-in bench row reported
        // `scan_revalidations == 0` because the read-only 4e/4f scans run
        // against a frozen population — chunk revisions only move at
        // freeze/replacement, i.e. during rebalance. 4h interleaves
        // bounded scans with put/remove churn over the whole range, so
        // chunks split mid-scan and batch refills must re-locate. The
        // counter must actually see that traffic.
        let wl = WorkloadConfig {
            key_range: 600,
            key_size: 32,
            value_size: 64,
            seed: 13,
            distribution: crate::workload::KeyDistribution::Uniform,
        };
        let sc = SCENARIOS
            .iter()
            .find(|s| s.label == "4h-scan-churn")
            .expect("4h scenario registered");
        // Splits racing a scan need a writer thread alongside the scanner;
        // on a loaded host the race can take a few rounds to land, so
        // retry short runs instead of one long flaky one.
        let mut revals = 0;
        for _ in 0..5 {
            let mut summary = Summary::new();
            run_scenario(
                sc,
                &[2],
                &wl,
                PoolConfig::small(),
                64,
                Duration::from_millis(150),
                &mut summary,
                false,
            );
            let rb = summary
                .rows()
                .iter()
                .find(|r| r.bench == "OakMap")
                .expect("OakMap row")
                .robustness
                .expect("oak reports pool stats");
            assert!(rb.scan_chunk_batches > 0, "scans never batched: {rb:?}");
            revals = rb.scan_revalidations;
            if revals > 0 {
                break;
            }
        }
        assert!(
            revals > 0,
            "churned scans never revalidated a batch: the 4h wiring is dead"
        );
    }

    #[test]
    fn grid_mode_sweeps_every_competitor_and_tags_rows() {
        let wl = WorkloadConfig {
            key_range: 200,
            key_size: 24,
            value_size: 64,
            seed: 7,
            distribution: crate::workload::KeyDistribution::Uniform,
        };
        let mut summary = Summary::new();
        run_grid(
            &[1, 2],
            &wl,
            PoolConfig::small(),
            64,
            Duration::from_millis(10),
            &mut summary,
            false,
        );
        // 3 scenarios x 6 competitors x 2 thread counts.
        assert_eq!(
            summary.rows().len(),
            GRID_SCENARIOS.len() * GRID_COMPETITORS.len() * 2
        );
        assert!(summary.rows().iter().all(|r| r.note == "grid"));
        assert!(summary.rows().iter().all(|r| r.mops > 0.0));
        for label in GRID_SCENARIOS {
            for name in GRID_COMPETITORS {
                for t in [1usize, 2] {
                    assert!(
                        summary
                            .rows()
                            .iter()
                            .any(|r| r.scenario == *label && r.bench == *name && r.threads == t),
                        "missing grid row {label}/{name}/{t}"
                    );
                }
            }
        }
        // Shard widths really differ across the ShardedOak competitors.
        for n in [4usize, 8, 16] {
            assert!(
                summary
                    .rows()
                    .iter()
                    .any(|r| r.bench == format!("ShardedOak-{n}") && r.shards == n),
                "ShardedOak-{n} rows missing or mis-sharded"
            );
        }
    }

    #[test]
    fn zipfian_scenario_pins_its_distribution() {
        let sc = SCENARIOS
            .iter()
            .find(|s| s.label == "4i-zipf-95Get5Put")
            .expect("4i scenario registered");
        let base = WorkloadConfig {
            key_range: 100,
            key_size: 16,
            value_size: 32,
            seed: 1,
            distribution: crate::workload::KeyDistribution::Uniform,
        };
        let wl = sc.workload(&base);
        assert_eq!(
            wl.distribution,
            KeyDistribution::Zipfian { theta: 0.99 },
            "4i must override the run's uniform default"
        );
        // Scenarios without a pin inherit the base distribution.
        let plain = SCENARIOS.iter().find(|s| s.label == "4a-put").unwrap();
        assert_eq!(plain.workload(&base).distribution, KeyDistribution::Uniform);
    }

    #[test]
    fn smoke_run_one_scenario() {
        let wl = WorkloadConfig {
            key_range: 300,
            key_size: 32,
            value_size: 64,
            seed: 3,
            distribution: crate::workload::KeyDistribution::Uniform,
        };
        let mut summary = Summary::new();
        run_scenario(
            &SCENARIOS[0],
            &[1],
            &wl,
            PoolConfig::small(),
            64,
            Duration::from_millis(20),
            &mut summary,
            false,
        );
        assert_eq!(summary.rows().len(), 4); // four competitors
        assert!(summary.rows().iter().all(|r| r.mops > 0.0));
        assert!(summary
            .rows()
            .iter()
            .any(|r| r.bench == SHARDED_DEFAULT && r.shards == 4));
    }
}
