//! Ablation runs for design choices DESIGN.md calls out:
//!
//! * chunk size (search locality vs rebalance cost),
//! * sorted-prefix + bypass insertion vs rebalance-every-insert,
//! * stack-based descending scan vs lookup-per-key descending on Oak,
//! * the MapDB-style B-tree comparator (≥10× slower claim, §1.2).
//!
//! A plain `main` (`cargo bench -p oak-bench --bench ablations`): every case
//! runs a fixed, seeded operation count single-threaded after a warm-up of
//! a tenth of it, and the rows print through the same [`Summary`] table as
//! the figure binaries. One sample per case at reduced scale: read
//! the *ordering* within a group, not the absolute numbers.

use std::time::{Duration, Instant};

use oak_bench::adapter::MapAdapter;
use oak_bench::driver::{ingest, run_fixed_ops};
use oak_bench::report::{Row, Summary};
use oak_bench::workload::{Mix, WorkloadConfig};
use oak_core::{OakMap, OakMapConfig};
use oak_mempool::PoolConfig;
use oak_skiplist::btree::LockedBTreeMap;

/// Point operations timed per case.
const POINT_OPS: u64 = 200_000;
/// Descending scans timed per case, each of [`SCAN_LEN`] entries.
const SCANS: u64 = 200;
const SCAN_LEN: usize = 1_000;

fn wl() -> WorkloadConfig {
    WorkloadConfig {
        key_range: 10_000,
        key_size: 100,
        value_size: 256,
        seed: 0xAB1A,
        distribution: oak_bench::workload::KeyDistribution::Uniform,
    }
}

/// Pool with ample room for the dataset plus put churn.
fn pool() -> PoolConfig {
    PoolConfig {
        arena_size: 8 << 20,
        max_arenas: 48,
        magazines: false,
        lockfree: false,
        ..Default::default()
    }
}

/// One ablation group: its rows share the group name as their scenario.
struct Group<'a> {
    out: &'a mut Summary,
    name: &'static str,
}

impl Group<'_> {
    fn push(&mut self, case: &str, size: usize, items: u64, took: Duration) {
        self.out.push(Row {
            scenario: self.name.to_string(),
            bench: case.to_string(),
            heap_bytes: 0,
            direct_bytes: 0,
            threads: 1,
            shards: 1,
            final_size: size,
            mops: items as f64 / took.as_secs_f64() / 1e6,
            note: String::new(),
            robustness: None,
        });
    }

    /// Warms `map` up with a tenth of [`POINT_OPS`] of `mix`, then times
    /// the full count.
    fn point(&mut self, case: &str, map: &MapAdapter, wl: &WorkloadConfig, mix: Mix) {
        run_fixed_ops(map, wl, mix, POINT_OPS / 10);
        let took = run_fixed_ops(map, wl, mix, POINT_OPS);
        self.push(case, map.len(), POINT_OPS, took);
    }
}

/// Chunk-size sweep: gets against maps built with different capacities.
fn ablate_chunk_size(out: &mut Summary) {
    let mut g = Group {
        out,
        name: "ablate_chunk_size_get",
    };
    let wl = wl();
    for cap in [64u32, 256, 1024, 4096] {
        let map = MapAdapter::new(
            "OakMap",
            OakMap::with_config(OakMapConfig::default().chunk_capacity(cap).pool(pool())),
        );
        ingest(&map, &wl);
        g.point(&format!("get/{cap}"), &map, &wl, Mix::GetZeroCopy);
    }
}

/// Bypass insertion vs always-rebalance: an unsorted-ratio of ~0 forces a
/// reorganization storm, quantifying what the bypass list saves.
fn ablate_rebalance_policy(out: &mut Summary) {
    let mut g = Group {
        out,
        name: "ablate_rebalance_policy_put",
    };
    let wl = wl();
    for (label, ratio) in [("bypass-0.5", 0.5f64), ("eager-0.05", 0.05)] {
        let mut cfg = OakMapConfig::default().pool(pool());
        cfg.rebalance_unsorted_ratio = ratio;
        let map = MapAdapter::new("OakMap", OakMap::with_config(cfg));
        ingest(&map, &wl);
        g.point(label, &map, &wl, Mix::PutOnly);
    }
}

/// Oak's stack-based descending scan vs a lookup-per-key descent over the
/// same Oak map (isolating the Figure 2 mechanism itself).
fn ablate_descend_mechanism(out: &mut Summary) {
    let mut g = Group {
        out,
        name: "ablate_descend",
    };
    let wl = wl();
    let map = OakMap::with_config(OakMapConfig::default().pool(pool()));
    for id in 0..wl.key_range {
        map.put(&wl.key(id), &wl.value(id)).unwrap();
    }
    let from = wl.key(wl.key_range - 1);

    let stack_based = || {
        let mut n = 0;
        map.for_each_descending(Some(&from), None, |_, _| {
            n += 1;
            n < SCAN_LEN
        });
        std::hint::black_box(n);
    };
    // Emulate the skiplist strategy on Oak: a fresh descending lookup
    // (index query + position rebuild) for every key, instead of resuming
    // the Figure 2 stack.
    let lookup_per_key = || {
        let mut cursor = from.clone();
        let mut n = 0;
        while n < SCAN_LEN {
            let mut stepped = None;
            map.for_each_descending(Some(&cursor), None, |k, _| {
                if k < cursor.as_slice() {
                    stepped = Some(k.to_vec());
                    false
                } else {
                    true
                }
            });
            match stepped {
                Some(k) => cursor = k,
                None => break,
            }
            n += 1;
        }
        std::hint::black_box(&cursor);
    };
    let cases: [(&str, &dyn Fn()); 2] = [
        ("stack-based(Fig2)", &stack_based),
        ("lookup-per-key", &lookup_per_key),
    ];
    for (case, scan) in cases {
        for _ in 0..SCANS / 10 {
            scan();
        }
        let start = Instant::now();
        for _ in 0..SCANS {
            scan();
        }
        let took = start.elapsed();
        g.push(case, map.len(), SCANS * SCAN_LEN as u64, took);
    }
}

/// MapDB-style B-tree vs Oak on gets and puts (the ≥10× gap at scale; at
/// bench scale the gap is smaller but the ordering must hold).
fn ablate_btree(out: &mut Summary) {
    let mut g = Group {
        out,
        name: "ablate_btree",
    };
    let wl = wl();
    let oak = MapAdapter::new(
        "OakMap",
        OakMap::with_config(OakMapConfig::default().pool(pool())),
    );
    ingest(&oak, &wl);
    let btree = MapAdapter::new("MapDB-BTree", LockedBTreeMap::new(pool()));
    ingest(&btree, &wl);
    let cases: [(&str, &MapAdapter, Mix); 4] = [
        ("Oak-get", &oak, Mix::GetZeroCopy),
        ("BTree-get", &btree, Mix::GetZeroCopy),
        ("Oak-put", &oak, Mix::PutOnly),
        ("BTree-put", &btree, Mix::PutOnly),
    ];
    for (case, map, mix) in cases {
        g.point(case, map, &wl, mix);
    }
}

/// Header reclamation policies under delete-heavy churn (the §3.3
/// extension): throughput cost of generation checks + recycling, against
/// the default retain-forever manager.
fn ablate_reclamation(out: &mut Summary) {
    let mut g = Group {
        out,
        name: "ablate_reclamation_churn",
    };
    use oak_mempool::ReclamationPolicy;
    let wl = wl();
    for (label, policy) in [
        ("retain-headers", ReclamationPolicy::RetainHeaders),
        ("reclaim-headers", ReclamationPolicy::ReclaimHeaders),
    ] {
        let map = MapAdapter::new(
            "OakMap",
            OakMap::with_config(OakMapConfig::default().pool(pool()).reclamation(policy)),
        );
        ingest(&map, &wl);
        g.point(label, &map, &wl, Mix::PutRemoveChurn);
    }
}

/// Uniform vs Zipfian key skew on gets (hot chunks stay cached; skew also
/// concentrates header-lock contention under writes).
fn ablate_key_skew(out: &mut Summary) {
    let mut g = Group {
        out,
        name: "ablate_key_skew_get",
    };
    for (label, wl) in [("uniform", wl()), ("zipf-0.99", wl().zipfian(0.99))] {
        let map = MapAdapter::new(
            "OakMap",
            OakMap::with_config(OakMapConfig::default().pool(pool())),
        );
        ingest(&map, &wl);
        g.point(label, &map, &wl, Mix::GetZeroCopy);
    }
}

fn main() {
    let mut out = Summary::new();
    ablate_chunk_size(&mut out);
    ablate_rebalance_policy(&mut out);
    ablate_descend_mechanism(&mut out);
    ablate_btree(&mut out);
    ablate_reclamation(&mut out);
    ablate_key_skew(&mut out);
    println!("{}", out.to_table());
}
