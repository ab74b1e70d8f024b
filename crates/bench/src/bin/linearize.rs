//! Standalone linearizability-corpus runner: seeded concurrent
//! workloads over [`OakMap`] / [`ShardedOakMap`], every recorded history
//! checked, with the checker's work counters reported per seed batch.
//!
//! ```text
//! linearize [--seeds 200] [--threads 4] [--ops 60] [--keyspace 12]
//!           [--shards 0] [--faults] [--seed-base 0]
//! ```
//!
//! `--shards 0` (default) runs the single map; `--shards N` runs the
//! sharded front-end. `--faults` additionally installs a seeded fault
//! schedule per seed (requires a build with `--features failpoints`;
//! without the feature the flag still runs but injects nothing).
//!
//! Exits non-zero on the first violation, printing the offending seed
//! so it can be replayed under a debugger or turned into a regression
//! schedule.

use oak_core::{OakMap, OakMapConfig, OrderedKvMap, ShardedOakMap};
use oak_linearize::{run_and_check, CheckStats, WorkloadCfg};

/// Holds the process-wide failpoint scenario while fault schedules are in
/// use; a unit guard when the instrumentation is compiled out.
#[cfg(feature = "failpoints")]
fn fault_guard() -> oak_failpoints::Scenario {
    oak_failpoints::scenario()
}
#[cfg(not(feature = "failpoints"))]
fn fault_guard() {}

#[cfg(feature = "failpoints")]
fn install_faults(seed: u64) {
    oak_failpoints::clear();
    oak_failpoints::Schedule::generate(seed, &oak_core::all_failpoint_sites()).install();
}
#[cfg(not(feature = "failpoints"))]
fn install_faults(_seed: u64) {
    eprintln!("warning: --faults ignored; rebuild with --features oak-bench/failpoints");
}

fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn num(args: &[String], flag: &str, default: u64) -> u64 {
    parse_flag(args, flag)
        .map(|s| {
            s.parse()
                .unwrap_or_else(|_| panic!("{flag} takes a number"))
        })
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seeds = num(&args, "--seeds", 200);
    let threads = num(&args, "--threads", 4) as usize;
    let ops = num(&args, "--ops", 60) as usize;
    let keyspace = num(&args, "--keyspace", 12) as usize;
    let shards = num(&args, "--shards", 0) as usize;
    let seed_base = num(&args, "--seed-base", 0);
    let faults = args.iter().any(|a| a == "--faults");

    let config = || {
        OakMapConfig::small()
            .chunk_capacity(8)
            .pool(oak_mempool::PoolConfig {
                magazines: false,
                lockfree: false,
                arena_size: 16 << 10,
                max_arenas: 16,
                ..Default::default()
            })
    };
    let cfg_desc = if shards == 0 {
        "OakMap".to_string()
    } else {
        format!("ShardedOakMap×{shards}")
    };
    println!(
        "# linearize corpus: {seeds} seeds over {cfg_desc}, {threads} threads × {ops} ops, \
         keyspace {keyspace}, faults={faults}"
    );

    let _guard = faults.then(fault_guard);
    let mut totals = CheckStats::default();
    for i in 0..seeds {
        let seed = seed_base + i;
        if faults {
            install_faults(seed);
        }
        let wl = WorkloadCfg {
            threads,
            ops_per_thread: ops,
            keyspace,
            seed,
            ..WorkloadCfg::default()
        };
        let map: Box<dyn OrderedKvMap> = if shards == 0 {
            Box::new(OakMap::with_config(config()))
        } else {
            Box::new(ShardedOakMap::with_config(shards, config()))
        };
        match run_and_check(map.as_ref(), &wl) {
            Ok(stats) => {
                totals.point_ops += stats.point_ops;
                totals.scans += stats.scans;
                totals.keys += stats.keys;
                totals.sequential_keys += stats.sequential_keys;
                totals.greedy_keys += stats.greedy_keys;
                totals.searched_keys += stats.searched_keys;
                totals.states_expanded += stats.states_expanded;
                totals.memo_hits += stats.memo_hits;
            }
            Err(v) => {
                eprintln!("VIOLATION at seed {seed:#x}:\n{v}");
                std::process::exit(1);
            }
        }
    }
    println!(
        "# all {seeds} histories accepted\n\
         point_ops        {}\n\
         scans            {}\n\
         keys             {}\n\
         sequential_keys  {} (per-key fast path)\n\
         greedy_keys      {} (response-order replay)\n\
         searched_keys    {} (full Wing & Gong search)\n\
         states_expanded  {}\n\
         memo_hits        {}",
        totals.point_ops,
        totals.scans,
        totals.keys,
        totals.sequential_keys,
        totals.greedy_keys,
        totals.searched_keys,
        totals.states_expanded,
        totals.memo_hits,
    );
}
