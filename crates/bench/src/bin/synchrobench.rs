//! The synchrobench-equivalent runner: executes the Figure 4 scenarios for
//! every competitor and prints a summary.csv-style table (artifact §A.6).
//!
//! ```text
//! synchrobench [--threads 1,2,4] [--size 100000] [--key-size 100]
//!              [--value-size 1024] [--duration-ms 3000] [--scenario 4a-put]
//!              [--csv out.csv] [--json out.json] [--quick] [--grid]
//!              [--no-magazines] [--no-lockfree] [--no-batch-scan]
//! ```
//!
//! Hot-path accelerators are on by default (the Oak pool runs with
//! allocation magazines backed by the lock-free class stacks, Oak maps
//! with the chunk-batch scan pipeline); the `--no-*` flags turn each off
//! for A/B runs. `--json` writes the same
//! rows as the CSV in a machine-readable report that also records the
//! exact command.
//!
//! `--threads` accepts comma lists plus two range forms: `1-4` expands to
//! every count in the span (`1,2,3,4`) and `1..32` to the doubling
//! sequence (`1,2,4,8,16,32`) — the paper's Figure-4 x-axis. `--grid`
//! additionally sweeps the point-op scenarios over OakMap, three
//! ShardedOak widths, and the skiplist baselines, one
//! throughput-vs-threads row per point (defaulting to the 1..32 sweep
//! when `--threads` is not given).

use std::time::Duration;

use oak_bench::report::Summary;
use oak_bench::scenarios::{
    run_alloc_churn, run_grid, run_memory_pressure, run_recovery, run_scenario_configured,
    ALLOC_CHURN_LABEL, GRID_THREADS, MEM_PRESSURE_LABEL, RECOVERY_LABEL, SCENARIOS,
};
use oak_bench::workload::WorkloadConfig;
use oak_mempool::PoolConfig;

fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Expands a `--threads` spec: comma-separated terms, each either a plain
/// count (`8`), an inclusive step-by-one range (`1-4` → 1,2,3,4), or a
/// doubling range (`1..32` → 1,2,4,8,16,32; the upper bound is included
/// even off the doubling lattice, so `1..24` → 1,2,4,8,16,24).
fn parse_threads(spec: &str) -> Vec<usize> {
    let int = |s: &str| -> usize {
        s.trim()
            .parse()
            .unwrap_or_else(|_| panic!("thread count {s:?}"))
    };
    let mut out = Vec::new();
    for term in spec.split(',').filter(|t| !t.trim().is_empty()) {
        if let Some((lo, hi)) = term.split_once("..") {
            let (lo, hi) = (int(lo), int(hi));
            assert!(lo >= 1 && lo <= hi, "bad thread range {term:?}");
            let mut t = lo;
            while t < hi {
                out.push(t);
                t *= 2;
            }
            out.push(hi);
        } else if let Some((lo, hi)) = term.split_once('-') {
            let (lo, hi) = (int(lo), int(hi));
            assert!(lo >= 1 && lo <= hi, "bad thread range {term:?}");
            out.extend(lo..=hi);
        } else {
            out.push(int(term));
        }
    }
    assert!(!out.is_empty(), "empty --threads spec {spec:?}");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let magazines = !args.iter().any(|a| a == "--no-magazines");
    let lockfree = !args.iter().any(|a| a == "--no-lockfree");
    let batch_scan = !args.iter().any(|a| a == "--no-batch-scan");

    let grid = args.iter().any(|a| a == "--grid");
    let threads: Vec<usize> = match parse_flag(&args, "--threads") {
        Some(spec) => parse_threads(&spec),
        // Grid mode defaults to the Figure-4 doubling sweep; flat runs
        // keep their short defaults.
        None if grid => GRID_THREADS.to_vec(),
        None if quick => vec![1],
        None => vec![1, 2, 4],
    };
    let size: u64 = parse_flag(&args, "--size")
        .map(|s| s.parse().expect("size"))
        .unwrap_or(if quick { 10_000 } else { 100_000 });
    let duration = Duration::from_millis(
        parse_flag(&args, "--duration-ms")
            .map(|s| s.parse().expect("duration"))
            .unwrap_or(if quick { 200 } else { 3_000 }),
    );
    let workload = WorkloadConfig {
        key_range: size,
        key_size: parse_flag(&args, "--key-size")
            .map(|s| s.parse().expect("key size"))
            .unwrap_or(100),
        value_size: parse_flag(&args, "--value-size")
            .map(|s| s.parse().expect("value size"))
            .unwrap_or(1024),
        seed: 0xA110C8ED,
        distribution: match parse_flag(&args, "--zipf") {
            Some(theta) => oak_bench::workload::KeyDistribution::Zipfian {
                theta: theta.parse().expect("zipf theta in (0,1)"),
            },
            None => oak_bench::workload::KeyDistribution::Uniform,
        },
    };
    let only = parse_flag(&args, "--scenario");

    // Enough off-heap budget for the dataset plus put churn.
    let raw = size as u64 * (workload.key_size + workload.value_size + 24) as u64;
    let pool = PoolConfig::with_budget(8 << 20, (raw as usize * 3).max(64 << 20))
        .magazines(magazines)
        .lockfree(lockfree);
    let scan_len = if quick { 1_000 } else { 10_000 };

    let mut summary = Summary::new();
    // The memory-pressure and alloc-churn scenarios are opt-in (via
    // `--scenario mem` / `--scenario alloc`): the former deliberately
    // under-provisions the pool and reports OOM / reclaim / fragmentation
    // columns, the latter runs its own mutex / magazines / lock-free
    // comparison rows.
    if only
        .as_deref()
        .is_some_and(|o| MEM_PRESSURE_LABEL.starts_with(o))
    {
        run_memory_pressure(&threads, &workload, 4096, &mut summary, true);
    }
    if only
        .as_deref()
        .is_some_and(|o| ALLOC_CHURN_LABEL.starts_with(o))
    {
        run_alloc_churn(&threads, &workload, 4096, duration, &mut summary, true);
    }
    // Checkpoint + recovery latency runs by default (it is quick — one
    // scan out, one rebuild in — and reports durability numbers alongside
    // the throughput table).
    if only
        .as_deref()
        .is_none_or(|o| RECOVERY_LABEL.starts_with(o))
    {
        run_recovery(&workload, pool.clone(), 4096, &mut summary, true);
    }
    for scenario in SCENARIOS {
        if let Some(o) = &only {
            if !scenario.label.starts_with(o.as_str()) {
                continue;
            }
        }
        // Scale the full-table scan lengths in quick mode. Only the
        // figure-4 default (10_000) is rescaled — the bounded `4g` range
        // scans keep their key spans, which are short by construction.
        let mut sc = *scenario;
        sc.mix = match sc.mix {
            oak_bench::workload::Mix::AscendScan {
                len: 10_000,
                stream,
            } => oak_bench::workload::Mix::AscendScan {
                len: scan_len,
                stream,
            },
            oak_bench::workload::Mix::DescendScan {
                len: 10_000,
                stream,
            } => oak_bench::workload::Mix::DescendScan {
                len: scan_len,
                stream,
            },
            m => m,
        };
        run_scenario_configured(
            &sc,
            &threads,
            &workload,
            pool.clone(),
            4096,
            duration,
            &mut summary,
            true,
            batch_scan,
        );
    }
    // The Figure-4 thread-scaling curves ride after the flat table so the
    // per-scenario gate rows keep their positions.
    if grid {
        run_grid(
            &threads,
            &workload,
            pool.clone(),
            4096,
            duration,
            &mut summary,
            true,
        );
    }

    println!("{}", summary.to_table());
    if let Some(path) = parse_flag(&args, "--json") {
        // argv[0] is a build-local path; record a stable invocation line.
        let command = std::iter::once("synchrobench")
            .chain(args.iter().skip(1).map(String::as_str))
            .collect::<Vec<_>>()
            .join(" ");
        std::fs::write(&path, summary.to_json(&command)).expect("write json");
        eprintln!("wrote {path}");
    }
    if let Some(path) = parse_flag(&args, "--csv") {
        std::fs::write(&path, summary.to_csv()).expect("write csv");
        eprintln!("wrote {path}");
    } else {
        println!("{}", summary.to_csv());
    }
}

#[cfg(test)]
mod tests {
    use super::parse_threads;

    #[test]
    fn plain_comma_lists_still_parse() {
        assert_eq!(parse_threads("1"), vec![1]);
        assert_eq!(parse_threads("1,2,4"), vec![1, 2, 4]);
        assert_eq!(parse_threads(" 2 , 8 "), vec![2, 8]);
    }

    #[test]
    fn dash_ranges_step_by_one() {
        assert_eq!(parse_threads("1-4"), vec![1, 2, 3, 4]);
        assert_eq!(parse_threads("3-3"), vec![3]);
        assert_eq!(parse_threads("1-32").len(), 32);
    }

    #[test]
    fn dotdot_ranges_double_and_keep_the_bound() {
        assert_eq!(parse_threads("1..32"), vec![1, 2, 4, 8, 16, 32]);
        assert_eq!(parse_threads("1..24"), vec![1, 2, 4, 8, 16, 24]);
        assert_eq!(parse_threads("4..4"), vec![4]);
    }

    #[test]
    fn terms_mix_freely() {
        assert_eq!(parse_threads("1,2,4..32"), vec![1, 2, 4, 8, 16, 32]);
        assert_eq!(parse_threads("1-3,8"), vec![1, 2, 3, 8]);
    }

    #[test]
    #[should_panic(expected = "bad thread range")]
    fn inverted_ranges_are_rejected() {
        parse_threads("8-2");
    }

    #[test]
    #[should_panic(expected = "thread count")]
    fn garbage_is_rejected() {
        parse_threads("two");
    }
}
