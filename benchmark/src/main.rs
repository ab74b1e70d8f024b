//! The repo benchmark. Drives the public API of `oak-mempool`, `oak-core`
//! and `oak-durable` from outside: four closed-loop workloads, per-class
//! latency histograms, off-heap footprint, and a separate traced pass that
//! times the calls into each layer. See README.md for what is measured and
//! why; BENCHMARK.json at the repo root is the contract.
//!
//! ```text
//! oak-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!               [--out FILE] [--out-dir DIR]
//! ```
//!
//! `--trace 0` runs the timed pass and prints the end-to-end metrics;
//! `--trace 1` runs a half-length timed pass (for the counter deltas), then
//! the traced pass, and prints the per-layer metrics; without `--trace`
//! both run and both print. Without `--workload` all four run in turn.

mod counters;
mod gen;
mod hist;
mod layers;
mod report;
mod stage;
mod target;
mod trace;
mod verify;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use oak_core::{OakMap, ShardedOakMap};

use report::{json_string, metrics_json, print_metrics, Metric};
use target::Target;
use workloads::{Workload, WORKLOADS};

/// Set-ups per run when `setup_s` is reported: the median of three.
const SETUP_REPS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Pass {
    Timed,
    Traced,
    Both,
}

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    pass: Pass,
    out: Option<PathBuf>,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        seconds: 10.0,
        pass: Pass::Both,
        out: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                let w = Workload::by_name(&value)
                    .ok_or_else(|| format!("unknown workload {value}; one of {known:?}"))?;
                args.workloads = vec![w];
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.pass = match value.as_str() {
                    "0" => Pass::Timed,
                    "1" => Pass::Traced,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = Some(PathBuf::from(&value)),
            "--out-dir" => args.out_dir = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

struct WorkloadReport {
    name: &'static str,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Failed checks of a map's contents or invariants; these also fail
    /// the process.
    structural: u64,
}

fn run_workload<M: Target>(w: &'static Workload, args: &Args) -> WorkloadReport {
    println!("== {} (seed {}): {}", w.name, args.seed, w.why);
    let mut report = WorkloadReport {
        name: w.name,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        attempted: 0,
        failed: 0,
        structural: 0,
    };
    let reps = if args.pass == Pass::Traced {
        1
    } else {
        SETUP_REPS
    };
    let mut setups = Vec::with_capacity(reps);
    let mut built = None;
    for _ in 0..reps {
        // One map at a time: the previous one is unmapped before the next
        // is built, as a user restarting ingestion would see.
        drop(built.take());
        let (map, secs, bad): (M, f64, u64) = workloads::setup(w, args.seed);
        setups.push(secs);
        report.attempted += gen::N;
        report.failed += bad;
        built = Some(map);
    }
    let map = built.expect("at least one set-up");

    // The traced pass needs a timed pass before it for the counter deltas
    // and the scans-under-churn latencies; half length is enough for those.
    let timed_seconds = if args.pass == Pass::Traced {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let timed = workloads::run_timed(&map, w, args.seed, timed_seconds);
    report.attempted += timed.attempted;
    report.failed += timed.failed;
    report.structural += timed.after_main.failures;
    let (end_to_end, not_gated) = workloads::timed_metrics(&timed, &setups);
    if args.pass != Pass::Traced {
        print_metrics("end to end", &end_to_end);
        report.end_to_end = end_to_end;
    }
    if args.pass == Pass::Timed {
        let bad = workloads::final_check(&map);
        report.attempted += 1;
        report.failed += bad;
        report.structural += bad;
    } else {
        let ingest_ops_s = gen::N as f64 / setups[setups.len() - 1];
        let traced = layers::run_traced(
            map,
            w,
            args.seed,
            args.seconds / 2.0,
            &timed,
            ingest_ops_s,
            &args.out_dir,
        );
        report.attempted += traced.tally.attempted;
        report.failed += traced.tally.failed;
        report.structural += traced.tally.structural;
        report.per_layer = traced.metrics;
        report.per_layer.extend(not_gated);
        print_layer_table(&traced.tracer);
        print_metrics("per layer", &report.per_layer);
        let path = args.out_dir.join(format!("{}.trace.jsonl", w.name));
        match traced.tracer.write_jsonl(&path) {
            Ok(()) => println!("  {} spans -> {}", traced.tracer.len(), path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                report.failed += 1;
            }
        }
    }
    println!("  attempted {}, failed {}", report.attempted, report.failed);
    report
}

fn print_layer_table(tracer: &trace::Tracer) {
    println!("  spans by layer and function");
    println!(
        "    {:<8} {:<26} {:>9} {:>12} {:>12} {:>12} {:>13}",
        "layer", "fn", "count", "p50_ns", "p99_ns", "self_p50_ns", "self_total_ms"
    );
    for row in trace::layer_table(tracer.spans()) {
        println!(
            "    {:<8} {:<26} {:>9} {:>12.0} {:>12.0} {:>12.0} {:>13.1}",
            row.layer.name(),
            row.func,
            row.count,
            row.p50_ns,
            row.p99_ns,
            row.self_p50_ns,
            row.self_total_ms
        );
    }
}

fn write_report(path: &Path, args: &Args, reports: &[WorkloadReport]) -> std::io::Result<()> {
    let workloads: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "{{\"name\": {}, \"attempted\": {}, \"failed\": {}, \"end_to_end\": {}, \"per_layer\": {}}}",
                json_string(r.name),
                r.attempted,
                r.failed,
                metrics_json(&r.end_to_end, "", true),
                metrics_json(&r.per_layer, "", true)
            )
        })
        .collect();
    let body = format!(
        "{{\"machine\": {}, \"seed\": {}, \"seconds\": {}, \"entries\": {}, \"workloads\": [{}]}}\n",
        report::machine_descriptor(stage::THREADS),
        args.seed,
        args.seconds,
        gen::N,
        workloads.join(", ")
    );
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, body)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("oak-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    println!("machine {}", report::machine_descriptor(stage::THREADS));
    let reports: Vec<WorkloadReport> = args
        .workloads
        .iter()
        .map(|&w| {
            if w.sharded {
                run_workload::<ShardedOakMap>(w, &args)
            } else {
                run_workload::<OakMap>(w, &args)
            }
        })
        .collect();
    if let Some(path) = &args.out {
        if let Err(e) = write_report(path, &args, &reports) {
            eprintln!("oak-benchmark: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    // The last line of standard output is the result object. With one
    // workload the metric names are bare, as BENCHMARK.json lists them;
    // with several they are prefixed `workload/`.
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let metrics: Vec<String> = reports
        .iter()
        .map(|r| {
            let prefix = if reports.len() == 1 {
                String::new()
            } else {
                format!("{}/", r.name)
            };
            let all: Vec<Metric> = r.end_to_end.iter().chain(&r.per_layer).cloned().collect();
            let object = metrics_json(&all, &prefix, false);
            object[1..object.len() - 1].to_string()
        })
        .filter(|s| !s.is_empty())
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    // A failed op shows as `correct: false`; a map with wrong contents or
    // broken invariants (`validate()` panics) also fails the process.
    if reports.iter().all(|r| r.structural == 0) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names in one array of BENCHMARK.json, in file order.
    fn names_in(spec: &str, key: &str) -> Vec<String> {
        let from = spec.find(&format!("\"{key}\": [")).expect("key present");
        let section = &spec[from..from + spec[from..].find(']').expect("array closes")];
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
            .collect()
    }

    /// Runs every workload through both passes on a small map (see
    /// `gen::N`) and checks the result against the contract: no op fails,
    /// and the workloads and metrics are exactly those BENCHMARK.json names,
    /// in its order, each a finite number.
    #[test]
    fn every_workload_runs_clean_and_prints_what_benchmark_json_names() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let out_dir =
            std::env::temp_dir().join(format!("oak-benchmark-test-{}", std::process::id()));
        let args = Args {
            workloads: WORKLOADS.iter().collect(),
            seed: 3,
            seconds: 0.5,
            pass: Pass::Both,
            out: None,
            out_dir: out_dir.clone(),
        };
        let listed = names_in(&spec, "workloads");
        assert_eq!(listed, WORKLOADS.map(|w| w.name));
        for w in &WORKLOADS {
            assert!(
                spec.contains(&json_string(w.why)),
                "{}: `why` differs",
                w.name
            );
            let report = if w.sharded {
                run_workload::<ShardedOakMap>(w, &args)
            } else {
                run_workload::<OakMap>(w, &args)
            };
            assert_eq!((report.failed, report.structural), (0, 0), "{}", w.name);
            assert!(report.attempted > 0);
            for (key, metrics) in [
                ("end_to_end", &report.end_to_end),
                ("per_layer", &report.per_layer),
            ] {
                let printed: Vec<&str> = metrics.iter().map(|m| m.name).collect();
                assert_eq!(printed, names_in(&spec, key), "{}: {key}", w.name);
                for m in metrics {
                    assert!(m.value.is_finite(), "{}: {} = {}", w.name, m.name, m.value);
                    let unit = format!("\"name\": \"{}\",\n      \"unit\": \"{}\"", m.name, m.unit);
                    assert!(
                        spec.contains(&unit),
                        "{}: unit of {} differs",
                        w.name,
                        m.name
                    );
                }
            }
            for m in &report.end_to_end {
                assert!(m.value > 0.0, "{}: {} must never read 0", w.name, m.name);
            }
            assert!(out_dir.join(format!("{}.trace.jsonl", w.name)).exists());
        }
        let _ = std::fs::remove_dir_all(&out_dir);
    }
}
