//! Chaos soak: mixed workload + seeded fault schedules + a memory budget
//! below the live set + deadline pressure, watched by a stall watchdog
//! and closed out by a zero-leak audit.
//!
//! ```text
//! chaos [--seed 42] [--threads 4] [--rounds 8] [--round-ms 500]
//!       [--size 20000] [--deadline-ms 100] [--stall-ms 5000]
//!       [--json out.json] [--quick]
//! ```
//!
//! Every round installs a fresh failpoint schedule derived from
//! `seed ^ round` over every registered site, so the whole run is
//! reproducible from one seed. Worker threads run a put/get/remove/
//! compute/scan mix through the *budgeted* API — each operation carries a
//! deadline, which ends its lock waits and until which it retries injected
//! faults at once — while the pool rides the memory edge, so
//! writes keep running the emergency-reclamation ladder and some end in
//! `OutOfMemory`. A watchdog thread samples per-thread
//! heartbeats; a thread that stops making progress for `--stall-ms` trips
//! the watchdog and dumps diagnostics.
//!
//! The soak passes only if: no watchdog trip, no unexpected (untyped)
//! error, the post-run auditor reports zero leaked bytes, and the map
//! still serves a clean put/get round-trip. Exit code 0 on pass, 1 on
//! fail; `--json` writes the full accounting either way.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oak_bench::workload::{KeySampler, WorkloadConfig};
use oak_bench::{flag_or, flag_value};
use oak_core::{all_failpoint_sites, OakError, OakMap, OakMapConfig};
use oak_failpoints::Schedule;
use oak_mempool::{PoolConfig, HEADER_SIZE};

/// Per-error-class accounting, shared across workers.
#[derive(Default)]
struct ErrorCounts {
    deadline: AtomicU64,
    oom: AtomicU64,
    alloc: AtomicU64,
    unexpected: AtomicU64,
}

impl ErrorCounts {
    fn record(&self, e: OakError) {
        match e {
            OakError::DeadlineExceeded => &self.deadline,
            OakError::OutOfMemory => &self.oom,
            OakError::Alloc(_) => &self.alloc,
            OakError::ConcurrentModification
            | OakError::Corrupted(_)
            | OakError::RecoveryFailed(_) => &self.unexpected,
        }
        .fetch_add(1, Ordering::Relaxed);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seed: u64 = flag_or(&args, "--seed", 42);
    let threads: usize = flag_or(&args, "--threads", 4);
    let rounds: u64 = flag_or(&args, "--rounds", if quick { 4 } else { 8 });
    let round_ms: u64 = flag_or(&args, "--round-ms", if quick { 250 } else { 1_000 });
    let size: u64 = flag_or(&args, "--size", if quick { 4_000 } else { 20_000 });
    let deadline_ms: u64 = flag_or(&args, "--deadline-ms", 100);
    let stall_ms: u64 = flag_or(&args, "--stall-ms", 5_000);
    let json_path = flag_value(&args, "--json");

    let workload = WorkloadConfig {
        key_range: size,
        key_size: 32,
        value_size: 128,
        seed,
        distribution: oak_bench::workload::KeyDistribution::Uniform,
    };

    // Pool sized to 95% of the live set the mix settles at, so the soak
    // constantly rides the exhaustion edge, exercising the emergency
    // ladder under deadlines and faults. Puts (50%) and removes (15%)
    // balance with 10/13 of the key range present, each key holding a key,
    // a value and a header slice; headers recycle and freed slices are
    // reused by size, so the pool holds little more than that live set.
    let per_key = (workload.key_size + workload.value_size + HEADER_SIZE) as u64;
    let settled = size * 10 / 13 * per_key;
    let budget_bytes = (settled as usize * 95 / 100).max(512 << 10);
    let pool = PoolConfig::with_budget(
        (budget_bytes / 8).next_power_of_two().max(64 << 10),
        budget_bytes,
    );
    let direct_bytes = (pool.arena_size * pool.max_arenas) as u64;

    let map = Arc::new(OakMap::with_config(
        OakMapConfig::default().chunk_capacity(64).pool(pool),
    ));

    let stop = Arc::new(AtomicBool::new(false));
    let heartbeats: Arc<Vec<AtomicU64>> =
        Arc::new((0..threads).map(|_| AtomicU64::new(0)).collect());
    let errors = Arc::new(ErrorCounts::default());
    let ops_done = Arc::new(AtomicU64::new(0));
    let watchdog_trips = Arc::new(AtomicU64::new(0));

    // Watchdog: samples heartbeats ~4x/s; a worker whose counter has not
    // moved for `stall_ms` counts as stuck — dump diagnostics and trip.
    let watchdog = {
        let stop = stop.clone();
        let heartbeats = heartbeats.clone();
        let trips = watchdog_trips.clone();
        let map = map.clone();
        std::thread::spawn(move || {
            let mut last_seen: Vec<u64> = vec![0; heartbeats.len()];
            let mut last_change: Vec<Instant> = vec![Instant::now(); heartbeats.len()];
            let mut tripped: Vec<bool> = vec![false; heartbeats.len()];
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(250));
                for (i, hb) in heartbeats.iter().enumerate() {
                    let now = hb.load(Ordering::Relaxed);
                    if now != last_seen[i] {
                        last_seen[i] = now;
                        last_change[i] = Instant::now();
                        tripped[i] = false;
                    } else if !tripped[i]
                        && last_change[i].elapsed() >= Duration::from_millis(stall_ms)
                    {
                        tripped[i] = true;
                        trips.fetch_add(1, Ordering::SeqCst);
                        eprintln!(
                            "WATCHDOG: worker {i} stuck at {now} ops for {:?}",
                            last_change[i].elapsed()
                        );
                        eprintln!("  map stats: {:?}", map.stats());
                        eprintln!(
                            "  failpoints fired so far: {}",
                            oak_failpoints::total_fired()
                        );
                    }
                }
            }
        })
    };

    // Workers: 50% put / 20% get / 15% remove / 10% compute / 5% scan,
    // all through the budgeted API, each under a deadline.
    let start = Instant::now();
    let mut workers = Vec::new();
    for tid in 0..threads {
        let map = map.clone();
        let stop = stop.clone();
        let heartbeats = heartbeats.clone();
        let errors = errors.clone();
        let ops_done = ops_done.clone();
        let wl = workload.clone();
        workers.push(std::thread::spawn(move || {
            let mut sampler = KeySampler::new(&wl, tid as u64 + 1);
            let mut n = 0u64;
            while !stop.load(Ordering::SeqCst) {
                // Deadline pressure: every 8th operation runs under a
                // micro-deadline, so the cancellation path is continuously
                // exercised against injected delays and contention.
                let deadline = Instant::now()
                    + if n.is_multiple_of(8) {
                        Duration::from_micros(150)
                    } else {
                        Duration::from_millis(deadline_ms)
                    };
                let id = sampler.next_id();
                let key = wl.key(id);
                let pct = sampler.next_pct();
                let result: Result<(), OakError> = if pct < 50 {
                    map.put_budgeted(&key, &wl.value(id), deadline).map(|_| ())
                } else if pct < 70 {
                    map.get_with_budgeted(&key, deadline, |_v| ()).map(|_| ())
                } else if pct < 85 {
                    map.remove_budgeted(&key, deadline).map(|_| ())
                } else if pct < 95 {
                    map.compute_if_present_budgeted(&key, deadline, |v| {
                        let s = v.as_mut_slice();
                        if !s.is_empty() {
                            s[0] = s[0].wrapping_add(1);
                        }
                    })
                    .map(|_| ())
                } else {
                    let mut left = 100u32;
                    map.for_each_in_budgeted(Some(key.as_slice()), None, deadline, |_k, _v| {
                        left -= 1;
                        left > 0
                    })
                    .map(|_| ())
                };
                if let Err(e) = result {
                    errors.record(e);
                }
                n += 1;
                heartbeats[tid].store(n, Ordering::Relaxed);
            }
            ops_done.fetch_add(n, Ordering::Relaxed);
        }));
    }

    // Rounds: rotate a fresh deterministic fault schedule each round.
    let sites = all_failpoint_sites();
    for round in 0..rounds {
        let schedule = Schedule::generate(seed ^ round, &sites);
        oak_failpoints::clear();
        schedule.install();
        eprintln!(
            "round {round}: {} sites armed (seed {seed}), elapsed {:?}",
            schedule.entries.len(),
            start.elapsed()
        );
        std::thread::sleep(Duration::from_millis(round_ms));
    }

    // Finale: faults off, workers drained, then the audit gate.
    oak_failpoints::clear();
    stop.store(true, Ordering::SeqCst);
    for w in workers {
        w.join().expect("worker panicked");
    }
    watchdog.join().expect("watchdog panicked");
    let elapsed = start.elapsed();

    map.drain_quarantine();
    let audit = map.audit();
    let leaked_bytes = audit.leaked_bytes;

    // Usability round-trip: the map must serve clean traffic after the
    // storm. The pool may legitimately sit at the exhaustion edge (the soak
    // deliberately oversubscribes it), so if the probe put runs out of
    // memory, make headroom and retry.
    let mut usable = false;
    let probe = b"chaos-probe-key";
    for attempt in 0..4 {
        match map.put(probe, b"alive") {
            Ok(()) => {
                usable = map.get_copy(probe).as_deref() == Some(b"alive".as_slice());
                map.remove(probe);
                break;
            }
            Err(e) => eprintln!("probe attempt {attempt} failed ({e}); making headroom"),
        }
        for i in 0..size / 4 {
            map.remove(&workload.key(i));
        }
        map.drain_quarantine();
    }

    let stats = map.stats();
    let total_ops = ops_done.load(Ordering::Relaxed);
    let trips = watchdog_trips.load(Ordering::SeqCst);
    let unexpected = errors.unexpected.load(Ordering::Relaxed);
    let pass = trips == 0 && leaked_bytes == 0 && unexpected == 0 && usable;

    let mops = total_ops as f64 / elapsed.as_secs_f64() / 1e6;
    eprintln!("---");
    eprintln!(
        "chaos: {total_ops} ops in {elapsed:?} ({mops:.3} Mops/s), {} injected faults",
        oak_failpoints::total_fired()
    );
    eprintln!(
        "errors: deadline={} oom={} alloc={} unexpected={unexpected}",
        errors.deadline.load(Ordering::Relaxed),
        errors.oom.load(Ordering::Relaxed),
        errors.alloc.load(Ordering::Relaxed),
    );
    eprintln!(
        "governance: retries={} deadlines={} emergency-reclaims={} oom-failures={}",
        stats.pool.op_retries,
        stats.pool.deadline_exceeded,
        stats.pool.emergency_reclaims,
        stats.pool.oom_failures
    );
    eprintln!(
        "audit: leaked_bytes={leaked_bytes} quarantined={} watchdog_trips={trips} usable={usable}",
        audit.quarantined_bytes
    );
    eprintln!("verdict: {}", if pass { "PASS" } else { "FAIL" });

    if let Some(path) = json_path {
        let json = format!(
            "{{\n  \"seed\": {seed},\n  \"threads\": {threads},\n  \"rounds\": {rounds},\n  \
             \"round_ms\": {round_ms},\n  \"size\": {size},\n  \"deadline_ms\": {deadline_ms},\n  \
             \"direct_bytes\": {direct_bytes},\n  \"elapsed_ms\": {},\n  \"total_ops\": {total_ops},\n  \
             \"mops\": {mops:.6},\n  \"faults_fired\": {},\n  \"errors\": {{\"deadline\": {}, \
             \"oom\": {}, \"alloc\": {}, \
             \"unexpected\": {unexpected}}},\n  \"governance\": {{\"op_retries\": {}, \
             \"deadline_exceeded\": {}, \"emergency_reclaims\": {}, \"oom_failures\": {}}},\n  \
             \"watchdog_trips\": {trips},\n  \"leaked_bytes\": {leaked_bytes},\n  \
             \"quarantined_bytes\": {},\n  \"final_size\": {},\n  \"usable\": {usable},\n  \
             \"pass\": {pass}\n}}\n",
            elapsed.as_millis(),
            oak_failpoints::total_fired(),
            errors.deadline.load(Ordering::Relaxed),
            errors.oom.load(Ordering::Relaxed),
            errors.alloc.load(Ordering::Relaxed),
            stats.pool.op_retries,
            stats.pool.deadline_exceeded,
            stats.pool.emergency_reclaims,
            stats.pool.oom_failures,
            audit.quarantined_bytes,
            stats.len,
        );
        std::fs::write(&path, json).expect("write json report");
        eprintln!("json report: {path}");
    }

    std::process::exit(if pass { 0 } else { 1 });
}
