//! `crashtest` — seeded crash-injection harness for checkpoint/recovery.
//!
//! Each run re-executes this binary as a *writer child* on a fresh
//! directory. The child drives a deterministic put/remove workload on an
//! [`OakMap`] with **file-backed off-heap arenas**, checkpointing after
//! every batch via `oak_durable::checkpoint` and keeping an fsynced
//! acknowledgement log (an `intent` line before each checkpoint, an
//! `acked` line after it returns). A seeded failpoint — chosen across
//! *every* registered site in mempool, oak-core and oak-durable, so
//! kills land mid-allocation, mid-rebalance and mid-checkpoint — is
//! armed with `Action::Panic`, and the child's panic hook converts the
//! injected panic into `std::process::abort()`: a hard crash with no
//! unwinding, no destructors, no buffered-writer flushes.
//!
//! The parent then recovers the directory with `open_or_empty` and
//! verifies the crash contract:
//!
//! * recovery itself reports no corruption (`OakError::Corrupted` /
//!   `RecoveryFailed` are fatal verdicts),
//! * the recovered map's audit ledger balances and nothing leaked,
//! * every recovered key/value is readable via a full scan,
//! * the recovered state is a **prefix-consistent cut** of the child's
//!   acknowledged history (`oak_linearize::recovery::check_recovery`):
//!   it matches some checkpointed state and never rolls back an acked
//!   one, and
//! * when the verdict names a matched attempt, the recovered contents
//!   equal a deterministic replay of the workload up to that attempt,
//!   byte for byte.
//!
//! Children that complete all batches without the failpoint firing count
//! as clean (unkilled) runs and are verified identically.
//!
//! ```text
//! crashtest [--runs N] [--seed-base S] [--batches B] [--batch-size M]
//!           [--dir PATH] [--json PATH] [--quick] [--verbose]
//! ```
//!
//! Exit code 0 iff every run recovers clean. `--quick` is 24 runs for
//! smoke use; the acceptance bar is `--runs 200`.

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use oak_core::{all_failpoint_sites, OakMap, OakMapConfig};
use oak_durable::{checkpoint, open_or_empty, FAILPOINT_SITES as DURABLE_SITES};
use oak_failpoints::{configure, Action, FirePolicy, SplitMix64};
use oak_linearize::recovery::{check_recovery, AckRecord, RecoveryVerdict, StateDigest};

/// Writer-side map configuration: the default small map over file-backed
/// off-heap arenas (the crash also exercises the mmap backing), with the
/// lock-free allocator on.
fn writer_config(run_dir: &Path) -> OakMapConfig {
    let mut cfg = OakMapConfig::small();
    cfg.pool = cfg
        .pool
        .file_backed(run_dir.join("arenas"))
        .magazines(true)
        .lockfree(true);
    cfg
}

/// Recovery-side configuration. Only fingerprinted (image-shaping)
/// fields must match the writer; the pool backing is a resource knob, so
/// the parent recovers into plain anonymous arenas.
fn recovery_config() -> OakMapConfig {
    OakMapConfig::small()
}

// ---------------------------------------------------------------------
// Deterministic workload, replayable by seed alone.
// ---------------------------------------------------------------------

enum WorkOp {
    Put(Vec<u8>, Vec<u8>),
    Remove(Vec<u8>),
}

struct Workload {
    rng: SplitMix64,
    op: u64,
}

impl Workload {
    fn new(seed: u64) -> Workload {
        Workload {
            rng: SplitMix64::new(seed ^ 0xc0a1_e5ce_5eed_f00d),
            op: 0,
        }
    }

    /// Next operation given the current shadow state. ~1/8 removes (when
    /// possible); value sizes straddle the small/oversized allocator
    /// tiers so crashes land in both paths.
    fn next(&mut self, shadow: &BTreeMap<Vec<u8>, Vec<u8>>) -> WorkOp {
        self.op += 1;
        if !shadow.is_empty() && self.rng.below(8) == 0 {
            let nth = self.rng.below(shadow.len() as u64) as usize;
            let key = shadow.keys().nth(nth).expect("nth < len").clone();
            return WorkOp::Remove(key);
        }
        let key = format!("key-{:06}", self.rng.below(20_000)).into_bytes();
        let len = if self.rng.below(5) == 0 {
            2049 + self.rng.below(4000) as usize // oversized tier
        } else {
            8 + self.rng.below(240) as usize
        };
        let mut val = format!("v{:08}-", self.op).into_bytes();
        val.resize(len, b'a' + (self.op % 23) as u8);
        WorkOp::Put(key, val)
    }
}

fn apply(shadow: &mut BTreeMap<Vec<u8>, Vec<u8>>, op: &WorkOp) {
    match op {
        WorkOp::Put(k, v) => {
            shadow.insert(k.clone(), v.clone());
        }
        WorkOp::Remove(k) => {
            shadow.remove(k);
        }
    }
}

fn digest_of(shadow: &BTreeMap<Vec<u8>, Vec<u8>>) -> (u64, u64) {
    let mut d = StateDigest::new();
    for (k, v) in shadow {
        d.push(k, v);
    }
    d.finish()
}

/// Replays the workload to the end of attempt `upto` (1-based batch
/// count), returning the expected map contents at that checkpoint.
fn replay_state(seed: u64, batches: u64, batch_size: u64, upto: u64) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut shadow = BTreeMap::new();
    let mut wl = Workload::new(seed);
    for _batch in 0..upto.min(batches) {
        for _ in 0..batch_size {
            let op = wl.next(&shadow);
            apply(&mut shadow, &op);
        }
    }
    shadow
}

// ---------------------------------------------------------------------
// Writer child.
// ---------------------------------------------------------------------

fn append_fsync(path: &Path, line: &str) {
    let mut f = OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("ack log open");
    f.write_all(line.as_bytes()).expect("ack log write");
    f.sync_all().expect("ack log fsync");
}

fn child_main(dir: PathBuf, seed: u64, site: String, hit: u64, batches: u64, batch_size: u64) {
    // An injected panic must be a *crash*: no unwinding, no Drop, no
    // BufWriter flushes — abort straight to SIGABRT.
    std::panic::set_hook(Box::new(|_| std::process::abort()));
    if site != "none" {
        configure(&site, Action::Panic, FirePolicy::OnHits(vec![hit]));
    }
    let ckpt_dir = dir.join("ckpt");
    let ack_path = dir.join("ack.log");
    let map = OakMap::with_config(writer_config(&dir));
    let mut shadow = BTreeMap::new();
    let mut wl = Workload::new(seed);
    for attempt in 1..=batches {
        for _ in 0..batch_size {
            let op = wl.next(&shadow);
            match &op {
                WorkOp::Put(k, v) => map.put(k, v).expect("child put"),
                WorkOp::Remove(k) => {
                    map.remove(k);
                }
            }
            apply(&mut shadow, &op);
        }
        let (entries, digest) = digest_of(&shadow);
        append_fsync(
            &ack_path,
            &format!("intent {attempt} {entries} {digest:016x}\n"),
        );
        checkpoint(&map, &ckpt_dir).expect("child checkpoint");
        append_fsync(
            &ack_path,
            &format!("acked {attempt} {entries} {digest:016x}\n"),
        );
    }
    std::process::exit(0);
}

// ---------------------------------------------------------------------
// Parent: kill-point selection, recovery, verification.
// ---------------------------------------------------------------------

fn parse_ack_log(path: &Path) -> Vec<AckRecord> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for line in text.lines() {
        let mut it = line.split_whitespace();
        let (Some(kind), Some(attempt), Some(entries), Some(digest), None) =
            (it.next(), it.next(), it.next(), it.next(), it.next())
        else {
            continue; // torn trailing line — ignore
        };
        let acked = match kind {
            "intent" => false,
            "acked" => true,
            _ => continue,
        };
        let (Ok(attempt), Ok(entries), Ok(digest)) = (
            attempt.parse::<u64>(),
            entries.parse::<u64>(),
            u64::from_str_radix(digest, 16),
        ) else {
            continue;
        };
        out.push(AckRecord {
            attempt,
            entries,
            digest,
            acked,
        });
    }
    out
}

/// Seeded kill-point choice over every registered failpoint site.
/// Durable sites get extra weight so a healthy share of kills land
/// mid-checkpoint; hit counts are scaled to each family's hit rate, and
/// deliberately overshoot sometimes so some children run to completion.
fn choose_kill(rng: &mut SplitMix64) -> (String, u64) {
    let core_pool: Vec<&'static str> = all_failpoint_sites().iter().map(|s| s.name).collect();
    let durable: Vec<&'static str> = DURABLE_SITES.iter().map(|s| s.name).collect();
    if rng.below(100) < 40 {
        let site = durable[rng.below(durable.len() as u64) as usize];
        // Checkpoint-path sites fire a handful of times per run.
        (site.to_string(), 1 + rng.below(24))
    } else {
        let site = core_pool[rng.below(core_pool.len() as u64) as usize];
        // Data-path sites fire thousands of times; a high draw may never
        // be reached, which is a valid clean-completion run.
        (site.to_string(), 1 + rng.below(4000))
    }
}

struct RunOutcome {
    seed: u64,
    site: String,
    hit: u64,
    killed: bool,
    hung: bool,
    verdict: String,
    clean: bool,
    recovered_entries: u64,
    failure: Option<String>,
}

fn run_one(exe: &Path, base_dir: &Path, seed: u64, batches: u64, batch_size: u64) -> RunOutcome {
    let run_dir = base_dir.join(format!("run-{seed:05}"));
    std::fs::remove_dir_all(&run_dir).ok();
    std::fs::create_dir_all(&run_dir).expect("run dir");

    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xcafe);
    let (site, hit) = choose_kill(&mut rng);

    let mut child = Command::new(exe)
        .args([
            "--child",
            "--dir",
            run_dir.to_str().expect("utf8 dir"),
            "--seed",
            &seed.to_string(),
            "--site",
            &site,
            "--hit",
            &hit.to_string(),
            "--batches",
            &batches.to_string(),
            "--batch-size",
            &batch_size.to_string(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn child");

    // Poll with a deadline: a hung child is itself a failure.
    let deadline = Instant::now() + Duration::from_secs(120);
    let (killed, hung) = loop {
        match child.try_wait().expect("wait child") {
            Some(status) => break (!status.success(), false),
            None if Instant::now() > deadline => {
                child.kill().ok();
                child.wait().ok();
                break (true, true);
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };

    let mut outcome = RunOutcome {
        seed,
        site,
        hit,
        killed,
        hung,
        verdict: String::new(),
        clean: false,
        recovered_entries: 0,
        failure: None,
    };
    if hung {
        outcome.verdict = "hung".into();
        outcome.failure = Some("child exceeded deadline".into());
        return outcome;
    }

    let log = parse_ack_log(&run_dir.join("ack.log"));

    // Recover. Any typed corruption / recovery error is a fatal verdict.
    let recovered = match open_or_empty(&run_dir.join("ckpt"), recovery_config()) {
        Ok(map) => map,
        Err(e) => {
            outcome.verdict = "corruption".into();
            outcome.failure = Some(format!("recovery failed: {e}"));
            return outcome;
        }
    };

    // Ledger gate: live + free == capacity, zero leaks, after replay.
    let report = recovered.audit();
    if !report.pool.balanced || report.leaked_bytes != 0 {
        outcome.verdict = "leak".into();
        outcome.failure = Some(format!("recovered ledger unbalanced: {report:?}"));
        return outcome;
    }

    // Full scan: every recovered pair must be readable; digest it.
    let mut digest = StateDigest::new();
    let mut contents = BTreeMap::new();
    recovered.for_each_in(None, None, |k: &[u8], v: &[u8]| {
        digest.push(k, v);
        contents.insert(k.to_vec(), v.to_vec());
        true
    });
    let (entries, hash) = digest.finish();
    outcome.recovered_entries = entries;

    // Prefix-consistency against the acknowledgement log.
    let verdict = check_recovery(&log, entries, hash);
    outcome.clean = verdict.is_clean();
    outcome.verdict = match verdict {
        RecoveryVerdict::FreshStart => "fresh-start".into(),
        RecoveryVerdict::ConsistentWith { acked: true, .. } => "consistent-acked".into(),
        RecoveryVerdict::ConsistentWith { acked: false, .. } => "consistent-intent".into(),
        RecoveryVerdict::LostAcknowledged { .. } => "lost-acknowledged".into(),
        RecoveryVerdict::Unrecognized { .. } => "unrecognized".into(),
    };
    if !outcome.clean {
        outcome.failure = Some(format!("prefix-consistency verdict: {verdict:?}"));
        return outcome;
    }

    // Digest match names an attempt: replay the workload to that attempt
    // and require byte-for-byte equality — "all keys readable" becomes
    // "all keys readable *and right*".
    if let RecoveryVerdict::ConsistentWith { attempt, .. } = verdict {
        let expected = replay_state(seed, batches, batch_size, attempt);
        if contents != expected {
            outcome.clean = false;
            outcome.verdict = "replay-mismatch".into();
            outcome.failure = Some(format!(
                "digest matched attempt {attempt} but contents differ \
                 ({} recovered vs {} expected entries)",
                contents.len(),
                expected.len()
            ));
            return outcome;
        }
    }

    // The recovered map keeps working.
    if recovered.put(b"__post_recovery_probe", b"ok").is_err()
        || recovered.get_copy(b"__post_recovery_probe").as_deref() != Some(&b"ok"[..])
    {
        outcome.clean = false;
        outcome.verdict = "unusable".into();
        outcome.failure = Some("post-recovery probe write/read failed".into());
    }
    outcome
}

// ---------------------------------------------------------------------
// CLI.
// ---------------------------------------------------------------------

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let num = |name: &str, default: u64| -> u64 {
        flag_value(&args, name)
            .map(|v| v.parse().unwrap_or_else(|_| panic!("bad {name}: {v}")))
            .unwrap_or(default)
    };

    if args.iter().any(|a| a == "--child") {
        child_main(
            PathBuf::from(flag_value(&args, "--dir").expect("--dir")),
            num("--seed", 1),
            flag_value(&args, "--site").unwrap_or_else(|| "none".into()),
            num("--hit", 1),
            num("--batches", 6),
            num("--batch-size", 400),
        );
        return;
    }

    let quick = args.iter().any(|a| a == "--quick");
    let verbose = args.iter().any(|a| a == "--verbose");
    let runs = num("--runs", if quick { 24 } else { 200 });
    let seed_base = num("--seed-base", 1);
    let batches = num("--batches", 6);
    let batch_size = num("--batch-size", 400);
    let base_dir = flag_value(&args, "--dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("oak-crashtest-{}", std::process::id()))
        });
    std::fs::create_dir_all(&base_dir).expect("base dir");
    let exe = std::env::current_exe().expect("current_exe");

    let started = Instant::now();
    let mut outcomes = Vec::with_capacity(runs as usize);
    for i in 0..runs {
        let out = run_one(&exe, &base_dir, seed_base + i, batches, batch_size);
        if verbose || !out.clean {
            eprintln!(
                "run seed={} site={} hit={} killed={} verdict={} entries={}{}",
                out.seed,
                out.site,
                out.hit,
                out.killed,
                out.verdict,
                out.recovered_entries,
                out.failure
                    .as_deref()
                    .map(|f| format!(" FAILURE: {f}"))
                    .unwrap_or_default()
            );
        }
        std::fs::remove_dir_all(base_dir.join(format!("run-{:05}", seed_base + i))).ok();
        outcomes.push(out);
    }

    let count = |f: &dyn Fn(&RunOutcome) -> bool| outcomes.iter().filter(|o| f(o)).count();
    let killed = count(&|o| o.killed);
    let completed = count(&|o| !o.killed);
    let corruption = count(&|o| o.verdict == "corruption");
    let leaks = count(&|o| o.verdict == "leak");
    let lost = count(&|o| o.verdict == "lost-acknowledged");
    let unrecognized = count(&|o| o.verdict == "unrecognized" || o.verdict == "replay-mismatch");
    let hung = count(&|o| o.hung);
    let clean = count(&|o| o.clean);
    let pass = clean == outcomes.len();

    let report = format!(
        "{{\n  \"runs\": {},\n  \"killed\": {},\n  \"completed\": {},\n  \
         \"clean\": {},\n  \"fresh_starts\": {},\n  \"consistent_acked\": {},\n  \
         \"consistent_intent\": {},\n  \"corruption_verdicts\": {},\n  \
         \"leak_verdicts\": {},\n  \"lost_acknowledged\": {},\n  \
         \"unrecognized\": {},\n  \"hung\": {},\n  \"elapsed_secs\": {:.1},\n  \
         \"pass\": {}\n}}",
        outcomes.len(),
        killed,
        completed,
        clean,
        count(&|o| o.verdict == "fresh-start"),
        count(&|o| o.verdict == "consistent-acked"),
        count(&|o| o.verdict == "consistent-intent"),
        corruption,
        leaks,
        lost,
        unrecognized,
        hung,
        started.elapsed().as_secs_f64(),
        pass
    );
    println!("{report}");
    if let Some(path) = flag_value(&args, "--json") {
        std::fs::write(&path, format!("{report}\n")).expect("write json report");
    }
    std::fs::remove_dir_all(&base_dir).ok();
    std::process::exit(if pass { 0 } else { 1 });
}
