//! Memory-lifecycle hardening: soak at ~95% of the pool budget, emergency
//! reclamation, and clean out-of-memory surfacing.
//!
//! The contract under test (DESIGN.md "Memory lifecycle"):
//!
//! * sustained multi-threaded churn against a pool sized *below* the
//!   working set must never leak a byte — with the `audit` feature on,
//!   the pool-side ledger cross-checks every live allocation against the
//!   map's reachable set;
//! * a put that hits pool exhaustion first drains the quarantine and
//!   reclaims reorg-eligible chunks, and only surfaces
//!   [`OakError::OutOfMemory`] when that recovered nothing;
//! * after `OutOfMemory`, the map stays fully readable, scannable, and
//!   writable.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use oak_core::{OakError, OakMap, OakMapConfig};
use oak_mempool::{PoolConfig, ReclamationPolicy};

/// 256 KB pool; the soak working set is sized to ~95% of it, so the churn
/// constantly rides the exhaustion edge and exercises the reclaim paths.
fn soak_config() -> OakMapConfig {
    OakMapConfig::small()
        .chunk_capacity(64)
        .pool(PoolConfig {
            magazines: false,
            lockfree: false,
            arena_size: 32 << 10,
            max_arenas: 8,
            ..Default::default()
        })
        .reclamation(ReclamationPolicy::ReclaimHeaders)
}

const SOAK_THREADS: u64 = 4;
const KEYS_PER_THREAD: u64 = 340;
const SOAK_ROUNDS: u64 = 6;
const SOAK_VALUE: usize = 160;

fn soak_key(t: u64, i: u64) -> Vec<u8> {
    format!("t{t}-{i:05}").into_bytes()
}

/// Multi-threaded put/replace/remove churn at the budget edge. Returns the
/// number of operations that surfaced out-of-memory (tolerated: the pool
/// is deliberately too small for every thread's peak at once).
fn churn(map: &Arc<OakMap>) -> u64 {
    let ooms = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..SOAK_THREADS {
            let map = Arc::clone(map);
            let ooms = &ooms;
            s.spawn(move || {
                let mut oom = 0u64;
                for round in 0..SOAK_ROUNDS {
                    for i in 0..KEYS_PER_THREAD {
                        let val = vec![(round as u8) ^ (i as u8); SOAK_VALUE];
                        match map.put(&soak_key(t, i), &val) {
                            Ok(()) => {}
                            Err(OakError::OutOfMemory | OakError::Alloc(_)) => oom += 1,
                            Err(e) => panic!("unexpected: {e}"),
                        }
                        if i % 3 == round % 3 {
                            map.remove(&soak_key(t, i));
                        }
                    }
                }
                ooms.fetch_add(oom, Ordering::Relaxed);
            });
        }
    });
    ooms.load(Ordering::Relaxed)
}

/// Removes every key currently in the map (collected via a scan).
fn remove_all(map: &OakMap) {
    let mut keys = Vec::new();
    map.for_each_in(None, None, |k, _| {
        keys.push(k.to_vec());
        true
    });
    for k in &keys {
        map.remove(k);
    }
    assert_eq!(map.len(), 0, "remove-all left residents");
}

/// End-of-soak verdict: map empty and consistent, quarantine drained, and
/// (under `audit`) not a byte leaked or misaccounted.
fn assert_no_leaks(map: &OakMap) {
    map.validate();
    map.drain_quarantine();
    #[cfg(feature = "audit")]
    {
        let report = map.audit();
        assert!(
            report.pool.violations.is_empty(),
            "lifecycle violations: {:?}",
            report.pool.violations
        );
        assert!(
            report.pool.balanced,
            "live {} + free {} != capacity {}",
            report.pool.live_bytes, report.pool.free_bytes, report.pool.capacity_bytes
        );
        assert_eq!(
            report.leaked_bytes, 0,
            "unreachable live allocations: {:?}",
            report.leaked
        );
        // Every payload is freed eagerly on remove; with the map empty no
        // value payload may stay live.
        assert_eq!(
            report
                .pool
                .class_bytes(oak_mempool::AllocClass::ValuePayload),
            0,
            "orphaned value payloads: {:?}",
            report.pool.live_by_class
        );
    }
    // Functional recovery: the space freed by the teardown must be usable
    // for a fresh burst.
    for i in 0..50u32 {
        map.put(format!("fresh{i:04}").as_bytes(), &[9u8; 64])
            .expect("post-soak insert into reclaimed space");
    }
    map.validate();
}

#[test]
fn soak_at_95_percent_budget_leaks_nothing() {
    let map = Arc::new(OakMap::with_config(soak_config()));
    let ooms = churn(&map);
    // The working set (~1360 × ~184 B ≈ 95% of 256 KB) plus replace
    // double-buffering makes some exhaustion expected; what matters is
    // that every failure path gave its memory back.
    eprintln!("soak: {ooms} tolerated OOMs");
    remove_all(&map);
    assert_no_leaks(&map);
}

#[test]
fn soak_at_95_percent_budget_with_magazines_leaks_nothing() {
    // Same ~95%-budget soak with the allocation magazines enabled: slices
    // parked thread-side must stay visible to the auditor as *free* bytes
    // (not leaks), and the emergency ladder's flush rung must return them
    // before any put concludes OutOfMemory with free memory parked.
    let map = Arc::new(OakMap::with_config(soak_config().pool(PoolConfig {
        magazines: true,
        lockfree: false,
        arena_size: 32 << 10,
        max_arenas: 8,
        ..Default::default()
    })));
    let ooms = churn(&map);
    eprintln!("magazine soak: {ooms} tolerated OOMs");
    let stats = map.pool().stats();
    assert!(
        stats.magazine_hits > 0,
        "magazines never engaged during the soak: {stats:?}"
    );
    remove_all(&map);
    // Flush before the verdict so the "no live value payloads" class check
    // sees the parked slices back on the free lists (the auditor counts
    // them as free either way; this also exercises the flush path).
    map.pool().flush_magazines();
    assert_no_leaks(&map);
}

#[test]
fn soak_at_95_percent_budget_with_lockfree_alloc_leaks_nothing() {
    // The full lock-free stack: magazines backed by per-class CAS stacks
    // and de-amortized arena growth. Slices parked on the stacks must stay
    // visible to the auditor as free bytes, the flush-all rung must drain
    // them before any put concludes OutOfMemory, and runs of frees and
    // allocations must recycle through the stacks.
    let map = Arc::new(OakMap::with_config(soak_config().pool(PoolConfig {
        magazines: true,
        lockfree: true,
        arena_size: 32 << 10,
        max_arenas: 8,
        ..Default::default()
    })));
    let ooms = churn(&map);
    eprintln!("lockfree soak: {ooms} tolerated OOMs");
    // The churn itself does not have to reach the class stacks: each of
    // its frees is re-allocated within two puts, so no magazine passes its
    // cap, and only an OOM-ladder flush — which needs the four threads to
    // overlap enough to exhaust the pool — would feed a stack. The
    // teardown does, deterministically: ~900 payload frees in a row on
    // this thread overflow its magazine, and the surplus goes to a stack.
    remove_all(&map);
    let stats = map.pool().stats();
    assert!(
        stats.class_stack_pushes > 0,
        "a run of frees never overflowed onto the class stacks: {stats:?}"
    );
    // A put burst longer than a magazine must refill from that stack.
    for i in 0..KEYS_PER_THREAD {
        map.put(&soak_key(0, i), &[7u8; SOAK_VALUE])
            .expect("put into space the teardown freed");
    }
    let stats = map.pool().stats();
    assert!(
        stats.class_stack_pops > 0,
        "stack-parked slices were never recycled: {stats:?}"
    );
    remove_all(&map);
    map.pool().flush_magazines();
    let stats = map.pool().stats();
    assert_eq!(
        stats.class_stack_bytes, 0,
        "flush left bytes parked on the class stacks: {stats:?}"
    );
    assert_no_leaks(&map);
}

#[test]
fn soak_with_injected_faults_leaks_nothing() {
    // Same soak with a fault schedule firing on roughly half the
    // failpoint sites: injected allocation and publish failures must not
    // orphan speculative keys or values either.
    let _s = oak_failpoints::scenario();
    oak_failpoints::Schedule::generate(0x0A4B, &oak_core::all_failpoint_sites()).install();
    let map = Arc::new(OakMap::with_config(soak_config()));
    let ooms = churn(&map);
    eprintln!("faulty soak: {ooms} tolerated OOMs");
    // Stop injecting before the teardown: the leak verdict must measure
    // what the faulty run left behind, not fail on a fault of its own.
    oak_failpoints::clear();
    remove_all(&map);
    assert_no_leaks(&map);
}

/// Tiny pool, big keys, tiny values, and merges disabled: once every key
/// is removed, the *only* way a fresh put can find 200 contiguous bytes is
/// the emergency path — quarantine drain plus reclamation of chunks full
/// of dead entries. Before this PR the put below failed with
/// `PoolExhausted`; now it must succeed and count a reclamation pass.
#[test]
fn emergency_reclamation_recovers_dead_key_space() {
    let map = OakMap::with_config(OakMapConfig {
        chunk_capacity: 32,
        rebalance_unsorted_ratio: 0.5,
        merge_ratio: 0.0, // never merge: removes alone reclaim nothing
        pool: PoolConfig {
            magazines: false,
            lockfree: false,
            arena_size: 64 << 10,
            max_arenas: 2,
            ..Default::default()
        },
        shared_arenas: None,
        reclamation: ReclamationPolicy::RetainHeaders,
        ..OakMapConfig::default()
    });
    let big_key = |i: u64| {
        let mut k = format!("{i:08}").into_bytes();
        k.resize(200, b'x');
        k
    };
    let mut inserted = 0u64;
    loop {
        match map.put(&big_key(inserted), &[1u8; 8]) {
            Ok(()) => inserted += 1,
            Err(OakError::OutOfMemory) => break,
            Err(e) => panic!("exhaustion must surface as OutOfMemory, got {e}"),
        }
    }
    assert!(inserted > 100, "pool absorbed only {inserted} entries");
    // The failing put attempted recovery before giving up.
    assert!(map.pool().stats().emergency_reclaims > 0);
    assert!(map.pool().stats().oom_failures > 0);

    // Remove every *other* key: no chunk ever empties, so the
    // remove-path merge heuristic stays quiet and every removed key's
    // slice sits dead inside a live chunk.
    for i in (0..inserted).step_by(2) {
        assert!(map.remove(&big_key(i)), "key {i}");
    }
    assert_eq!(map.len() as u64, inserted - inserted.div_ceil(2));

    // Dead keys still hold their slices; a 200-byte key cannot fit in the
    // freed 8-byte payload holes. Emergency reclamation must rebalance
    // the dead-laden chunks, drain the quarantine, and retry.
    let reclaims_before = map.pool().stats().emergency_reclaims;
    map.put(&big_key(1_000_000), &[2u8; 8])
        .expect("put must succeed via emergency reclamation");
    let stats = map.stats();
    assert!(
        map.pool().stats().emergency_reclaims > reclaims_before,
        "recovery did not go through the emergency path"
    );
    assert!(stats.keys_retired > 0, "no dead keys were retired");
    assert!(stats.reclaimed_bytes > 0, "quarantine never freed anything");
    map.validate();
    remove_all(&map);
    assert_no_leaks(&map);
}

/// With magazines on, the emergency ladder gains a "flush all magazines"
/// rung. Exhaustion must still terminate in a clean `OutOfMemory` (no
/// retry livelock), and no put may fail while free bytes sit parked in a
/// magazine — after removals free room via the magazines, fresh puts
/// succeed.
#[test]
fn oom_ladder_terminates_with_magazines() {
    let map = OakMap::with_config(OakMapConfig::small().chunk_capacity(32).pool(PoolConfig {
        magazines: true,
        lockfree: false,
        arena_size: 64 << 10,
        max_arenas: 2,
        ..Default::default()
    }));
    let key = |i: u64| format!("key{i:06}").into_bytes();
    let mut inserted = 0u64;
    loop {
        match map.put(&key(inserted), &[7u8; 256]) {
            Ok(()) => inserted += 1,
            Err(OakError::OutOfMemory) => break, // terminated, did not spin
            Err(e) => panic!("{e}"),
        }
    }
    assert!(inserted > 0);
    let stats = map.pool().stats();
    assert!(stats.emergency_reclaims > 0, "ladder never ran: {stats:?}");
    assert!(
        stats.magazine_flushes > 0,
        "ladder skipped the magazine-flush rung: {stats:?}"
    );
    // Free half the keys: their slices land in magazines. The next put
    // must find that memory (magazine pop or flush), not report OOM.
    for i in (0..inserted).step_by(2) {
        assert!(map.remove(&key(i)));
    }
    map.put(b"after-oom-mag", &[8u8; 256])
        .expect("parked magazine memory must satisfy the retry");
    map.validate();
    remove_all(&map);
    map.pool().flush_magazines();
    assert_no_leaks(&map);
}

/// A put that hits `OutOfMemory` even after emergency reclamation must
/// leave the map fully consistent: readable, scannable, and writable once
/// room is made.
#[test]
fn out_of_memory_leaves_map_usable() {
    let map = OakMap::with_config(OakMapConfig::small().chunk_capacity(32).pool(PoolConfig {
        magazines: false,
        lockfree: false,
        arena_size: 64 << 10,
        max_arenas: 2,
        ..Default::default()
    }));
    let key = |i: u64| format!("key{i:06}").into_bytes();
    let mut inserted = Vec::new();
    loop {
        let i = inserted.len() as u64;
        match map.put(&key(i), &[7u8; 256]) {
            Ok(()) => inserted.push(i),
            Err(OakError::OutOfMemory) => break,
            Err(e) => panic!("{e}"),
        }
    }
    assert!(!inserted.is_empty());

    // Readable: every pre-failure insert intact.
    for &i in &inserted {
        assert_eq!(map.get_with(&key(i), |v| v.len()), Some(256), "key {i}");
    }
    // Scannable: full ascend visits everything in order.
    let mut prev: Option<Vec<u8>> = None;
    let mut seen = 0usize;
    map.for_each_in(None, None, |k, _| {
        if let Some(p) = &prev {
            assert!(p.as_slice() < k, "scan order broken after OOM");
        }
        prev = Some(k.to_vec());
        seen += 1;
        true
    });
    assert_eq!(seen, inserted.len());
    // Writable: removals free room, then fresh puts succeed.
    for &i in inserted.iter().take(inserted.len() / 2) {
        assert!(map.remove(&key(i)));
    }
    map.put(b"after-oom", &[8u8; 128])
        .expect("map must accept writes after OOM once room exists");
    assert_eq!(map.get_copy(b"after-oom").unwrap(), [8u8; 128]);
    map.validate();
}
