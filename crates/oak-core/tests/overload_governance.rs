//! Overload governance: deadlines, bounded lock waits, the degraded-mode
//! controller, and the budgeted API surface (single map and sharded).
//!
//! The acceptance bar these tests pin down:
//! * no operation overruns its deadline by more than one bounded retry
//!   step (`deadline_pressure_bounded_overrun`),
//! * `Overloaded` rejections engage *before* the pool's OOM ladder
//!   (`overloaded_rejections_precede_oom`),
//! * the configurable lock-wait budget actually bounds contended waits
//!   (`configured_lock_wait_bounds_contention`),
//! * an entry point and its `_budgeted` twin agree op for op under
//!   `OpBudget::unbounded()` (`unbounded_budget_twins_agree_with_model`) and
//!   differ only in what the budget governs: a lost lock wait
//!   (`lost_lock_wait_…`) and shedding (`degraded_scans_shed_after_limit`).

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use oak_core::{
    OakError, OakMap, OakMapConfig, OakWBuffer, OpBudget, OverloadConfig, OverloadState,
    RetryPolicy, ShardedOakMap,
};
use oak_failpoints::SplitMix64;
use oak_mempool::{LockSite, PoolConfig};

fn k(i: u64) -> Vec<u8> {
    format!("k{i:05}").into_bytes()
}

/// Runs `body` while a `compute` is parked inside its closure, holding one
/// value's header write lock, and lets the compute finish afterwards.
/// `compute` is handed the closure to run under the lock.
fn with_parked_writer(
    compute: impl FnOnce(&dyn Fn(&mut OakWBuffer<'_>)) + Send,
    body: impl FnOnce(),
) {
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        s.spawn(move || {
            compute(&|_v| {
                entered_tx.send(()).unwrap();
                // Returns once `release_tx` is dropped.
                let _ = release_rx.recv();
            })
        });
        entered_rx.recv().unwrap();
        body();
        drop(release_tx);
    });
}

/// An operation under a deadline must give up within one bounded retry
/// step of that deadline, not ride out the full (2 s default) lock wait.
#[test]
fn deadline_pressure_bounded_overrun() {
    let map = OakMap::with_config(OakMapConfig::small());
    map.put(b"stuck", b"v0").unwrap();
    with_parked_writer(
        |f| {
            map.compute_if_present(b"stuck", |v| f(v));
        },
        || {
            let deadline = Duration::from_millis(50);
            let start = Instant::now();
            let err = map
                .put_budgeted(b"stuck", b"v1", &OpBudget::with_deadline(deadline))
                .unwrap_err();
            let elapsed = start.elapsed();
            assert_eq!(err, OakError::DeadlineExceeded);
            // Deadline + one bounded backoff step + scheduling slack — far
            // below the 2 s default lock-wait budget (the lock stays held).
            assert!(
                elapsed < Duration::from_millis(350),
                "overran deadline: {elapsed:?}"
            );
        },
    );
    // The map recovers once the holder finishes.
    map.put(b"stuck", b"v2").unwrap();
    assert_eq!(map.get_copy(b"stuck"), Some(b"v2".to_vec()));
}

/// An already-expired budget is rejected up front, before any allocation.
#[test]
fn expired_budget_rejected_before_any_work() {
    let map = OakMap::with_config(OakMapConfig::small());
    let expired = OpBudget::until(Instant::now());
    assert_eq!(
        map.put_budgeted(b"a", b"v", &expired),
        Err(OakError::DeadlineExceeded)
    );
    assert_eq!(
        map.remove_budgeted(b"a", &expired),
        Err(OakError::DeadlineExceeded)
    );
    assert!(!map.contains_key(b"a"));
    assert!(map.stats().pool.deadline_exceeded >= 2);
    // Unbudgeted operations still work.
    map.put(b"a", b"v").unwrap();
    assert_eq!(map.get_copy(b"a"), Some(b"v".to_vec()));
}

/// With the controller enabled, writes are shed with `Overloaded` while
/// headroom still exists — strictly before the pool's OOM ladder (and
/// thus before any `OutOfMemory`) engages.
#[test]
fn overloaded_rejections_precede_oom() {
    let map = OakMap::with_config(
        OakMapConfig::small()
            .pool(PoolConfig {
                magazines: false,
                lockfree: false,
                arena_size: 64 << 10,
                max_arenas: 2,
                ..Default::default()
            })
            .overload(OverloadConfig::standard().sample_every(1)),
    );

    let value = vec![0xabu8; 200];
    let mut first_err = None;
    for i in 0..4096 {
        match map.put(&k(i), &value) {
            Ok(()) => {}
            Err(e) => {
                first_err = Some(e);
                break;
            }
        }
    }
    assert_eq!(first_err, Some(OakError::Overloaded));
    let stats = map.stats();
    assert_eq!(stats.pool.oom_failures, 0, "OOM ladder engaged: {stats:?}");
    assert_eq!(stats.pool.failed_allocs, 0, "allocation failed: {stats:?}");
    assert!(stats.pool.overload_sheds >= 1);
    assert_eq!(map.overload_state(), OverloadState::Critical);
    // Reads still serve under write shedding.
    assert_eq!(map.get_copy(&k(0)), Some(value));
}

/// `OakMapConfig::lock_wait` bounds how long a contended header wait
/// blocks: far sooner than the 2 s default, and the surfaced error names
/// the losing site with its wait diagnostics.
#[test]
fn configured_lock_wait_bounds_contention() {
    let map = OakMap::with_config(OakMapConfig::small().lock_wait(Duration::from_millis(30)));
    map.put(b"stuck", b"v0").unwrap();
    with_parked_writer(
        |f| {
            map.compute_if_present(b"stuck", |v| f(v));
        },
        || {
            let start = Instant::now();
            let err = map
                .get_with_budgeted(b"stuck", &OpBudget::unbounded(), |v| v.to_vec())
                .unwrap_err();
            let elapsed = start.elapsed();
            match err {
                OakError::Contended(info) => {
                    assert_eq!(info.site, LockSite::ValueRead);
                    assert!(info.rounds > 0);
                }
                other => panic!("expected Contended, got {other:?}"),
            }
            assert!(
                elapsed < Duration::from_millis(400),
                "lock wait not bounded: {elapsed:?}"
            );
        },
    );
}

/// A degraded map sheds long scans after the configured entry limit;
/// entries already visited stay visited (truncation, not rollback).
#[test]
fn degraded_scans_shed_after_limit() {
    let degraded = OakMapConfig::small().overload(
        OverloadConfig::standard()
            .sample_every(1)
            // Degraded whenever headroom < 100% — i.e. always once
            // anything is allocated; never Critical.
            .headroom(1.0, 0.0)
            .scan_limit(10),
    );
    let map = OakMap::with_config(degraded.clone());
    let sharded = ShardedOakMap::with_config(4, degraded);
    for i in 0..100 {
        map.put(&k(i), b"v").unwrap();
        sharded.put(&k(i), b"v").unwrap();
    }
    assert_eq!(map.overload_state(), OverloadState::Degraded);
    assert_eq!(sharded.overload_state(), OverloadState::Degraded);

    // Only the budgeted scans are shed: the unbudgeted ones, in either
    // direction, run to the end however degraded the map is.
    assert_eq!(map.for_each_in(None, None, |_k, _v| true), 100);
    assert_eq!(map.for_each_descending(None, None, |_k, _v| true), 100);
    assert_eq!(sharded.for_each_in(None, None, |_k, _v| true), 100);
    assert_eq!(sharded.for_each_descending(None, None, |_k, _v| true), 100);
    assert_eq!(map.stats().pool.scan_sheds, 0);
    let mut seen = 0u64;
    let err = sharded
        .for_each_in_budgeted(None, None, &OpBudget::unbounded(), |_k, _v| {
            seen += 1;
            true
        })
        .unwrap_err();
    assert_eq!((err, seen), (OakError::Overloaded, 10));
    assert!(sharded.stats().pool.scan_sheds >= 1);

    let mut seen = 0u64;
    let err = map
        .for_each_in_budgeted(None, None, &OpBudget::unbounded(), |_k, _v| {
            seen += 1;
            true
        })
        .unwrap_err();
    assert_eq!(err, OakError::Overloaded);
    assert_eq!(seen, 10);
    assert!(map.stats().pool.scan_sheds >= 1);

    // An expired budget stops a scan before it visits anything.
    let err = map
        .for_each_in_budgeted(None, None, &OpBudget::until(Instant::now()), |_k, _v| true)
        .unwrap_err();
    assert_eq!(err, OakError::DeadlineExceeded);
}

/// The budgeted API routes through shards exactly like the unbudgeted
/// one, and the merged budgeted scan preserves global order.
#[test]
fn sharded_budgeted_surface() {
    let map = ShardedOakMap::with_config(4, OakMapConfig::small());
    let budget = OpBudget::with_deadline(Duration::from_secs(10))
        .with_policy(RetryPolicy::bounded(64).with_backoff(10, 1_000));

    for i in 0..200 {
        map.put_budgeted(&k(i), format!("v{i}").as_bytes(), &budget)
            .unwrap();
    }
    assert_eq!(map.len(), 200);
    assert!(!map.put_if_absent_budgeted(&k(7), b"nope", &budget).unwrap());
    assert_eq!(
        map.get_with_budgeted(&k(7), &budget, |v| v.to_vec())
            .unwrap(),
        Some(b"v7".to_vec())
    );
    assert!(map
        .compute_if_present_budgeted(&k(7), &budget, |v| {
            let n = v.len().min(2);
            v.as_mut_slice()[..n].copy_from_slice(b"V7");
        })
        .unwrap());
    assert_eq!(map.get_copy(&k(7)), Some(b"V7".to_vec()));
    assert!(map.remove_budgeted(&k(7), &budget).unwrap());
    assert!(!map.contains_key(&k(7)));

    // Budgeted merged scan: global key order, all entries.
    let mut keys = Vec::new();
    let visited = map
        .for_each_in_budgeted(None, None, &budget, |kb, _v| {
            keys.push(kb.to_vec());
            true
        })
        .unwrap();
    assert_eq!(visited, 199);
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);

    // Expired budgets surface on the sharded path too.
    assert_eq!(
        map.put_budgeted(b"x", b"v", &OpBudget::until(Instant::now())),
        Err(OakError::DeadlineExceeded)
    );
    assert_eq!(map.overload_state(), OverloadState::Healthy);
}

/// What a lost (bounded) wait for a value's read lock means is the one
/// thing, besides shedding, that the budget decides: an unbudgeted scan or
/// get treats the value like one deleted under it — skips it, answers
/// `None` — and carries on; the budgeted twin stops with `Contended`.
#[test]
fn lost_lock_wait_skips_unbudgeted_and_fails_budgeted() {
    const N: u64 = 60;
    let held = k(17);
    let rest: Vec<Vec<u8>> = (0..N).filter(|&i| i != 17).map(k).collect();
    /// The keys `scan` visits, which must be as many as it says it visited.
    fn keys(scan: impl FnOnce(&mut dyn FnMut(&[u8], &[u8]) -> bool) -> usize) -> Vec<Vec<u8>> {
        let mut keys = Vec::new();
        let n = scan(&mut |k, _v| {
            keys.push(k.to_vec());
            true
        });
        assert_eq!(n, keys.len());
        keys
    }
    fn contended<T: std::fmt::Debug>(r: Result<T, OakError>) {
        match r {
            Err(OakError::Contended(info)) => assert_eq!(info.site, LockSite::ValueRead),
            other => panic!("expected Contended, got {other:?}"),
        }
    }
    let unbounded = OpBudget::unbounded();
    for batch_scan in [true, false] {
        let cfg = OakMapConfig::small()
            .lock_wait(Duration::from_millis(20))
            .batch_scan(batch_scan);
        let map = OakMap::with_config(cfg.clone());
        let sharded = ShardedOakMap::with_config(4, cfg);
        for i in 0..N {
            map.put(&k(i), b"v").unwrap();
            sharded.put(&k(i), b"v").unwrap();
        }

        with_parked_writer(
            |f| {
                map.compute_if_present(&held, |v| f(v));
            },
            || {
                assert_eq!(keys(|f| map.for_each_in(None, None, f)), rest);
                let mut down = keys(|f| map.for_each_descending(None, None, f));
                down.reverse();
                assert_eq!(down, rest);
                contended(map.for_each_in_budgeted(None, None, &unbounded, |_k, _v| true));
                assert_eq!(map.get_with(&held, |v| v.len()), None);
                contended(map.get_with_budgeted(&held, &unbounded, |v| v.len()));
            },
        );
        with_parked_writer(
            |f| {
                sharded.compute_if_present(&held, |v| f(v));
            },
            || {
                assert_eq!(keys(|f| sharded.for_each_in(None, None, f)), rest);
                let mut down = keys(|f| sharded.for_each_descending(None, None, f));
                down.reverse();
                assert_eq!(down, rest);
                contended(sharded.for_each_in_budgeted(None, None, &unbounded, |_k, _v| true));
            },
        );
    }
}

/// One seeded script with a `BTreeMap` model: each step goes through the
/// unbudgeted entry point on one map and through the `_budgeted` entry
/// point, under `OpBudget::unbounded()`, on an identical second map. Both
/// must give the model's answer at every step.
macro_rules! twins_agree_with_model {
    ($new:expr, $seed:expr) => {{
        let (plain, twin) = ($new, $new);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let b = OpBudget::unbounded();
        let mut rng = SplitMix64::new($seed);
        let bump = |v: &mut OakWBuffer<'_>| {
            let b = v.as_mut_slice();
            b[0] = b[0].wrapping_add(1);
        };
        for step in 0..4_000u64 {
            let key = k(rng.below(300));
            // 1 to 40 bytes, so in-place puts resize.
            let val = vec![step as u8; 1 + rng.below(40) as usize];
            match rng.below(6) {
                0 => {
                    plain.put(&key, &val).unwrap();
                    twin.put_budgeted(&key, &val, &b).unwrap();
                    model.insert(key, val);
                }
                1 => {
                    let want = !model.contains_key(&key);
                    assert_eq!(plain.put_if_absent(&key, &val), Ok(want));
                    assert_eq!(twin.put_if_absent_budgeted(&key, &val, &b), Ok(want));
                    model.entry(key).or_insert(val);
                }
                2 => {
                    let want = model
                        .get_mut(&key)
                        .map(|v| v[0] = v[0].wrapping_add(1))
                        .is_some();
                    assert_eq!(plain.compute_if_present(&key, bump), want);
                    assert_eq!(twin.compute_if_present_budgeted(&key, &b, bump), Ok(want));
                }
                3 => {
                    let want = model.remove(&key).is_some();
                    assert_eq!(plain.remove(&key), want);
                    assert_eq!(twin.remove_budgeted(&key, &b), Ok(want));
                }
                4 => {
                    let want = model.get(&key).cloned();
                    assert_eq!(plain.get_with(&key, |v| v.to_vec()), want);
                    assert_eq!(twin.get_with_budgeted(&key, &b, |v| v.to_vec()), Ok(want));
                }
                _ => {
                    let other = k(rng.below(300));
                    let (lo, hi) = if key <= other {
                        (key, other)
                    } else {
                        (other, key)
                    };
                    let want: Vec<_> = model
                        .range(lo.clone()..hi.clone())
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    let mut got = Vec::new();
                    let n = plain.for_each_in(Some(&lo), Some(&hi), |k, v| {
                        got.push((k.to_vec(), v.to_vec()));
                        true
                    });
                    assert_eq!((n, &got), (want.len(), &want));
                    got.clear();
                    let n = twin.for_each_in_budgeted(Some(&lo), Some(&hi), &b, |k, v| {
                        got.push((k.to_vec(), v.to_vec()));
                        true
                    });
                    assert_eq!((n, &got), (Ok(want.len() as u64), &want));
                }
            }
        }
        assert_eq!((plain.len(), twin.len()), (model.len(), model.len()));
        plain.validate();
        twin.validate();
    }};
}

#[test]
fn unbounded_budget_twins_agree_with_model() {
    twins_agree_with_model!(OakMap::with_config(OakMapConfig::small()), 0xB0D9E7);
    twins_agree_with_model!(
        ShardedOakMap::with_config(4, OakMapConfig::small()),
        0xB0D9E8
    );
}
