//! The batch cursors are demand-driven: a cursor snapshots a small multiple
//! of what it delivers, and judges an entry live when it yields it.
//!
//! These tests pin both mechanisms through counters and deterministic
//! orderings rather than timings, so they catch a fallback to per-entry
//! stepping (no batches counted) as well as renewed over-collection (a
//! short sharded scan snapshotting a full batch per shard), and they pin
//! the defined outcome of writing to a leased value from a stream-scan
//! callback.

use std::sync::mpsc;
use std::time::Duration;

use oak_core::{OakMap, OakMapConfig, ShardedOakMap};
use oak_mempool::PoolStats;

fn k(i: u64) -> Vec<u8> {
    format!("k{i:06}").into_bytes()
}

fn roomy() -> OakMapConfig {
    OakMapConfig::small().chunk_capacity(256)
}

/// Keys inserted in ascending order leave every chunk but the last fully
/// sorted, so fills and tail windows hold exactly what they aim for.
fn sharded(n: u64) -> ShardedOakMap {
    let map = ShardedOakMap::with_config(4, roomy());
    for i in 0..n {
        map.put(&k(i), &i.to_le_bytes()).unwrap();
    }
    map
}

/// `(fills, entries snapshotted)` between two snapshots.
fn scan_delta(before: &PoolStats, after: &PoolStats) -> (u64, u64) {
    (
        after.scan_chunk_batches - before.scan_chunk_batches,
        after.scan_entries_snapshotted - before.scan_entries_snapshotted,
    )
}

#[test]
fn short_sharded_scans_snapshot_a_small_multiple_of_what_they_deliver() {
    const LEN: u64 = 50;
    let map = sharded(8_000);

    let before = map.stats().pool;
    let mut seen = Vec::new();
    map.for_each_in(Some(&k(3_000)), None, |kb, _| {
        seen.push(kb.to_vec());
        (seen.len() as u64) < LEN
    });
    let asc = map.stats().pool;
    assert_eq!(seen, (3_000..3_000 + LEN).map(k).collect::<Vec<_>>());
    let (fills, snapshotted) = scan_delta(&before, &asc);
    assert!(fills >= 4, "the merge never used the batch engine");
    assert!(
        snapshotted <= 3 * LEN,
        "ascending: {snapshotted} entries snapshotted to deliver {LEN}"
    );

    seen.clear();
    map.for_each_descending(Some(&k(5_000)), None, |kb, _| {
        seen.push(kb.to_vec());
        (seen.len() as u64) < LEN
    });
    let desc = map.stats().pool;
    assert_eq!(
        seen,
        (0..LEN).map(|d| k(5_000 - d)).collect::<Vec<_>>(),
        "descending merge order"
    );
    let (fills, snapshotted) = scan_delta(&asc, &desc);
    assert!(fills >= 4, "the merge never used the batch engine");
    assert!(
        snapshotted <= 3 * LEN,
        "descending: {snapshotted} entries snapshotted to deliver {LEN}"
    );
}

/// The other side of the trade: a stream scan leases one full batch at
/// once, so a hundred entries inside one chunk still cost one fill.
#[test]
fn a_hundred_entry_stream_scan_inside_one_chunk_fills_once() {
    let map = OakMap::with_config(OakMapConfig::small().chunk_capacity(4096));
    for i in 0..1_000 {
        map.put(&k(i), &i.to_le_bytes()).unwrap();
    }
    for descending in [false, true] {
        let before = map.pool().stats();
        let mut n = 0;
        let stop_at_100 = |_: &[u8], _: &[u8]| {
            n += 1;
            n < 100
        };
        let visited = if descending {
            map.for_each_descending(Some(&k(600)), None, stop_at_100)
        } else {
            map.for_each_in(Some(&k(300)), None, stop_at_100)
        };
        assert_eq!(visited, 100);
        let (fills, snapshotted) = scan_delta(&before, &map.pool().stats());
        assert_eq!(fills, 1, "descending={descending}");
        assert_eq!(snapshotted, 128, "descending={descending}");
    }
}

/// A Set-API cursor's fills follow what it has delivered: an eighth of a
/// batch first, doubling up to a whole one.
#[test]
fn set_api_fills_ramp_with_delivery() {
    let map = OakMap::with_config(OakMapConfig::small().chunk_capacity(4096));
    for i in 0..1_000 {
        map.put(&k(i), &i.to_le_bytes()).unwrap();
    }
    // (entries pulled, fills that takes, entries those fills snapshot)
    let steps = [
        (1, 1, 16),
        (16, 1, 16),
        (17, 2, 48),
        (48, 2, 48),
        (49, 3, 112),
        (112, 3, 112),
        (113, 4, 240),
        (240, 4, 240),
        (241, 5, 368),
    ];
    for descending in [false, true] {
        for (pulled, fills, snapshotted) in steps {
            let before = map.pool().stats();
            let got = if descending {
                // k600 is inside the chunk's sorted prefix, where a tail
                // window holds exactly its cells (a run of bypasses, such as
                // the ascending inserts left at the chunk's end, widens it).
                map.iter_descending(Some(&k(600)), None)
                    .take(pulled)
                    .count()
            } else {
                map.iter_range(Some(&k(100)), None).take(pulled).count()
            };
            assert_eq!(got, pulled);
            assert_eq!(
                scan_delta(&before, &map.pool().stats()),
                (fills, snapshotted),
                "descending={descending} pulled={pulled}"
            );
        }
    }
}

/// A key removed after the cursor snapshotted it and before the cursor
/// reaches it is not delivered (§1.1 allows either; the engine judges
/// liveness at yield, so an iterator never hands out a dead value buffer).
#[test]
fn set_api_iterators_judge_liveness_at_yield() {
    let map = OakMap::with_config(roomy());
    for i in 0..40 {
        map.put(&k(i), b"v").unwrap();
    }
    let keys = |it: &mut dyn Iterator<Item = (oak_core::OakRBuffer, oak_core::OakRBuffer)>| {
        it.map(|(kb, vb)| {
            assert!(!vb.is_deleted(), "a dead value was handed out");
            kb.to_vec().unwrap()
        })
        .collect::<Vec<_>>()
    };

    // The first fill (made by the constructor) snapshots k0..k15.
    let mut asc = map.iter_range(None, None);
    assert_eq!(asc.next().unwrap().0.to_vec().unwrap(), k(0));
    assert!(map.remove(&k(3)));
    let rest = keys(&mut asc);
    assert_eq!(rest, (1..40).filter(|&i| i != 3).map(k).collect::<Vec<_>>());

    // Descending from the top: the tail window covers at least k24..k39.
    let mut desc = map.iter_descending(None, None);
    assert_eq!(desc.next().unwrap().0.to_vec().unwrap(), k(39));
    assert!(map.remove(&k(30)));
    let rest = keys(&mut desc);
    assert_eq!(
        rest,
        (0..39)
            .rev()
            .filter(|&i| i != 3 && i != 30)
            .map(k)
            .collect::<Vec<_>>()
    );
}

/// The same through the sharded merge, whose callback may write: when the
/// first entry is delivered every shard cursor has filled, and a key
/// removed then is in some cursor's batch, not yet yielded.
#[test]
fn sharded_merge_judges_liveness_at_yield() {
    for descending in [false, true] {
        let map = sharded(200);
        let doomed = if descending { k(180) } else { k(20) };
        let mut seen = Vec::new();
        let mut visit = |kb: &[u8], _: &[u8]| {
            if seen.is_empty() {
                assert!(map.remove(&doomed));
            }
            seen.push(kb.to_vec());
            true
        };
        let expect: Vec<Vec<u8>> = if descending {
            map.for_each_descending(None, None, &mut visit);
            (0..200).rev().map(k).filter(|x| *x != doomed).collect()
        } else {
            map.for_each_in(None, None, &mut visit);
            (0..200).map(k).filter(|x| *x != doomed).collect()
        };
        assert_eq!(seen, expect, "descending={descending}");
    }
}

/// A stream scan holds read leases on the values it has snapshotted and
/// not delivered; an unbudgeted write to one of them from the scan's own
/// callback would wait for itself and retry for ever. The defined outcome
/// is a panic that names the cause, within one lock wait — and budgeted
/// writes keep failing as their budget says.
#[test]
fn unbudgeted_write_from_a_stream_scan_callback_fails_fast() {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let map = OakMap::with_config(roomy().lock_wait(Duration::from_millis(50)));
        for i in 0..64 {
            map.put(&k(i), b"v").unwrap();
        }
        // Budgeted: an error, and the scan goes on.
        let budget = oak_core::OpBudget::with_deadline(Duration::from_millis(20));
        let mut lost = None;
        let visited = map.for_each_in(None, None, |kb, _| {
            if kb == k(0) {
                lost = Some(map.remove_budgeted(&k(1), &budget));
            }
            true
        });
        assert_eq!(visited, 64);
        assert_eq!(lost, Some(Err(oak_core::OakError::DeadlineExceeded)));

        // Unbudgeted, aimed past the delivery point.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map.for_each_in(None, None, |kb, _| {
                if kb == k(0) {
                    map.remove(&k(1));
                }
                true
            })
        }));
        let message = match outcome {
            Ok(visited) => format!("returned {visited}"),
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "a panic without a message".into()),
        };
        // The unwound scan let go of every lease: the map is usable.
        let usable = map.remove(&k(1)) && map.put(&k(2), b"w").is_ok();
        tx.send((message, usable)).unwrap();
    });
    let (message, usable) = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("a write from a stream-scan callback hung the scan");
    assert!(
        message.contains("stream-scan callback") && message.contains("read leases"),
        "outcome does not name the cause: {message}"
    );
    assert!(usable, "leases survived the unwound scan");
}
