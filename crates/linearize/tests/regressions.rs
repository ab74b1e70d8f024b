//! Deterministic regression schedules for the scan/rebalance races fixed
//! in oak-core, replayed through the `oak_failpoints` sync-point engine.
//!
//! Each test pins an exact thread interleaving with a `SyncSchedule`:
//! the scanner parks at an iterator decision site mid-scan, the writer
//! drives a rebalance (split or head-merge) under it, and the scanner
//! resumes on a now-frozen chunk. Before the fixes, a scanner kept
//! walking the frozen snapshot: it missed keys removed-then-reinserted
//! around the pause (stale values held forever) and never re-entered the
//! live chunk list. The fixed iterators detect `replacement()` and
//! re-resolve from the last-yielded key — the schedules below *require*
//! the `iter/stale-reenter` site to fire (`session.completed()`), so
//! they fail loudly on any regression to the old behaviour.
//!
//! Chunk math making the rebalances deterministic: `chunk_capacity(8)`
//! with a sky-high `rebalance_unsorted_ratio` means a rebalance fires
//! exactly when an insert fills the 8th entry slot, and only then.

use std::sync::atomic::AtomicU64;

use oak_core::{KeyComparator, OakMap, OakMapConfig, OrderedKvMap};
use oak_failpoints::{sync_point, sync_role, sync_scenario, SyncSchedule};
use oak_linearize::{check_history, History, Recorder, Ret};

fn key(i: usize) -> Vec<u8> {
    format!("k{i:02}").into_bytes()
}

/// Capacity-8 chunks; rebalance only on chunk-full. The per-entry walker
/// is pinned on (`batch_scan(false)`): these schedules gate on its
/// fine-grained `iter/ascend-step` / `iter/descend-step` /
/// `iter/stale-reenter` sites, which the batch pipeline replaces with
/// per-batch sites (see [`batch_refill_revalidates_after_split`] for the
/// batch-granularity equivalent).
fn config() -> OakMapConfig {
    let mut cfg = OakMapConfig::small().chunk_capacity(8).batch_scan(false);
    cfg.rebalance_unsorted_ratio = 10.0;
    cfg
}

// The collect closures announce each delivered pair through a
// `test/yielded` gate. Schedules alternate `iter/*-step` (the cursor's
// loop-top decision site, popped *before* the staleness check) with
// `test/yielded` (popped after the pair reached the caller), so the
// writer is released only once the last pre-pause yield has fully
// completed — by which point the scanner's next stop is parked at the
// loop top, *ahead* of its staleness check. Without the yielded gates
// the step pop itself releases the writer, and whether the scanner's
// in-flight loop body sees the chunk frozen is a coin flip.

fn collect_descend(map: &OakMap) -> Vec<(Vec<u8>, Vec<u8>)> {
    let _role = sync_role("scan");
    let mut out = Vec::new();
    map.descend(None, None, &mut |k: &[u8], v: &[u8]| {
        out.push((k.to_vec(), v.to_vec()));
        sync_point!("test/yielded");
        true
    });
    out
}

fn collect_ascend(map: &OakMap, entries: bool) -> Vec<(Vec<u8>, Vec<u8>)> {
    let _role = sync_role("scan");
    let mut out = Vec::new();
    let mut f = |k: &[u8], v: &[u8]| {
        out.push((k.to_vec(), v.to_vec()));
        sync_point!("test/yielded");
        true
    };
    if entries {
        map.ascend_entries(None, None, &mut f);
    } else {
        map.ascend(None, None, &mut f);
    }
    out
}

/// R1 — descending scan across a remove + split + reinsert.
///
/// The scanner yields k5, k4 and parks. The writer removes k2, inserts
/// k6 and k7 (the 8th entry triggers a split; the original chunk is
/// frozen with a replacement), then re-inserts k2 with a new value into
/// the live chunk. A scanner stuck on the frozen snapshot would skip k2
/// entirely (its value header is deleted there); the fixed iterator
/// re-enters at the live chunk below k4 and reports k2's fresh value.
#[test]
fn descend_reenters_live_chunk_after_split() {
    let map = OakMap::with_config(config());
    for i in 0..6 {
        map.put(&key(i), b"old").unwrap();
    }

    let schedule = SyncSchedule::parse(
        "scan@iter/descend-step    # decision for k5
         scan@test/yielded         # k5 delivered
         scan@iter/descend-step    # decision for k4
         scan@test/yielded         # k4 delivered -> releases the writer
         mut@test/go               # writer: remove k2, fill chunk, re-put k2
         mut@test/done
         scan@iter/descend-step    # scanner parked here during the rebalance
         scan@iter/stale-reenter   # ... and must detect the replacement",
    )
    .unwrap();
    let session = sync_scenario(schedule);

    let collected = std::thread::scope(|s| {
        let scanner = s.spawn(|| collect_descend(&map));

        let _role = sync_role("mut");
        sync_point!("test/go");
        map.remove(&key(2));
        map.put(&key(6), b"old").unwrap(); // 7th entry
        map.put(&key(7), b"old").unwrap(); // 8th entry -> split
        map.put(&key(2), b"new").unwrap(); // lands in a live chunk
        sync_point!("test/done");

        scanner.join().unwrap()
    });

    assert!(
        session.completed(),
        "schedule abandoned — the scanner never took the stale re-entry \
         path; remaining steps: {:?}",
        session.remaining()
    );
    let expect: Vec<(Vec<u8>, Vec<u8>)> = [5, 4, 3, 2, 1, 0]
        .iter()
        .map(|&i| {
            let v = if i == 2 {
                b"new".to_vec()
            } else {
                b"old".to_vec()
            };
            (key(i), v)
        })
        .collect();
    assert_eq!(
        collected, expect,
        "descending scan missed the reinserted key"
    );
}

/// R2 — head merge under a paused ascending scan, plus the
/// `replace_first` verify-and-swing post-conditions.
///
/// Eight inserts split the list into [k0..k3] and [k4..k7]. The scanner
/// yields k0 and parks; the writer removes k0..k3, emptying the head
/// chunk and triggering a merge that swings the list head through
/// `Index::replace_first` (the verify-and-swing fixed in oak-core — the
/// old unchecked swing could clobber a concurrently-installed head).
/// The resumed scanner must re-enter at the merged live head.
#[test]
fn head_merge_under_paused_scan() {
    let map = OakMap::with_config(config());
    for i in 0..8 {
        map.put(&key(i), b"old").unwrap(); // 8th insert -> split
    }

    let schedule = SyncSchedule::parse(
        "scan@iter/ascend-step     # decision for k0
         scan@test/yielded         # k0 delivered -> releases the writer
         mut@test/go               # writer: remove k0..k3 -> head merge
         mut@test/done
         scan@iter/ascend-step     # scanner parked here during the merge
         scan@iter/stale-reenter",
    )
    .unwrap();
    let session = sync_scenario(schedule);

    let collected = std::thread::scope(|s| {
        let scanner = s.spawn(|| collect_ascend(&map, false));

        let _role = sync_role("mut");
        sync_point!("test/go");
        for i in 0..4 {
            assert!(map.remove(&key(i)));
        }
        sync_point!("test/done");

        scanner.join().unwrap()
    });

    assert!(
        session.completed(),
        "schedule abandoned; remaining steps: {:?}",
        session.remaining()
    );
    // k0 was yielded before its removal (legal §1.1); the rest must come
    // from the merged live head.
    let expect: Vec<(Vec<u8>, Vec<u8>)> = [0, 4, 5, 6, 7]
        .iter()
        .map(|&i| (key(i), b"old".to_vec()))
        .collect();
    assert_eq!(collected, expect);

    // Post-merge map state: the head swing lost nothing.
    assert_eq!(map.len(), 4);
    for i in 0..4 {
        assert_eq!(map.get_copy(&key(i)), None);
    }
    for i in 4..8 {
        assert_eq!(map.get_copy(&key(i)).as_deref(), Some(&b"old"[..]));
    }
    let after: Vec<Vec<u8>> = {
        let mut ks = Vec::new();
        map.ascend(None, None, &mut |k: &[u8], _: &[u8]| {
            ks.push(k.to_vec());
            true
        });
        ks
    };
    assert_eq!(after, (4..8).map(key).collect::<Vec<_>>());
}

/// R4 — the resurrected-chunk splice race, found by the seeded corpus
/// (it fired the "splice could not find engaged chunk" backstop).
///
/// A rebalancer captures its tail pointer *before* building replacement
/// chunks. If a concurrent rebalance splices that tail chunk out of the
/// list in the window before the first rebalancer's own splice, the
/// first splice re-links the replaced tail into the next-chain. Reads
/// still converge through replacement pointers, but the tail's live
/// replacement is no longer the successor of anything — so a later
/// rebalance of *it* can never find a predecessor and its splice walk
/// spun forever. The fixed walk heals the chain: on meeting a replaced
/// successor it physically swings `next` to the resolved live chunk.
///
/// Roles: r1 merge-rebalances the emptied head (parked at its splice
/// with the stale tail captured), r2 splits the tail chunk out from
/// under it, r3 then merge-rebalances the detached live replacement.
#[test]
fn splice_heals_resurrected_tail_chunk() {
    let map = OakMap::with_config(config());
    for i in 0..12 {
        map.put(&key(i), b"old").unwrap();
    }
    // Chain now: [k00..k03] -> [k04..k07] -> [k08..k11].

    let schedule = SyncSchedule::parse(
        "r1@rebalance/start        # merge-rebalance of the emptied head begins
         r2@test/go2               # ... r1 is parked at splice, tail captured
         r2@test/done2             # r2 split the tail chunk out of the chain
         r1@rebalance/splice       # r1 splices, resurrecting the replaced tail
         r1@test/done1
         r3@test/go3               # r3's merge must find the detached live chunk
         r3@test/done3",
    )
    .unwrap();
    let session = sync_scenario(schedule);

    std::thread::scope(|s| {
        s.spawn(|| {
            let _role = sync_role("r1");
            // Emptying [k00..k03] triggers a rebalance that merges in
            // [k04..k07] and captures tail = the [k08..k11] chunk.
            for i in [3, 2, 1, 0] {
                assert!(map.remove(&key(i)));
            }
            sync_point!("test/done1");
        });
        s.spawn(|| {
            let _role = sync_role("r2");
            sync_point!("test/go2");
            // Fill [k08..k11] to capacity: it splits, and its predecessor's
            // next pointer is swung past it — invalidating r1's tail.
            for i in 12..16 {
                map.put(&key(i), b"new").unwrap();
            }
            sync_point!("test/done2");
        });
        s.spawn(|| {
            let _role = sync_role("r3");
            sync_point!("test/go3");
            // Emptying the live [k08..k11] replacement triggers the merge
            // whose splice walk needs a predecessor that, before the fix,
            // no longer existed in the next-chain.
            for i in 8..12 {
                assert!(map.remove(&key(i)));
            }
            sync_point!("test/done3");
        });
    });

    assert!(
        session.completed(),
        "schedule abandoned; remaining steps: {:?}",
        session.remaining()
    );
    assert_eq!(map.len(), 8);
    let expect: Vec<(Vec<u8>, Vec<u8>)> = (4..16)
        .filter(|i| !(8..12).contains(i))
        .map(|i| {
            let v = if i >= 12 {
                b"new".to_vec()
            } else {
                b"old".to_vec()
            };
            (key(i), v)
        })
        .collect();
    let mut seen = Vec::new();
    map.ascend(None, None, &mut |k: &[u8], v: &[u8]| {
        seen.push((k.to_vec(), v.to_vec()));
        true
    });
    assert_eq!(seen, expect, "post-race map contents diverged");
}

/// R5 — batch-mode scan crossing a chunk that rebalances mid-scan: the
/// batch-granularity counterpart of R3.
///
/// With `batch_scan` on (the default) the cursor snapshots k0..k5 into
/// its first batch at construction, drains all six entries, and parks at
/// the once-per-batch `iter/batch-refill` revalidation site. The writer
/// then removes k4, splits the chunk (inserts k6, k7), re-inserts k4,
/// and appends k8 — so the chunk under the drained snapshot is frozen,
/// replaced, and its revision stamp advanced. The resumed refill must
/// detect staleness (replacement pointer + revision mismatch), re-locate
/// through the index bounded by the last drained key (k5), and deliver
/// the post-split tail exactly once: k6, k7 from the replacement chunk
/// and the newly appended k8. The already-yielded k0..k5 must not
/// repeat, and the revalidation must be visible in the pool counters.
#[test]
fn batch_refill_revalidates_after_split() {
    for entries in [false, true] {
        let mut cfg = OakMapConfig::small().chunk_capacity(8);
        cfg.rebalance_unsorted_ratio = 10.0;
        assert!(cfg.batch_scan, "batch mode is the default under test");
        let map = OakMap::with_config(cfg);
        for i in 0..6 {
            map.put(&key(i), b"old").unwrap();
        }

        let schedule = SyncSchedule::parse(
            "scan@iter/batch-step      # drain k0 from the snapshot
             scan@test/yielded
             scan@iter/batch-step      # k1
             scan@test/yielded
             scan@iter/batch-step      # k2
             scan@test/yielded
             scan@iter/batch-step      # k3
             scan@test/yielded
             scan@iter/batch-step      # k4
             scan@test/yielded
             scan@iter/batch-step      # k5
             scan@test/yielded         # batch drained -> releases the writer
             mut@test/go               # writer: remove k4, split, re-put k4, put k8
             mut@test/done
             scan@iter/batch-refill    # the once-per-batch revalidation fires",
        )
        .unwrap();
        let session = sync_scenario(schedule);

        let collected = std::thread::scope(|s| {
            let scanner = s.spawn(|| collect_ascend(&map, entries));

            let _role = sync_role("mut");
            sync_point!("test/go");
            map.remove(&key(4));
            map.put(&key(6), b"old").unwrap(); // 7th entry
            map.put(&key(7), b"old").unwrap(); // 8th entry -> split
            map.put(&key(4), b"new").unwrap(); // behind the resume key
            map.put(&key(8), b"new").unwrap(); // ahead of the resume key
            sync_point!("test/done");

            scanner.join().unwrap()
        });

        assert!(
            session.completed(),
            "entries={entries}: schedule abandoned — the batch refill \
             never fired; remaining steps: {:?}",
            session.remaining()
        );
        // k0..k5 from the pre-split snapshot (k4 yielded before its
        // remove — legal §1.1), then the post-split tail. The re-put k4
        // sits behind the k5 resume bound: delivering it again would be
        // a duplicate, not freshness.
        let mut expect: Vec<(Vec<u8>, Vec<u8>)> =
            (0..8).map(|i| (key(i), b"old".to_vec())).collect();
        expect.push((key(8), b"new".to_vec()));
        assert_eq!(
            collected, expect,
            "entries={entries}: batch scan lost or repeated keys across \
             the mid-scan rebalance"
        );
        let pool = map.stats().pool;
        assert!(
            pool.scan_revalidations >= 1,
            "entries={entries}: the stale refill was not counted"
        );
        assert!(
            pool.scan_chunk_batches >= 2,
            "entries={entries}: expected at least the construction \
             snapshot plus the revalidated one"
        );
    }
}

/// R6 — readers `locate` through the frozen head while the swing
/// (`ChunkIndex::replace_first`) is parked mid-splice.
///
/// Eight inserts split the list into [k0..k3] and [k4..k7]. The mutator
/// removes k0..k3; the resulting head merge freezes both chunks, builds
/// the merged replacement, and is then *parked at the entry of
/// `replace_first`* — inside `splice`, before the first-pointer swing
/// and before `set_replacement` makes the merged chunk reachable. In
/// that window the index's first pointer still names the frozen old
/// head, so every `locate` lands on a frozen chunk mid-rebalance.
/// Before the verify-and-swing fix in `replace_first`, a mismatched
/// swing here could silently detach the live chain out from under such
/// readers. The reader must see the post-remove state (k0..k3 gone,
/// k4..k7 live) both inside the frozen-head window and after the swing
/// completes.
#[test]
fn locate_resolves_through_stale_head_during_parked_swing() {
    let map = OakMap::with_config(config());
    for i in 0..8 {
        map.put(&key(i), b"old").unwrap(); // 8th insert -> split
    }

    let schedule = SyncSchedule::parse(
        "mut@test/go                # mutator: remove k0..k3 -> head merge
         mut@rebalance/start
         mut@rebalance/splice       # merged chunk built; splice imminent
         rdr@test/begin             # reader probes the frozen-head window
         rdr@test/probed
         mut@index/replace-first    # only now may the swing proceed
         mut@test/done
         rdr@test/final",
    )
    .unwrap();
    let session = sync_scenario(schedule);

    let probe = |map: &OakMap| -> (Vec<Option<Vec<u8>>>, Vec<Vec<u8>>) {
        let gets: Vec<Option<Vec<u8>>> = (0..8).map(|i| map.get_copy(&key(i))).collect();
        let mut keys = Vec::new();
        map.ascend(None, None, &mut |k: &[u8], _: &[u8]| {
            keys.push(k.to_vec());
            true
        });
        (gets, keys)
    };

    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let _role = sync_role("rdr");
            sync_point!("test/begin");
            // The swing is gated behind test/probed: every lookup here
            // lands on the frozen pre-merge chunks via the old first
            // pointer.
            let (gets, keys) = probe(&map);
            sync_point!("test/probed");
            // And once more after the swing has landed.
            sync_point!("test/final");
            let after = probe(&map);
            ((gets, keys), after)
        });

        let _role = sync_role("mut");
        sync_point!("test/go");
        for i in 0..4 {
            assert!(map.remove(&key(i))); // 4th remove -> head merge
        }
        sync_point!("test/done");

        let ((mid_gets, mid_keys), (after_gets, after_keys)) = reader.join().unwrap();
        let expect_gets: Vec<Option<Vec<u8>>> =
            (0..8).map(|i| (i >= 4).then(|| b"old".to_vec())).collect();
        let expect_keys: Vec<Vec<u8>> = (4..8).map(key).collect();
        assert_eq!(
            (mid_gets, mid_keys),
            (expect_gets.clone(), expect_keys.clone()),
            "reads through the stale first pointer diverged"
        );
        assert_eq!(
            (after_gets, after_keys),
            (expect_gets, expect_keys),
            "reads after the completed swing diverged"
        );
    });

    assert!(
        session.completed(),
        "schedule abandoned — the head merge never reached replace_first; \
         remaining steps: {:?}",
        session.remaining()
    );
    assert_eq!(map.len(), 4);
    map.validate();
}

/// R3 — ascending freshness across a remove + split + reinsert, on both
/// ascending APIs (the stream scan and the Set-entries scan now share
/// one cursor; the same schedule must drive both identically).
#[test]
fn ascend_reenters_live_chunk_after_split() {
    for entries in [false, true] {
        let map = OakMap::with_config(config());
        for i in 0..6 {
            map.put(&key(i), b"old").unwrap();
        }

        let schedule = SyncSchedule::parse(
            "scan@iter/ascend-step     # decision for k0
             scan@test/yielded         # k0 delivered
             scan@iter/ascend-step     # decision for k1
             scan@test/yielded         # k1 delivered -> releases the writer
             mut@test/go               # writer: remove k4, fill chunk, re-put k4
             mut@test/done
             scan@iter/ascend-step     # scanner parked here during the split
             scan@iter/stale-reenter   # then must re-enter live",
        )
        .unwrap();
        let session = sync_scenario(schedule);

        let collected = std::thread::scope(|s| {
            let scanner = s.spawn(|| collect_ascend(&map, entries));

            let _role = sync_role("mut");
            sync_point!("test/go");
            map.remove(&key(4));
            map.put(&key(6), b"old").unwrap(); // 7th entry
            map.put(&key(7), b"old").unwrap(); // 8th entry -> split
            map.put(&key(4), b"new").unwrap(); // lands in a live chunk
            sync_point!("test/done");

            scanner.join().unwrap()
        });

        assert!(
            session.completed(),
            "entries={entries}: schedule abandoned; remaining: {:?}",
            session.remaining()
        );
        let expect: Vec<(Vec<u8>, Vec<u8>)> = (0..8)
            .map(|i| {
                let v = if i == 4 {
                    b"new".to_vec()
                } else {
                    b"old".to_vec()
                };
                (key(i), v)
            })
            .collect();
        assert_eq!(
            collected, expect,
            "entries={entries}: ascending scan missed the reinserted key"
        );
    }
}

// --- R7 / R8: a reader on a *borrowed* chunk across full reclamation ------
//
// A point operation no longer owns the chunk it located: it borrows it
// under an `oak_sync::epoch` guard, and its quarantine pin borrows the
// quarantine. These two schedules are the use-after-free regressions for
// that: a reader locates a chunk, and before it has looked anything up in
// it a second thread makes that chunk garbage — splits it, so the index
// entry's box is replaced and the predecessor's `next` is swung past it —
// and then drives both collectors as hard as it can. The only things
// still holding the old chunk, the boxes that pointed at it and the key
// slice of an entry that died in it are the reader's guard and pin.
//
// The reader's two stops: `ops/located` (it has its chunk; passing it is
// what releases the mutator) and the comparator below, which parks it
// *inside* the in-chunk lookup, on the comparison against the dead key,
// until the mutator is done. Whatever the reader got done in between, it
// located before the split began and finishes its lookup — reading the
// old chunk's entries and the dead key's bytes — after reclamation ran.

/// Bytewise order that announces every comparison of the entry key `k06`.
/// No prefixes, so every in-chunk comparison is a full one.
#[derive(Clone)]
struct ParkOnK06;

impl KeyComparator for ParkOnK06 {
    fn compare(&self, a: &[u8], b: &[u8]) -> std::cmp::Ordering {
        if a == b"k06" {
            sync_point!("test/in-lookup");
        }
        a.cmp(b)
    }
}

fn fill(i: usize) -> Vec<u8> {
    format!("k04{}", (b'a' + i as u8) as char).into_bytes()
}

/// Chain [k00..k03] -> [k04..k07] under [`ParkOnK06`], recorded.
fn two_chunks(setup: &mut Recorder<'_>) {
    for i in 0..8 {
        setup.put(&key(i), b"old"); // 8th insert -> split
    }
}

/// What the mutator does once the reader holds its chunk: kill `k06` in
/// it, split it with four inserts from `fills`, replace `k07`'s value in
/// the live chunk, then try to reclaim everything. Both collectors must
/// come up empty-handed: the reader is still there.
fn retire_the_readers_chunk(
    map: &OakMap<ParkOnK06>,
    rec: &mut Recorder<'_>,
    fills: std::ops::Range<usize>,
) {
    rec.remove(&key(6)); // its key slice dies with the chunk
    for i in fills {
        rec.put(&fill(i), b"new"); // 4th fill -> split, dead key retired
    }
    rec.remove(&key(7));
    rec.put(&key(7), b"new"); // a fresh header, in the live chunk only
    for _ in 0..64 {
        // Every 128th pin of a thread advances the epoch if it can and
        // destroys what this thread (the splitter) retired.
        for _ in 0..128 {
            drop(oak_sync::epoch::pin());
        }
        map.drain_quarantine();
    }
    assert!(
        map.stats().quarantine_pending_bytes > 0,
        "the dead key was reclaimed under the reader's pin"
    );
}

/// The reader's side and the verdict, shared by R7 and R8.
fn check_reader_on_retired_chunk(
    map: &OakMap<ParkOnK06>,
    logs: Vec<Vec<oak_linearize::OpRecord>>,
    session: &oak_failpoints::SyncSession,
) {
    assert!(
        session.completed(),
        "schedule abandoned; remaining steps: {:?}",
        session.remaining()
    );
    let history = History::merge(logs);
    // The old chunk's entry for k07 still names the removed header: `None`
    // is what a lookup in the *retired* chunk returns (the live one says
    // "new"), and it is linearizable — k07 was absent between the remove
    // and the put, both concurrent with the get.
    let got = history.ops.iter().find(|o| o.thread == 2).expect("the get");
    assert_eq!(got.ret, Ret::Val(None), "the reader did not use its borrow");
    check_history(&history).expect("history accepted");
    // With the reader gone everything drains.
    for _ in 0..1_000 {
        if map.stats().quarantine_pending_bytes == 0 {
            break;
        }
        map.drain_quarantine();
    }
    assert_eq!(map.stats().quarantine_pending_bytes, 0);
    map.validate();
}

/// R7 — the chunk was reached through its index entry.
#[test]
fn reader_on_borrowed_chunk_survives_split_and_reclamation() {
    let map = OakMap::with_comparator(config(), ParkOnK06);
    let clock = AtomicU64::new(0);
    let mut setup = Recorder::new(&map, &clock, 0);
    two_chunks(&mut setup);

    let schedule = SyncSchedule::parse(
        "rdr@ops/located           # the reader borrows [k04..k07] from the index
         mut@test/go               # split it, swing past it, reclaim
         mut@test/done
         rdr@test/in-lookup        # parked on the dead k06 meanwhile",
    )
    .unwrap();
    let session = sync_scenario(schedule);

    let (mutated, read) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let _role = sync_role("rdr");
            let mut rec = Recorder::new(&map, &clock, 2);
            rec.get(&key(7));
            rec.finish()
        });
        let _role = sync_role("mut");
        let mut rec = Recorder::new(&map, &clock, 1);
        sync_point!("test/go");
        retire_the_readers_chunk(&map, &mut rec, 0..4);
        sync_point!("test/done");
        (rec.finish(), reader.join().unwrap())
    });
    check_reader_on_retired_chunk(&map, vec![setup.finish(), mutated, read], &session);
}

/// R8 — the twin: the chunk was reached by a `next` hop, and it is that
/// link that is swung.
///
/// A first split of [k04..k07] is parked between its two index
/// publications: [k04, k04a..c] is indexed, its successor [k04d, k05..k07]
/// is linked but not. The reader's `locate(k07)` therefore floors to the
/// first half and hops `next` to the second, which the mutator then
/// splits in turn — swinging the very link the reader came through.
#[test]
fn reader_past_a_next_hop_survives_the_swing_of_that_link() {
    let map = OakMap::with_comparator(config(), ParkOnK06);
    let clock = AtomicU64::new(0);
    let mut setup = Recorder::new(&map, &clock, 0);
    two_chunks(&mut setup);

    let schedule = SyncSchedule::parse(
        "mut@test/go               # fill [k04..k07]: it splits
         mut@index/publish         # first half about to be indexed
         rdr@test/begin
         rdr@ops/located           # reached the unindexed second half by `next`
         mut@index/publish         # only now is the second half indexed
         mut@test/done             # ... split in turn, and reclaimed
         rdr@test/in-lookup",
    )
    .unwrap();
    let session = sync_scenario(schedule);

    let (mutated, read) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let _role = sync_role("rdr");
            let mut rec = Recorder::new(&map, &clock, 2);
            sync_point!("test/begin");
            rec.get(&key(7));
            rec.finish()
        });
        let _role = sync_role("mut");
        let mut rec = Recorder::new(&map, &clock, 1);
        sync_point!("test/go");
        for i in 0..4 {
            rec.put(&fill(i), b"new"); // 4th fill -> the parked split
        }
        retire_the_readers_chunk(&map, &mut rec, 4..8);
        sync_point!("test/done");
        (rec.finish(), reader.join().unwrap())
    });
    check_reader_on_retired_chunk(&map, vec![setup.finish(), mutated, read], &session);
}
