//! Failure injection: Oak under memory pressure and hostile inputs.
//!
//! Allocation failures must surface as errors, never corrupt the map, and
//! the map must remain fully usable afterwards (including after frees make
//! room again).

use std::sync::Arc;

use oak_core::{OakError, OakMap, OakMapConfig};
use oak_mempool::{AllocError, PoolConfig};

fn cramped() -> OakMap {
    OakMap::with_config(OakMapConfig {
        chunk_capacity: 32,
        rebalance_unsorted_ratio: 0.5,
        merge_ratio: 0.125,
        pool: PoolConfig {
            magazines: false,
            lockfree: false,
            arena_size: 64 << 10, // 64 KB
            max_arenas: 2,        // 128 KB total,
            ..Default::default()
        },
        shared_arenas: None,
        reclamation: oak_mempool::ReclamationPolicy::RetainHeaders,
        ..OakMapConfig::default()
    })
}

fn k(i: u64) -> Vec<u8> {
    format!("key{i:05}").into_bytes()
}

#[test]
fn pool_exhaustion_is_an_error_not_corruption() {
    let m = cramped();
    let mut inserted = Vec::new();
    let mut hit_oom = false;
    for i in 0..2_000u64 {
        match m.put(&k(i), &[7u8; 256]) {
            Ok(()) => inserted.push(i),
            // Exhaustion surfaces as `OutOfMemory` once the emergency
            // reclamation budget is spent (raw `PoolExhausted` only if
            // recovery was impossible to attempt).
            Err(OakError::OutOfMemory | OakError::Alloc(AllocError::PoolExhausted)) => {
                hit_oom = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(hit_oom, "128 KB cannot hold 2000 × 256 B values");
    assert!(!inserted.is_empty());
    // Everything inserted before the failure is intact and ordered.
    assert_eq!(m.len(), inserted.len());
    for &i in &inserted {
        assert_eq!(m.get_with(&k(i), |v| v.len()), Some(256), "key {i}");
    }
    m.validate();
}

#[test]
fn map_recovers_after_frees_make_room() {
    let m = cramped();
    let mut inserted = Vec::new();
    loop {
        let i = inserted.len() as u64;
        match m.put(&k(i), &[1u8; 256]) {
            Ok(()) => inserted.push(i),
            Err(OakError::OutOfMemory | OakError::Alloc(_)) => break,
            Err(e) => panic!("{e}"),
        }
    }
    // Free half the values (removes reclaim payloads immediately).
    for &i in inserted.iter().step_by(2) {
        assert!(m.remove(&k(i)));
    }
    // Fresh inserts must succeed again in the reclaimed space.
    let mut recovered = 0;
    for j in 0..inserted.len() / 4 {
        let key = format!("new{j:05}");
        match m.put(key.as_bytes(), &[2u8; 200]) {
            Ok(()) => recovered += 1,
            Err(OakError::OutOfMemory | OakError::Alloc(_)) => break,
            Err(e) => panic!("{e}"),
        }
    }
    assert!(recovered > 0, "no space reclaimed after removes");
    m.validate();
}

#[test]
fn oversized_value_rejected_cleanly() {
    let m = cramped();
    m.put(&k(1), b"small").unwrap();
    // Larger than the arena: must fail with TooLarge, leaving the old
    // value intact.
    let huge = vec![0u8; 512 << 10];
    assert!(matches!(
        m.put(&k(1), &huge),
        Err(OakError::Alloc(AllocError::TooLarge { .. }))
    ));
    assert_eq!(m.get_copy(&k(1)).unwrap(), b"small");
    // Same via compute-resize: the closure sees the resize fail and keeps
    // the value usable.
    let resized_ok = m.compute_if_present(&k(1), |buf| {
        assert!(buf.resize(512 << 10).is_err());
    });
    assert!(resized_ok);
    assert_eq!(m.get_copy(&k(1)).unwrap(), b"small");
}

#[test]
fn upsert_alloc_failure_does_not_install_partial_state() {
    let m = cramped();
    // Fill the pool almost completely.
    let mut i = 0u64;
    while m.put(&k(i), &[3u8; 512]).is_ok() {
        i += 1;
    }
    let len_before = m.len();
    // An upsert of a new key that cannot allocate must fail without
    // creating a phantom mapping.
    let r = m.put_if_absent_compute_if_present(b"zz-newkey", &[4u8; 4096], |_| {});
    assert!(matches!(r, Err(OakError::OutOfMemory | OakError::Alloc(_))));
    assert!(m.get(b"zz-newkey").is_none());
    assert_eq!(m.len(), len_before);
    m.validate();
}

#[test]
fn concurrent_writers_share_exhaustion_gracefully() {
    let m = Arc::new(cramped());
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let m = m.clone();
        handles.push(std::thread::spawn(move || {
            let mut ok = 0u32;
            for i in 0..500u64 {
                match m.put(&k(t * 1_000 + i), &[5u8; 128]) {
                    Ok(()) => ok += 1,
                    Err(OakError::OutOfMemory | OakError::Alloc(_)) => {}
                    Err(e) => panic!("{e}"),
                }
            }
            ok
        }));
    }
    let total: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0);
    assert_eq!(m.len() as u32, total);
    // Map remains consistent and scannable.
    let mut prev: Option<Vec<u8>> = None;
    let mut n = 0;
    m.for_each_in(None, None, |kb, _| {
        if let Some(p) = &prev {
            assert!(p.as_slice() < kb);
        }
        prev = Some(kb.to_vec());
        n += 1;
        true
    });
    assert_eq!(n as u32, total);
}

#[test]
fn rebalance_survives_pool_pressure() {
    // Rebalance copies references only (no data allocation), so it must
    // succeed even when the pool is completely full.
    let m = cramped();
    let mut i = 0u64;
    while m.put(&k(i * 2), &[6u8; 128]).is_ok() {
        i += 1;
    }
    let before = m.stats();
    // Removing and re-adding within freed space forces rebalances while
    // the pool hovers at the brink.
    for j in 0..i / 2 {
        m.remove(&k(j * 4));
    }
    for j in 0..i / 4 {
        let _ = m.put(&k(j * 4 + 1), &[8u8; 64]);
    }
    let after = m.stats();
    assert!(after.rebalances >= before.rebalances);
    m.validate();
}
