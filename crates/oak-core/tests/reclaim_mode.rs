//! OakMap under the header-reclaiming memory manager (the §3.3 extension):
//! full functionality plus the bounded-header-slab property, under
//! sequential and concurrent delete/re-insert churn.

use std::collections::BTreeMap;
use std::sync::Arc;

use oak_core::{OakMap, OakMapConfig};
use oak_mempool::ReclamationPolicy;

fn reclaiming_map() -> OakMap {
    OakMap::with_config(OakMapConfig::small().reclamation(ReclamationPolicy::ReclaimHeaders))
}

fn k(i: u64) -> Vec<u8> {
    format!("key{i:06}").into_bytes()
}

#[test]
fn functional_parity_with_model() {
    let m = reclaiming_map();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut state = 0xC0FFEEu64;
    for i in 0..5_000u64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let key = k(state % 300);
        match state % 4 {
            0 | 1 => {
                let v = i.to_le_bytes().to_vec();
                m.put(&key, &v).unwrap();
                model.insert(key, v);
            }
            2 => {
                assert_eq!(m.remove(&key), model.remove(&key).is_some());
            }
            _ => {
                assert_eq!(m.get_copy(&key), model.get(&key).cloned());
            }
        }
    }
    let mut got = Vec::new();
    m.for_each_in(None, None, |kb, v| {
        got.push((kb.to_vec(), v.to_vec()));
        true
    });
    let want: Vec<_> = model.into_iter().collect();
    assert_eq!(got, want);
    m.validate();
}

/// Puts and removes 8 keys 20 000 times on `m`.
fn put_remove_churn(m: &OakMap) {
    for i in 0..20_000u64 {
        m.put(&k(i % 8), &i.to_le_bytes()).unwrap();
        m.remove(&k(i % 8));
    }
}

#[test]
fn header_slab_bounded_under_put_remove_churn() {
    let m = reclaiming_map();
    put_remove_churn(&m);
    let stats = m.stats();
    // The retaining policy would have leaked 20_000 × 16 B = 320 KB of
    // headers; the reclaiming manager keeps the slab to a few slots.
    assert!(
        stats.pool.header_bytes < 2_048,
        "header slab grew to {} bytes",
        stats.pool.header_bytes
    );
    assert_eq!(m.len(), 0);
}

/// The same churn on an unmodified `OakMapConfig::small()`: recycling
/// headers is the default, so the slab stays bounded without opting in.
#[test]
fn default_config_bounds_the_header_slab() {
    let m = OakMap::with_config(OakMapConfig::small());
    put_remove_churn(&m);
    let stats = m.stats();
    assert!(
        stats.pool.header_bytes < 2_048,
        "header slab grew to {} bytes",
        stats.pool.header_bytes
    );
    assert_eq!(m.len(), 0);
}

#[test]
fn retaining_policy_leaks_headers_for_contrast() {
    let m =
        OakMap::with_config(OakMapConfig::small().reclamation(ReclamationPolicy::RetainHeaders));
    for i in 0..2_000u64 {
        m.put(&k(0), &i.to_le_bytes()).unwrap();
        m.remove(&k(0));
    }
    assert!(m.stats().pool.header_bytes >= 2_000 * 16);
}

#[test]
fn stale_buffer_views_fail_cleanly_after_recycling() {
    let m = reclaiming_map();
    m.put(&k(1), b"victim").unwrap();
    let view = m.get(&k(1)).unwrap();
    assert_eq!(view.to_vec().unwrap(), b"victim");
    m.remove(&k(1));
    // Force slot reuse by a different key.
    m.put(&k(2), b"squatter").unwrap();
    assert!(
        view.to_vec().is_err(),
        "stale view must not read the squatter"
    );
    assert!(view.is_deleted());
    assert_eq!(m.get_copy(&k(2)).unwrap(), b"squatter");
}

#[test]
fn concurrent_delete_reinsert_churn() {
    let m = Arc::new(reclaiming_map());
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let m = m.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..5_000u64 {
                let key = k((t + i) % 16);
                match i % 3 {
                    0 => {
                        m.put_if_absent(&key, &i.to_le_bytes()).unwrap();
                    }
                    1 => {
                        if let Some(v) = m.get_with(&key, |b| b.to_vec()) {
                            assert_eq!(v.len(), 8, "torn read");
                        }
                    }
                    _ => {
                        m.remove(&key);
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut n = 0;
    m.for_each_in(None, None, |_, _| {
        n += 1;
        true
    });
    assert_eq!(n, m.len());
    // Slab bounded despite ~13K removes.
    assert!(m.stats().pool.header_bytes < 64 * 16 * 4);
}
