//! Property-based state machine for the value-header lock protocol (§3.3).
//!
//! Drives arbitrary single-threaded op sequences through [`ValueStore`]
//! against a sequential model, under **both** reclamation policies, and
//! checks after every step that the header's [`LockState`] is quiescent and
//! consistent with the model:
//!
//! * no op leaks a lock — readers and the writer bit always return to zero;
//! * the deleted bit tracks the model exactly (including through recycled
//!   slots, where stale references must fail the generation check);
//! * `remove` is idempotent — exactly one caller succeeds;
//! * reads after delete fail cleanly, never returning stale bytes;
//! * resize (move) keeps contents equal to the model byte-for-byte.
//!
//! Each policy runs 64 seeded cases ([`for_each_case`]); a failing case
//! prints its seed.

use std::sync::Arc;

use oak_failpoints::{for_each_case, SplitMix64};
use oak_mempool::{AccessError, HeaderRef, MemoryPool, PoolConfig, ReclamationPolicy, ValueStore};

#[derive(Debug, Clone)]
enum Op {
    /// Allocate a fresh value; the handle joins the tracked set.
    Alloc(Vec<u8>),
    /// `v.put` on the n-th handle (same-size overwrite or resizing move).
    Put(usize, Vec<u8>),
    /// `v.replace` returning the prior contents.
    Replace(usize, Vec<u8>),
    /// `v.remove`; applied twice to check idempotence.
    Remove(usize),
    /// `v.read` / `value_len` against the model.
    Read(usize),
    /// In-place compute that grows the payload by one byte.
    ComputeGrow(usize, u8),
    /// In-place compute that truncates the payload to half its length.
    ComputeShrink(usize),
}

fn payload(rng: &mut SplitMix64) -> Vec<u8> {
    (0..rng.below(48)).map(|_| rng.next_u64() as u8).collect()
}

fn ops(rng: &mut SplitMix64) -> Vec<Op> {
    (0..rng.range(1, 199))
        .map(|_| {
            let i = rng.next_u64() as usize;
            match rng.below(7) {
                0 => Op::Alloc(payload(rng)),
                1 => Op::Put(i, payload(rng)),
                2 => Op::Replace(i, payload(rng)),
                3 => Op::Remove(i),
                4 => Op::Read(i),
                5 => Op::ComputeGrow(i, rng.next_u64() as u8),
                _ => Op::ComputeShrink(i),
            }
        })
        .collect()
}

/// A tracked handle: the reference we hold and what the model says it
/// contains (`None` = removed).
type Tracked = (HeaderRef, Option<Vec<u8>>);

/// Quiescence + deleted-bit agreement for one handle. Between ops no lock
/// may be held, and the deleted bit must match the model — for recycled
/// slots the *stale* reference must still read as deleted via the
/// generation fence, even though the slot itself is live again.
fn check_handle(vs: &ValueStore, h: HeaderRef, model: &Option<Vec<u8>>) {
    let state = vs.lock_state(h);
    assert!(!state.writer, "writer bit leaked");
    assert_eq!(state.readers, 0, "reader count leaked");
    assert_eq!(
        vs.is_deleted(h),
        model.is_none(),
        "deleted bit disagrees with model"
    );
}

fn run(ops: &[Op], policy: ReclamationPolicy) {
    let pool = Arc::new(MemoryPool::new(PoolConfig::small()));
    let vs = ValueStore::with_policy(pool, policy);
    let mut tracked: Vec<Tracked> = Vec::new();

    for op in ops {
        match op {
            Op::Alloc(data) => {
                let h = vs.allocate_value(data).unwrap();
                tracked.push((h, Some(data.clone())));
            }
            Op::Put(i, data) => {
                if tracked.is_empty() {
                    continue;
                }
                let idx = i % tracked.len();
                let (h, model) = &mut tracked[idx];
                let ok = vs.put(*h, data).unwrap();
                assert_eq!(ok, model.is_some(), "put success disagrees");
                if model.is_some() {
                    *model = Some(data.clone());
                }
            }
            Op::Replace(i, data) => {
                if tracked.is_empty() {
                    continue;
                }
                let idx = i % tracked.len();
                let (h, model) = &mut tracked[idx];
                let prior = vs.replace(*h, data).unwrap();
                match (&prior, &*model) {
                    (Some(got), Some(want)) => {
                        assert_eq!(got, want, "replace returned wrong prior")
                    }
                    (None, None) => {}
                    _ => panic!("replace presence disagrees"),
                }
                if model.is_some() {
                    *model = Some(data.clone());
                }
            }
            Op::Remove(i) => {
                if tracked.is_empty() {
                    continue;
                }
                let idx = i % tracked.len();
                let (h, model) = &mut tracked[idx];
                let first = vs.remove(*h);
                assert_eq!(first, model.is_some(), "remove success disagrees");
                // Idempotence: a second remove of the same reference must
                // always lose.
                assert!(!vs.remove(*h), "double remove succeeded");
                *model = None;
            }
            Op::Read(i) => {
                if tracked.is_empty() {
                    continue;
                }
                let idx = i % tracked.len();
                let (h, model) = &tracked[idx];
                match (vs.read_to_vec(*h), model) {
                    (Ok(bytes), Some(want)) => {
                        assert_eq!(&bytes, want, "read returned wrong bytes");
                        assert_eq!(vs.value_len(*h), Ok(want.len()));
                    }
                    (Err(AccessError::Deleted), None) => {}
                    (got, want) => panic!("read mismatch: {got:?} vs {want:?}"),
                }
            }
            Op::ComputeGrow(i, byte) => {
                if tracked.is_empty() {
                    continue;
                }
                let idx = i % tracked.len();
                let (h, model) = &mut tracked[idx];
                let ran = vs.compute(*h, |b| {
                    let n = b.len();
                    b.resize(n + 1).unwrap();
                    b.as_mut_slice()[n] = *byte;
                });
                assert_eq!(ran.is_some(), model.is_some(), "compute presence disagrees");
                if let Some(m) = model {
                    m.push(*byte);
                }
            }
            Op::ComputeShrink(i) => {
                if tracked.is_empty() {
                    continue;
                }
                let idx = i % tracked.len();
                let (h, model) = &mut tracked[idx];
                let ran = vs.compute(*h, |b| {
                    let n = b.len() / 2;
                    b.resize(n).unwrap();
                });
                assert_eq!(ran.is_some(), model.is_some(), "compute presence disagrees");
                if let Some(m) = model {
                    m.truncate(m.len() / 2);
                }
            }
        }
        for (h, model) in &tracked {
            check_handle(&vs, *h, model);
        }
    }

    // Final sweep: every surviving value still reads back exactly.
    for (h, model) in &tracked {
        match (vs.read_to_vec(*h), model) {
            (Ok(bytes), Some(want)) => assert_eq!(&bytes, want),
            (Err(AccessError::Deleted), None) => {}
            (got, want) => panic!("final mismatch: {got:?} vs {want:?}"),
        }
    }
}

#[test]
fn header_state_machine_retaining() {
    for_each_case(0xB1, 64, |rng| {
        run(&ops(rng), ReclamationPolicy::RetainHeaders)
    });
}

#[test]
fn header_state_machine_reclaiming() {
    for_each_case(0xB2, 64, |rng| {
        run(&ops(rng), ReclamationPolicy::ReclaimHeaders)
    });
}
