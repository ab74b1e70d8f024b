//! The crossbeam-epoch stand-in must really reclaim, and must never reclaim
//! early: a leak-everything or free-at-once stub would make the benchmark
//! measure a different program.
//!
//! The collector state is global to the process and the tests run on
//! parallel threads, so another test's pin can delay a reclamation here; it
//! can never make one early. "Is freed" is therefore checked by retrying,
//! "is not freed" after a fixed number of attempts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

use crossbeam_epoch::{self as epoch, Atomic, Owned, Shared};

/// Counts its drops.
struct Counted(Arc<AtomicUsize>);

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Pins and collects repeatedly on this thread and on a helper thread, the
/// way busy map threads drive the collector.
fn churn_collector(rounds: usize) {
    let helper = std::thread::spawn(move || {
        for _ in 0..rounds {
            drop(epoch::pin());
            epoch::collect_now();
        }
    });
    for _ in 0..rounds {
        drop(epoch::pin());
        epoch::collect_now();
    }
    helper.join().expect("helper thread");
}

fn retire_one(drops: &Arc<AtomicUsize>) {
    let slot = Atomic::new(Counted(drops.clone()));
    let guard = epoch::pin();
    let old = slot.load(Ordering::Acquire, &guard);
    slot.store(Shared::null(), Ordering::Release);
    // SAFETY: `old` was just unlinked from `slot`, which nothing else reads.
    unsafe { guard.defer_destroy(old) };
}

#[test]
fn a_destructor_waits_for_guards_pinned_before_the_retire() {
    let drops = Arc::new(AtomicUsize::new(0));
    let (pinned_tx, pinned_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let reader = std::thread::spawn(move || {
        let guard = epoch::pin();
        pinned_tx.send(()).expect("main is waiting");
        release_rx.recv().expect("main releases the reader");
        drop(guard);
    });
    pinned_rx.recv().expect("reader pinned");

    // The reader's guard predates the retire, so whatever the collector is
    // made to do, the object must survive.
    retire_one(&drops);
    churn_collector(2_000);
    assert_eq!(drops.load(Ordering::SeqCst), 0, "freed under a live guard");

    release_tx.send(()).expect("reader is waiting");
    reader.join().expect("reader thread");
    for _ in 0..10_000 {
        if drops.load(Ordering::SeqCst) == 1 {
            break;
        }
        churn_collector(8);
    }
    assert_eq!(
        drops.load(Ordering::SeqCst),
        1,
        "never freed after the guard dropped"
    );
}

#[test]
fn a_bag_orphaned_by_thread_exit_is_adopted() {
    let drops = Arc::new(AtomicUsize::new(0));
    let d = drops.clone();
    // The retiring thread exits at once: its bag cannot have aged two
    // epochs yet, so some other thread has to free it.
    std::thread::spawn(move || retire_one(&d))
        .join()
        .expect("retiring thread");
    for _ in 0..10_000 {
        if drops.load(Ordering::SeqCst) == 1 {
            break;
        }
        churn_collector(8);
    }
    assert_eq!(drops.load(Ordering::SeqCst), 1);
}

#[test]
fn unprotected_destroys_at_once() {
    let drops = Arc::new(AtomicUsize::new(0));
    let slot = Atomic::new(Counted(drops.clone()));
    // SAFETY: `slot` is local to this test; no other thread can reach it.
    unsafe {
        let guard = epoch::unprotected();
        let old = slot.load(Ordering::Relaxed, guard);
        guard.defer_destroy(old);
    }
    assert_eq!(drops.load(Ordering::SeqCst), 1);
}

#[test]
fn tag_bits_round_trip_and_do_not_disturb_the_pointer() {
    let guard = epoch::pin();
    let slot = Atomic::new(0xABCD_u64);
    let plain = slot.load(Ordering::Acquire, &guard);
    assert_eq!(plain.tag(), 0);
    let marked = plain.with_tag(1);
    assert_eq!(marked.tag(), 1);
    assert_eq!(marked.as_raw(), plain.as_raw());
    assert_eq!(marked.with_tag(0), plain);
    // A u64 has three alignment bits; higher tag bits are dropped.
    assert_eq!(plain.with_tag(0b1111).tag(), 0b111);

    // A tagged pointer survives a store and a compare-exchange.
    slot.store(marked, Ordering::Release);
    let seen = slot.load(Ordering::Acquire, &guard);
    assert_eq!((seen.tag(), seen.as_raw()), (1, plain.as_raw()));
    // SAFETY: the object is alive (owned by `slot`) for the whole test.
    assert_eq!(unsafe { *seen.deref() }, 0xABCD);
    let lost = slot
        .compare_exchange(
            plain,
            Owned::new(7),
            Ordering::AcqRel,
            Ordering::Acquire,
            &guard,
        )
        .expect_err("the slot holds the marked pointer, not the plain one");
    assert_eq!(lost.current, marked);
    assert_eq!(*lost.new, 7, "the rejected value comes back");
    slot.compare_exchange(marked, plain, Ordering::AcqRel, Ordering::Acquire, &guard)
        .map_err(|_| ())
        .expect("the slot holds the marked pointer");
    assert!(Shared::<u64>::null().is_null() && Shared::<u64>::null().with_tag(1).is_null());
    // SAFETY: the test owns `slot`; nothing else refers to its object.
    drop(unsafe {
        slot.load(Ordering::Relaxed, epoch::unprotected())
            .into_owned()
    });
}
