//! Epoch-based reclamation for on-heap metadata: [`pin`], [`unprotected`],
//! [`Guard::defer_destroy`], [`Atomic`], [`Owned`], [`Shared`] and
//! [`CompareExchangeError`].
//!
//! The paper leans on the JVM's garbage collector for the objects a
//! lock-free reader may still hold after they are unlinked (chunk-index
//! boxes, skiplist nodes). This module is that collector's substitute. The
//! names and signatures follow `crossbeam-epoch`, whose protocol this is:
//!
//! * one global epoch counter;
//! * one `Slot` per thread, published in a global list, holding the
//!   epoch that thread is pinned at (or "not pinned");
//! * retired objects are stamped with the global epoch at retirement and
//!   kept in a thread-local bag; a stamp `e` is freed once the global epoch
//!   is `e + 2`, which no thread pinned before the retirement can outlive:
//!   the epoch only advances when every pinned thread is at the current
//!   epoch, so while such a thread stays pinned the epoch is at most
//!   `e + 1`;
//! * a thread that exits hands its unfreed bag to a global orphan list,
//!   which the next collecting thread adopts.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::Mutex;

/// The global epoch. Starts at 0 and only grows.
static EPOCH: AtomicUsize = AtomicUsize::new(0);
/// Every live thread's pin slot.
static SLOTS: Mutex<Vec<Arc<Slot>>> = Mutex::new(Vec::new());
/// Bags left behind by exited threads.
static ORPHANS: Mutex<Vec<Deferred>> = Mutex::new(Vec::new());

/// Pins between attempts to advance the epoch and collect.
const PINS_PER_COLLECT: usize = 128;
/// Bag length that triggers an early attempt.
const BAG_COLLECT_LEN: usize = 64;

/// What other threads may read of a thread: `0` when it is not pinned,
/// `(epoch << 1) | 1` while it is.
struct Slot {
    state: AtomicUsize,
}

/// One retired object: its retirement epoch and how to free it.
struct Deferred {
    epoch: usize,
    data: *mut u8,
    destroy: unsafe fn(*mut u8),
}

// SAFETY: `data` is an owned, unlinked heap object. `defer_destroy`'s
// contract makes the caller responsible for the object being safe to drop
// on another thread.
unsafe impl Send for Deferred {}

unsafe fn drop_box<T>(data: *mut u8) {
    // SAFETY: `data` came from `Box::<T>::into_raw` via `Owned`/`Atomic`
    // and is destroyed exactly once.
    drop(unsafe { Box::from_raw(data.cast::<T>()) });
}

/// A thread's private collector state. Only the owning thread touches the
/// `Cell`/`RefCell` fields; other threads see only `slot`.
struct Local {
    slot: Arc<Slot>,
    /// Live guards on this thread (pins nest).
    guards: Cell<usize>,
    /// Pins since the last collect attempt.
    pins: Cell<usize>,
    bag: RefCell<Vec<Deferred>>,
}

impl Local {
    fn register() -> Local {
        let slot = Arc::new(Slot {
            state: AtomicUsize::new(0),
        });
        SLOTS.lock().push(slot.clone());
        Local {
            slot,
            guards: Cell::new(0),
            pins: Cell::new(0),
            bag: RefCell::new(Vec::new()),
        }
    }

    fn pin(&self) {
        let guards = self.guards.get();
        self.guards.set(guards + 1);
        if guards > 0 {
            return;
        }
        let epoch = EPOCH.load(Ordering::Relaxed);
        self.slot.state.store((epoch << 1) | 1, Ordering::Relaxed);
        // Orders the slot store before every later load of shared
        // pointers, and pairs with the fence in `try_advance`: either the
        // advancing thread sees this pin, or this thread sees everything
        // that was unlinked before the advance.
        fence(Ordering::SeqCst);
        let pins = self.pins.get() + 1;
        self.pins.set(pins);
        if pins.is_multiple_of(PINS_PER_COLLECT) {
            self.collect();
        }
    }

    fn unpin(&self) {
        let guards = self.guards.get() - 1;
        self.guards.set(guards);
        if guards == 0 {
            self.slot.state.store(0, Ordering::Release);
        }
    }

    fn retire(&self, deferred: Deferred) {
        let len = {
            let mut bag = self.bag.borrow_mut();
            bag.push(deferred);
            bag.len()
        };
        if len.is_multiple_of(BAG_COLLECT_LEN) {
            self.collect();
        }
    }

    /// Tries to advance the epoch, adopts orphaned bags, and frees what has
    /// become safe. Destructors run after the bag borrow is released, so a
    /// destructor that itself retires objects is fine.
    fn collect(&self) {
        let epoch = try_advance();
        let ready: Vec<Deferred> = {
            let mut bag = self.bag.borrow_mut();
            if let Some(mut orphans) = ORPHANS.try_lock() {
                bag.append(&mut orphans);
            }
            let (ready, keep) = bag.drain(..).partition(|d| d.epoch + 2 <= epoch);
            *bag = keep;
            ready
        };
        for d in ready {
            // SAFETY: two epochs have passed since retirement (module docs).
            unsafe { (d.destroy)(d.data) };
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.collect();
        SLOTS.lock().retain(|s| !Arc::ptr_eq(s, &self.slot));
        ORPHANS.lock().append(self.bag.get_mut());
    }
}

/// Advances the global epoch if every pinned thread has caught up with it.
/// Returns the epoch after the attempt.
fn try_advance() -> usize {
    let epoch = EPOCH.load(Ordering::Relaxed);
    fence(Ordering::SeqCst);
    let Some(slots) = SLOTS.try_lock() else {
        return epoch;
    };
    for slot in slots.iter() {
        let state = slot.state.load(Ordering::Relaxed);
        if state & 1 == 1 && state >> 1 != epoch {
            return epoch;
        }
    }
    fence(Ordering::Acquire);
    match EPOCH.compare_exchange(epoch, epoch + 1, Ordering::Release, Ordering::Relaxed) {
        Ok(_) => epoch + 1,
        Err(now) => now,
    }
}

thread_local! {
    static LOCAL: Local = Local::register();
}

/// Keeps the current thread pinned while alive. Not `Send`.
pub struct Guard {
    /// `None` for [`unprotected`], and for a pin taken while the thread's
    /// local state is already torn down (nothing can be protected then, and
    /// retirements leak instead).
    local: Option<*const Local>,
}

impl Guard {
    /// Frees the object behind `ptr` once no pinned thread can still hold a
    /// reference to it.
    ///
    /// # Safety
    ///
    /// `ptr` must be non-null, already unreachable for threads that pin
    /// from now on, retired at most once, and safe to drop on another
    /// thread.
    pub unsafe fn defer_destroy<T>(&self, ptr: Shared<'_, T>) {
        let data = ptr.as_raw() as *mut u8;
        match self.local {
            Some(local) => {
                // SAFETY: a guard with a local lives on that local's thread,
                // and the local outlives its guards (thread-local storage).
                let local = unsafe { &*local };
                local.retire(Deferred {
                    epoch: EPOCH.load(Ordering::Relaxed),
                    data,
                    destroy: drop_box::<T>,
                });
            }
            // SAFETY: `unprotected` asserts that no other thread can hold a
            // reference, so the object can go now.
            None if std::ptr::eq(self, unprotected_guard()) => unsafe { drop_box::<T>(data) },
            // A pin taken during thread teardown protects nothing, so the
            // object cannot be freed safely: leak it.
            None => {}
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(local) = self.local {
            // SAFETY: as in `defer_destroy`.
            unsafe { &*local }.unpin();
        }
    }
}

/// Pins the current thread.
#[inline]
pub fn pin() -> Guard {
    let local = LOCAL
        .try_with(|local| {
            local.pin();
            local as *const Local
        })
        .ok();
    Guard { local }
}

fn unprotected_guard() -> &'static Guard {
    struct Unprotected(Guard);
    // SAFETY: this guard has no local, so it carries no thread-affine
    // state; every other `Guard` stays `!Sync`.
    unsafe impl Sync for Unprotected {}
    static UNPROTECTED: Unprotected = Unprotected(Guard { local: None });
    &UNPROTECTED.0
}

/// A guard that pins nothing: loads through it are unprotected and
/// `defer_destroy` through it frees at once.
///
/// # Safety
///
/// The caller must have exclusive access to every structure it touches
/// through the returned guard.
pub unsafe fn unprotected() -> &'static Guard {
    unprotected_guard()
}

#[inline]
fn low_bits<T>() -> usize {
    std::mem::align_of::<T>() - 1
}

#[inline]
fn compose<T>(raw: *const T, tag: usize) -> usize {
    (raw as usize & !low_bits::<T>()) | (tag & low_bits::<T>())
}

/// Conversion between a pointer type and the tagged word an [`Atomic`]
/// stores.
pub trait Pointer<T> {
    /// The tagged word; ownership (if any) moves into it.
    fn into_usize(self) -> usize;
    /// Rebuilds the pointer from a tagged word.
    ///
    /// # Safety
    ///
    /// `data` must come from `into_usize` of the same type, once.
    unsafe fn from_usize(data: usize) -> Self;
}

/// An owned heap object, like `Box<T>`, that can move into an [`Atomic`].
pub struct Owned<T> {
    data: usize,
    _marker: PhantomData<Box<T>>,
}

impl<T> Owned<T> {
    /// Allocates `value` on the heap.
    pub fn new(value: T) -> Owned<T> {
        Owned {
            data: Box::into_raw(Box::new(value)) as usize,
            _marker: PhantomData,
        }
    }

    /// Converts back into a `Box`.
    pub fn into_box(self) -> Box<T> {
        let raw = (self.data & !low_bits::<T>()) as *mut T;
        std::mem::forget(self);
        // SAFETY: `raw` came from `Box::into_raw` and ownership is unique.
        unsafe { Box::from_raw(raw) }
    }
}

impl<T> Pointer<T> for Owned<T> {
    fn into_usize(self) -> usize {
        let data = self.data;
        std::mem::forget(self);
        data
    }

    unsafe fn from_usize(data: usize) -> Self {
        Owned {
            data,
            _marker: PhantomData,
        }
    }
}

impl<T> Drop for Owned<T> {
    fn drop(&mut self) {
        let raw = (self.data & !low_bits::<T>()) as *mut T;
        // SAFETY: as in `into_box`.
        drop(unsafe { Box::from_raw(raw) });
    }
}

impl<T> Deref for Owned<T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the pointer is a live, uniquely owned allocation.
        unsafe { &*((self.data & !low_bits::<T>()) as *const T) }
    }
}

/// A tagged pointer valid for the lifetime `'g` of the guard it was loaded
/// under.
pub struct Shared<'g, T> {
    data: usize,
    _marker: PhantomData<(&'g (), *const T)>,
}

impl<T> Clone for Shared<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Shared<'_, T> {}

impl<T> PartialEq for Shared<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}
impl<T> Eq for Shared<'_, T> {}

impl<T> std::fmt::Debug for Shared<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("raw", &self.as_raw())
            .field("tag", &self.tag())
            .finish()
    }
}

impl<'g, T> Shared<'g, T> {
    fn from_data(data: usize) -> Self {
        Shared {
            data,
            _marker: PhantomData,
        }
    }

    /// The null pointer, tag 0.
    pub fn null() -> Self {
        Shared::from_data(0)
    }

    /// Whether the pointer (ignoring its tag) is null.
    pub fn is_null(&self) -> bool {
        self.as_raw().is_null()
    }

    /// The untagged raw pointer.
    pub fn as_raw(&self) -> *const T {
        (self.data & !low_bits::<T>()) as *const T
    }

    /// The tag kept in the pointer's alignment bits.
    pub fn tag(&self) -> usize {
        self.data & low_bits::<T>()
    }

    /// The same pointer with another tag (truncated to the alignment bits).
    pub fn with_tag(&self, tag: usize) -> Shared<'g, T> {
        Shared::from_data(compose(self.as_raw(), tag))
    }

    /// Dereferences the pointer.
    ///
    /// # Safety
    ///
    /// Non-null, and the object must be alive for `'g`.
    pub unsafe fn deref(&self) -> &'g T {
        // SAFETY: forwarded to the caller.
        unsafe { &*self.as_raw() }
    }

    /// `None` for null, else a reference.
    ///
    /// # Safety
    ///
    /// As for [`deref`](Self::deref) when non-null.
    pub unsafe fn as_ref(&self) -> Option<&'g T> {
        // SAFETY: forwarded to the caller.
        unsafe { self.as_raw().as_ref() }
    }

    /// Takes ownership of the object.
    ///
    /// # Safety
    ///
    /// Non-null, and no other thread may hold a reference.
    pub unsafe fn into_owned(self) -> Owned<T> {
        debug_assert!(!self.is_null(), "into_owned on a null Shared");
        // SAFETY: forwarded to the caller.
        unsafe { Owned::from_usize(self.data) }
    }
}

impl<T> From<*const T> for Shared<'_, T> {
    fn from(raw: *const T) -> Self {
        assert_eq!(raw as usize & low_bits::<T>(), 0, "unaligned pointer");
        Shared::from_data(raw as usize)
    }
}

impl<T> Pointer<T> for Shared<'_, T> {
    fn into_usize(self) -> usize {
        self.data
    }

    unsafe fn from_usize(data: usize) -> Self {
        Shared::from_data(data)
    }
}

/// The error of a failed [`Atomic::compare_exchange`]: the value found and
/// the new value handed back.
pub struct CompareExchangeError<'g, T, P: Pointer<T>> {
    /// What the atomic held.
    pub current: Shared<'g, T>,
    /// The value that was not stored.
    pub new: P,
}

/// An atomic tagged pointer to a heap object.
pub struct Atomic<T> {
    data: AtomicUsize,
    _marker: PhantomData<*mut T>,
}

// SAFETY: the pointer hands out `&T` to many threads (`T: Sync`) and moves
// `T` between them (`T: Send`: any thread may end up dropping the object).
unsafe impl<T: Send + Sync> Send for Atomic<T> {}
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Atomic<T> {
    /// Allocates `value` and points at it.
    pub fn new(value: T) -> Atomic<T> {
        Atomic::from(Owned::new(value))
    }

    /// The null pointer.
    pub const fn null() -> Atomic<T> {
        Atomic {
            data: AtomicUsize::new(0),
            _marker: PhantomData,
        }
    }

    /// Loads the pointer; it stays valid while `guard` lives.
    #[inline]
    pub fn load<'g>(&self, ord: Ordering, _: &'g Guard) -> Shared<'g, T> {
        Shared::from_data(self.data.load(ord))
    }

    /// Stores `new`, taking its ownership if it is an [`Owned`].
    pub fn store<P: Pointer<T>>(&self, new: P, ord: Ordering) {
        self.data.store(new.into_usize(), ord);
    }

    /// Stores `new` if the atomic still holds `current`.
    pub fn compare_exchange<'g, P: Pointer<T>>(
        &self,
        current: Shared<'_, T>,
        new: P,
        success: Ordering,
        failure: Ordering,
        _: &'g Guard,
    ) -> Result<Shared<'g, T>, CompareExchangeError<'g, T, P>> {
        let new = new.into_usize();
        match self
            .data
            .compare_exchange(current.into_usize(), new, success, failure)
        {
            Ok(_) => Ok(Shared::from_data(new)),
            Err(found) => Err(CompareExchangeError {
                current: Shared::from_data(found),
                // SAFETY: `new` came from `into_usize` just above and was
                // not stored.
                new: unsafe { P::from_usize(new) },
            }),
        }
    }
}

impl<T> From<Owned<T>> for Atomic<T> {
    fn from(owned: Owned<T>) -> Self {
        Atomic {
            data: AtomicUsize::new(owned.into_usize()),
            _marker: PhantomData,
        }
    }
}

/// The collector state is global to the process and the tests run on
/// parallel threads, so another test's pin can delay a reclamation here; it
/// can never make one early. "Is freed" is therefore checked by retrying,
/// "is not freed" after a fixed number of attempts.
#[cfg(test)]
mod tests {
    use std::sync::mpsc;

    use super::*;

    /// Counts its drops.
    struct Counted(Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Makes the calling thread try to advance the epoch and free what is
    /// ready, as a pin does every [`PINS_PER_COLLECT`] pins.
    fn collect_now() {
        let _ = LOCAL.try_with(Local::collect);
    }

    /// Pins and collects repeatedly on this thread and on a helper thread,
    /// the way busy map threads drive the collector.
    fn churn_collector(rounds: usize) {
        let helper = std::thread::spawn(move || {
            for _ in 0..rounds {
                drop(pin());
                collect_now();
            }
        });
        for _ in 0..rounds {
            drop(pin());
            collect_now();
        }
        helper.join().expect("helper thread");
    }

    fn retire_one(drops: &Arc<AtomicUsize>) {
        let slot = Atomic::new(Counted(drops.clone()));
        let guard = pin();
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
            let guard = pin();
            pinned_tx.send(()).expect("main is waiting");
            release_rx.recv().expect("main releases the reader");
            drop(guard);
        });
        pinned_rx.recv().expect("reader pinned");

        // The reader's guard predates the retire, so whatever the collector is
        // made to do, the object must survive.
        retire_one(&drops);
        churn_collector(if cfg!(miri) { 50 } else { 2_000 });
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
            let guard = unprotected();
            let old = slot.load(Ordering::Relaxed, guard);
            guard.defer_destroy(old);
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn tag_bits_round_trip_and_do_not_disturb_the_pointer() {
        let guard = pin();
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
        drop(unsafe { slot.load(Ordering::Relaxed, unprotected()).into_owned() });
    }
}
