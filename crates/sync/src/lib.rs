//! The synchronisation primitives the Oak workspace uses beyond `std`,
//! kept in one dependency-free crate so that every build of the library
//! (root workspace, repo benchmark, Miri, TSan) links the same code:
//!
//! * [`Mutex`] and [`RwLock`]: `std::sync` locks that do not poison. A
//!   panic while a guard is held leaves the lock usable: the fault-injection
//!   suites panic threads on purpose and require the map and the pool to
//!   stay usable afterwards, and everything these locks guard is valid at
//!   every step. [`Mutex::try_lock_for`] is the one method std lacks.
//! * [`epoch`]: epoch-based reclamation for on-heap metadata (the chunk
//!   index's first pointer, baseline skiplist nodes), standing in for the
//!   JVM's garbage collector.
//!
//! The wrappers sit directly on `std::sync::{Mutex, RwLock}` (futex-based
//! on Linux: one CAS when uncontended).

pub mod epoch;

use std::sync::{PoisonError, TryLockError};
use std::time::{Duration, Instant};

pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// Mutual exclusion lock without poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates an unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex and returns the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes the lock if it is free.
    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Tries to take the lock for at most `timeout`. std has no timed
    /// lock, so this polls: a few spins, then yields, then short sleeps.
    pub fn try_lock_for(&self, timeout: Duration) -> Option<MutexGuard<'_, T>> {
        let deadline = Instant::now() + timeout;
        let mut rounds = 0u32;
        loop {
            if let Some(guard) = self.try_lock() {
                return Some(guard);
            }
            if Instant::now() >= deadline {
                return None;
            }
            rounds += 1;
            if rounds < 16 {
                std::hint::spin_loop();
            } else if rounds < 64 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
    }

    /// Mutable access without locking (the borrow proves exclusivity).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Reader-writer lock without poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates an unlocked lock.
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Blocks until shared access is held.
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until exclusive access is held.
    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_lock_for_times_out_and_recovers() {
        let m = Mutex::new(1);
        let held = m.lock();
        assert!(m.try_lock().is_none());
        assert!(m.try_lock_for(Duration::from_millis(5)).is_none());
        drop(held);
        *m.try_lock_for(Duration::from_millis(5)).expect("free now") += 1;
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn a_panic_under_the_lock_does_not_poison() {
        let m = std::sync::Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }
}
