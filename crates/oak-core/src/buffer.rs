//! Zero-copy buffer views: `OakRBuffer` and `OakWBuffer`.
//!
//! "These types are lightweight on-heap facades to off-heap storage, which
//! provide the application with managed object semantics" (§2.1). An
//! [`OakRBuffer`] stays valid for as long as the application holds it;
//! reads of a concurrently deleted value fail with
//! [`OakError::ConcurrentModification`] rather than observing freed memory.
//! Concurrency control is per method call on the buffer (§2.2): two reads
//! of the same buffer may observe different values if a writer intervenes —
//! the documented, inevitable consequence of avoiding copies.

use std::sync::Arc;

use oak_mempool::{HeaderRef, MemoryPool, SliceRef, ValueStore};

use crate::error::OakError;
use crate::reclaim::CursorPin;

/// Read-only zero-copy view of a key or value in Oak's off-heap memory.
pub struct OakRBuffer {
    inner: Kind,
}

enum Kind {
    /// Keys are immutable while reachable; the epoch pin keeps the slice
    /// from being reclaimed (after a concurrent remove + rebalance) for as
    /// long as the buffer lives.
    Key {
        pool: Arc<MemoryPool>,
        r: SliceRef,
        _pin: Arc<CursorPin>,
    },
    /// Values are read under the header read lock and fail once deleted.
    Value { store: ValueStore, h: HeaderRef },
}

impl OakRBuffer {
    pub(crate) fn key(pool: Arc<MemoryPool>, r: SliceRef, pin: Arc<CursorPin>) -> Self {
        OakRBuffer {
            inner: Kind::Key { pool, r, _pin: pin },
        }
    }

    pub(crate) fn value(store: ValueStore, h: HeaderRef) -> Self {
        OakRBuffer {
            inner: Kind::Value { store, h },
        }
    }

    /// Applies `f` to the buffer contents atomically.
    pub fn read<R>(&self, f: impl FnOnce(&[u8]) -> R) -> Result<R, OakError> {
        match &self.inner {
            Kind::Key { pool, r, .. } => {
                // SAFETY: key buffers are immutable while reachable, and
                // the held epoch pin blocks quarantine reclamation of this
                // slice for the buffer's lifetime.
                Ok(f(unsafe { pool.slice(*r) }))
            }
            Kind::Value { store, h } => Ok(store.read(*h, f)?),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> Result<usize, OakError> {
        self.read(|b| b.len())
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> Result<bool, OakError> {
        self.read(|b| b.is_empty())
    }

    /// Copies the contents out (the boundary where zero-copy ends).
    pub fn to_vec(&self) -> Result<Vec<u8>, OakError> {
        self.read(|b| b.to_vec())
    }

    /// Reads a little-endian `u64` at byte offset `at`.
    pub fn get_u64(&self, at: usize) -> Result<u64, OakError> {
        self.read(|b| u64::from_le_bytes(b[at..at + 8].try_into().unwrap()))
    }

    /// Reads a little-endian `u32` at byte offset `at`.
    pub fn get_u32(&self, at: usize) -> Result<u32, OakError> {
        self.read(|b| u32::from_le_bytes(b[at..at + 4].try_into().unwrap()))
    }

    /// Reads a little-endian `i64` at byte offset `at`.
    pub fn get_i64(&self, at: usize) -> Result<i64, OakError> {
        self.read(|b| i64::from_le_bytes(b[at..at + 8].try_into().unwrap()))
    }

    /// Reads a little-endian `f64` at byte offset `at`.
    pub fn get_f64(&self, at: usize) -> Result<f64, OakError> {
        self.read(|b| f64::from_le_bytes(b[at..at + 8].try_into().unwrap()))
    }

    /// Copies `dst.len()` bytes starting at offset `at` into `dst`.
    pub fn read_at(&self, at: usize, dst: &mut [u8]) -> Result<(), OakError> {
        self.read(|b| dst.copy_from_slice(&b[at..at + dst.len()]))
    }

    /// Compares the buffer contents with `other` atomically.
    pub fn eq_bytes(&self, other: &[u8]) -> Result<bool, OakError> {
        self.read(|b| b == other)
    }

    /// For value buffers: whether the underlying mapping was deleted. Keys
    /// never report deleted.
    pub fn is_deleted(&self) -> bool {
        match &self.inner {
            Kind::Key { .. } => false,
            Kind::Value { store, h } => store.is_deleted(*h),
        }
    }
}

impl std::fmt::Debug for OakRBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.inner {
            Kind::Key { .. } => "key",
            Kind::Value { .. } => "value",
        };
        write!(f, "OakRBuffer<{kind}>")
    }
}

/// Writable zero-copy view of a value, passed to `compute` lambdas.
///
/// Supports reading, writing, and resizing ("extends the value's memory
/// allocation if its code so requires", §2.2). The header write lock is
/// held for the lambda's entire execution, making it atomic.
pub type OakWBuffer<'a> = oak_mempool::ValueBytesMut<'a>;
