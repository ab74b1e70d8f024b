//! The value-access layer: atomic `put`, `compute`, `remove`, `read`.
//!
//! `ValueStore` implements §3.3 of the paper. A *value* is a header slot
//! (see [`crate::header`]) plus a separately allocated payload slice. The
//! header's read-write lock makes each access method atomic; the deleted bit
//! makes post-removal access fail. Because the payload is reached through an
//! indirection in the header, `put` and `compute` can *resize* a value in
//! place ("extends the value's memory allocation if its code so requires",
//! §2.2) without disturbing concurrent operations that hold only the
//! header reference.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use oak_sync::Mutex;

use crate::audit::AllocClass;
use crate::error::{AccessError, AllocError, ValueOpError};
use crate::header::{Header, HeaderRef, LockState, TryReadLock, HEADER_SIZE};
use crate::pool::MemoryPool;
use crate::refs::SliceRef;

/// How value headers are reclaimed after removal (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReclamationPolicy {
    /// The paper's own policy: removed values free their payload but
    /// retain the 16-byte header forever. Header references are never
    /// reused, so the `finalizeRemove` comparison is trivially ABA-free.
    RetainHeaders,
    /// The default, and the paper's "more elaborate solution that uses
    /// generations (epochs) in order to reclaim headers as well": removed
    /// headers are recycled through a free list, and every reference
    /// carries the slot's generation. A stale reference fails its
    /// generation check after acquiring the lock — the "monotonically
    /// increasing ABA counter" of §4.4.
    #[default]
    ReclaimHeaders,
}

/// Width of the generation carried in a versioned header reference (the
/// reference's length field).
const GEN_BITS: u32 = 20;
const GEN_MASK: u32 = (1 << GEN_BITS) - 1;

/// Why the deadline-less entry points cannot see
/// [`AccessError::TimedOut`] from their `_at` bodies.
const UNTIMED: &str = "a lock wait without a deadline ends only with the lock or a deletion";

/// Outcome of [`ValueStore::scan_lock`] — fill-time value admission for
/// snapshot scan batches.
#[derive(Debug, Clone, Copy)]
pub enum ScanLock {
    /// The read lock is held and the payload resolved: deliver the bytes
    /// at `vptr..vptr + vlen` (empty value when `vlen == 0`), then release
    /// via [`ValueStore::scan_unlock`] with `hbase`.
    Held {
        /// The header slot's base address (release token).
        hbase: usize,
        /// Resolved payload address (0 for empty values).
        vptr: usize,
        /// Payload length in bytes.
        vlen: u32,
    },
    /// Live, but a writer holds the lock: read this entry individually
    /// through the waiting path ([`ValueStore::read`]).
    Busy,
    /// Deleted (or stale generation): skip the entry.
    Dead,
}

/// Allocation and atomic access for header-fronted values.
///
/// Cloning is cheap: stores share the underlying pool and recycle list.
///
/// ```
/// use std::sync::Arc;
/// use oak_mempool::{MemoryPool, PoolConfig, ValueStore};
///
/// let store = ValueStore::new(Arc::new(MemoryPool::new(PoolConfig::small())));
/// let v = store.allocate_value(b"hello").unwrap();
/// assert_eq!(store.read_to_vec(v).unwrap(), b"hello");
/// store.compute(v, |buf| buf.as_mut_slice().make_ascii_uppercase());
/// assert_eq!(store.read_to_vec(v).unwrap(), b"HELLO");
/// assert!(store.remove(v));
/// assert!(store.read(v, |_| ()).is_err()); // deleted
/// ```
#[derive(Clone, Debug)]
pub struct ValueStore {
    pool: Arc<MemoryPool>,
    policy: ReclamationPolicy,
    /// Retired header slots awaiting reuse (reclaiming policy only).
    recycled: Arc<Mutex<Vec<SliceRef>>>,
}

impl ValueStore {
    /// Creates a value store over `pool` with the default (recycling)
    /// policy.
    pub fn new(pool: Arc<MemoryPool>) -> Self {
        Self::with_policy(pool, ReclamationPolicy::default())
    }

    /// Creates a value store with an explicit reclamation policy.
    pub fn with_policy(pool: Arc<MemoryPool>, policy: ReclamationPolicy) -> Self {
        ValueStore {
            pool,
            policy,
            recycled: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The active reclamation policy.
    pub fn policy(&self) -> ReclamationPolicy {
        self.policy
    }

    /// Number of retired header slots currently awaiting reuse.
    pub fn recycled_headers(&self) -> usize {
        self.recycled.lock().len()
    }

    /// The underlying pool (shared with key storage and footprint queries).
    pub fn pool(&self) -> &Arc<MemoryPool> {
        &self.pool
    }

    /// Whether `header`'s current generation matches reference `h`.
    #[inline]
    fn gen_matches(&self, header: &Header<'_>, h: HeaderRef) -> bool {
        match self.policy {
            ReclamationPolicy::RetainHeaders => true,
            ReclamationPolicy::ReclaimHeaders => header.generation() == h.len(),
        }
    }

    /// The header `h` designates: the one place a reference becomes the
    /// slot's atomic words.
    #[inline]
    pub(crate) fn header(&self, h: HeaderRef) -> Header<'_> {
        // SAFETY: every `HeaderRef` a store method takes is one that
        // `allocate_value` handed out on this pool (the contract of the
        // public API): a 16-byte, 8-aligned slot that stays mapped for the
        // pool's lifetime and is only ever accessed through its atomic
        // words.
        unsafe { Header::at(&self.pool, h) }
    }

    /// Acquires the read lock and validates the reference generation.
    #[inline]
    fn read_locked(
        &self,
        h: HeaderRef,
        deadline: Option<Instant>,
    ) -> Result<ReadGuard<'_>, AccessError> {
        let header = self.header(h);
        header.read_lock(deadline)?;
        let guard = ReadGuard {
            pool: &self.pool,
            header,
        };
        if !self.gen_matches(&guard.header, h) {
            return Err(AccessError::Deleted);
        }
        Ok(guard)
    }

    /// Acquires the write lock and validates the reference generation.
    #[inline]
    fn write_locked(
        &self,
        h: HeaderRef,
        deadline: Option<Instant>,
    ) -> Result<ValueBytesMut<'_>, AccessError> {
        let header = self.header(h);
        header.write_lock(deadline)?;
        if !self.gen_matches(&header, h) {
            header.write_unlock();
            return Err(AccessError::Deleted);
        }
        Ok(ValueBytesMut {
            store: self,
            header,
            h,
        })
    }

    /// Allocates a fresh value holding `data` and returns its header ref.
    ///
    /// The value is unlocked and not deleted. Empty values are allowed (the
    /// payload reference is null and reads observe `&[]`).
    pub fn allocate_value(&self, data: &[u8]) -> Result<HeaderRef, AllocError> {
        oak_failpoints::fail_point!("value/alloc", Err(AllocError::Injected));
        let payload = if data.is_empty() {
            SliceRef::NULL
        } else {
            self.pool.allocate_copy(data, AllocClass::ValuePayload)?
        };
        // Reuse a retired slot under the reclaiming policy (popped only
        // after the fallible payload allocation so slots never leak).
        let recycled_slot = match self.policy {
            ReclamationPolicy::RetainHeaders => None,
            ReclamationPolicy::ReclaimHeaders => self.recycled.lock().pop(),
        };
        if let Some(slot) = recycled_slot {
            let header = self.header(slot);
            let generation = header.generation();
            header.set_payload(payload);
            // Publish to the lock protocol last: until this store, stale
            // readers fail on the deleted bit; afterwards they fail the
            // generation check.
            header.reset_state();
            return Ok(SliceRef::new(slot.block(), slot.offset(), generation));
        }
        let href = match self.pool.allocate_tagged(HEADER_SIZE, AllocClass::Header) {
            Ok(href) => href,
            Err(e) => {
                // The payload was already carved out; hand it back before
                // surfacing the failure or those bytes leak for good.
                if !payload.is_null() {
                    self.pool.free(payload);
                }
                return Err(e);
            }
        };
        self.pool.counters().header_bytes.add(HEADER_SIZE as u64);
        self.header(href).init(payload);
        match self.policy {
            ReclamationPolicy::RetainHeaders => Ok(href),
            // Fresh slot: generation 0.
            ReclamationPolicy::ReclaimHeaders => Ok(SliceRef::new(href.block(), href.offset(), 0)),
        }
    }

    /// Admits one entry into a scan snapshot: tries the read lock once
    /// (no waiting), and on success resolves the payload's address so the
    /// scan's drain can deliver the bytes without re-translating. The
    /// returned lock — readers only exclude writers, so holding it across
    /// a bounded batch drain keeps the delivery torn-read-free without
    /// blocking other scans — must be released with
    /// [`scan_unlock`](Self::scan_unlock).
    ///
    /// `Busy` (a writer was active) and `Dead` (deleted, or a stale
    /// generation under the reclaiming policy) leave nothing held.
    #[inline]
    pub fn scan_lock(&self, h: HeaderRef) -> ScanLock {
        let header = self.header(h);
        match header.try_read_lock() {
            TryReadLock::Dead => ScanLock::Dead,
            TryReadLock::Busy => ScanLock::Busy,
            TryReadLock::Held => {
                if !self.gen_matches(&header, h) {
                    header.read_unlock();
                    return ScanLock::Dead;
                }
                let payload = header.payload();
                let (vptr, vlen) = if payload.is_null() {
                    (0, 0)
                } else {
                    (self.pool.resolve_addr(payload), payload.len())
                };
                ScanLock::Held {
                    hbase: header.base_addr(),
                    vptr,
                    vlen,
                }
            }
        }
    }

    /// Asks for the cache line a read of `h`'s value will want next: the
    /// start of its payload. The payload word is read *without* the lock,
    /// so it may be stale the moment it is loaded — which is fine for a
    /// hint: the word only forms an address ([`MemoryPool::prefetch`]) and
    /// nothing is read through it; the reader that follows takes the lock
    /// and loads the word again.
    #[inline]
    pub fn prefetch_payload(&self, h: HeaderRef) {
        self.pool.prefetch(self.header(h).payload());
    }

    /// Releases a read lock taken by [`scan_lock`](Self::scan_lock).
    ///
    /// # Safety
    /// `hbase` must come from a `ScanLock::Held` issued by this store's
    /// pool and be released exactly once.
    #[inline]
    pub unsafe fn scan_unlock(&self, hbase: usize) {
        Header::from_base(hbase, self.pool.counters()).read_unlock();
    }

    /// Atomically reads the value, passing the payload bytes to `f`, once
    /// the read lock is free.
    ///
    /// Fails only if the value was removed ([`AccessError::Deleted`]). The
    /// read lock is released even if `f` panics (readers don't mutate, so
    /// unlocking — not poisoning — is the correct unwind behaviour).
    pub fn read<R>(&self, h: HeaderRef, f: impl FnOnce(&[u8]) -> R) -> Result<R, AccessError> {
        self.read_at(h, None, f)
    }

    /// [`read`](Self::read) with the lock wait ended by `deadline`
    /// ([`AccessError::TimedOut`]; the budgeted-operation variant).
    pub fn read_at<R>(
        &self,
        h: HeaderRef,
        deadline: Option<Instant>,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, AccessError> {
        oak_failpoints::fail_point!("value/read");
        let value = self.read_locked(h, deadline)?;
        Ok(f(value.bytes()))
    }

    /// Atomically replaces the value's contents with `data` (the paper's
    /// `v.put`). Returns `Ok(false)` if the value is deleted.
    pub fn put(&self, h: HeaderRef, data: &[u8]) -> Result<bool, AllocError> {
        self.put_at(h, data, None).map_err(|e| match e {
            ValueOpError::Alloc(e) => e,
            ValueOpError::Access(_) => unreachable!("{UNTIMED}"),
        })
    }

    /// [`put`](Self::put) with the lock wait ended by `deadline`:
    /// `Ok(true)` wrote, `Ok(false)` found the value deleted (retry the
    /// full operation), `Err(Access(TimedOut))` reached the deadline.
    pub fn put_at(
        &self,
        h: HeaderRef,
        data: &[u8],
        deadline: Option<Instant>,
    ) -> Result<bool, ValueOpError> {
        oak_failpoints::sync_point!("value/put");
        oak_failpoints::fail_point!("value/put", Err(AllocError::Injected.into()));
        Ok(self.write_value(h, data, deadline, false)?.is_some())
    }

    /// Like [`put_at`](Self::put_at), but atomically returns a copy of the
    /// old contents (the legacy `ConcurrentNavigableMap.put` shape, which
    /// must return the previous value); `Ok(None)` found the value deleted.
    pub fn replace_at(
        &self,
        h: HeaderRef,
        data: &[u8],
        deadline: Option<Instant>,
    ) -> Result<Option<Vec<u8>>, ValueOpError> {
        oak_failpoints::fail_point!("value/replace", Err(AllocError::Injected.into()));
        self.write_value(h, data, deadline, true)
    }

    /// The body of [`put_at`](Self::put_at) and
    /// [`replace_at`](Self::replace_at): `Ok(None)` found the value
    /// deleted; `Ok(Some(old))` wrote `data`, with `old` a copy of the
    /// previous contents when `copy_old` is set and empty otherwise.
    /// Inlined into both callers so `copy_old` folds to a constant and
    /// the default put path carries no trace of the copy.
    #[inline(always)]
    fn write_value(
        &self,
        h: HeaderRef,
        data: &[u8],
        deadline: Option<Instant>,
        copy_old: bool,
    ) -> Result<Option<Vec<u8>>, ValueOpError> {
        let mut value = match self.write_locked(h, deadline) {
            Ok(value) => value,
            Err(AccessError::Deleted) => return Ok(None),
            Err(e @ AccessError::TimedOut) => return Err(e.into()),
        };
        let old_copy = if copy_old {
            value.as_slice().to_vec()
        } else {
            Vec::new()
        };
        let result = if value.len() == data.len() {
            value.as_mut_slice().copy_from_slice(data);
            Ok(Some(old_copy))
        } else {
            // Resize: allocate-copy-swap-free, all under the write lock.
            match value.replace(data) {
                Ok(()) => Ok(Some(old_copy)),
                Err(e) => Err(e.into()),
            }
        };
        value.unlock();
        result
    }

    /// Atomically applies `f` to the value in place (the paper's
    /// `v.compute`). Returns `None` if the value is deleted, otherwise the
    /// closure's result. The closure receives a [`ValueBytesMut`] supporting
    /// reads, writes, and resizing.
    ///
    /// # Panic safety
    ///
    /// `f` is arbitrary user code running under the header write lock. If
    /// it panics, the write guard *poisons* the value as it unwinds: the
    /// payload (possibly half-mutated) is freed and the header transitions
    /// to deleted exactly as in [`remove`](Self::remove), releasing the
    /// lock. Concurrent and subsequent accesses observe a cleanly deleted
    /// value — never a torn one, and never a header locked forever by a
    /// dead frame.
    pub fn compute<R>(
        &self,
        h: HeaderRef,
        f: impl FnOnce(&mut ValueBytesMut<'_>) -> R,
    ) -> Option<R> {
        self.compute_at(h, None, f).expect(UNTIMED)
    }

    /// [`compute`](Self::compute) with the lock wait ended by `deadline`:
    /// `Ok(None)` means the value is deleted, `Err(TimedOut)` that the
    /// deadline came first.
    pub fn compute_at<R>(
        &self,
        h: HeaderRef,
        deadline: Option<Instant>,
        f: impl FnOnce(&mut ValueBytesMut<'_>) -> R,
    ) -> Result<Option<R>, AccessError> {
        oak_failpoints::sync_point!("value/compute");
        oak_failpoints::fail_point!("value/compute");
        let mut value = match self.write_locked(h, deadline) {
            Ok(value) => value,
            Err(AccessError::Deleted) => return Ok(None),
            Err(e @ AccessError::TimedOut) => return Err(e),
        };
        let result = f(&mut value);
        value.unlock();
        Ok(Some(result))
    }

    /// Atomically marks the value deleted and reclaims its payload (the
    /// paper's `v.remove`). Returns `false` if already deleted — exactly one
    /// caller succeeds.
    pub fn remove(&self, h: HeaderRef) -> bool {
        self.remove_at(h, None).expect(UNTIMED)
    }

    /// [`remove`](Self::remove) with the lock wait ended by `deadline`;
    /// `Ok(false)` means already deleted, `Err(TimedOut)` that the deadline
    /// came first (the value is *not* removed in that case).
    pub fn remove_at(&self, h: HeaderRef, deadline: Option<Instant>) -> Result<bool, AccessError> {
        Ok(self.remove_value(h, deadline, false)?.is_some())
    }

    /// Like [`remove_at`](Self::remove_at), but atomically returns a copy
    /// of the removed contents (the legacy `ConcurrentNavigableMap.remove`
    /// shape); `Ok(None)` means already deleted.
    pub fn remove_returning_at(
        &self,
        h: HeaderRef,
        deadline: Option<Instant>,
    ) -> Result<Option<Vec<u8>>, AccessError> {
        self.remove_value(h, deadline, true)
    }

    /// The body of [`remove_at`](Self::remove_at) and
    /// [`remove_returning_at`](Self::remove_returning_at): `Ok(None)`
    /// means already deleted; `Ok(Some(old))` removed the value, with
    /// `old` a copy of its contents when `copy_old` is set and empty
    /// otherwise. Inlined into both callers, like
    /// [`write_value`](Self::write_value).
    #[inline(always)]
    fn remove_value(
        &self,
        h: HeaderRef,
        deadline: Option<Instant>,
        copy_old: bool,
    ) -> Result<Option<Vec<u8>>, AccessError> {
        oak_failpoints::sync_point!("value/remove");
        oak_failpoints::fail_point!("value/remove");
        let value = match self.write_locked(h, deadline) {
            Ok(value) => value,
            Err(AccessError::Deleted) => return Ok(None),
            Err(e @ AccessError::TimedOut) => return Err(e),
        };
        let old_copy = if copy_old {
            value.as_slice().to_vec()
        } else {
            Vec::new()
        };
        value.delete();
        Ok(Some(old_copy))
    }

    /// Whether the value's deleted bit is set.
    pub fn is_deleted(&self, h: HeaderRef) -> bool {
        let header = self.header(h);
        header.is_deleted() || !self.gen_matches(&header, h)
    }

    /// Current payload length in bytes; fails if deleted.
    pub fn value_len(&self, h: HeaderRef) -> Result<usize, AccessError> {
        self.read(h, |b| b.len())
    }

    /// Copies the value out; fails if deleted.
    pub fn read_to_vec(&self, h: HeaderRef) -> Result<Vec<u8>, AccessError> {
        self.read(h, |b| b.to_vec())
    }

    /// Diagnostic view of the header lock word.
    pub fn lock_state(&self, h: HeaderRef) -> LockState {
        self.header(h).lock_state()
    }

    /// The payload slice currently referenced by `h`'s header, or `None`
    /// when the value is empty or deleted. Lock-free diagnostic read used
    /// by the memory auditor's reachability walk — only meaningful at a
    /// quiescent point (a concurrent resize or remove can swap the
    /// payload out from under the snapshot).
    #[doc(hidden)]
    pub fn payload_of(&self, h: HeaderRef) -> Option<SliceRef> {
        let payload = self.header(h).payload();
        (!payload.is_null()).then_some(payload)
    }
}

/// A held read lock on one value; dropping it releases the lock, on
/// unwind too (readers don't mutate, so unlocking is the right unwind
/// behaviour).
struct ReadGuard<'a> {
    pool: &'a MemoryPool,
    header: Header<'a>,
}

impl ReadGuard<'_> {
    /// The payload bytes, readable while the lock is held.
    #[inline]
    fn bytes(&self) -> &[u8] {
        let payload = self.header.payload();
        if payload.is_null() {
            return &[];
        }
        // SAFETY: the read lock is held for `self`'s lifetime, and a writer
        // must take the write lock to change, resize or free the payload,
        // so the bytes stay put while the slice is live.
        unsafe { self.pool.slice(payload) }
    }
}

impl Drop for ReadGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        self.header.read_unlock();
    }
}

/// Exclusive, resizable access to a value's payload: the held write lock
/// on one value. [`ValueStore::compute`] lends it to its closure, which
/// therefore must not access the same value through the store: that
/// access would wait for the lock its own thread holds, and without a
/// deadline the wait never ends.
///
/// Every path releases it explicitly: by unlocking, or by deleting the
/// value. Dropping it unreleased happens only when a panic unwinds through
/// the lock holder, and *poisons* the value: the (possibly half-mutated)
/// payload is freed and the header retired exactly like a remove, so the
/// lock is released and every later access sees a clean deletion.
pub struct ValueBytesMut<'a> {
    store: &'a ValueStore,
    header: Header<'a>,
    h: HeaderRef,
}

impl ValueBytesMut<'_> {
    /// Current length of the payload in bytes.
    pub fn len(&self) -> usize {
        self.header.payload().len() as usize
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shared view of the payload.
    pub fn as_slice(&self) -> &[u8] {
        let payload = self.header.payload();
        if payload.is_null() {
            return &[];
        }
        // SAFETY: the write lock is held for `self`'s lifetime, so no other
        // thread reads or writes the payload; the shared borrow of `self`
        // excludes `as_mut_slice` and `resize` while the slice is live.
        unsafe { self.store.pool.slice(payload) }
    }

    /// Exclusive view of the payload.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        let payload = self.header.payload();
        if payload.is_null() {
            return &mut [];
        }
        // SAFETY: the write lock is held for `self`'s lifetime, so no other
        // thread reads or writes the payload; the exclusive borrow of
        // `self` excludes every other view of it while the slice is live.
        unsafe { self.store.pool.slice_mut(payload) }
    }

    /// Resizes the payload to `new_len` bytes, preserving the common prefix
    /// and zero-filling any extension. This is how `compute` lambdas grow a
    /// value ("extends the value's memory allocation if its code so
    /// requires").
    pub fn resize(&mut self, new_len: usize) -> Result<(), AllocError> {
        if new_len == self.len() {
            return Ok(());
        }
        let pool = &self.store.pool;
        let new = if new_len == 0 {
            SliceRef::NULL
        } else {
            let p = pool.allocate_tagged(new_len, AllocClass::ValuePayload)?;
            let old = self.as_slice();
            let keep = new_len.min(old.len());
            // SAFETY: `p` was just allocated and is not published yet, so
            // this thread is the only one that can reach its bytes.
            let dst = unsafe { pool.slice_mut(p) };
            dst[..keep].copy_from_slice(&old[..keep]);
            dst[keep..].fill(0);
            p
        };
        self.swap_payload(new);
        Ok(())
    }

    /// Reads a little-endian `u64` at byte offset `at`.
    pub fn get_u64(&self, at: usize) -> u64 {
        u64::from_le_bytes(self.as_slice()[at..at + 8].try_into().unwrap())
    }

    /// Writes a little-endian `u64` at byte offset `at`.
    pub fn put_u64(&mut self, at: usize, v: u64) {
        self.as_mut_slice()[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Replaces the payload with a fresh copy of `data` (a resizing put).
    fn replace(&mut self, data: &[u8]) -> Result<(), AllocError> {
        let new = if data.is_empty() {
            SliceRef::NULL
        } else {
            self.store
                .pool
                .allocate_copy(data, AllocClass::ValuePayload)?
        };
        self.swap_payload(new);
        Ok(())
    }

    /// Points the header at `new` and frees the payload it replaces.
    fn swap_payload(&mut self, new: SliceRef) {
        let old = self.header.payload();
        self.header.set_payload(new);
        if !old.is_null() {
            self.store.pool.free(old);
        }
    }

    /// Releases the write lock.
    #[inline]
    fn unlock(self) {
        std::mem::ManuallyDrop::new(self).header.write_unlock();
    }

    /// Deletes the value and releases the write lock: see
    /// [`retire`](Self::retire).
    #[inline]
    fn delete(self) {
        std::mem::ManuallyDrop::new(self).retire();
    }

    /// Detaches the payload, marks the header deleted — releasing the
    /// lock; for a remove this is the linearization point (§4.5) — and
    /// frees the payload. Under the reclaiming policy the generation is
    /// bumped first, invalidating outstanding references, and the slot is
    /// queued for reuse — unless its generation no longer fits a
    /// reference: a reused one would be bit-identical to a stale one, so
    /// the exhausted slot stays deleted for good.
    fn retire(&self) {
        let store = self.store;
        let mut reclaim = store.policy == ReclamationPolicy::ReclaimHeaders;
        let payload = self.header.payload();
        self.header.set_payload(SliceRef::NULL);
        if reclaim {
            reclaim = self.header.bump_generation() <= GEN_MASK;
        }
        self.header.mark_deleted_and_unlock();
        if reclaim {
            let h = self.h;
            store
                .recycled
                .lock()
                .push(SliceRef::new(h.block(), h.offset(), HEADER_SIZE as u32));
        }
        if !payload.is_null() {
            // Safe to reclaim: any reader must first take the read lock,
            // which now fails on the deleted bit; readers that held the
            // lock before the write lock was taken have already released it.
            store.pool.free(payload);
        }
    }
}

impl Drop for ValueBytesMut<'_> {
    /// Poisons the value: reached only by a panic unwinding through the
    /// lock holder (see the type docs).
    fn drop(&mut self) {
        self.store
            .pool
            .counters()
            .poisoned_values
            .fetch_add(1, Ordering::Relaxed);
        self.retire();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;

    fn vs() -> ValueStore {
        ValueStore::new(Arc::new(MemoryPool::new(PoolConfig::small())))
    }

    #[test]
    fn allocate_and_read() {
        let vs = vs();
        let h = vs.allocate_value(b"value-1").unwrap();
        assert_eq!(vs.read_to_vec(h).unwrap(), b"value-1");
        assert_eq!(vs.value_len(h).unwrap(), 7);
        assert!(!vs.is_deleted(h));
    }

    #[test]
    fn empty_value_supported() {
        let vs = vs();
        let h = vs.allocate_value(b"").unwrap();
        assert_eq!(vs.read_to_vec(h).unwrap(), Vec::<u8>::new());
        assert!(vs.put(h, b"now nonempty").unwrap());
        assert_eq!(vs.read_to_vec(h).unwrap(), b"now nonempty");
    }

    #[test]
    fn put_same_size_in_place() {
        let vs = vs();
        let h = vs.allocate_value(b"aaaa").unwrap();
        let before = vs.pool().stats().alloc_count;
        assert!(vs.put(h, b"bbbb").unwrap());
        // Same-size put must not allocate.
        assert_eq!(vs.pool().stats().alloc_count, before);
        assert_eq!(vs.read_to_vec(h).unwrap(), b"bbbb");
    }

    #[test]
    fn put_resizes() {
        let vs = vs();
        let h = vs.allocate_value(b"short").unwrap();
        assert!(vs.put(h, b"a much longer value indeed").unwrap());
        assert_eq!(vs.read_to_vec(h).unwrap(), b"a much longer value indeed");
        assert!(vs.put(h, b"x").unwrap());
        assert_eq!(vs.read_to_vec(h).unwrap(), b"x");
    }

    #[test]
    fn remove_is_exactly_once() {
        let vs = vs();
        let h = vs.allocate_value(b"gone").unwrap();
        assert!(vs.remove(h));
        assert!(!vs.remove(h));
        assert!(vs.is_deleted(h));
        assert_eq!(vs.read(h, |_| ()), Err(AccessError::Deleted));
        assert_eq!(vs.put(h, b"zz"), Ok(false));
        assert!(vs.compute(h, |_| ()).is_none());
    }

    #[test]
    fn compute_mutates_in_place() {
        let vs = vs();
        let h = vs.allocate_value(&0u64.to_le_bytes()).unwrap();
        for _ in 0..10 {
            vs.compute(h, |b| {
                let v = b.get_u64(0);
                b.put_u64(0, v + 1);
            })
            .unwrap();
        }
        let v = vs
            .read(h, |b| u64::from_le_bytes(b.try_into().unwrap()))
            .unwrap();
        assert_eq!(v, 10);
    }

    #[test]
    fn compute_can_grow_value() {
        let vs = vs();
        let h = vs.allocate_value(b"ab").unwrap();
        vs.compute(h, |b| {
            b.resize(6).unwrap();
            b.as_mut_slice()[2..].copy_from_slice(b"cdef");
        })
        .unwrap();
        assert_eq!(vs.read_to_vec(h).unwrap(), b"abcdef");
        // Shrink preserves prefix.
        vs.compute(h, |b| b.resize(3).unwrap()).unwrap();
        assert_eq!(vs.read_to_vec(h).unwrap(), b"abc");
    }

    #[test]
    fn remove_frees_payload_but_not_header() {
        let vs = vs();
        let h = vs.allocate_value(&[7u8; 1000]).unwrap();
        let live_before = vs.pool().stats().live_bytes;
        assert!(vs.remove(h));
        let stats = vs.pool().stats();
        // Payload (1000 → 1000 padded) freed; 16-byte header retained.
        assert_eq!(live_before - stats.live_bytes, 1000);
        assert_eq!(stats.header_bytes, 16);
    }

    #[test]
    fn concurrent_compute_is_atomic() {
        // Increment a counter from many threads through compute; the header
        // write lock must make every increment take effect exactly once.
        let vs = Arc::new(vs());
        let h = vs.allocate_value(&0u64.to_le_bytes()).unwrap();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let vs = vs.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    vs.compute(h, |b| {
                        let v = b.get_u64(0);
                        b.put_u64(0, v + 1);
                    })
                    .unwrap();
                }
            }));
        }
        for hdl in handles {
            hdl.join().unwrap();
        }
        let v = vs
            .read(h, |b| u64::from_le_bytes(b.try_into().unwrap()))
            .unwrap();
        assert_eq!(v, 2000);
    }

    #[test]
    fn panicking_compute_poisons_value() {
        let vs = vs();
        let h = vs.allocate_value(b"doomed").unwrap();
        let live_before = vs.pool().stats().live_bytes;
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            vs.compute(h, |b| {
                b.as_mut_slice()[0] = b'X'; // half-done mutation
                panic!("user closure exploded");
            })
        }))
        .unwrap_err();
        assert!(err.downcast_ref::<&str>().is_some());
        // The value is cleanly deleted: no torn reads, no stuck lock.
        assert!(vs.is_deleted(h));
        assert_eq!(vs.read(h, |_| ()), Err(AccessError::Deleted));
        assert_eq!(vs.put(h, b"zz"), Ok(false));
        assert!(!vs.remove(h));
        let stats = vs.pool().stats();
        assert_eq!(stats.poisoned_values, 1);
        // Payload reclaimed like a normal remove.
        assert_eq!(live_before - stats.live_bytes, 8);
        // The store remains fully usable.
        let h2 = vs.allocate_value(b"fresh").unwrap();
        assert_eq!(vs.read_to_vec(h2).unwrap(), b"fresh");
    }

    #[test]
    fn panicking_compute_after_resize_frees_new_payload() {
        let vs = vs();
        let h = vs.allocate_value(b"ab").unwrap();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            vs.compute(h, |b| {
                b.resize(100).unwrap();
                panic!("after resize");
            })
        }));
        assert!(vs.is_deleted(h));
        let stats = vs.pool().stats();
        // Both the original and the resized payload are back on the free
        // list: nothing is live except the retained header.
        assert_eq!(stats.live_bytes, stats.header_bytes);
    }

    #[test]
    fn panicking_read_releases_lock() {
        let vs = vs();
        let h = vs.allocate_value(b"peek").unwrap();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            vs.read(h, |_| panic!("reader closure exploded"))
        }));
        // Readers don't mutate, so the value survives and is writable.
        assert_eq!(vs.lock_state(h).readers, 0);
        assert_eq!(vs.read_to_vec(h).unwrap(), b"peek");
        assert!(vs.put(h, b"still").unwrap());
    }

    #[test]
    fn concurrent_remove_single_winner() {
        let vs = Arc::new(vs());
        for _ in 0..50 {
            let h = vs.allocate_value(b"contended").unwrap();
            let mut handles = Vec::new();
            for _ in 0..4 {
                let vs = vs.clone();
                handles.push(std::thread::spawn(move || vs.remove(h) as u32));
            }
            let winners: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert_eq!(winners, 1, "exactly one remove must succeed");
        }
    }
}

#[cfg(test)]
mod reclaim_tests {
    use super::*;
    use crate::pool::PoolConfig;

    fn vs() -> ValueStore {
        ValueStore::with_policy(
            Arc::new(MemoryPool::new(PoolConfig::small())),
            ReclamationPolicy::ReclaimHeaders,
        )
    }

    #[test]
    fn headers_are_recycled() {
        let store = vs();
        let h1 = store.allocate_value(b"first").unwrap();
        let slab_after_first = store.pool().stats().header_bytes;
        assert!(store.remove(h1));
        assert_eq!(store.recycled_headers(), 1);
        let h2 = store.allocate_value(b"second").unwrap();
        assert_eq!(store.recycled_headers(), 0);
        // Same physical slot, different generation.
        assert_eq!((h1.block(), h1.offset()), (h2.block(), h2.offset()));
        assert_ne!(h1.len(), h2.len());
        // No new header slab space was consumed.
        assert_eq!(store.pool().stats().header_bytes, slab_after_first);
        assert_eq!(store.read_to_vec(h2).unwrap(), b"second");
    }

    /// A slot whose generation would wrap is never reused: a fresh
    /// reference to it would equal a stale one, which would then read the
    /// squatter's bytes.
    #[test]
    fn an_exhausted_slot_is_not_recycled() {
        let store = vs();
        let stale = store.allocate_value(b"stale").unwrap();
        assert!(store.remove(stale));
        // Age the recycled slot as GEN_MASK - 1 more put/remove pairs would.
        store.header(stale).age_generation(GEN_MASK - 1);
        let last = store.allocate_value(b"last").unwrap();
        assert_eq!(last.len(), GEN_MASK, "the slot's last reusable generation");
        assert!(store.remove(last));
        let squatter = store.allocate_value(b"squatter").unwrap();
        assert_ne!(squatter, stale, "a fresh reference equals a stale one");
        assert_eq!(store.read_to_vec(stale), Err(AccessError::Deleted));
        assert!(!store.remove(stale));
        assert_eq!(store.read_to_vec(squatter).unwrap(), b"squatter");
        assert_eq!(store.recycled_headers(), 0);
    }

    #[test]
    fn stale_reference_fails_all_access() {
        let store = vs();
        let h_old = store.allocate_value(b"old").unwrap();
        assert!(store.remove(h_old));
        let h_new = store.allocate_value(b"new").unwrap();
        // h_old points at the recycled slot now holding "new": every access
        // through the stale reference must fail, not observe "new".
        assert_eq!(store.read(h_old, |b| b.to_vec()), Err(AccessError::Deleted));
        assert_eq!(store.put(h_old, b"clobber"), Ok(false));
        assert!(store.compute(h_old, |_| ()).is_none());
        assert!(
            !store.remove(h_old),
            "stale remove must not kill the new value"
        );
        assert!(store.is_deleted(h_old));
        // The new value is untouched.
        assert_eq!(store.read_to_vec(h_new).unwrap(), b"new");
        assert!(!store.is_deleted(h_new));
    }

    #[test]
    fn header_slab_stays_bounded_under_churn() {
        let store = vs();
        for i in 0..10_000u32 {
            let h = store.allocate_value(&i.to_le_bytes()).unwrap();
            assert!(store.remove(h));
        }
        let stats = store.pool().stats();
        // The retaining policy would have burned 10_000 × 16 B of headers;
        // recycling caps the slab at a handful of slots.
        assert!(
            stats.header_bytes <= 16 * 8,
            "header slab grew to {} bytes",
            stats.header_bytes
        );
    }

    #[test]
    fn concurrent_churn_with_stale_readers() {
        let store = Arc::new(vs());
        let h0 = store.allocate_value(&0u64.to_le_bytes()).unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // Writer: endless remove/allocate cycles on the same slot.
        let writer = {
            let (store, stop) = (store.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut h = h0;
                let mut i = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    assert!(store.remove(h));
                    h = store.allocate_value(&i.to_le_bytes()).unwrap();
                    i += 1;
                }
            })
        };
        // Stale readers: only ever use the original reference; they must
        // see either the original value (before its removal) or Deleted —
        // never a torn or newer value.
        let mut readers = Vec::new();
        for _ in 0..3 {
            let store = store.clone();
            readers.push(std::thread::spawn(move || {
                for _ in 0..20_000 {
                    match store.read(h0, |b| u64::from_le_bytes(b.try_into().unwrap())) {
                        Ok(v) => assert_eq!(v, 0, "stale ref observed a newer value"),
                        Err(e) => assert_eq!(e, AccessError::Deleted),
                    }
                }
            }));
        }
        for r in readers {
            r.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn panicking_compute_recycles_header() {
        let store = vs();
        let h = store.allocate_value(b"boom").unwrap();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.compute(h, |_| panic!("in reclaiming store"))
        }));
        // Poisoning under the reclaiming policy retires the slot for reuse;
        // the stale reference is fenced off by the generation bump.
        assert_eq!(store.recycled_headers(), 1);
        assert!(store.is_deleted(h));
        let h2 = store.allocate_value(b"reuse").unwrap();
        assert_eq!((h.block(), h.offset()), (h2.block(), h2.offset()));
        assert_eq!(store.read(h, |b| b.to_vec()), Err(AccessError::Deleted));
        assert_eq!(store.read_to_vec(h2).unwrap(), b"reuse");
    }

    #[test]
    fn retaining_policy_unaffected() {
        let store = ValueStore::with_policy(
            Arc::new(MemoryPool::new(PoolConfig::small())),
            ReclamationPolicy::RetainHeaders,
        );
        let h = store.allocate_value(b"x").unwrap();
        store.remove(h);
        assert_eq!(store.recycled_headers(), 0);
        let h2 = store.allocate_value(b"y").unwrap();
        assert_ne!((h.block(), h.offset()), (h2.block(), h2.offset()));
    }
}
