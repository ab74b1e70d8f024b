//! The unified [`OrderedKvMap`] trait: one interface over every concurrent
//! ordered byte-key map in the workspace.
//!
//! KiWi's enhanced implementation showed how a common ordered-map interface
//! lets one conformance / fuzz harness exercise many concurrent maps; this
//! module is that interface for the Oak workspace. It is implemented by
//! [`OakMap`], [`ShardedOakMap`], and the three baselines
//! (`SkipListMap<Vec<u8>, Mutex<Vec<u8>>>` — the `ConcurrentSkipListMap`
//! stand-in — [`OffHeapSkipListMap`], and [`LockedBTreeMap`]), and consumed
//! by the benchmark adapter, the druid backend, and the conformance suite.
//!
//! Design notes:
//!
//! * Compute closures take `&mut [u8]` rather than a map-specific buffer
//!   type so the trait stays implementable by maps without Oak's header
//!   layer. Each implementation brackets the closure in whatever locking
//!   it has (Oak and the off-heap skiplist use the value header's write
//!   lock; the on-heap skiplist a per-value mutex; the B+-tree its value
//!   header under the coarse lock). In-place updates cannot resize.
//! * The trait is dyn-compatible: closures are passed as `&dyn Fn` /
//!   `&mut dyn FnMut`, so `&dyn OrderedKvMap` works (the fault harness
//!   drives schedules through exactly that).

use oak_mempool::PoolStats;
use oak_skiplist::btree::LockedBTreeMap;
use oak_skiplist::offheap::OffHeapSkipListMap;
use oak_skiplist::SkipListMap;
use oak_sync::Mutex;

use crate::cmp::KeyComparator;
use crate::error::OakError;
use crate::map::{OakMap, OakStats};
use crate::sharded::ShardedOakMap;

/// A concurrent ordered map from byte keys to byte values.
///
/// Mirrors the paper's Table 1 API surface in map-agnostic form:
/// conditional atomic updates (`put_if_absent`, `compute_if_present`,
/// `put_if_absent_compute_if_present`), removal, and ascending/descending
/// range scans.
pub trait OrderedKvMap: Send + Sync {
    /// Number of live key-value pairs.
    fn len(&self) -> usize;

    /// Whether the map is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copying get.
    fn get_copy(&self, key: &[u8]) -> Option<Vec<u8>>;

    /// Reads without materializing the value: applies `f` to the value
    /// bytes of `key` in place (under whatever read guard the map uses);
    /// returns whether the key was present.
    fn read_with(&self, key: &[u8], f: &mut dyn FnMut(&[u8])) -> bool;

    /// Whether `key` is present.
    fn contains_key(&self, key: &[u8]) -> bool {
        self.get_copy(key).is_some()
    }

    /// Inserts or replaces `key → value`.
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), OakError>;

    /// Inserts `key → value` if absent; returns whether this call
    /// inserted.
    fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool, OakError>;

    /// Atomically applies `f` to the value mapped to `key`, in place.
    /// Returns whether the value was present.
    fn compute_if_present(&self, key: &[u8], f: &dyn Fn(&mut [u8])) -> bool;

    /// If `key` is absent, inserts `value`; otherwise atomically applies
    /// `f` to the present value in place. Returns `true` if this call
    /// inserted a new mapping.
    fn put_if_absent_compute_if_present(
        &self,
        key: &[u8],
        value: &[u8],
        f: &dyn Fn(&mut [u8]),
    ) -> Result<bool, OakError>;

    /// Removes the mapping for `key`; returns whether this call removed
    /// it.
    fn remove(&self, key: &[u8]) -> bool;

    /// Ascending scan over `[lo, hi)` (unbounded where `None`); `f`
    /// borrows key and value bytes and returns whether to continue.
    /// Returns entries visited.
    fn ascend(
        &self,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> usize;

    /// Descending scan from `from` (inclusive; `None` = from the last key)
    /// down to `lo` (inclusive; `None` = unbounded). Returns entries
    /// visited.
    fn descend(
        &self,
        from: Option<&[u8]>,
        lo: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> usize;

    /// Ascending scan through the *Set API* (one ephemeral entry object
    /// per pair) where the implementation distinguishes it; defaults to
    /// the stream scan. No implementation does today: handing a closure
    /// borrowed bytes needs no per-entry objects, so `OakMap` rides its
    /// stream scan here too, and [`OakMap::iter_range`] /
    /// [`OakMap::iter_descending`] remain its object-per-entry Set API for
    /// callers that hold entries beyond the visit.
    fn ascend_entries(
        &self,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> usize {
        self.ascend(lo, hi, f)
    }

    /// Descending *Set API* scan; defaults to the stream scan.
    fn descend_entries(
        &self,
        from: Option<&[u8]>,
        lo: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> usize {
        self.descend(from, lo, f)
    }

    /// Off-heap pool statistics, for maps backed by an [`oak_mempool`]
    /// pool; `None` for on-heap maps.
    fn pool_stats(&self) -> Option<PoolStats> {
        None
    }
}

/// Maps that report Oak-shaped statistics ([`OakStats`]): the druid
/// backend's footprint estimation runs on any such map.
pub trait OakStatsSource {
    /// Aggregated statistics for the whole map.
    fn oak_stats(&self) -> OakStats;

    /// Per-shard statistics; a single element for unsharded maps.
    fn shard_stats(&self) -> Vec<OakStats> {
        vec![self.oak_stats()]
    }
}

// ---------------------------------------------------------------------------
// OakMap
// ---------------------------------------------------------------------------

impl<C: KeyComparator> OrderedKvMap for OakMap<C> {
    fn len(&self) -> usize {
        OakMap::len(self)
    }

    fn get_copy(&self, key: &[u8]) -> Option<Vec<u8>> {
        OakMap::get_copy(self, key)
    }

    fn read_with(&self, key: &[u8], f: &mut dyn FnMut(&[u8])) -> bool {
        self.get_with(key, |v| f(v)).is_some()
    }

    fn contains_key(&self, key: &[u8]) -> bool {
        OakMap::contains_key(self, key)
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), OakError> {
        OakMap::put(self, key, value)
    }

    fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool, OakError> {
        OakMap::put_if_absent(self, key, value)
    }

    fn compute_if_present(&self, key: &[u8], f: &dyn Fn(&mut [u8])) -> bool {
        OakMap::compute_if_present(self, key, |buf| f(buf.as_mut_slice()))
    }

    fn put_if_absent_compute_if_present(
        &self,
        key: &[u8],
        value: &[u8],
        f: &dyn Fn(&mut [u8]),
    ) -> Result<bool, OakError> {
        OakMap::put_if_absent_compute_if_present(self, key, value, |buf| f(buf.as_mut_slice()))
    }

    fn remove(&self, key: &[u8]) -> bool {
        OakMap::remove(self, key)
    }

    fn ascend(
        &self,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> usize {
        self.for_each_in(lo, hi, |k, v| f(k, v))
    }

    fn descend(
        &self,
        from: Option<&[u8]>,
        lo: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> usize {
        self.for_each_descending(from, lo, |k, v| f(k, v))
    }

    fn pool_stats(&self) -> Option<PoolStats> {
        Some(self.pool().stats())
    }
}

impl<C: KeyComparator> OakStatsSource for OakMap<C> {
    fn oak_stats(&self) -> OakStats {
        self.stats()
    }
}

// ---------------------------------------------------------------------------
// ShardedOakMap
// ---------------------------------------------------------------------------

impl<C: KeyComparator> OrderedKvMap for ShardedOakMap<C> {
    fn len(&self) -> usize {
        ShardedOakMap::len(self)
    }

    fn get_copy(&self, key: &[u8]) -> Option<Vec<u8>> {
        ShardedOakMap::get_copy(self, key)
    }

    fn read_with(&self, key: &[u8], f: &mut dyn FnMut(&[u8])) -> bool {
        self.get_with(key, |v| f(v)).is_some()
    }

    fn contains_key(&self, key: &[u8]) -> bool {
        ShardedOakMap::contains_key(self, key)
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), OakError> {
        ShardedOakMap::put(self, key, value)
    }

    fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool, OakError> {
        ShardedOakMap::put_if_absent(self, key, value)
    }

    fn compute_if_present(&self, key: &[u8], f: &dyn Fn(&mut [u8])) -> bool {
        ShardedOakMap::compute_if_present(self, key, |buf| f(buf.as_mut_slice()))
    }

    fn put_if_absent_compute_if_present(
        &self,
        key: &[u8],
        value: &[u8],
        f: &dyn Fn(&mut [u8]),
    ) -> Result<bool, OakError> {
        ShardedOakMap::put_if_absent_compute_if_present(self, key, value, |buf| {
            f(buf.as_mut_slice())
        })
    }

    fn remove(&self, key: &[u8]) -> bool {
        ShardedOakMap::remove(self, key)
    }

    fn ascend(
        &self,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> usize {
        self.for_each_in(lo, hi, |k, v| f(k, v))
    }

    fn descend(
        &self,
        from: Option<&[u8]>,
        lo: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> usize {
        self.for_each_descending(from, lo, |k, v| f(k, v))
    }

    fn pool_stats(&self) -> Option<PoolStats> {
        Some(self.stats().pool)
    }
}

impl<C: KeyComparator> OakStatsSource for ShardedOakMap<C> {
    fn oak_stats(&self) -> OakStats {
        self.stats()
    }

    fn shard_stats(&self) -> Vec<OakStats> {
        ShardedOakMap::shard_stats(self)
    }
}

// ---------------------------------------------------------------------------
// Skiplist-OnHeap (the ConcurrentSkipListMap stand-in)
// ---------------------------------------------------------------------------

/// The on-heap baseline instantiation: boxed keys, per-value mutexes for
/// locked in-place updates (`ConcurrentSkipListMap` has no atomic compute;
/// the mutex is the closest Java-idiomatic equivalent). Named so harnesses
/// can construct it without naming the lock type.
pub type OnHeapSkipListMap = SkipListMap<Vec<u8>, Mutex<Vec<u8>>>;

impl OrderedKvMap for SkipListMap<Vec<u8>, Mutex<Vec<u8>>> {
    fn len(&self) -> usize {
        SkipListMap::len(self)
    }

    fn get_copy(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.get_with(&key.to_vec(), |v| v.lock().clone())
    }

    fn read_with(&self, key: &[u8], f: &mut dyn FnMut(&[u8])) -> bool {
        // "Zero-copy" here means no materialized copy: the bytes are
        // borrowed from the boxed value under its mutex.
        self.get_with(&key.to_vec(), |v| f(&v.lock())).is_some()
    }

    fn contains_key(&self, key: &[u8]) -> bool {
        self.get_with(&key.to_vec(), |_| ()).is_some()
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), OakError> {
        SkipListMap::put(self, key.to_vec(), Mutex::new(value.to_vec()));
        Ok(())
    }

    fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool, OakError> {
        Ok(SkipListMap::put_if_absent(
            self,
            key.to_vec(),
            Mutex::new(value.to_vec()),
        ))
    }

    fn compute_if_present(&self, key: &[u8], f: &dyn Fn(&mut [u8])) -> bool {
        self.get_with(&key.to_vec(), |v| f(&mut v.lock())).is_some()
    }

    fn put_if_absent_compute_if_present(
        &self,
        key: &[u8],
        value: &[u8],
        f: &dyn Fn(&mut [u8]),
    ) -> Result<bool, OakError> {
        loop {
            if self.get_with(&key.to_vec(), |v| f(&mut v.lock())).is_some() {
                return Ok(false);
            }
            if SkipListMap::put_if_absent(self, key.to_vec(), Mutex::new(value.to_vec())) {
                return Ok(true);
            }
        }
    }

    fn remove(&self, key: &[u8]) -> bool {
        SkipListMap::remove(self, &key.to_vec())
    }

    fn ascend(
        &self,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> usize {
        let lo_k = lo.map(|l| l.to_vec());
        let hi_k = hi.map(|h| h.to_vec());
        self.for_each_range(lo_k.as_ref(), hi_k.as_ref(), |k, v| f(k, &v.lock()))
    }

    fn descend(
        &self,
        from: Option<&[u8]>,
        lo: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> usize {
        let start = match from {
            Some(b) => Some(b.to_vec()),
            None => self.last_key(),
        };
        let Some(start) = start else {
            return 0;
        };
        let lo_k = lo.map(|l| l.to_vec());
        self.for_each_descending(&start, lo_k.as_ref(), |k, v| f(k, &v.lock()))
    }
}

// ---------------------------------------------------------------------------
// Skiplist-OffHeap
// ---------------------------------------------------------------------------

impl OrderedKvMap for OffHeapSkipListMap {
    fn len(&self) -> usize {
        OffHeapSkipListMap::len(self)
    }

    fn get_copy(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.get(key)
    }

    fn read_with(&self, key: &[u8], f: &mut dyn FnMut(&[u8])) -> bool {
        self.get_with(key, |v| f(v)).is_some()
    }

    fn contains_key(&self, key: &[u8]) -> bool {
        OffHeapSkipListMap::contains_key(self, key)
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), OakError> {
        OffHeapSkipListMap::put(self, key, value).map_err(OakError::from)
    }

    fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool, OakError> {
        OffHeapSkipListMap::put_if_absent(self, key, value).map_err(OakError::from)
    }

    fn compute_if_present(&self, key: &[u8], f: &dyn Fn(&mut [u8])) -> bool {
        OffHeapSkipListMap::compute_if_present(self, key, |b| f(b.as_mut_slice()))
    }

    fn put_if_absent_compute_if_present(
        &self,
        key: &[u8],
        value: &[u8],
        f: &dyn Fn(&mut [u8]),
    ) -> Result<bool, OakError> {
        OffHeapSkipListMap::put_if_absent_compute_if_present(self, key, value, |b| {
            f(b.as_mut_slice())
        })
        .map_err(OakError::from)
    }

    fn remove(&self, key: &[u8]) -> bool {
        OffHeapSkipListMap::remove(self, key)
    }

    fn ascend(
        &self,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> usize {
        self.for_each_range(lo, hi, |k, v| f(k, v))
    }

    fn descend(
        &self,
        from: Option<&[u8]>,
        lo: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> usize {
        let start = match from {
            Some(b) => Some(b.to_vec()),
            None => self.last_key(),
        };
        let Some(start) = start else {
            return 0;
        };
        self.for_each_descending(&start, lo, |k, v| f(k, v))
    }

    fn pool_stats(&self) -> Option<PoolStats> {
        Some(self.pool().stats())
    }
}

// ---------------------------------------------------------------------------
// MapDB-style B+-tree
// ---------------------------------------------------------------------------

impl OrderedKvMap for LockedBTreeMap {
    fn len(&self) -> usize {
        LockedBTreeMap::len(self)
    }

    fn get_copy(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.get(key)
    }

    fn read_with(&self, key: &[u8], f: &mut dyn FnMut(&[u8])) -> bool {
        self.get_with(key, |v| f(v)).is_some()
    }

    fn contains_key(&self, key: &[u8]) -> bool {
        LockedBTreeMap::contains_key(self, key)
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), OakError> {
        LockedBTreeMap::put(self, key, value).map_err(OakError::from)
    }

    fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool, OakError> {
        LockedBTreeMap::put_if_absent(self, key, value).map_err(OakError::from)
    }

    fn compute_if_present(&self, key: &[u8], f: &dyn Fn(&mut [u8])) -> bool {
        LockedBTreeMap::compute_if_present(self, key, |b| f(b.as_mut_slice()))
    }

    fn put_if_absent_compute_if_present(
        &self,
        key: &[u8],
        value: &[u8],
        f: &dyn Fn(&mut [u8]),
    ) -> Result<bool, OakError> {
        LockedBTreeMap::put_if_absent_compute_if_present(self, key, value, |b| f(b.as_mut_slice()))
            .map_err(OakError::from)
    }

    fn remove(&self, key: &[u8]) -> bool {
        LockedBTreeMap::remove(self, key)
    }

    fn ascend(
        &self,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> usize {
        self.for_each_range(lo, hi, |k, v| f(k, v))
    }

    fn descend(
        &self,
        from: Option<&[u8]>,
        lo: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> usize {
        self.for_each_descending(from, lo, |k, v| f(k, v))
    }

    fn pool_stats(&self) -> Option<PoolStats> {
        Some(self.pool().stats())
    }
}
