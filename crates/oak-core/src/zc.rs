//! The zero-copy API view (Table 1's `ZeroCopyConcurrentNavigableMap`).
//!
//! Obtained via [`OakMap::zc`]; mirrors the paper's method set. Queries
//! return [`OakRBuffer`] views instead of objects; updates do not return
//! old values (avoiding copies); `compute_if_present` and
//! `put_if_absent_compute_if_present` update atomically in place.

use crate::buffer::{OakRBuffer, OakWBuffer};
use crate::cmp::KeyComparator;
use crate::error::OakError;
use crate::iter::{DescendIter, EntryIter};
use crate::map::OakMap;

/// Borrowed zero-copy facade over an [`OakMap`].
pub struct ZeroCopyView<'a, C: KeyComparator> {
    map: &'a OakMap<C>,
}

impl<'a, C: KeyComparator> ZeroCopyView<'a, C> {
    pub(crate) fn new(map: &'a OakMap<C>) -> Self {
        ZeroCopyView { map }
    }

    /// `OakRBuffer get(K)` — a view, not a copy.
    pub fn get(&self, key: &[u8]) -> Option<OakRBuffer> {
        self.map.get(key)
    }

    /// `void put(K, V)` — does not return the old value.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), OakError> {
        self.map.put(key, value)
    }

    /// `void remove(K)`.
    pub fn remove(&self, key: &[u8]) {
        self.map.remove(key);
    }

    /// `boolean putIfAbsent(K, V)`.
    pub fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool, OakError> {
        self.map.put_if_absent(key, value)
    }

    /// `boolean computeIfPresent(K, Function(OakWBuffer))` — atomic, unlike
    /// the legacy map's.
    pub fn compute_if_present(&self, key: &[u8], f: impl Fn(&mut OakWBuffer<'_>)) -> bool {
        self.map.compute_if_present(key, f)
    }

    /// `boolean putIfAbsentComputeIfPresent(K, V, Function(OakWBuffer))`.
    pub fn put_if_absent_compute_if_present(
        &self,
        key: &[u8],
        value: &[u8],
        f: impl Fn(&mut OakWBuffer<'_>),
    ) -> Result<bool, OakError> {
        self.map.put_if_absent_compute_if_present(key, value, f)
    }

    /// `entrySet()` over `[lo, hi)` — one ephemeral buffer pair per entry.
    pub fn entry_set(&self, lo: Option<&[u8]>, hi: Option<&[u8]>) -> EntryIter<'a, C> {
        self.map.iter_range(lo, hi)
    }

    /// `entryStreamSet()` — the object-reusing stream scan: `f` borrows the
    /// key and value bytes with no per-entry allocation.
    pub fn entry_stream_set(
        &self,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> usize {
        self.map.for_each_in(lo, hi, f)
    }

    /// `descendingMap().entrySet()` from `from` down to `lo` (both
    /// inclusive; `None` = unbounded).
    pub fn descending_entry_set(
        &self,
        from: Option<&[u8]>,
        lo: Option<&[u8]>,
    ) -> DescendIter<'a, C> {
        self.map.iter_descending(from, lo)
    }

    /// Descending stream scan.
    pub fn descending_entry_stream_set(
        &self,
        from: Option<&[u8]>,
        lo: Option<&[u8]>,
        f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> usize {
        self.map.for_each_descending(from, lo, f)
    }

    /// `keySet()`: ascending key buffers.
    pub fn key_set(
        &self,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
    ) -> impl Iterator<Item = OakRBuffer> + use<'a, C> {
        self.map.iter_range(lo, hi).map(|(k, _)| k)
    }

    /// `valueSet()`: ascending value buffers.
    pub fn value_set(
        &self,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
    ) -> impl Iterator<Item = OakRBuffer> + use<'a, C> {
        self.map.iter_range(lo, hi).map(|(_, v)| v)
    }

    /// `keyStreamSet()`: key bytes only, no per-entry objects.
    pub fn key_stream_set(
        &self,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        mut f: impl FnMut(&[u8]) -> bool,
    ) -> usize {
        self.map.for_each_in(lo, hi, |k, _| f(k))
    }

    /// `valueStreamSet()`: value bytes only, no per-entry objects.
    pub fn value_stream_set(
        &self,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        mut f: impl FnMut(&[u8]) -> bool,
    ) -> usize {
        self.map.for_each_in(lo, hi, |_, v| f(v))
    }

    /// `subMap(lo, hi)`: a bounded view of the map over `[lo, hi)`
    /// (unbounded where `None`), restricting every operation to the range.
    pub fn sub_map(&self, lo: Option<&[u8]>, hi: Option<&[u8]>) -> SubMapView<'a, C> {
        SubMapView {
            map: self.map,
            lo: lo.map(|b| b.into()),
            hi: hi.map(|b| b.into()),
        }
    }
}

/// A `subMap`-style bounded view (Table 1's "sub-range … views are provided
/// by familiar subMap() … methods").
pub struct SubMapView<'a, C: KeyComparator> {
    map: &'a OakMap<C>,
    lo: Option<Box<[u8]>>,
    hi: Option<Box<[u8]>>,
}

impl<'a, C: KeyComparator> SubMapView<'a, C> {
    /// Whether `key` lies in `[lo, hi)` under the map's comparator — the
    /// order the view's scans use.
    fn in_range(&self, key: &[u8]) -> bool {
        use std::cmp::Ordering::Less;
        let cmp = &self.map.cmp;
        self.lo
            .as_ref()
            .is_none_or(|lo| cmp.compare(key, lo) != Less)
            && self
                .hi
                .as_ref()
                .is_none_or(|hi| cmp.compare(key, hi) == Less)
    }

    /// Bounded `get`.
    pub fn get(&self, key: &[u8]) -> Option<OakRBuffer> {
        if !self.in_range(key) {
            return None;
        }
        self.map.get(key)
    }

    /// Bounded `put`; out-of-range keys are rejected.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<bool, OakError> {
        if !self.in_range(key) {
            return Ok(false);
        }
        self.map.put(key, value)?;
        Ok(true)
    }

    /// Bounded `remove`.
    pub fn remove(&self, key: &[u8]) -> bool {
        self.in_range(key) && self.map.remove(key)
    }

    /// Entries of the view, ascending.
    pub fn entry_set(&self) -> EntryIter<'a, C> {
        self.map.iter_range(self.lo.as_deref(), self.hi.as_deref())
    }

    /// Entries of the view, descending (`descendingMap().entrySet()`).
    pub fn descending_entry_set(&self) -> DescendIter<'a, C> {
        // The descending iterator's `from` bound is inclusive; `hi` is an
        // exclusive upper bound, so start from it exclusively by bounding
        // with the predecessor semantics of the iterator's `lo`.
        match &self.hi {
            Some(hi) => {
                let mut it = self.map.iter_descending(Some(hi), self.lo.as_deref());
                // `hi` itself is excluded from the view; skip it if present.
                // (Keys are unique, so at most one entry can match.)
                it.skip_exact(hi);
                it
            }
            None => self.map.iter_descending(None, self.lo.as_deref()),
        }
    }

    /// Number of live entries in the view (O(range size)).
    pub fn len(&self) -> usize {
        self.map
            .for_each_in(self.lo.as_deref(), self.hi.as_deref(), |_, _| true)
    }

    /// Whether the view holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map
            .for_each_in(self.lo.as_deref(), self.hi.as_deref(), |_, _| false)
            == 0
    }
}
