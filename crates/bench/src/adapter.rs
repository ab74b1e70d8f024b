//! The benchmark-facing adapter over the workspace-wide
//! [`OrderedKvMap`] trait.
//!
//! Every compared map implements that trait in `oak_core`, so one
//! [`MapAdapter`] over a boxed trait object covers the whole artifact
//! competitor set: `OakMap` (ZC and Copy), `ShardedOak-N`,
//! `JavaSkipListMap` (= `Skiplist-OnHeap`), `OffHeapList`
//! (= `Skiplist-OffHeap`), and the MapDB-style B-tree.

use std::hint::black_box;

use oak_core::OrderedKvMap;

pub(crate) fn bump8(buf: &mut [u8]) {
    if buf.len() >= 8 {
        let v = u64::from_le_bytes(buf[..8].try_into().unwrap());
        buf[..8].copy_from_slice(&v.wrapping_add(1).to_le_bytes());
    }
}

/// Uniform interface for the benchmark driver. All methods take serialized
/// keys/values; `touch`-style reads consume the value bytes through
/// `black_box` so the compiler cannot elide the access.
///
/// `copy_mode` redirects `get_zc` through the copying path, producing the
/// `Oak-Copy` legacy curves of Fig 4c on the same underlying map.
pub struct MapAdapter {
    name: String,
    map: Box<dyn OrderedKvMap>,
    copy_mode: bool,
    shards: usize,
}

impl MapAdapter {
    /// Wraps `map` under the given report name (artifact names).
    pub fn new(name: impl Into<String>, map: impl OrderedKvMap + 'static) -> Self {
        MapAdapter {
            name: name.into(),
            map: Box::new(map),
            copy_mode: false,
            shards: 1,
        }
    }

    /// Routes `get_zc` through the copying path (Fig 4c `Oak-Copy`).
    #[must_use]
    pub fn copy_mode(mut self) -> Self {
        self.copy_mode = true;
        self
    }

    /// Records the shard count reported next to throughput.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Solution name for reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Shard count behind this solution (1 for unsharded maps); surfaced
    /// as a report column.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Insert or replace.
    pub fn put(&self, key: &[u8], value: &[u8]) {
        self.map.put(key, value).expect("put");
    }

    /// Insert if absent; true when inserted.
    pub fn put_if_absent(&self, key: &[u8], value: &[u8]) -> bool {
        self.map.put_if_absent(key, value).expect("putIfAbsent")
    }

    /// Zero-copy get: touches the value bytes in place.
    pub fn get_zc(&self, key: &[u8]) -> bool {
        if self.copy_mode {
            return self.get_copy(key).is_some();
        }
        self.map.read_with(key, &mut |v| {
            black_box(v.iter().fold(0u64, |a, &b| a.wrapping_add(u64::from(b))));
        })
    }

    /// Copying get (legacy API shape): materializes the value.
    pub fn get_copy(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.map.get_copy(key).inspect(|v| {
            black_box(v.len());
        })
    }

    /// In-place update of the first 8 value bytes (Fig 4b's workload).
    pub fn compute8(&self, key: &[u8]) -> bool {
        self.map.compute_if_present(key, &bump8)
    }

    /// Remove the mapping.
    pub fn remove(&self, key: &[u8]) -> bool {
        self.map.remove(key)
    }

    /// A visit closure that touches each pair and stops after `cap` pairs.
    fn touch(cap: usize) -> impl FnMut(&[u8], &[u8]) -> bool {
        let mut n = 0;
        move |k, v| {
            black_box((k.len(), v.len()));
            n += 1;
            n < cap
        }
    }

    /// Ascending scan of up to `len` pairs from `from`; `stream` selects
    /// the object-reusing API where the solution has one (the Set API's
    /// per-entry objects are the slower Fig 4e variant; baselines fall
    /// back to the stream scan). Returns pairs visited.
    pub fn ascend(&self, from: &[u8], len: usize, stream: bool) -> usize {
        self.range_up_to(from, None, len, stream)
    }

    /// Descending scan of up to `len` pairs from `from` downward.
    pub fn descend(&self, from: &[u8], len: usize, stream: bool) -> usize {
        let mut touch = Self::touch(len);
        if stream {
            self.map.descend(Some(from), None, &mut touch)
        } else {
            self.map.descend_entries(Some(from), None, &mut touch)
        }
    }

    /// Bounded ascending scan over `[lo, hi)` — the `4g` range-scan
    /// workload. Returns pairs visited.
    pub fn range(&self, lo: &[u8], hi: &[u8], stream: bool) -> usize {
        self.range_up_to(lo, Some(hi), usize::MAX, stream)
    }

    fn range_up_to(&self, lo: &[u8], hi: Option<&[u8]>, cap: usize, stream: bool) -> usize {
        let mut touch = Self::touch(cap);
        if stream {
            self.map.ascend(Some(lo), hi, &mut touch)
        } else {
            self.map.ascend_entries(Some(lo), hi, &mut touch)
        }
    }

    /// Live mappings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Off-heap pool statistics, for solutions backed by an
    /// [`oak_mempool`] pool. Used to surface contention / failure counters
    /// in the report; `None` for on-heap competitors.
    pub fn pool_stats(&self) -> Option<oak_mempool::PoolStats> {
        self.map.pool_stats()
    }
}
