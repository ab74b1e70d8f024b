//! Incremental indexes: the Oak backend (I²-Oak) and the on-heap legacy
//! backend (I²-legacy).
//!
//! "For every incoming data tuple, I² updates its internal KV-map, creating
//! a new pair if the tuple's key is absent, or updating in-situ otherwise"
//! (§6). Data is never removed from an I²; once full, it is persisted and
//! disposed — which is why Oak's low-churn default memory manager fits.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use oak_sync::Mutex;

use oak_core::{OakError, OakMap, OakMapConfig, OakStatsSource, OrderedKvMap};
use oak_gcheap::{layout, HeapModel, NoopHeap};
use oak_skiplist::SkipListMap;

use crate::agg::{self, AggValue};
use crate::dictionary::Dictionary;
use crate::row::{encode_i64, DimKind, DimValue, InputRow, Schema};

/// RAM footprint report for Figure 5c.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexFootprint {
    /// Bytes holding raw key/value data.
    pub data_bytes: u64,
    /// Bytes of index metadata (chunks/nodes, entries, headers).
    pub metadata_bytes: u64,
    /// Bytes of on-heap auxiliary structures (dictionaries).
    pub dictionary_bytes: u64,
}

impl IndexFootprint {
    /// Total RAM consumed.
    pub fn total(&self) -> u64 {
        self.data_bytes + self.metadata_bytes + self.dictionary_bytes
    }
}

/// Common interface of the two I² backends.
pub trait IncrementalIndex: Send + Sync {
    /// Ingests one tuple (creates or folds in place).
    fn insert(&self, row: &InputRow) -> Result<(), OakError>;

    /// Number of distinct keys currently held.
    fn num_keys(&self) -> usize;

    /// Scans keys with `t0 ≤ timestamp < t1` in key order, delivering the
    /// timestamp and materialized aggregate values. Returns keys visited.
    fn scan(&self, t0: i64, t1: i64, f: &mut dyn FnMut(i64, &[AggValue]) -> bool) -> usize;

    /// Raw scan over all keys in key order: serialized key and aggregate
    /// (or raw-row) bytes. Feeds segment persistence
    /// ([`crate::segment::Segment::persist`]).
    fn scan_raw(&self, f: &mut dyn FnMut(&[u8], &[u8]) -> bool) -> usize;

    /// RAM footprint breakdown.
    fn footprint(&self) -> IndexFootprint;

    /// The schema this index was built with.
    fn schema(&self) -> &Schema;
}

/// Encodes a row's key: order-preserving timestamp, then one 8-byte field
/// per dimension (dictionary codeword or encoded long).
fn encode_key(schema: &Schema, dicts: &[Dictionary], row: &InputRow, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&encode_i64(row.timestamp));
    for (i, (_, kind)) in schema.dimensions.iter().enumerate() {
        match (kind, &row.dims[i]) {
            (DimKind::Str, DimValue::Str(s)) => {
                out.extend_from_slice(&(dicts[i].encode(s) as u64).to_be_bytes())
            }
            (DimKind::Long, DimValue::Long(v)) => out.extend_from_slice(&encode_i64(*v)),
            (kind, value) => panic!("dimension {i} kind mismatch: {kind:?} vs {value:?}"),
        }
    }
}

fn decode_ts(key: &[u8]) -> i64 {
    crate::row::decode_i64(&key[..8])
}

// ---------------------------------------------------------------------------
// I²-Oak
// ---------------------------------------------------------------------------

/// The Oak-backed incremental index (the paper's I²-Oak prototype).
///
/// Generic over the backing map: any [`OrderedKvMap`] that also reports
/// Oak-shaped statistics ([`OakStatsSource`]) works, so the same index
/// runs over a single [`OakMap`] (the default) or a
/// [`ShardedOakMap`](oak_core::ShardedOakMap) via [`OakIndex::with_map`].
///
/// ```
/// use oak_core::OakMapConfig;
/// use oak_druid::agg::{AggSpec, AggValue};
/// use oak_druid::index::{IncrementalIndex, OakIndex};
/// use oak_druid::row::{DimKind, DimValue, InputRow, Schema};
///
/// let schema = Schema::rollup(
///     vec![("page".into(), DimKind::Str)],
///     vec![AggSpec::Count, AggSpec::DoubleSum(0)],
/// );
/// let idx = OakIndex::new(schema, OakMapConfig::small());
/// for latency in [1.0, 2.0, 4.0] {
///     idx.insert(&InputRow {
///         timestamp: 1_000,
///         dims: vec![DimValue::Str("/home".into())],
///         metrics: vec![latency],
///     }).unwrap();
/// }
/// assert_eq!(idx.num_keys(), 1); // rolled up
/// idx.scan(0, 2_000, &mut |_, vals| {
///     assert_eq!(vals[0], AggValue::Long(3));
///     assert_eq!(vals[1], AggValue::Double(7.0));
///     true
/// });
/// ```
pub struct OakIndex<M: OrderedKvMap + OakStatsSource = OakMap> {
    schema: Schema,
    dicts: Vec<Dictionary>,
    map: M,
    chunk_capacity: u32,
    /// Plain-mode row id generator (gives raw rows unique keys).
    row_id: AtomicU64,
}

impl OakIndex {
    /// Creates an index over a fresh Oak map.
    pub fn new(schema: Schema, config: OakMapConfig) -> Self {
        let chunk_capacity = config.chunk_capacity;
        Self::with_map(schema, OakMap::with_config(config), chunk_capacity)
    }
}

impl<M: OrderedKvMap + OakStatsSource> OakIndex<M> {
    /// Creates an index over an existing map (e.g. a pre-built
    /// [`ShardedOakMap`](oak_core::ShardedOakMap)). `chunk_capacity` is
    /// the per-chunk entry count used for metadata estimation in
    /// [`footprint`](IncrementalIndex::footprint).
    pub fn with_map(schema: Schema, map: M, chunk_capacity: u32) -> Self {
        let dicts = (0..schema.dimensions.len())
            .map(|_| Dictionary::new())
            .collect();
        OakIndex {
            schema,
            dicts,
            map,
            chunk_capacity,
            row_id: AtomicU64::new(0),
        }
    }

    /// The underlying map.
    pub fn map(&self) -> &M {
        &self.map
    }

    fn serialize_plain(&self, row: &InputRow) -> Vec<u8> {
        let mut v = Vec::with_capacity(8 * row.metrics.len());
        for m in &row.metrics {
            v.extend_from_slice(&m.to_le_bytes());
        }
        if v.is_empty() {
            v.push(0);
        }
        v
    }
}

impl<M: OrderedKvMap + OakStatsSource> IncrementalIndex for OakIndex<M> {
    fn insert(&self, row: &InputRow) -> Result<(), OakError> {
        let mut key = Vec::with_capacity(self.schema.key_size() + 8);
        encode_key(&self.schema, &self.dicts, row, &mut key);
        if self.schema.rollup {
            // The paper's write path: one atomic lambda updating every
            // aggregate of the key.
            let init = agg::init_all(&self.schema.aggregators, row);
            let specs = &self.schema.aggregators;
            self.map
                .put_if_absent_compute_if_present(&key, &init, &|buf| {
                    agg::fold_all(specs, buf, row);
                })?;
        } else {
            // Plain index: raw rows under unique keys.
            let id = self.row_id.fetch_add(1, Ordering::Relaxed);
            key.extend_from_slice(&id.to_be_bytes());
            self.map.put(&key, &self.serialize_plain(row))?;
        }
        Ok(())
    }

    fn num_keys(&self) -> usize {
        self.map.len()
    }

    fn scan(&self, t0: i64, t1: i64, f: &mut dyn FnMut(i64, &[AggValue]) -> bool) -> usize {
        let lo = encode_i64(t0);
        let hi = encode_i64(t1);
        let specs = &self.schema.aggregators;
        self.map.ascend(Some(&lo), Some(&hi), &mut |k, v| {
            let vals = if self.schema.rollup {
                agg::read_all(specs, v)
            } else {
                Vec::new()
            };
            f(decode_ts(k), &vals)
        })
    }

    fn scan_raw(&self, f: &mut dyn FnMut(&[u8], &[u8]) -> bool) -> usize {
        self.map.ascend(None, None, f)
    }

    fn footprint(&self) -> IndexFootprint {
        let stats = self.map.oak_stats();
        // Data: live off-heap bytes minus value headers (headers count as
        // metadata). Metadata: headers + on-heap chunk structures (entries
        // arrays at 20 B/entry plus per-chunk fixed overhead and the lazy
        // index, ~128 B/chunk).
        let headers = stats.pool.header_bytes;
        let chunk_meta = stats.chunks as u64 * (20 * self.chunk_capacity as u64 + 128);
        IndexFootprint {
            data_bytes: stats.pool.live_bytes.saturating_sub(headers),
            metadata_bytes: headers + chunk_meta,
            dictionary_bytes: self.dicts.iter().map(|d| d.footprint_bytes() as u64).sum(),
        }
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }
}

// ---------------------------------------------------------------------------
// I²-legacy
// ---------------------------------------------------------------------------

/// The legacy on-heap incremental index: a `ConcurrentSkipListMap`-style
/// map holding boxed keys and aggregator objects, charged against a
/// simulated JVM heap.
pub struct LegacyIndex {
    schema: Schema,
    dicts: Vec<Dictionary>,
    list: SkipListMap<Vec<u8>, Mutex<Vec<u8>>>,
    heap: Arc<dyn HeapModel>,
    /// Set when the heap is a [`ManagedHeap`](oak_gcheap::ManagedHeap), for
    /// footprint/GC statistics.
    managed: Option<Arc<oak_gcheap::ManagedHeap>>,
    row_id: AtomicU64,
}

impl LegacyIndex {
    /// Creates an index accounted against a simulated JVM heap.
    pub fn with_managed_heap(schema: Schema, heap: Arc<oak_gcheap::ManagedHeap>) -> Self {
        let mut idx = Self::new(schema, heap.clone());
        idx.managed = Some(heap);
        idx
    }

    /// Creates an index accounted against `heap` (use
    /// [`NoopHeap`] for pure functionality tests).
    pub fn new(schema: Schema, heap: Arc<dyn HeapModel>) -> Self {
        let n_aggs = schema.aggregators.len();
        let dicts: Vec<Dictionary> = (0..schema.dimensions.len())
            .map(|_| Dictionary::new())
            .collect();
        // Java layout: boxed key array; value = aggregator object per
        // aggregator plus their backing state.
        let list = SkipListMap::with_heap(
            heap.clone(),
            |k: &Vec<u8>| layout::boxed_bytes(k.len()),
            move |v: &Mutex<Vec<u8>>| {
                layout::object(2 * layout::REF_SIZE)
                    + n_aggs * layout::object(16)
                    + layout::byte_array(v.lock().len())
            },
        );
        LegacyIndex {
            schema,
            dicts,
            list,
            heap,
            managed: None,
            row_id: AtomicU64::new(0),
        }
    }

    /// Convenience constructor without heap accounting.
    pub fn unaccounted(schema: Schema) -> Self {
        Self::new(schema, Arc::new(NoopHeap))
    }

    /// The heap model backing this index.
    pub fn heap(&self) -> &Arc<dyn HeapModel> {
        &self.heap
    }
}

impl IncrementalIndex for LegacyIndex {
    fn insert(&self, row: &InputRow) -> Result<(), OakError> {
        let mut key = Vec::with_capacity(self.schema.key_size() + 8);
        encode_key(&self.schema, &self.dicts, row, &mut key);
        if self.schema.rollup {
            let specs = &self.schema.aggregators;
            loop {
                let folded = self
                    .list
                    .get_with(&key, |m| {
                        agg::fold_all(specs, &mut m.lock(), row);
                    })
                    .is_some();
                if folded {
                    return Ok(());
                }
                let init = agg::init_all(specs, row);
                if self.list.put_if_absent(key.clone(), Mutex::new(init)) {
                    return Ok(());
                }
                // Raced with a concurrent creator; fold into theirs.
            }
        } else {
            let id = self.row_id.fetch_add(1, Ordering::Relaxed);
            key.extend_from_slice(&id.to_be_bytes());
            let mut v = Vec::with_capacity(8 * row.metrics.len());
            for m in &row.metrics {
                v.extend_from_slice(&m.to_le_bytes());
            }
            self.list.put(key, Mutex::new(v));
            Ok(())
        }
    }

    fn num_keys(&self) -> usize {
        self.list.len()
    }

    fn scan(&self, t0: i64, t1: i64, f: &mut dyn FnMut(i64, &[AggValue]) -> bool) -> usize {
        let lo = encode_i64(t0).to_vec();
        let hi = encode_i64(t1).to_vec();
        let specs = &self.schema.aggregators;
        self.list.for_each_range(Some(&lo), Some(&hi), |k, m| {
            let vals = if self.schema.rollup {
                agg::read_all(specs, &m.lock())
            } else {
                Vec::new()
            };
            f(decode_ts(k), &vals)
        })
    }

    fn scan_raw(&self, f: &mut dyn FnMut(&[u8], &[u8]) -> bool) -> usize {
        self.list.for_each_range(None, None, |k, m| f(k, &m.lock()))
    }

    fn footprint(&self) -> IndexFootprint {
        // For a ManagedHeap, live_bytes is the simulated JVM usage; split
        // data vs. metadata by recomputing the raw payload portion.
        let raw: u64 = {
            let mut sum = 0u64;
            self.list.for_each_range(None, None, |k, m| {
                sum += k.len() as u64 + m.lock().len() as u64;
                true
            });
            sum
        };
        let total = match &self.managed {
            Some(h) => h.stats().live_bytes,
            None => raw,
        };
        IndexFootprint {
            data_bytes: raw,
            metadata_bytes: total.saturating_sub(raw),
            dictionary_bytes: self.dicts.iter().map(|d| d.footprint_bytes() as u64).sum(),
        }
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggSpec;

    fn schema() -> Schema {
        Schema::rollup(
            vec![
                ("page".to_string(), DimKind::Str),
                ("status".to_string(), DimKind::Long),
            ],
            vec![
                AggSpec::Count,
                AggSpec::DoubleSum(0),
                AggSpec::HllUniqueDim(0),
            ],
        )
    }

    fn row(ts: i64, page: &str, status: i64, latency: f64) -> InputRow {
        InputRow {
            timestamp: ts,
            dims: vec![DimValue::Str(page.into()), DimValue::Long(status)],
            metrics: vec![latency],
        }
    }

    fn check_backend(idx: &dyn IncrementalIndex) {
        // Same (ts, page, status) rolls up; different keys do not.
        idx.insert(&row(1000, "a", 200, 1.0)).unwrap();
        idx.insert(&row(1000, "a", 200, 2.0)).unwrap();
        idx.insert(&row(1000, "b", 200, 4.0)).unwrap();
        idx.insert(&row(2000, "a", 200, 8.0)).unwrap();
        assert_eq!(idx.num_keys(), 3);

        // Scan [1000, 2000): two keys at ts 1000.
        let mut seen = Vec::new();
        idx.scan(1000, 2000, &mut |ts, vals| {
            seen.push((ts, vals.to_vec()));
            true
        });
        assert_eq!(seen.len(), 2);
        for (ts, _) in &seen {
            assert_eq!(*ts, 1000);
        }
        // The rolled-up "a" key has count 2 and sum 3.0.
        let counts: Vec<i64> = seen
            .iter()
            .map(|(_, v)| match v[0] {
                AggValue::Long(c) => c,
                _ => panic!(),
            })
            .collect();
        assert!(counts.contains(&2) && counts.contains(&1));
        let sums: Vec<f64> = seen
            .iter()
            .map(|(_, v)| match v[1] {
                AggValue::Double(s) => s,
                _ => panic!(),
            })
            .collect();
        assert!(sums.contains(&3.0) && sums.contains(&4.0));

        // Unbounded-ish scan sees all three keys.
        let mut n = 0;
        idx.scan(0, 10_000, &mut |_, _| {
            n += 1;
            true
        });
        assert_eq!(n, 3);
    }

    #[test]
    fn oak_backend_rolls_up() {
        let idx = OakIndex::new(schema(), OakMapConfig::small());
        check_backend(&idx);
        assert!(idx.footprint().total() > 0);
    }

    #[test]
    fn legacy_backend_rolls_up() {
        let idx = LegacyIndex::unaccounted(schema());
        check_backend(&idx);
        assert!(idx.footprint().total() > 0);
    }

    #[test]
    fn sharded_backend_rolls_up() {
        let config = OakMapConfig::small();
        let cap = config.chunk_capacity;
        let idx = OakIndex::with_map(
            schema(),
            oak_core::ShardedOakMap::with_config(4, config),
            cap,
        );
        check_backend(&idx);
        assert!(idx.footprint().total() > 0);
        assert_eq!(idx.map().shard_stats().len(), 4);
    }

    #[test]
    fn plain_mode_keeps_every_row() {
        let s = Schema::plain(vec![("page".to_string(), DimKind::Str)]);
        let idx = OakIndex::new(s, OakMapConfig::small());
        for i in 0..100 {
            idx.insert(&InputRow {
                timestamp: 1000,
                dims: vec![DimValue::Str("same".into())],
                metrics: vec![i as f64],
            })
            .unwrap();
        }
        // No rollup: every duplicate tuple gets its own key.
        assert_eq!(idx.num_keys(), 100);
    }

    #[test]
    fn concurrent_ingestion_rolls_up_exactly() {
        let idx = Arc::new(OakIndex::new(
            Schema::rollup(
                vec![("page".to_string(), DimKind::Str)],
                vec![AggSpec::Count, AggSpec::DoubleSum(0)],
            ),
            OakMapConfig::small(),
        ));
        let mut handles = Vec::new();
        for t in 0..4 {
            let idx = idx.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1_000u64 {
                    idx.insert(&InputRow {
                        timestamp: (i % 10) as i64,
                        dims: vec![DimValue::Str(format!("page-{}", (t + i) % 7))],
                        metrics: vec![1.0],
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Total count across all keys must equal total tuples.
        let mut total = 0i64;
        let mut sum = 0.0f64;
        idx.scan(i64::MIN / 2, i64::MAX / 2, &mut |_, vals| {
            if let AggValue::Long(c) = vals[0] {
                total += c;
            }
            if let AggValue::Double(s) = vals[1] {
                sum += s;
            }
            true
        });
        assert_eq!(total, 4_000);
        assert_eq!(sum, 4_000.0);
        assert!(idx.num_keys() <= 70);
    }

    #[test]
    fn timestamps_order_the_scan() {
        let idx = OakIndex::new(schema(), OakMapConfig::small());
        for ts in [5_000i64, 1_000, 3_000, -2_000, 4_000] {
            idx.insert(&row(ts, "x", 1, 1.0)).unwrap();
        }
        let mut seen = Vec::new();
        idx.scan(i64::MIN / 2, i64::MAX / 2, &mut |ts, _| {
            seen.push(ts);
            true
        });
        assert_eq!(seen, vec![-2_000, 1_000, 3_000, 4_000, 5_000]);
    }
}
