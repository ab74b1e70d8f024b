//! A mini Druid node: one live (real-time) index plus persisted segments,
//! queried as a single timeline.
//!
//! This models the read path §6 situates the I² in: queries span the
//! mutable in-memory index *and* the immutable historical segments, and
//! ingestion hand-off ("the I² fills up → persist → dispose → fresh I²")
//! happens without a query-visible gap.

use oak_sync::RwLock;
use std::sync::Arc;

use oak_core::{OakError, OakMapConfig};

use crate::agg::AggValue;
use crate::index::{IncrementalIndex, OakIndex};
use crate::row::{InputRow, Schema};
use crate::segment::Segment;

/// A real-time data node: ingests into a live Oak-backed I², rolls full
/// indexes over into immutable segments, and serves queries over both.
pub struct DataNode {
    schema: Schema,
    config: OakMapConfig,
    /// Roll the live index into a segment once it holds this many keys.
    rollover_keys: usize,
    live: RwLock<Arc<OakIndex>>,
    segments: RwLock<Vec<Arc<Segment>>>,
}

impl DataNode {
    /// Creates a node; the live index rolls over into a segment at
    /// `rollover_keys` distinct keys.
    pub fn new(schema: Schema, config: OakMapConfig, rollover_keys: usize) -> Self {
        assert!(schema.rollup, "DataNode serves rollup schemas");
        assert!(rollover_keys > 0);
        let live = Arc::new(OakIndex::new(schema.clone(), config.clone()));
        DataNode {
            schema,
            config,
            rollover_keys,
            live: RwLock::new(live),
            segments: RwLock::new(Vec::new()),
        }
    }

    /// Ingests one tuple, rolling the live index over when it is full.
    pub fn insert(&self, row: &InputRow) -> Result<(), OakError> {
        // Hold the read guard across the insert: `rollover`'s write lock
        // then doubles as the hand-off barrier, so a row can never land in
        // an index that has already been persisted.
        let full = {
            let live = self.live.read();
            live.insert(row)?;
            live.num_keys() >= self.rollover_keys
        };
        if full {
            self.rollover();
        }
        Ok(())
    }

    /// Persists the live index into a segment and replaces it with a fresh
    /// one (the §6 lifecycle). Idempotent under races: only the thread that
    /// still sees the full index swaps it.
    pub fn rollover(&self) {
        let mut live = self.live.write();
        if live.num_keys() < self.rollover_keys {
            return; // someone else already rolled over
        }
        let segment = Arc::new(Segment::persist(live.as_ref()));
        self.segments.write().push(segment);
        *live = Arc::new(OakIndex::new(self.schema.clone(), self.config.clone()));
    }

    /// Compacts all persisted segments into one.
    pub fn compact_segments(&self) {
        let mut guard = self.segments.write();
        if guard.len() <= 1 {
            return;
        }
        let refs: Vec<&Segment> = guard.iter().map(|s| s.as_ref()).collect();
        let merged = Segment::compact(&refs);
        *guard = vec![Arc::new(merged)];
    }

    /// Number of persisted segments.
    pub fn num_segments(&self) -> usize {
        self.segments.read().len()
    }

    /// Keys currently in the live (real-time) index.
    pub fn live_keys(&self) -> usize {
        self.live.read().num_keys()
    }

    /// Scans `[t0, t1)` across every segment and the live index. Rows are
    /// delivered segment-by-segment (oldest first), then live; within each
    /// source they are key-ordered. The same key may appear once per
    /// source — callers aggregate (as Druid brokers do).
    pub fn scan(&self, t0: i64, t1: i64, f: &mut dyn FnMut(i64, &[AggValue]) -> bool) -> usize {
        // Snapshot (segments, live) consistently: holding the live read
        // guard keeps any rollover (which needs the write lock) from moving
        // the index between the two reads.
        let (segments, live) = {
            let live_guard = self.live.read();
            (self.segments.read().clone(), live_guard.clone())
        };
        let mut visited = 0;
        for seg in &segments {
            let mut keep_going = true;
            visited += seg.scan(t0, t1, &mut |ts, vals| {
                keep_going = f(ts, vals);
                keep_going
            });
            if !keep_going {
                return visited;
            }
        }
        visited += live.scan(t0, t1, f);
        visited
    }

    /// Total row count (Count aggregator at `count_idx`) over `[t0, t1)`
    /// across segments + live.
    pub fn total_rows(&self, t0: i64, t1: i64, count_idx: usize) -> i64 {
        let mut total = 0i64;
        self.scan(t0, t1, &mut |_, vals| {
            if let AggValue::Long(c) = vals[count_idx] {
                total += c;
            }
            true
        });
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggSpec;
    use crate::row::{DimKind, DimValue};

    fn schema() -> Schema {
        Schema::rollup(
            vec![("d".to_string(), DimKind::Long)],
            vec![AggSpec::Count, AggSpec::DoubleSum(0)],
        )
    }

    fn row(ts: i64, d: i64) -> InputRow {
        InputRow {
            timestamp: ts,
            dims: vec![DimValue::Long(d)],
            metrics: vec![1.0],
        }
    }

    #[test]
    fn rollover_preserves_every_row() {
        let node = DataNode::new(schema(), OakMapConfig::small(), 500);
        let total = 2_600i64;
        for i in 0..total {
            node.insert(&row(i, i % 7)).unwrap();
        }
        assert!(
            node.num_segments() >= 4,
            "segments: {}",
            node.num_segments()
        );
        assert!(node.live_keys() < 500);
        assert_eq!(node.total_rows(0, total, 0), total);
    }

    #[test]
    fn queries_span_live_and_historical() {
        let node = DataNode::new(schema(), OakMapConfig::small(), 100);
        for i in 0..250i64 {
            node.insert(&row(i, 0)).unwrap();
        }
        // A window straddling the segment/live boundary.
        assert_eq!(node.total_rows(150, 250, 0), 100);
        // Bounded windows inside historical data.
        assert_eq!(node.total_rows(0, 50, 0), 50);
    }

    #[test]
    fn compaction_collapses_segments() {
        let node = DataNode::new(schema(), OakMapConfig::small(), 100);
        for i in 0..1_000i64 {
            node.insert(&row(i, 0)).unwrap();
        }
        let before_rows = node.total_rows(0, 1_000, 0);
        assert!(node.num_segments() > 2);
        node.compact_segments();
        assert_eq!(node.num_segments(), 1);
        assert_eq!(node.total_rows(0, 1_000, 0), before_rows);
    }

    #[test]
    fn concurrent_ingest_with_rollovers_and_queries() {
        let node = Arc::new(DataNode::new(schema(), OakMapConfig::small(), 200));
        let mut handles = Vec::new();
        for t in 0..3i64 {
            let node = node.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000i64 {
                    node.insert(&row(t * 2_000 + i, i % 5)).unwrap();
                }
            }));
        }
        // Queries during ingestion must never fail or see negative counts.
        for _ in 0..20 {
            let n = node.total_rows(0, 6_000, 0);
            assert!(n >= 0);
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(node.total_rows(0, 6_000, 0), 6_000);
    }
}
