//! # oak-skiplist — concurrent ordered-map baselines and Oak's index
//!
//! This crate provides the ordered-map substrates the Oak paper compares
//! against, plus the index structure Oak itself uses internally:
//!
//! * [`SkipListMap`] — a lock-free concurrent skiplist in the style of
//!   `java.util.concurrent.ConcurrentSkipListMap` (the paper's
//!   `Skiplist-OnHeap` baseline). Removal nulls the value first (the
//!   linearization point), then marks and unlinks the tower; nodes are
//!   reclaimed through `oak_sync::epoch` once every tower link is gone.
//!   `compute`/`merge` are CAS-replace loops, faithfully *not* atomic
//!   in-place — the contrast the paper draws in §1.1 and Figure 4b.
//!   Descending scans are implemented as one fresh O(log N) lookup per
//!   step, exactly the behaviour Figure 4f punishes.
//!   It optionally charges a [`HeapModel`](oak_gcheap::HeapModel) for every
//!   simulated Java object, enabling the Figure 3/5 memory experiments.
//!
//! * [`OffHeapSkipListMap`](offheap::OffHeapSkipListMap) — the paper's
//!   `Skiplist-OffHeap` baseline: the same skiplist over *cells* that
//!   reference key/value buffers in an [`oak_mempool`] pool, exposing a
//!   zero-copy API.
//!
//! * [`btree::LockedBTreeMap`] — a coarse-locked off-heap B+-tree standing
//!   in for the MapDB comparator the paper mentions (§1.2, §5.1).

#![warn(missing_docs)]

pub mod btree;
pub mod offheap;

mod list;
mod rng;

pub use list::{PutOutcome, SkipListMap, MAX_HEIGHT};
