//! # oak-kv — Oak: a scalable off-heap allocated key-value map
//!
//! A Rust reproduction of *Oak* (Meir et al., PPoPP '20): a concurrent
//! ordered key-value map that self-manages its memory in large arenas,
//! organized as chunks with sorted prefixes and bypass linked lists, with a
//! zero-copy API and atomic in-place conditional updates.
//!
//! This facade crate re-exports the workspace's public surface:
//!
//! * [`OakMap`] and the zero-copy / legacy APIs — the paper's contribution
//!   ([`oak_core`]);
//! * the unified [`OrderedKvMap`] trait implemented by every ordered map in
//!   the workspace, and [`ShardedOakMap`] — N independent shards behind the
//!   same interface, routed by a [`ShardSplitter`];
//! * the self-managed memory pool ([`mempool`] = [`oak_mempool`]);
//! * the managed-heap (JVM) simulator used by the memory experiments
//!   ([`gcheap`] = [`oak_gcheap`]);
//! * the baselines: lock-free skiplist, off-heap skiplist, coarse-locked
//!   B+-tree ([`baselines`] = [`oak_skiplist`]);
//! * the Druid incremental-index case study ([`druid`] = [`oak_druid`]).
//!
//! ```
//! use oak_kv::{OakMap, OakMapConfig};
//!
//! let map = OakMap::with_config(OakMapConfig::small());
//! map.put(b"user:1", b"alice").unwrap();
//!
//! // Zero-copy read: the closure borrows Oak's own buffer.
//! let len = map.get_with(b"user:1", |v| v.len()).unwrap();
//! assert_eq!(len, 5);
//!
//! // Atomic in-place update (the paper's computeIfPresent).
//! map.compute_if_present(b"user:1", |buf| {
//!     buf.as_mut_slice().make_ascii_uppercase();
//! });
//! assert_eq!(map.get_copy(b"user:1").unwrap(), b"ALICE");
//! ```

#![warn(missing_docs)]

pub use oak_core::{
    legacy, serde_api, CorruptionKind, DescendIter, EntryIter, KeyComparator, Lexicographic,
    OakError, OakMap, OakMapConfig, OakRBuffer, OakStats, OakStatsSource, OakWBuffer,
    OnHeapSkipListMap, OpBudget, OrderedKvMap, OverloadConfig, OverloadState, RecoveryFailure,
    RetryPolicy, ShardSplitter, ShardedOakMap, U64BeComparator, ZeroCopyView,
};

/// Crash-durable checkpoint/recovery (`durable` feature): stream a live
/// map into a CRC-protected on-disk image and rebuild it after a crash.
#[cfg(feature = "durable")]
pub mod durable {
    pub use oak_durable::*;
}

/// The self-managed off-heap memory substrate (arenas, free lists, value
/// headers).
pub mod mempool {
    pub use oak_mempool::*;
}

/// The managed-heap (JVM) simulator used by the paper's memory experiments.
pub mod gcheap {
    pub use oak_gcheap::*;
}

/// The ordered-map baselines the paper compares against.
pub mod baselines {
    pub use oak_skiplist::btree::LockedBTreeMap;
    pub use oak_skiplist::offheap::OffHeapSkipListMap;
    pub use oak_skiplist::{PutOutcome, SkipListMap};
}

/// The Druid incremental-index (I²) case study.
pub mod druid {
    pub use oak_druid::*;
}
