//! # oak-core — Oak: a scalable off-heap allocated key-value map
//!
//! A Rust implementation of the Oak concurrent ordered KV-map
//! (Meir et al., PPoPP '20). Oak stores variable-size keys and values in
//! self-managed arena memory ([`oak_mempool`]) and keeps only small
//! metadata — a chunk list and a lazy index — "on heap". Its design points,
//! all implemented here:
//!
//! * **Chunk-based organization** (§3.1): entries live in large chunks with
//!   a binary-searchable sorted prefix and a bypass linked list for new
//!   inserts, giving searches locality that node-per-entry skiplists lack.
//! * **Atomic conditional updates** (§4): `put`, `put_if_absent`,
//!   `compute_if_present` and `put_if_absent_compute_if_present` are all
//!   linearizable, including the in-place compute lambdas — which the JDK's
//!   maps do not offer.
//! * **Zero-copy API** (§2.2): `get` and scans return [`OakRBuffer`] views
//!   into Oak's own memory rather than deserialized objects; update lambdas
//!   receive an [`OakWBuffer`]. A legacy copying API
//!   ([`legacy::TypedOakMap`]) mirrors `ConcurrentNavigableMap`.
//! * **Two-way scans** (§4.2): ascending scans stream through chunks;
//!   descending scans use the sorted-prefix + bypass-stack algorithm of
//!   Figure 2, avoiding a fresh O(log N) lookup per key.
//! * **Internal GC** (§3.2–§3.3): value payloads are reclaimed on remove
//!   and resize through headers with a reader/writer lock and deleted bit;
//!   headers are never reused (the default memory manager), making the
//!   `finalizeRemove` path ABA-free.
//!
//! ## Quick start
//!
//! ```
//! use oak_core::{OakMap, OakMapConfig};
//!
//! let map = OakMap::with_config(OakMapConfig::small());
//! map.put(b"hello", b"world").unwrap();
//! let len = map.get_with(b"hello", |v| v.len()).unwrap();
//! assert_eq!(len, 5);
//! map.compute_if_present(b"hello", |v| v.as_mut_slice()[0] = b'W');
//! assert_eq!(map.get_copy(b"hello").unwrap(), b"World");
//! map.remove(b"hello");
//! assert!(map.get_copy(b"hello").is_none());
//! ```

#![warn(missing_docs)]

pub mod legacy;
pub mod serde_api;

mod budget;
mod buffer;
mod chunk;
mod cmp;
mod config;
mod error;
mod index;
mod iter;
mod map;
mod ops;
mod overload;
mod rebalance;
mod reclaim;
mod sharded;
mod traits;
mod zc;

pub use budget::{OpBudget, RetryPolicy};
pub use buffer::{OakRBuffer, OakWBuffer};
pub use cmp::{KeyComparator, Lexicographic, U64BeComparator};
pub use config::OakMapConfig;
pub use error::{CorruptionKind, OakError, RecoveryFailure};
pub use iter::{DescendIter, EntryIter};
#[cfg(feature = "audit")]
pub use map::MapAuditReport;
pub use map::{OakMap, OakStats};
pub use overload::{OverloadConfig, OverloadState};
pub use sharded::{ShardSplitter, ShardedOakMap};
pub use traits::{OakStatsSource, OnHeapSkipListMap, OrderedKvMap};
pub use zc::{SubMapView, ZeroCopyView};

/// Canonical failpoint sites declared by this crate (see the `failpoints`
/// feature and DESIGN.md "Failure model & panic safety").
pub const FAILPOINT_SITES: &[oak_failpoints::SiteSpec] = &[
    oak_failpoints::SiteSpec::errorable("chunk/publish"),
    oak_failpoints::SiteSpec::passive("chunk/unpublish"),
    oak_failpoints::SiteSpec::passive("chunk/cas-value"),
    oak_failpoints::SiteSpec::errorable("chunk/allocate-entry"),
    oak_failpoints::SiteSpec::passive("rebalance/start"),
    oak_failpoints::SiteSpec::passive("rebalance/freeze"),
    oak_failpoints::SiteSpec::passive("rebalance/splice"),
    oak_failpoints::SiteSpec::passive("rebalance/publish-replacement"),
    oak_failpoints::SiteSpec::passive("index/publish"),
    oak_failpoints::SiteSpec::passive("index/retire"),
    oak_failpoints::SiteSpec::passive("index/replace-first"),
    oak_failpoints::SiteSpec::passive("iter/ascend-hop"),
    oak_failpoints::SiteSpec::passive("iter/descend-refill"),
    oak_failpoints::SiteSpec::passive("iter/descend-prev"),
    oak_failpoints::SiteSpec::passive("iter/stale-reenter"),
    oak_failpoints::SiteSpec::passive("iter/batch-refill"),
    oak_failpoints::SiteSpec::passive("ops/remove-marked"),
    oak_failpoints::SiteSpec::passive("reclaim/drain"),
];

/// Named *sync points* instrumented across this crate and
/// [`oak_mempool`] — the decision sites (§4.5 linearization points and the
/// scan/rebalance hand-off sites) that a deterministic
/// [`oak_failpoints::SyncSchedule`](oak_failpoints) interleaving can gate
/// on. See DESIGN.md "Linearization points and the interleaving harness"
/// for the mapping from the paper's linearization points to these names.
pub const SYNC_SITES: &[&str] = &[
    // Entry value-reference CAS (Algorithms 2–3) and the publish/freeze
    // protocol around it.
    "chunk/publish",
    "chunk/cas-value",
    "chunk/freeze",
    // Value-header state transitions (v.put / v.compute / v.remove).
    "value/put",
    "value/compute",
    "value/remove",
    // A point operation holding its located chunk borrowed, before the
    // in-chunk lookup (every op's `locateChunk` → `lookUp` boundary).
    "ops/located",
    // Remove marked deleted but not yet finalized (Algorithm 3 line 48→).
    "ops/remove-marked",
    // Rebalance: engage, freeze, list splice, replacement publication.
    "rebalance/start",
    "rebalance/freeze",
    "rebalance/splice",
    "rebalance/publish-replacement",
    // Lazy index maintenance and the first-pointer swing.
    "index/publish",
    "index/retire",
    "index/replace-first",
    // Scan decision sites (per-step, chunk hops, refills, stale re-entry).
    // The `iter/ascend-*`, `iter/descend-*` and `iter/stale-reenter`
    // family fires on the per-entry walker (`batch_scan(false)`); the
    // batch pipeline fires `iter/batch-step` per drained entry and
    // `iter/batch-refill` per chunk snapshot instead — entry- and
    // batch-granularity witnesses respectively.
    "iter/ascend-step",
    "iter/ascend-hop",
    "iter/descend-step",
    "iter/descend-refill",
    "iter/descend-prev",
    "iter/stale-reenter",
    "iter/batch-step",
    "iter/batch-refill",
];

/// All failpoint sites reachable through an [`OakMap`]: this crate's plus
/// [`oak_mempool::FAILPOINT_SITES`]. Test harnesses generate fault
/// schedules over this set.
pub fn all_failpoint_sites() -> Vec<oak_failpoints::SiteSpec> {
    FAILPOINT_SITES
        .iter()
        .chain(oak_mempool::FAILPOINT_SITES)
        .copied()
        .collect()
}
