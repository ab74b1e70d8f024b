//! # oak-mempool — Oak's self-managed "off-heap" memory
//!
//! This crate is the Rust equivalent of Oak's off-heap memory manager
//! (paper §3.2–§3.3). In the Java original, key and value buffers live in
//! large pre-allocated `DirectByteBuffer` arenas outside the garbage-collected
//! heap. In Rust, "off-heap" translates to *self-managed*: each arena is one
//! large raw allocation obtained once from the system and carved up by our own
//! free list. No per-object allocator metadata, no global-allocator
//! traffic on the data path, and an exactly computable RAM footprint.
//!
//! The crate provides:
//!
//! * [`FreeList`] — the free space of one arena (a single large,
//!   fixed-size raw memory region): exact-size bins, coalesced segments
//!   found by smallest fit, and a bump tail;
//! * [`MemoryPool`] — a multi-arena pool handing out packed 64-bit
//!   [`SliceRef`]s, with exact footprint accounting; its probe locks only
//!   the arenas whose lock-free summary says they can serve;
//! * [`ValueStore`] — the value-access layer: every value is fronted by a
//!   16-byte *header* holding a reader/writer lock word, a deleted bit, and an
//!   indirection to the payload, enabling atomic `put`/`compute`/`remove` and
//!   in-place payload resize (paper §3.3). A header slot is allocated
//!   from the same arenas as payloads. Under
//!   [`ReclamationPolicy::RetainHeaders`] (the paper's memory manager) it
//!   is never reused, which makes the `finalizeRemove` ABA argument of
//!   §4.4 hold; under [`ReclamationPolicy::ReclaimHeaders`] (the default,
//!   for [`ValueStore::new`] and an `OakMap` alike) removed slots are
//!   recycled and every reference carries the slot's generation instead.
//!
//! All memory handed out by this crate stays mapped until the pool is
//! dropped, so reading a stale buffer is never undefined behaviour — logical
//! staleness is surfaced through the header's deleted bit instead
//! (the Rust analogue of Java Oak's `ConcurrentModificationException`).

#![warn(missing_docs)]

mod arena;
mod audit;
mod error;
mod freelist;
mod header;
mod pool;
mod refs;
mod shared;
mod stats;
mod value;

pub use audit::AllocClass;
#[cfg(feature = "audit")]
pub use audit::{AuditReport, AuditViolation, LiveAlloc, ViolationKind};
pub use error::{AccessError, AllocError, ValueOpError};
pub use freelist::FreeList;
pub use header::{HeaderRef, LockState, HEADER_SIZE};
pub use pool::{prefetch_line, MemoryPool, PoolConfig};
pub use refs::{SliceRef, MAX_ARENA_SIZE, MAX_BLOCKS, MAX_SLICE_LEN};
pub use shared::{ArenaPool, ArenaPoolStats};
pub use stats::{Merge, Metric, PoolStats};
pub use value::{ReclamationPolicy, ScanLock, ValueBytesMut, ValueStore};

/// Canonical failpoint sites declared by this crate (see the `failpoints`
/// feature and DESIGN.md "Failure model & panic safety"). Errorable sites
/// can be scheduled with return-error injection; passive sites only perturb
/// timing (yield / delay) or panic under explicit test configuration.
pub const FAILPOINT_SITES: &[oak_failpoints::SiteSpec] = &[
    oak_failpoints::SiteSpec::errorable("pool/alloc"),
    oak_failpoints::SiteSpec::errorable("pool/grow"),
    oak_failpoints::SiteSpec::errorable("freelist/pop"),
    oak_failpoints::SiteSpec::passive("pool/free"),
    oak_failpoints::SiteSpec::errorable("value/alloc"),
    oak_failpoints::SiteSpec::errorable("value/put"),
    oak_failpoints::SiteSpec::errorable("value/replace"),
    oak_failpoints::SiteSpec::passive("value/compute"),
    oak_failpoints::SiteSpec::passive("value/remove"),
    oak_failpoints::SiteSpec::passive("value/read"),
];
