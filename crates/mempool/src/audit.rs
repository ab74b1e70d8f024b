//! Off-heap memory auditor (feature `audit`).
//!
//! Oak manages its own off-heap memory, so classic allocator bugs —
//! double-free, freeing a reference that was never allocated, reading a
//! slice after it went back on the free list — do not crash the process:
//! they silently corrupt the free list or surface as torn reads much
//! later. The auditor is a pool-side ledger that catches these at the
//! `free`/`slice` boundary, plus an [`audit`](crate::MemoryPool::audit)
//! walk that proves `live_bytes + free_bytes == capacity` and attributes
//! every live byte to an allocation class.
//!
//! The ledger tracks every allocation by its packed address
//! `(block << 32) | offset` together with its padded length, allocation
//! class, and a monotonically increasing allocation sequence number (the
//! "generation" of that address). On `free`, the reference must match a
//! live ledger entry exactly; otherwise the free is *recorded as a
//! violation and skipped*, so the free list is never corrupted by a
//! buggy caller. On `slice`/`slice_mut`, the reference must fall inside a
//! live entry; otherwise a use-after-free is recorded (the access itself
//! stays memory-safe — arenas are never unmapped while the pool lives).
//!
//! Everything in this module is compiled only under the `audit` feature,
//! except [`AllocClass`], which call sites use unconditionally (tagging
//! is free when the feature is off).

/// What a pool allocation is used for. Callers tag allocations via
/// [`MemoryPool::allocate_tagged`](crate::MemoryPool::allocate_tagged) so
/// the auditor can attribute leaks to a slice class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllocClass {
    /// An immutable key buffer owned by a chunk entry.
    Key,
    /// A value payload reached through a header's indirection word.
    ValuePayload,
    /// A 16-byte value header slot. Headers are retained (or recycled via
    /// the header free list) by design and are exempt from leak checks.
    Header,
    /// Anything else (untagged callers, tests).
    #[default]
    Other,
}

#[cfg(feature = "audit")]
pub use enabled::{AuditReport, AuditViolation, LiveAlloc, ViolationKind};

#[cfg(feature = "audit")]
pub(crate) use enabled::Ledger;

#[cfg(feature = "audit")]
mod enabled {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};

    use oak_sync::Mutex;

    use super::AllocClass;
    use crate::refs::SliceRef;

    /// Packed ledger key for a slice address.
    #[inline]
    pub(crate) fn addr_key(r: SliceRef) -> u64 {
        ((r.block() as u64) << 32) | r.offset() as u64
    }

    /// A live allocation as tracked by the ledger.
    #[derive(Debug, Clone, Copy)]
    pub struct LiveAlloc {
        /// Granularity-padded length actually taken from the free list.
        pub padded_len: u32,
        /// The caller-declared slice class.
        pub class: AllocClass,
        /// Monotonic allocation sequence number (attribution of "which
        /// allocation leaked", stable across reuse of the same address).
        pub seq: u64,
    }

    /// The kind of lifecycle violation the auditor detected.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ViolationKind {
        /// `free` of an address that was live earlier but already freed.
        DoubleFree,
        /// `free` of an address/length the pool never handed out (or a
        /// length mismatching the live allocation at that address).
        ForeignFree,
        /// `slice`/`slice_mut` of bytes not covered by a live allocation.
        UseAfterFree,
    }

    /// One recorded lifecycle violation.
    #[derive(Debug, Clone, Copy)]
    pub struct AuditViolation {
        /// What went wrong.
        pub kind: ViolationKind,
        /// The offending reference.
        pub r: SliceRef,
        /// Class of the previous allocation at this address, if known.
        pub class: Option<AllocClass>,
    }

    /// Result of a full pool audit: per-class live accounting cross-checked
    /// against the free lists, plus every violation recorded so far.
    #[derive(Debug, Clone)]
    pub struct AuditReport {
        /// Bytes live according to the ledger (padded).
        pub live_bytes: u64,
        /// Bytes free according to the free lists.
        pub free_bytes: u64,
        /// Total managed capacity (arenas × arena size).
        pub capacity_bytes: u64,
        /// Whether `live_bytes + free_bytes == capacity_bytes`.
        pub balanced: bool,
        /// Live bytes attributed to each allocation class.
        pub live_by_class: Vec<(AllocClass, u64)>,
        /// All lifecycle violations recorded since pool creation.
        pub violations: Vec<AuditViolation>,
    }

    impl AuditReport {
        /// Live bytes of one class (0 if the class has no live bytes).
        pub fn class_bytes(&self, class: AllocClass) -> u64 {
            self.live_by_class
                .iter()
                .find(|(c, _)| *c == class)
                .map_or(0, |(_, b)| *b)
        }
    }

    #[derive(Default)]
    struct LedgerInner {
        /// Live allocations by packed address.
        live: HashMap<u64, LiveAlloc>,
        /// Most recent freed allocation per address, evicted when the
        /// address is handed out again. Distinguishes double-free from
        /// foreign-free.
        freed: HashMap<u64, LiveAlloc>,
        violations: Vec<AuditViolation>,
    }

    /// Pool-side allocation ledger (one per [`MemoryPool`](crate::MemoryPool)).
    #[derive(Default)]
    pub(crate) struct Ledger {
        inner: Mutex<LedgerInner>,
        next_seq: AtomicU64,
        double_frees: AtomicU64,
        foreign_frees: AtomicU64,
        use_after_frees: AtomicU64,
    }

    impl Ledger {
        pub(crate) fn record_alloc(&self, r: SliceRef, padded_len: u32, class: AllocClass) {
            let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
            let mut inner = self.inner.lock();
            let key = addr_key(r);
            inner.freed.remove(&key);
            let prev = inner.live.insert(
                key,
                LiveAlloc {
                    padded_len,
                    class,
                    seq,
                },
            );
            debug_assert!(
                prev.is_none(),
                "allocator handed out an address twice without an intervening free"
            );
        }

        /// Validates a `free`. Returns `true` when the caller may proceed
        /// with the actual free-list insertion; on violation the free is
        /// recorded and must be skipped (keeping the free list intact).
        pub(crate) fn check_free(&self, r: SliceRef, padded_len: u32) -> bool {
            let mut inner = self.inner.lock();
            let key = addr_key(r);
            match inner.live.get(&key).copied() {
                Some(entry) if entry.padded_len == padded_len => {
                    inner.live.remove(&key);
                    inner.freed.insert(key, entry);
                    true
                }
                Some(entry) => {
                    // Live address, wrong length: the caller is freeing
                    // with a reference it did not get from `allocate`.
                    self.foreign_frees.fetch_add(1, Ordering::Relaxed);
                    inner.violations.push(AuditViolation {
                        kind: ViolationKind::ForeignFree,
                        r,
                        class: Some(entry.class),
                    });
                    false
                }
                None => {
                    let (kind, class) = match inner.freed.get(&key) {
                        Some(prev) => (ViolationKind::DoubleFree, Some(prev.class)),
                        None => (ViolationKind::ForeignFree, None),
                    };
                    match kind {
                        ViolationKind::DoubleFree => {
                            self.double_frees.fetch_add(1, Ordering::Relaxed)
                        }
                        _ => self.foreign_frees.fetch_add(1, Ordering::Relaxed),
                    };
                    inner.violations.push(AuditViolation { kind, r, class });
                    false
                }
            }
        }

        /// Validates a `slice`/`slice_mut` access: the referenced bytes
        /// must lie inside a live allocation starting at the same address.
        pub(crate) fn check_access(&self, r: SliceRef, padded_len: u32) {
            let mut inner = self.inner.lock();
            let key = addr_key(r);
            let ok = matches!(inner.live.get(&key), Some(e) if padded_len <= e.padded_len);
            if !ok {
                let class = inner.freed.get(&key).map(|e| e.class);
                self.use_after_frees.fetch_add(1, Ordering::Relaxed);
                inner.violations.push(AuditViolation {
                    kind: ViolationKind::UseAfterFree,
                    r,
                    class,
                });
            }
        }

        pub(crate) fn live_allocations(&self) -> Vec<(SliceRef, LiveAlloc)> {
            let inner = self.inner.lock();
            inner
                .live
                .iter()
                .map(|(&key, &alloc)| {
                    let r = SliceRef::new(
                        (key >> 32) as usize,
                        key as u32,
                        // Reconstruct with the padded length; callers only
                        // need the address and class.
                        alloc.padded_len,
                    );
                    (r, alloc)
                })
                .collect()
        }

        pub(crate) fn violations(&self) -> Vec<AuditViolation> {
            self.inner.lock().violations.clone()
        }

        pub(crate) fn violation_count(&self) -> u64 {
            self.double_frees.load(Ordering::Relaxed)
                + self.foreign_frees.load(Ordering::Relaxed)
                + self.use_after_frees.load(Ordering::Relaxed)
        }

        /// Ledger-side live byte total and per-class breakdown.
        pub(crate) fn live_summary(&self) -> (u64, Vec<(AllocClass, u64)>) {
            let inner = self.inner.lock();
            let mut total = 0u64;
            let mut by_class: HashMap<AllocClass, u64> = HashMap::new();
            for alloc in inner.live.values() {
                total += alloc.padded_len as u64;
                *by_class.entry(alloc.class).or_default() += alloc.padded_len as u64;
            }
            let mut by_class: Vec<_> = by_class.into_iter().collect();
            by_class.sort_by_key(|(c, _)| format!("{c:?}"));
            (total, by_class)
        }
    }
}
