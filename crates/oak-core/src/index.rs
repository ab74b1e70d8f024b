//! The lazy minKey→chunk index (§3.1), behind a narrow interface.
//!
//! The index maps each chunk's non-infimum `minKey` to the chunk and keeps
//! the distinguished first-chunk pointer (`minKey` = −∞, encoded as the
//! empty key). It is *lazy*: rebalances publish and retire boundaries
//! best-effort, so a lookup may land on a frozen or stale chunk —
//! [`ChunkIndex::locate`] compensates by chasing replacement pointers and
//! walking the chunk list, exactly as `locateChunk` does in the paper.
//!
//! Everything outside this module goes through the handful of methods
//! below; no other code touches the underlying skiplist or the first
//! pointer directly.
//!
//! ## Borrowed location
//!
//! [`locate`](ChunkIndex::locate) *lends* the chunk it finds for the
//! lifetime of the caller's `oak_sync::epoch` guard instead of handing out
//! an `Arc`: no reference count moves anywhere on the walk. Every link the
//! walk follows keeps its target alive for at least that long —
//!
//! * an index entry: the skiplist node's value box holds the `Arc`, and a
//!   removed node or replaced box is destroyed only after every guard that
//!   could have reached it is released;
//! * the first pointer and a chunk's `next`: epoch-protected boxes holding
//!   an `Arc`, retired through the same collector when swung;
//! * `replacement()`: a `OnceLock` inside the replaced chunk, set once and
//!   never cleared, so it lives exactly as long as the chunk that was
//!   itself reached through one of these links.
//!
//! What the caller must not do is *stay* under the guard: anything that
//! sleeps, waits for a lock, rebalances or reclaims first clones the `Arc`
//! out of the borrow and drops the guard (the borrow checker enforces the
//! order: the borrow dies with the guard).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use oak_sync::epoch::{self, Atomic, Guard, Owned};

use oak_skiplist::SkipListMap;

use crate::chunk::Chunk;
use crate::cmp::{KeyComparator, MinKey};

/// Narrow interface over the lazy chunk index: locate chunks by key,
/// publish/retire rebalance boundaries, and swing the first-chunk pointer.
pub(crate) struct ChunkIndex<C: KeyComparator> {
    cmp: C,
    /// Lazy index: non-infimum `minKey` → chunk (§3.1).
    minkeys: SkipListMap<MinKey<C>, Arc<Chunk>>,
    /// The first chunk (`minKey` = −∞, encoded as the empty key).
    ///
    /// Epoch-protected atomic box rather than a lock: a map whose keys all
    /// fit in one chunk (small shards especially) funnels *every* lookup
    /// through this pointer, and even a read-mostly `RwLock` bounces its
    /// lock word between reader cores. Readers pin, load, and borrow the
    /// `Arc` — no shared write at all. Swings CAS the box and defer
    /// freeing it past all current pins.
    first: Atomic<Arc<Chunk>>,
}

impl<C: KeyComparator> ChunkIndex<C> {
    pub(crate) fn new(cmp: C, first: Arc<Chunk>) -> Self {
        ChunkIndex {
            cmp,
            minkeys: SkipListMap::new(),
            first: Atomic::new(first),
        }
    }

    /// The current first chunk, *without* resolving replacement chains,
    /// lent for the guard's lifetime.
    fn first_ref<'g>(&self, guard: &'g Guard) -> &'g Arc<Chunk> {
        // SAFETY: `first` is non-null from construction to drop, and a
        // swung-out box is only destroyed after every pin that could have
        // observed it is released.
        unsafe { self.first.load(Ordering::Acquire, guard).deref() }
    }

    /// The current first chunk, *without* resolving replacement chains.
    /// Used as the fallback starting point for list walks.
    pub(crate) fn first_raw(&self) -> Arc<Chunk> {
        self.first_ref(&epoch::pin()).clone()
    }

    /// The current first chunk, with replacement chains resolved.
    pub(crate) fn first_resolved(&self) -> Arc<Chunk> {
        let guard = epoch::pin();
        let mut c = self.first_ref(&guard);
        while let Some(r) = c.replacement() {
            c = r;
        }
        c.clone()
    }

    /// The walk behind [`locate`](Self::locate) and
    /// [`floor_before`](Self::floor_before): from the last index entry
    /// whose `minKey` is `below` the target (the first chunk when there is
    /// none), resolve replacement chains and follow `next` while the
    /// successor's `minKey` is still `below` it. Borrows only (see the
    /// module docs).
    fn walk<'g>(&self, below: impl Fn(&[u8]) -> bool, guard: &'g Guard) -> &'g Arc<Chunk> {
        // Probe the index with the raw key bytes (no per-lookup allocation).
        let mut c = match self.minkeys.floor_by(|mk| below(&mk.bytes), guard) {
            Some((_, c)) => c,
            None => self.first_ref(guard),
        };
        loop {
            while let Some(r) = c.replacement() {
                c = r;
            }
            match c.next_ref(guard) {
                Some(n) if below(&n.min_key) => c = n,
                // Replaced while we looked at `next`: resolve again.
                _ if c.replacement().is_some() => {}
                _ => return c,
            }
        }
    }

    /// `locateChunk(key)` (§3.1): index floor plus chunk-list walk, with
    /// replacement chains resolved so callers always land on a live (or at
    /// worst freshly frozen) chunk covering `key`. The chunk is lent for
    /// the guard's lifetime.
    #[inline]
    pub(crate) fn locate<'g>(&self, key: &[u8], guard: &'g Guard) -> &'g Arc<Chunk> {
        self.walk(
            |min_key| self.cmp.compare(min_key, key) != std::cmp::Ordering::Greater,
            guard,
        )
    }

    /// The chunk with the greatest `minKey` strictly smaller than
    /// `min_key`, list-walked forward to the immediate predecessor (the
    /// descending scan's index query, §4.2). `min_key` must be non-empty.
    pub(crate) fn floor_before(&self, min_key: &[u8]) -> Arc<Chunk> {
        self.walk(
            |mk| self.cmp.compare(mk, min_key) == std::cmp::Ordering::Less,
            &epoch::pin(),
        )
        .clone()
    }

    /// Publishes a rebalance-produced chunk boundary. No-op for the
    /// infimum key (the first chunk is tracked by the first pointer).
    pub(crate) fn publish(&self, chunk: &Arc<Chunk>) {
        oak_failpoints::sync_point!("index/publish");
        oak_failpoints::fail_point!("index/publish");
        if !chunk.min_key.is_empty() {
            self.minkeys
                .put(MinKey::new(&chunk.min_key, self.cmp.clone()), chunk.clone());
        }
    }

    /// Retires a boundary that no longer starts a chunk (merge case).
    pub(crate) fn retire(&self, min_key: &[u8]) {
        oak_failpoints::sync_point!("index/retire");
        oak_failpoints::fail_point!("index/retire");
        self.minkeys.remove(&MinKey::new(min_key, self.cmp.clone()));
    }

    /// Swings the first pointer from `old` to `new_head`, CAS-like: the
    /// swing happens only if the pointer still leads to `old` — either
    /// directly, or through the replacement chain of a stale first pointer
    /// (in which case swinging to `new_head` also helps the lazy pointer
    /// catch up). Returns whether the pointer now leads to `new_head`; a
    /// `false` return means the pointer is out of sync with the caller's
    /// view and **must not** be clobbered.
    ///
    /// The caller holds `old`'s rebalance lock, so under correct engage
    /// discipline this never fails — but a silent mismatched swing would
    /// detach an entire chunk chain, so the verify is kept in release
    /// builds too.
    #[must_use]
    pub(crate) fn replace_first(&self, old: &Arc<Chunk>, new_head: Arc<Chunk>) -> bool {
        oak_failpoints::sync_point!("index/replace-first");
        oak_failpoints::fail_point!("index/replace-first");
        let guard = epoch::pin();
        let mut new_box = Owned::new(new_head);
        loop {
            let shared = self.first.load(Ordering::Acquire, &guard);
            // SAFETY: see `first_ref`.
            let mut cur = unsafe { shared.deref() };
            let leads_to_old = loop {
                if Arc::ptr_eq(cur, old) {
                    break true;
                }
                match cur.replacement() {
                    Some(r) => cur = r,
                    None => break false,
                }
            };
            if !leads_to_old {
                return false;
            }
            match self.first.compare_exchange(
                shared,
                new_box,
                Ordering::AcqRel,
                Ordering::Acquire,
                &guard,
            ) {
                Ok(_) => {
                    // SAFETY: `shared` was just unlinked by this CAS; no
                    // new reader can reach it, and existing pins keep the
                    // box alive until they drop.
                    unsafe { guard.defer_destroy(shared) };
                    return true;
                }
                Err(e) => {
                    // Raced with a concurrent swing (different rebalance
                    // lock holder): re-verify the chain from the new box.
                    new_box = e.new;
                }
            }
        }
    }
}

impl<C: KeyComparator> Drop for ChunkIndex<C> {
    fn drop(&mut self) {
        // SAFETY: exclusive access (`&mut self`); no concurrent readers can
        // hold a pin into this index anymore, so the current box can be
        // reclaimed immediately.
        unsafe {
            let shared = self.first.load(Ordering::Relaxed, epoch::unprotected());
            if !shared.is_null() {
                drop(shared.into_owned());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmp::Lexicographic;

    fn chunk(min_key: &[u8]) -> Arc<Chunk> {
        Arc::new(Chunk::new_empty(8, min_key.to_vec().into_boxed_slice()))
    }

    #[test]
    fn replace_first_swings_on_match() {
        let a = chunk(b"");
        let idx = ChunkIndex::new(Lexicographic, a.clone());
        let n = chunk(b"");
        assert!(idx.replace_first(&a, n.clone()));
        assert!(Arc::ptr_eq(&idx.first_raw(), &n));
    }

    #[test]
    fn replace_first_refuses_mismatched_swing() {
        // Regression (release-mode first-pointer clobber): before the
        // CAS-like verify this silently set `first` to the unrelated
        // chunk, detaching the live chain; the old code only
        // `debug_assert!`ed the match.
        let a = chunk(b"");
        let idx = ChunkIndex::new(Lexicographic, a.clone());
        let stranger = chunk(b"");
        let n = chunk(b"");
        assert!(!idx.replace_first(&stranger, n));
        assert!(
            Arc::ptr_eq(&idx.first_raw(), &a),
            "mismatched swing clobbered the first pointer"
        );
    }

    #[test]
    fn replace_first_helps_through_replacement_chain() {
        // A lazy first pointer still at a replaced chunk: swinging from
        // the chain's live end is correct and repairs the pointer.
        let a = chunk(b"");
        let idx = ChunkIndex::new(Lexicographic, a.clone());
        let a1 = chunk(b"");
        a.set_replacement(a1.clone());
        let n = chunk(b"");
        assert!(idx.replace_first(&a1, n.clone()));
        assert!(Arc::ptr_eq(&idx.first_raw(), &n));
    }
}
