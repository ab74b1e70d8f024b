//! A lock-free concurrent skiplist map.
//!
//! The construction follows the classical lock-free skiplist (Herlihy &
//! Shavit ch. 14 / Fraser) with `ConcurrentSkipListMap`-style value
//! semantics, adapted to epoch-based reclamation:
//!
//! * Each node owns an immutable key and an atomically replaceable value
//!   box. **A null value box means the mapping is logically deleted** — the
//!   CAS that nulls the value is `remove`'s linearization point and has a
//!   unique winner.
//! * After nulling, the remover *marks* every level of the node's tower by
//!   tagging the `next` pointers; traversals physically unlink marked nodes
//!   as they pass (helping).
//! * Every node carries a `link_count`: +1 per level it is physically
//!   linked at. The thread whose unlink drops the count to zero retires the
//!   node to the epoch collector. Upper-level linking during insertion uses
//!   a guarded increment (never from zero), so a retired node can never be
//!   made reachable again — the soundness condition for epoch reclamation.
//! * Searches that land on a key-equal node whose value is null help
//!   complete the removal and retry, which keeps `get` linearizable in the
//!   presence of delete/re-insert races on the same key.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use oak_gcheap::{HeapModel, NoopHeap, ObjToken};
use oak_sync::epoch::{self, Atomic, Guard, Owned, Shared};

use crate::rng;

/// Maximum tower height. 2^24 expected keys is far beyond the scaled
/// benchmarks; `ConcurrentSkipListMap` similarly caps its levels.
pub const MAX_HEIGHT: usize = 24;

/// Tag bit on a `next` pointer marking the *owning* node as removed at that
/// level.
const MARK: usize = 1;

struct VBox<V> {
    value: V,
    token: ObjToken,
}

struct Node<K, V> {
    /// `None` only for the head sentinel.
    key: Option<K>,
    /// Null ⇒ logically deleted (or head).
    value: Atomic<VBox<V>>,
    /// Heap-model charge covering the node object, tower, and boxed key.
    token: ObjToken,
    /// Number of levels this node is currently physically linked at.
    link_count: AtomicUsize,
    tower: Box<[Atomic<Node<K, V>>]>,
}

impl<K, V> Node<K, V> {
    fn height(&self) -> usize {
        self.tower.len()
    }

    #[inline]
    fn key(&self) -> &K {
        self.key.as_ref().expect("head sentinel has no key")
    }
}

/// Outcome of [`SkipListMap::put`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutOutcome {
    /// The key was absent; a new mapping was created.
    Inserted,
    /// The key was present; its value was replaced.
    Replaced,
}

/// A lock-free ordered map from `K` to `V`.
///
/// All operations are linearizable except iteration, which offers the same
/// non-atomic scan guarantees as the paper's maps (§1.1): keys present for
/// the whole scan are returned, keys absent throughout are not, and no key
/// is returned twice.
///
/// ```
/// use oak_skiplist::{PutOutcome, SkipListMap};
///
/// let m: SkipListMap<u64, String> = SkipListMap::new();
/// assert_eq!(m.put(2, "two".into()), PutOutcome::Inserted);
/// assert!(m.put_if_absent(1, "one".into()));
/// assert!(!m.put_if_absent(1, "uno".into()));
/// assert_eq!(m.get_cloned(&1).as_deref(), Some("one"));
/// assert_eq!(m.floor_with(&5, true, |k, _| *k), Some(2));
/// assert_eq!(m.collect_range(None, None).len(), 2);
/// assert!(m.remove(&1));
/// ```
pub struct SkipListMap<K, V> {
    head: Box<Node<K, V>>,
    len: AtomicUsize,
    heap: Arc<dyn HeapModel>,
    key_size: Box<dyn Fn(&K) -> usize + Send + Sync>,
    val_size: Box<dyn Fn(&V) -> usize + Send + Sync>,
}

// SAFETY: all shared mutation goes through atomics; K and V cross threads.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for SkipListMap<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for SkipListMap<K, V> {}

struct FindResult<'g, K, V> {
    preds: [*const Node<K, V>; MAX_HEIGHT],
    succs: [Shared<'g, Node<K, V>>; MAX_HEIGHT],
    /// The node whose key equals the target, if physically present.
    found: Option<Shared<'g, Node<K, V>>>,
}

impl<K, V> SkipListMap<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// Creates an empty map with no heap-model accounting.
    pub fn new() -> Self {
        Self::with_heap(Arc::new(NoopHeap), |_| 0, |_| 0)
    }

    /// Creates an empty map that charges `heap` for every simulated Java
    /// object: one node object per mapping plus `key_size`/`val_size` bytes
    /// for the boxed key and value.
    pub fn with_heap(
        heap: Arc<dyn HeapModel>,
        key_size: impl Fn(&K) -> usize + Send + Sync + 'static,
        val_size: impl Fn(&V) -> usize + Send + Sync + 'static,
    ) -> Self {
        let tower = (0..MAX_HEIGHT)
            .map(|_| Atomic::null())
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SkipListMap {
            head: Box::new(Node {
                key: None,
                value: Atomic::null(),
                token: ObjToken::NONE,
                link_count: AtomicUsize::new(0),
                tower,
            }),
            len: AtomicUsize::new(0),
            heap,
            key_size: Box::new(key_size),
            val_size: Box::new(val_size),
        }
    }

    /// Number of live mappings (exact: maintained at the linearization
    /// points of insert and remove).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The heap model attached to this map.
    pub fn heap(&self) -> &Arc<dyn HeapModel> {
        &self.heap
    }

    fn node_charge(&self, key: &K, height: usize) -> usize {
        oak_gcheap::layout::skiplist_node()
            + (self.key_size)(key)
            + height.saturating_sub(1) * oak_gcheap::layout::skiplist_index_node()
    }

    /// Drops one physical link; retires the node when the last link is
    /// gone. The caller must have just succeeded in a CAS that removed one
    /// link to `node` (or abandoned a speculative link increment).
    fn release_link<'g>(&self, node: Shared<'g, Node<K, V>>, guard: &'g Guard) {
        let n = unsafe { node.deref() };
        if n.link_count.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last link gone: the node is unreachable from every level and
            // the guarded-increment rule prevents resurrection.
            unsafe { guard.defer_destroy(node) };
        }
    }

    /// Increments `link_count` unless it already reached zero.
    fn try_acquire_link(node: &Node<K, V>) -> bool {
        let mut cur = node.link_count.load(Ordering::Relaxed);
        loop {
            if cur == 0 {
                return false;
            }
            match node.link_count.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(x) => cur = x,
            }
        }
    }

    /// Searches for `key`, physically unlinking every marked node it
    /// encounters (the helping protocol).
    fn find<'g>(&self, key: &K, guard: &'g Guard) -> FindResult<'g, K, V> {
        'retry: loop {
            let mut preds: [*const Node<K, V>; MAX_HEIGHT] = [&*self.head as *const _; MAX_HEIGHT];
            let mut succs: [Shared<'g, Node<K, V>>; MAX_HEIGHT] = [Shared::null(); MAX_HEIGHT];

            let mut pred: &Node<K, V> = &self.head;
            for level in (0..MAX_HEIGHT).rev() {
                let mut curr = pred.tower[level].load(Ordering::Acquire, guard);
                if curr.tag() == MARK {
                    // `pred` itself got marked under us; start over.
                    continue 'retry;
                }
                #[allow(clippy::while_let_loop)] // break sites differ below
                loop {
                    let Some(c) = (unsafe { curr.as_ref() }) else {
                        break;
                    };
                    let succ = c.tower[level].load(Ordering::Acquire, guard);
                    if succ.tag() == MARK {
                        // `c` is removed at this level: unlink it.
                        match pred.tower[level].compare_exchange(
                            curr.with_tag(0),
                            succ.with_tag(0),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                            guard,
                        ) {
                            Ok(_) => {
                                self.release_link(curr.with_tag(0), guard);
                                curr = succ.with_tag(0);
                                continue;
                            }
                            Err(_) => continue 'retry,
                        }
                    }
                    if c.key() < key {
                        pred = c;
                        curr = succ;
                    } else {
                        break;
                    }
                }
                preds[level] = pred as *const _;
                succs[level] = curr;
            }

            let found = match unsafe { succs[0].as_ref() } {
                Some(c) if c.key() == key => Some(succs[0]),
                _ => None,
            };
            return FindResult {
                preds,
                succs,
                found,
            };
        }
    }

    /// Read-only descent without helping; returns the first bottom-level
    /// node with key ≥ `key` (possibly logically deleted).
    fn seek<'g>(&self, key: &K, guard: &'g Guard) -> Shared<'g, Node<K, V>> {
        let mut pred: &Node<K, V> = &self.head;
        let mut curr = Shared::null();
        for level in (0..MAX_HEIGHT).rev() {
            curr = pred.tower[level].load(Ordering::Acquire, guard).with_tag(0);
            while let Some(c) = unsafe { curr.as_ref() } {
                if c.key() < key {
                    pred = c;
                    curr = c.tower[level].load(Ordering::Acquire, guard).with_tag(0);
                } else {
                    break;
                }
            }
        }
        curr
    }

    /// Marks every level of `node`'s tower (top-down), then helps unlink.
    fn complete_removal<'g>(&self, node: Shared<'g, Node<K, V>>, key: &K, guard: &'g Guard) {
        let n = unsafe { node.deref() };
        for level in (0..n.height()).rev() {
            loop {
                let cur = n.tower[level].load(Ordering::Acquire, guard);
                if cur.tag() == MARK {
                    break;
                }
                if n.tower[level]
                    .compare_exchange(
                        cur,
                        cur.with_tag(MARK),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                        guard,
                    )
                    .is_ok()
                {
                    break;
                }
            }
        }
        // One find pass unlinks it wherever it is still linked.
        let _ = self.find(key, guard);
    }

    /// Applies `f` to the value mapped to `key`, if present.
    pub fn get_with<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.heap.safepoint();
        let guard = epoch::pin();
        loop {
            let curr = self.seek(key, &guard);
            let c = unsafe { curr.as_ref() }?;
            if c.key() != key {
                return None;
            }
            let v = c.value.load(Ordering::Acquire, &guard);
            match unsafe { v.as_ref() } {
                Some(vb) => return Some(f(&vb.value)),
                None => {
                    // Key-equal node logically deleted: help it out of the
                    // list and retry so we observe the post-removal state.
                    self.complete_removal(curr, key, &guard);
                    continue;
                }
            }
        }
    }

    /// Clones the value mapped to `key`.
    pub fn get_cloned(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.get_with(key, V::clone)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get_with(key, |_| ()).is_some()
    }

    /// Inserts or replaces the mapping for `key`.
    pub fn put(&self, key: K, value: V) -> PutOutcome {
        match self.do_insert(key, value, true) {
            true => PutOutcome::Inserted,
            false => PutOutcome::Replaced,
        }
    }

    /// Inserts `key → value` if absent. Returns `true` if this call
    /// created the mapping.
    pub fn put_if_absent(&self, key: K, value: V) -> bool {
        self.do_insert(key, value, false)
    }

    /// Returns `true` if inserted as a fresh mapping, `false` if the key
    /// existed (after replacing when `replace` is set).
    fn do_insert(&self, mut key: K, mut value: V, replace: bool) -> bool {
        self.heap.safepoint();
        let guard = epoch::pin();

        loop {
            let f = self.find(&key, &guard);
            if let Some(node_sh) = f.found {
                let node = unsafe { node_sh.deref() };
                // Key present (physically). Engage its value box.
                let mut cur = node.value.load(Ordering::Acquire, &guard);
                loop {
                    if cur.is_null() {
                        // Logically deleted: help finish and re-insert.
                        self.complete_removal(node_sh, &key, &guard);
                        break;
                    }
                    if !replace {
                        return false;
                    }
                    let val_token = self.heap.alloc((self.val_size)(&value));
                    let vbox = Owned::new(VBox {
                        value,
                        token: val_token,
                    });
                    match node.value.compare_exchange(
                        cur,
                        vbox,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                        &guard,
                    ) {
                        Ok(_) => {
                            let old = unsafe { cur.deref() };
                            self.heap.free(old.token);
                            unsafe { guard.defer_destroy(cur) };
                            return false;
                        }
                        Err(e) => {
                            // Undo the speculative charge and retry.
                            let undone = e.new.into_box();
                            self.heap.free(undone.token);
                            value = undone.value;
                            cur = e.current;
                        }
                    }
                }
                continue; // retry the whole operation
            }

            // Key absent: build and link a new node at the bottom level.
            let height = rng::random_height(MAX_HEIGHT);
            let tower = (0..height)
                .map(|_| Atomic::null())
                .collect::<Vec<_>>()
                .into_boxed_slice();
            // Charge the heap for node + key + value before publication.
            let node_token = self.heap.alloc(self.node_charge(&key, height));
            let val_token = self.heap.alloc((self.val_size)(&value));
            let new_vbox = Owned::new(VBox {
                value,
                token: val_token,
            });
            let node = Owned::new(Node {
                key: Some(key),
                value: Atomic::null(),
                token: node_token,
                link_count: AtomicUsize::new(1),
                tower,
            });
            node.value.store(new_vbox, Ordering::Relaxed);
            node.tower[0].store(f.succs[0], Ordering::Relaxed);

            let pred0 = unsafe { &*f.preds[0] };
            match pred0.tower[0].compare_exchange(
                f.succs[0],
                node,
                Ordering::AcqRel,
                Ordering::Acquire,
                &guard,
            ) {
                Ok(node_sh) => {
                    self.len.fetch_add(1, Ordering::Relaxed);
                    self.link_upper_levels(node_sh, height, &guard);
                    return true;
                }
                Err(e) => {
                    // Reclaim the speculative charges, recover the key and
                    // value from the unpublished node, and retry.
                    self.heap.free(node_token);
                    let failed_node = *e.new.into_box();
                    let Node {
                        key: failed_key,
                        value: failed_value,
                        ..
                    } = failed_node;
                    // SAFETY: the node was never published; we own the box.
                    let vb = failed_value.load(Ordering::Relaxed, unsafe { epoch::unprotected() });
                    let vb = unsafe { vb.into_owned().into_box() };
                    self.heap.free(vb.token);
                    value = vb.value;
                    key = failed_key.expect("fresh node has a key");
                }
            }
        }
    }

    /// Links `node` at levels `1..height` after a successful bottom-level
    /// insert. Gives up on levels if the node gets removed concurrently.
    fn link_upper_levels<'g>(
        &self,
        node_sh: Shared<'g, Node<K, V>>,
        height: usize,
        guard: &'g Guard,
    ) {
        let node = unsafe { node_sh.deref() };
        let key = node.key();
        'levels: for level in 1..height {
            loop {
                if node.value.load(Ordering::Acquire, guard).is_null() {
                    return; // removed; traversals will finish the unlink
                }
                let f = self.find(key, guard);
                if f.found.map(|s| s.as_raw()) != Some(node_sh.as_raw()) {
                    // Our node is gone (fully unlinked) — stop.
                    return;
                }
                let succ = f.succs[level];
                // Point our tower entry at the successor (guarded by the
                // mark tag: a failed CAS means we were removed).
                let cur = node.tower[level].load(Ordering::Acquire, guard);
                if cur.tag() == MARK {
                    return;
                }
                if !Self::try_acquire_link(node) {
                    return; // already retired-bound; never resurrect
                }
                if node.tower[level]
                    .compare_exchange(cur, succ, Ordering::AcqRel, Ordering::Acquire, guard)
                    .is_err()
                {
                    // Tag appeared (or a stale pointer); undo and re-check.
                    self.release_link(node_sh, guard);
                    continue;
                }
                let pred = unsafe { &*f.preds[level] };
                match pred.tower[level].compare_exchange(
                    succ,
                    node_sh,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                    guard,
                ) {
                    Ok(_) => continue 'levels,
                    Err(_) => {
                        // Undo the speculative link and retry this level.
                        self.release_link(node_sh, guard);
                        continue;
                    }
                }
            }
        }
    }

    /// Removes the mapping for `key`. Returns `true` if this call removed
    /// it.
    pub fn remove(&self, key: &K) -> bool {
        self.remove_with(key, |_| ()).is_some()
    }

    /// Removes the mapping for `key`, applying `f` to the removed value
    /// before it is retired. Returns `None` if this call did not remove the
    /// mapping.
    pub fn remove_with<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.heap.safepoint();
        let guard = epoch::pin();
        let found = self.find(key, &guard).found;
        let node_sh = found?;
        let node = unsafe { node_sh.deref() };
        loop {
            let cur = node.value.load(Ordering::Acquire, &guard);
            if cur.is_null() {
                // Someone else won; help them finish.
                self.complete_removal(node_sh, key, &guard);
                return None;
            }
            match node.value.compare_exchange(
                cur,
                Shared::null(),
                Ordering::AcqRel,
                Ordering::Acquire,
                &guard,
            ) {
                Ok(_) => {
                    // Linearization point: the mapping is gone.
                    self.len.fetch_sub(1, Ordering::Relaxed);
                    let vb = unsafe { cur.deref() };
                    let result = f(&vb.value);
                    self.heap.free(vb.token);
                    self.heap.free(node.token);
                    unsafe { guard.defer_destroy(cur) };
                    self.complete_removal(node_sh, key, &guard);
                    return Some(result);
                }
                Err(_) => continue,
            }
        }
    }

    /// Atomically *replaces* the value with `f(&current)` if present — a
    /// CAS loop, so `f` may be evaluated several times, and the update is
    /// **not** in-place (the `ConcurrentSkipListMap` behaviour the paper
    /// contrasts with Oak's atomic in-place compute). Returns `true` if a
    /// replacement happened.
    pub fn compute_if_present(&self, key: &K, f: impl Fn(&V) -> V) -> bool {
        self.heap.safepoint();
        let guard = epoch::pin();
        loop {
            let curr = self.seek(key, &guard);
            let Some(c) = (unsafe { curr.as_ref() }) else {
                return false;
            };
            if c.key() != key {
                return false;
            }
            let cur = c.value.load(Ordering::Acquire, &guard);
            let Some(vb) = (unsafe { cur.as_ref() }) else {
                self.complete_removal(curr, key, &guard);
                continue;
            };
            let new_val = f(&vb.value);
            let val_token = self.heap.alloc((self.val_size)(&new_val));
            let new_box = Owned::new(VBox {
                value: new_val,
                token: val_token,
            });
            match c.value.compare_exchange(
                cur,
                new_box,
                Ordering::AcqRel,
                Ordering::Acquire,
                &guard,
            ) {
                Ok(_) => {
                    self.heap.free(vb.token);
                    unsafe { guard.defer_destroy(cur) };
                    return true;
                }
                Err(e) => {
                    let undone = e.new.into_box();
                    self.heap.free(undone.token);
                    continue;
                }
            }
        }
    }

    /// `merge`-style upsert: insert `value` if the key is absent, else
    /// replace the current value with `f(&current)`. Like the JDK's
    /// `merge`, the read-modify-write is a CAS loop, not atomic in place.
    pub fn merge(&self, key: K, value: V, f: impl Fn(&V) -> V)
    where
        K: Clone,
        V: Clone,
    {
        loop {
            if self.compute_if_present(&key, &f) {
                return;
            }
            if self.put_if_absent(key.clone(), value.clone())
            // note: K/V Clone needed only for the retry loop
            {
                return;
            }
        }
    }

    /// Ascending scan: applies `f` to every live entry with key in
    /// `[lo, hi)` (unbounded where `None`), in key order. Returns the
    /// number of entries visited. Stops early if `f` returns `false`.
    pub fn for_each_range(
        &self,
        lo: Option<&K>,
        hi: Option<&K>,
        mut f: impl FnMut(&K, &V) -> bool,
    ) -> usize {
        self.heap.safepoint();
        let guard = epoch::pin();
        let mut curr = match lo {
            Some(k) => self.seek(k, &guard),
            None => self.head.tower[0]
                .load(Ordering::Acquire, &guard)
                .with_tag(0),
        };
        let mut visited = 0;
        while let Some(c) = unsafe { curr.as_ref() } {
            if let Some(h) = hi {
                if c.key() >= h {
                    break;
                }
            }
            let v = c.value.load(Ordering::Acquire, &guard);
            if let Some(vb) = unsafe { v.as_ref() } {
                visited += 1;
                if !f(c.key(), &vb.value) {
                    break;
                }
            }
            curr = c.tower[0].load(Ordering::Acquire, &guard).with_tag(0);
        }
        visited
    }

    /// First live entry with key ≥ `key` (or > if `inclusive` is false).
    pub fn ceiling_with<R>(
        &self,
        key: &K,
        inclusive: bool,
        f: impl FnOnce(&K, &V) -> R,
    ) -> Option<R> {
        self.heap.safepoint();
        let guard = epoch::pin();
        let mut curr = self.seek(key, &guard);
        while let Some(c) = unsafe { curr.as_ref() } {
            let in_range = if inclusive {
                c.key() >= key
            } else {
                c.key() > key
            };
            if in_range {
                let v = c.value.load(Ordering::Acquire, &guard);
                if let Some(vb) = unsafe { v.as_ref() } {
                    return Some(f(c.key(), &vb.value));
                }
            }
            curr = c.tower[0].load(Ordering::Acquire, &guard).with_tag(0);
        }
        None
    }

    /// Last live entry with key ≤ `key` (or < if `inclusive` is false).
    ///
    /// Used by Oak's chunk index (`locateChunk`) and by the lookup-per-key
    /// descending scans of the skiplist baselines.
    pub fn floor_with<R>(
        &self,
        key: &K,
        inclusive: bool,
        f: impl FnOnce(&K, &V) -> R,
    ) -> Option<R> {
        let guard = epoch::pin();
        self.floor_by(|k| if inclusive { k <= key } else { k < key }, &guard)
            .map(|(k, v)| f(k, v))
    }

    /// Generalized floor: the last live entry whose key satisfies
    /// `in_range`, which must be downward-closed (true for a prefix of the
    /// key order). Lets callers probe with foreign key representations —
    /// e.g. Oak probes its `minKey` index with raw byte slices, avoiding a
    /// key allocation per lookup.
    ///
    /// The entry is *lent* for the lifetime of the caller's `guard`: a
    /// removed node and a replaced value box are only destroyed once every
    /// guard that could have reached them is released, so the caller may
    /// keep reading both — and whatever the value keeps alive — without
    /// cloning, for as long as it stays pinned.
    pub fn floor_by<'g>(
        &self,
        in_range: impl Fn(&K) -> bool,
        guard: &'g Guard,
    ) -> Option<(&'g K, &'g V)> {
        self.heap.safepoint();

        // Descend to the last node with key ≤/< `key`.
        // SAFETY (every `as_ref` below): nodes and value boxes loaded
        // under `guard` stay alive for `'g`.
        let mut pred: &Node<K, V> = &self.head;
        for level in (0..MAX_HEIGHT).rev() {
            let mut curr = pred.tower[level].load(Ordering::Acquire, guard).with_tag(0);
            while let Some(c) = unsafe { curr.as_ref() } {
                if in_range(c.key()) {
                    pred = c;
                    curr = c.tower[level].load(Ordering::Acquire, guard).with_tag(0);
                } else {
                    break;
                }
            }
        }
        // `pred` is the last in-range node at the bottom level (or the
        // head). It may be logically deleted, and in-range nodes may have
        // been inserted after it; walk the short tail segment from `pred`,
        // tracking the last live in-range node.
        let mut best: Option<(&'g K, &'g VBox<V>)> = None;
        let start_at_pred = !std::ptr::eq(pred, &*self.head);
        let mut scan: Shared<'g, Node<K, V>> = if start_at_pred {
            // SAFETY: `pred` is protected by `guard`.
            Shared::from(pred as *const Node<K, V>)
        } else {
            self.head.tower[0]
                .load(Ordering::Acquire, guard)
                .with_tag(0)
        };
        while let Some(c) = unsafe { scan.as_ref() } {
            if !in_range(c.key()) {
                break;
            }
            let v = c.value.load(Ordering::Acquire, guard);
            if let Some(vb) = unsafe { v.as_ref() } {
                best = Some((c.key(), vb));
            }
            scan = c.tower[0].load(Ordering::Acquire, guard).with_tag(0);
        }
        if best.is_none() && start_at_pred {
            // Cold path: `pred` and its tail segment were all logically
            // deleted. Fall back to a bottom-level walk from the head — the
            // true floor, if any, lies strictly before `pred`.
            let mut cursor = self.head.tower[0]
                .load(Ordering::Acquire, guard)
                .with_tag(0);
            while let Some(c) = unsafe { cursor.as_ref() } {
                if !in_range(c.key()) {
                    break;
                }
                let v = c.value.load(Ordering::Acquire, guard);
                if let Some(vb) = unsafe { v.as_ref() } {
                    best = Some((c.key(), vb));
                }
                cursor = c.tower[0].load(Ordering::Acquire, guard).with_tag(0);
            }
        }
        best.map(|(k, vb)| (k, &vb.value))
    }

    /// Descending scan implemented the `ConcurrentSkipListMap` way: a
    /// fresh O(log N) floor lookup per returned key (what Figure 4f
    /// measures). Applies `f` from the last key ≤ `from` down to keys
    /// ≥ `lo` (inclusive bounds); stops early if `f` returns `false`.
    /// Requires `K: Clone` to carry the cursor between lookups.
    pub fn for_each_descending(
        &self,
        from: &K,
        lo: Option<&K>,
        mut f: impl FnMut(&K, &V) -> bool,
    ) -> usize
    where
        K: Clone,
    {
        let mut visited = 0;
        let mut cursor: Option<K> = None;
        let mut inclusive = true;
        loop {
            let anchor = cursor.as_ref().unwrap_or(from);
            let step = self.floor_with(anchor, inclusive, |k, v| {
                if let Some(l) = lo {
                    if k < l {
                        return None;
                    }
                }
                Some((k.clone(), f(k, v)))
            });
            match step {
                Some(Some((k, keep_going))) => {
                    visited += 1;
                    if !keep_going {
                        break;
                    }
                    cursor = Some(k);
                    inclusive = false;
                }
                _ => break,
            }
        }
        visited
    }

    /// Collects the range into a `Vec` (clone-based convenience, mainly for
    /// tests).
    pub fn collect_range(&self, lo: Option<&K>, hi: Option<&K>) -> Vec<(K, V)>
    where
        K: Clone,
        V: Clone,
    {
        let mut out = Vec::new();
        self.for_each_range(lo, hi, |k, v| {
            out.push((k.clone(), v.clone()));
            true
        });
        out
    }

    /// First live key in the map.
    pub fn first_key(&self) -> Option<K>
    where
        K: Clone,
    {
        let mut out = None;
        self.for_each_range(None, None, |k, _| {
            out = Some(k.clone());
            false
        });
        out
    }

    /// Last live key in the map. O(n) bottom-level walk — the list keeps no
    /// backward pointers, matching `ConcurrentSkipListMap`'s node layout;
    /// used as the anchor for unbounded descending scans.
    pub fn last_key(&self) -> Option<K>
    where
        K: Clone,
    {
        let mut out = None;
        self.for_each_range(None, None, |k, _| {
            out = Some(k.clone());
            true
        });
        out
    }
}

impl<K, V> Default for SkipListMap<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> Drop for SkipListMap<K, V> {
    fn drop(&mut self) {
        // Exclusive access: collect every reachable node once (a node
        // unlinked at the bottom may still be linked at an upper level),
        // then free. Nodes retired to the epoch collector are unreachable
        // from every level (their link_count reached zero), so this walk
        // and the deferred destructions are disjoint.
        let guard = unsafe { epoch::unprotected() };
        let mut seen = std::collections::HashSet::new();
        let mut nodes: Vec<Shared<'_, Node<K, V>>> = Vec::new();
        for level in 0..MAX_HEIGHT {
            let mut curr = self.head.tower[level]
                .load(Ordering::Relaxed, guard)
                .with_tag(0);
            while let Some(c) = unsafe { curr.as_ref() } {
                if seen.insert(curr.as_raw() as usize) {
                    nodes.push(curr);
                }
                curr = c.tower[level].load(Ordering::Relaxed, guard).with_tag(0);
            }
        }
        for node in nodes {
            let c = unsafe { node.deref() };
            let v = c.value.load(Ordering::Relaxed, guard);
            if !v.is_null() {
                drop(unsafe { v.into_owned() });
            }
            drop(unsafe { node.into_owned() });
        }
    }
}

impl<K, V> std::fmt::Debug for SkipListMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkipListMap")
            .field("len", &self.len.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> SkipListMap<u64, String> {
        SkipListMap::new()
    }

    #[test]
    fn empty_map_behaviour() {
        let m = map();
        assert!(m.is_empty());
        assert_eq!(m.get_cloned(&1), None);
        assert!(!m.remove(&1));
        assert!(!m.contains_key(&0));
        assert_eq!(m.collect_range(None, None), vec![]);
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let m = map();
        assert_eq!(m.put(5, "five".into()), PutOutcome::Inserted);
        assert_eq!(m.get_cloned(&5), Some("five".to_string()));
        assert_eq!(m.put(5, "FIVE".into()), PutOutcome::Replaced);
        assert_eq!(m.get_cloned(&5), Some("FIVE".to_string()));
        assert_eq!(m.len(), 1);
        assert!(m.remove(&5));
        assert!(!m.remove(&5));
        assert_eq!(m.get_cloned(&5), None);
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn put_if_absent_semantics() {
        let m = map();
        assert!(m.put_if_absent(1, "a".into()));
        assert!(!m.put_if_absent(1, "b".into()));
        assert_eq!(m.get_cloned(&1), Some("a".to_string()));
        m.remove(&1);
        assert!(m.put_if_absent(1, "c".into()));
        assert_eq!(m.get_cloned(&1), Some("c".to_string()));
    }

    #[test]
    fn ordered_iteration() {
        let m = map();
        for k in [5u64, 1, 9, 3, 7, 2, 8, 4, 6, 0] {
            m.put(k, k.to_string());
        }
        let keys: Vec<u64> = m
            .collect_range(None, None)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys, (0..10).collect::<Vec<_>>());
        // Bounded range [3, 7).
        let keys: Vec<u64> = m
            .collect_range(Some(&3), Some(&7))
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys, vec![3, 4, 5, 6]);
    }

    #[test]
    fn compute_if_present_replaces() {
        let m = map();
        assert!(!m.compute_if_present(&1, |v| v.clone()));
        m.put(1, "x".into());
        assert!(m.compute_if_present(&1, |v| format!("{v}{v}")));
        assert_eq!(m.get_cloned(&1), Some("xx".to_string()));
    }

    #[test]
    fn merge_upserts() {
        let m = map();
        m.merge(1, "init".into(), |v| format!("{v}+"));
        assert_eq!(m.get_cloned(&1), Some("init".to_string()));
        m.merge(1, "init".into(), |v| format!("{v}+"));
        assert_eq!(m.get_cloned(&1), Some("init+".to_string()));
    }

    #[test]
    fn floor_and_ceiling() {
        let m = map();
        for k in [10u64, 20, 30] {
            m.put(k, k.to_string());
        }
        assert_eq!(m.floor_with(&25, true, |k, _| *k), Some(20));
        assert_eq!(m.floor_with(&20, true, |k, _| *k), Some(20));
        assert_eq!(m.floor_with(&20, false, |k, _| *k), Some(10));
        assert_eq!(m.floor_with(&5, true, |k, _| *k), None);
        assert_eq!(m.ceiling_with(&25, true, |k, _| *k), Some(30));
        assert_eq!(m.ceiling_with(&20, true, |k, _| *k), Some(20));
        assert_eq!(m.ceiling_with(&20, false, |k, _| *k), Some(30));
        assert_eq!(m.ceiling_with(&35, true, |k, _| *k), None);
    }

    #[test]
    fn floor_skips_deleted_run() {
        let m = map();
        for k in 0..100u64 {
            m.put(k, k.to_string());
        }
        // Delete a long run right below the probe.
        for k in 50..100u64 {
            m.remove(&k);
        }
        assert_eq!(m.floor_with(&99, true, |k, _| *k), Some(49));
    }

    #[test]
    fn descending_matches_reverse_ascending() {
        let m = map();
        for k in 0..200u64 {
            m.put(k, k.to_string());
        }
        let mut asc: Vec<u64> = Vec::new();
        m.for_each_range(Some(&50), Some(&150), |k, _| {
            asc.push(*k);
            true
        });
        let mut desc: Vec<u64> = Vec::new();
        m.for_each_descending(&149, Some(&50), |k, _| {
            desc.push(*k);
            true
        });
        asc.reverse();
        assert_eq!(asc, desc);
    }

    #[test]
    fn len_tracks_inserts_and_removes() {
        let m = map();
        for k in 0..50u64 {
            m.put(k, String::new());
        }
        assert_eq!(m.len(), 50);
        for k in 0..25u64 {
            m.remove(&k);
        }
        assert_eq!(m.len(), 25);
        for k in 0..50u64 {
            m.put(k, String::new());
        }
        assert_eq!(m.len(), 50);
    }

    #[test]
    fn heap_accounting_balances() {
        use oak_gcheap::{HeapConfig, HeapModel, ManagedHeap};
        use std::sync::Arc;
        let heap = Arc::new(ManagedHeap::new(HeapConfig::with_capacity(1 << 30)));
        let m: SkipListMap<u64, Vec<u8>> =
            SkipListMap::with_heap(heap.clone(), |_: &u64| 24, |v: &Vec<u8>| v.len() + 40);
        for k in 0..100u64 {
            m.put(k, vec![0u8; 100]);
        }
        let live_after_insert = heap.stats().live_bytes;
        assert!(live_after_insert > 100 * 140);
        for k in 0..100u64 {
            m.remove(&k);
        }
        heap.collect_now();
        assert_eq!(heap.stats().live_bytes, 0, "all charges must be released");
        assert!(!heap.oom());
    }

    #[test]
    fn many_keys_random_order() {
        let m = SkipListMap::<u32, u32>::new();
        let mut keys: Vec<u32> = (0..5000).collect();
        // Deterministic shuffle.
        let mut state = 12345u64;
        for i in (1..keys.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            keys.swap(i, j);
        }
        for &k in &keys {
            assert!(m.put_if_absent(k, k * 2));
        }
        assert_eq!(m.len(), 5000);
        for &k in &keys {
            assert_eq!(m.get_cloned(&k), Some(k * 2));
        }
        let collected = m.collect_range(None, None);
        assert_eq!(collected.len(), 5000);
        assert!(collected.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
