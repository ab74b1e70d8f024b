//! A coarse-locked off-heap B+-tree — the MapDB comparator stand-in.
//!
//! The paper mentions evaluating "the open-source concurrent off-heap
//! B-tree implementation from MapDB, but it failed to scale to big
//! datasets, performing at least ten-fold slower than Oak" (§1.2, §5.1).
//! This module provides an equivalent qualitative comparator: a correct
//! B+-tree whose keys and values live off-heap in an [`oak_mempool`] pool,
//! guarded by a single reader-writer lock (reads share, updates serialize).
//! Its performance role in the benchmarks is to reproduce the ≥10× gap, not
//! to be a competitive design.

use std::sync::Arc;

use oak_sync::RwLock;

use oak_mempool::{AllocError, HeaderRef, MemoryPool, PoolConfig, SliceRef, ValueStore};

/// Maximum number of keys per node; split at this fan-out.
const MAX_KEYS: usize = 32;

enum Node {
    Internal {
        /// `keys[i]` separates `children[i]` (< key) from `children[i+1]` (≥ key).
        keys: Vec<Box<[u8]>>,
        children: Vec<Node>,
    },
    Leaf {
        /// Pooled key buffers, sorted.
        keys: Vec<SliceRef>,
        vals: Vec<HeaderRef>,
    },
}

/// A coarse-locked off-heap B+-tree map with byte keys.
pub struct LockedBTreeMap {
    store: ValueStore,
    root: RwLock<Node>,
    len: RwLock<usize>,
}

impl LockedBTreeMap {
    /// Creates an empty tree over a fresh pool.
    pub fn new(config: PoolConfig) -> Self {
        let pool = Arc::new(MemoryPool::new(config));
        LockedBTreeMap {
            store: ValueStore::new(pool),
            root: RwLock::new(Node::Leaf {
                keys: Vec::new(),
                vals: Vec::new(),
            }),
            len: RwLock::new(0),
        }
    }

    /// The backing pool (for footprint statistics).
    pub fn pool(&self) -> &Arc<MemoryPool> {
        self.store.pool()
    }

    /// Number of live mappings.
    pub fn len(&self) -> usize {
        *self.len.read()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn key_bytes(&self, r: SliceRef) -> &[u8] {
        // SAFETY: key buffers are immutable while referenced by the tree;
        // structural changes hold the write lock.
        unsafe { self.store.pool().slice(r) }
    }

    /// Header lookup inside a node already guarded by either lock mode.
    fn find_header(&self, node: &Node, key: &[u8]) -> Option<HeaderRef> {
        match node {
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|k| k.as_ref() <= key);
                self.find_header(&children[idx], key)
            }
            Node::Leaf { keys, vals } => {
                let idx = keys.partition_point(|&k| self.key_bytes(k) < key);
                if idx < keys.len() && self.key_bytes(keys[idx]) == key {
                    Some(vals[idx])
                } else {
                    None
                }
            }
        }
    }

    /// Zero-copy get under the shared lock.
    pub fn get_with<R>(&self, key: &[u8], f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let root = self.root.read();
        let h = self.find_header(&root, key)?;
        self.store.read(h, f).ok()
    }

    /// Copying get.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.get_with(key, |b| b.to_vec())
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &[u8]) -> bool {
        self.get_with(key, |_| ()).is_some()
    }

    /// Pre-splits a full root so the recursive insert never splits upward
    /// past its parent.
    fn pre_split_root(&self, root: &mut Node) {
        if node_full(root) {
            let old_root = std::mem::replace(
                root,
                Node::Internal {
                    keys: Vec::new(),
                    children: Vec::new(),
                },
            );
            let (sep, (left, right)) = self.split(old_root);
            let Node::Internal { keys, children } = root else {
                unreachable!()
            };
            keys.push(sep);
            children.push(left);
            children.push(right);
        }
    }

    /// Inserts or replaces `key → value` under the exclusive lock.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), AllocError> {
        let mut root = self.root.write();
        self.pre_split_root(&mut root);
        let inserted = self.insert_non_full(&mut root, key, value)?;
        if inserted {
            *self.len.write() += 1;
        }
        Ok(())
    }

    /// Inserts `key → value` if absent; returns `true` if this call
    /// inserted. Atomic: the check and the insert share one exclusive lock
    /// acquisition.
    pub fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool, AllocError> {
        let mut root = self.root.write();
        if self.find_header(&root, key).is_some() {
            return Ok(false);
        }
        self.pre_split_root(&mut root);
        let inserted = self.insert_non_full(&mut root, key, value)?;
        if inserted {
            *self.len.write() += 1;
        }
        Ok(inserted)
    }

    /// Atomically updates the value in place under the shared lock plus
    /// the value header's write lock. Returns whether the value was
    /// present.
    pub fn compute_if_present(
        &self,
        key: &[u8],
        f: impl FnOnce(&mut oak_mempool::ValueBytesMut<'_>),
    ) -> bool {
        let root = self.root.read();
        match self.find_header(&root, key) {
            Some(h) => self.store.compute(h, f).is_some(),
            None => false,
        }
    }

    /// `putIfAbsentComputeIfPresent`: insert if absent, else atomic
    /// in-place update. Returns `true` if this call inserted.
    pub fn put_if_absent_compute_if_present(
        &self,
        key: &[u8],
        value: &[u8],
        f: impl Fn(&mut oak_mempool::ValueBytesMut<'_>),
    ) -> Result<bool, AllocError> {
        let mut root = self.root.write();
        if let Some(h) = self.find_header(&root, key) {
            if self.store.compute(h, &f).is_some() {
                return Ok(false);
            }
            // Deleted header: cannot persist under the write lock (remove
            // also drops the slot), but recover by overwriting via insert.
        }
        self.pre_split_root(&mut root);
        let inserted = self.insert_non_full(&mut root, key, value)?;
        if inserted {
            *self.len.write() += 1;
        }
        Ok(inserted)
    }

    fn insert_non_full(
        &self,
        node: &mut Node,
        key: &[u8],
        value: &[u8],
    ) -> Result<bool, AllocError> {
        match node {
            Node::Internal { keys, children } => {
                let mut idx = keys.partition_point(|k| k.as_ref() <= key);
                if node_full(&children[idx]) {
                    let child = std::mem::replace(
                        &mut children[idx],
                        Node::Leaf {
                            keys: Vec::new(),
                            vals: Vec::new(),
                        },
                    );
                    let (sep, (left, right)) = self.split(child);
                    let go_right = key >= sep.as_ref();
                    keys.insert(idx, sep);
                    children[idx] = left;
                    children.insert(idx + 1, right);
                    if go_right {
                        idx += 1;
                    }
                }
                self.insert_non_full(&mut children[idx], key, value)
            }
            Node::Leaf { keys, vals } => {
                let idx = keys.partition_point(|&k| self.key_bytes(k) < key);
                if idx < keys.len() && self.key_bytes(keys[idx]) == key {
                    // Replace in place through the value header.
                    if self.store.put(vals[idx], value)? {
                        return Ok(false);
                    }
                    // Header was deleted (only possible via remove, which
                    // also removes the slot under the write lock) — cannot
                    // happen here, but recover by overwriting the slot.
                    let h = self.store.allocate_value(value)?;
                    vals[idx] = h;
                    return Ok(false);
                }
                let kref = self.store.pool().allocate(key.len())?;
                // SAFETY: fresh allocation.
                unsafe { self.store.pool().write_initial(kref, key) };
                let h = self.store.allocate_value(value)?;
                keys.insert(idx, kref);
                vals.insert(idx, h);
                Ok(true)
            }
        }
    }

    /// Splits a full node, returning the separator key and the two halves.
    fn split(&self, node: Node) -> (Box<[u8]>, (Node, Node)) {
        match node {
            Node::Leaf { mut keys, mut vals } => {
                let mid = keys.len() / 2;
                let right_keys = keys.split_off(mid);
                let right_vals = vals.split_off(mid);
                let sep: Box<[u8]> = self.key_bytes(right_keys[0]).into();
                (
                    sep,
                    (
                        Node::Leaf { keys, vals },
                        Node::Leaf {
                            keys: right_keys,
                            vals: right_vals,
                        },
                    ),
                )
            }
            Node::Internal {
                mut keys,
                mut children,
            } => {
                let mid = keys.len() / 2;
                let right_keys = keys.split_off(mid + 1);
                let sep = keys.pop().expect("non-empty internal node");
                let right_children = children.split_off(mid + 1);
                (
                    sep,
                    (
                        Node::Internal { keys, children },
                        Node::Internal {
                            keys: right_keys,
                            children: right_children,
                        },
                    ),
                )
            }
        }
    }

    /// Removes `key`; returns `true` if present. Leaves may become
    /// under-full (no rebalancing — fine for a comparator whose workloads
    /// are ingestion-dominated, as MapDB's were in the paper's setup).
    pub fn remove(&self, key: &[u8]) -> bool {
        let mut root = self.root.write();
        let removed = self.remove_rec(&mut root, key);
        if let Some((kref, h)) = removed {
            self.store.remove(h);
            self.store.pool().free(kref);
            *self.len.write() -= 1;
            true
        } else {
            false
        }
    }

    fn remove_rec(&self, node: &mut Node, key: &[u8]) -> Option<(SliceRef, HeaderRef)> {
        match node {
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|k| k.as_ref() <= key);
                self.remove_rec(&mut children[idx], key)
            }
            Node::Leaf { keys, vals } => {
                let idx = keys.partition_point(|&k| self.key_bytes(k) < key);
                if idx < keys.len() && self.key_bytes(keys[idx]) == key {
                    let kref = keys.remove(idx);
                    let h = vals.remove(idx);
                    Some((kref, h))
                } else {
                    None
                }
            }
        }
    }

    /// Ascending scan over `[lo, hi)` under the shared lock.
    pub fn for_each_range(
        &self,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        mut f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> usize {
        let root = self.root.read();
        let mut count = 0;
        self.scan_rec(&root, lo, hi, &mut f, &mut count);
        count
    }

    /// Descending scan from `from` (inclusive; `None` = from the last key)
    /// down to `lo` (inclusive; `None` = unbounded) under the shared lock.
    pub fn for_each_descending(
        &self,
        from: Option<&[u8]>,
        lo: Option<&[u8]>,
        mut f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> usize {
        let root = self.root.read();
        let mut count = 0;
        self.scan_desc_rec(&root, from, lo, &mut f, &mut count);
        count
    }

    fn scan_desc_rec(
        &self,
        node: &Node,
        from: Option<&[u8]>,
        lo: Option<&[u8]>,
        f: &mut impl FnMut(&[u8], &[u8]) -> bool,
        count: &mut usize,
    ) -> bool {
        match node {
            Node::Internal { keys, children } => {
                let start = match from {
                    Some(b) => keys.partition_point(|k| k.as_ref() <= b),
                    None => children.len() - 1,
                };
                for child in children.iter().take(start + 1).rev() {
                    if !self.scan_desc_rec(child, from, lo, f, count) {
                        return false;
                    }
                }
                true
            }
            Node::Leaf { keys, vals } => {
                for i in (0..keys.len()).rev() {
                    let kb = self.key_bytes(keys[i]);
                    if let Some(b) = from {
                        if kb > b {
                            continue;
                        }
                    }
                    if let Some(l) = lo {
                        if kb < l {
                            return false; // descending: below lo = done
                        }
                    }
                    let keep = self.store.read(vals[i], |v| f(kb, v)).unwrap_or(true);
                    *count += 1;
                    if !keep {
                        return false;
                    }
                }
                true
            }
        }
    }

    fn scan_rec(
        &self,
        node: &Node,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        f: &mut impl FnMut(&[u8], &[u8]) -> bool,
        count: &mut usize,
    ) -> bool {
        match node {
            Node::Internal { keys, children } => {
                let start = match lo {
                    Some(l) => keys.partition_point(|k| k.as_ref() <= l),
                    None => 0,
                };
                for (i, child) in children.iter().enumerate().skip(start) {
                    if let Some(h) = hi {
                        if i > 0 && keys[i - 1].as_ref() >= h {
                            return false;
                        }
                    }
                    if !self.scan_rec(child, lo, hi, f, count) {
                        return false;
                    }
                }
                true
            }
            Node::Leaf { keys, vals } => {
                for (i, &kref) in keys.iter().enumerate() {
                    let kb = self.key_bytes(kref);
                    if let Some(l) = lo {
                        if kb < l {
                            continue;
                        }
                    }
                    if let Some(h) = hi {
                        if kb >= h {
                            return false;
                        }
                    }
                    let keep = self.store.read(vals[i], |v| f(kb, v)).unwrap_or(true);
                    *count += 1;
                    if !keep {
                        return false;
                    }
                }
                true
            }
        }
    }
}

fn node_full(node: &Node) -> bool {
    match node {
        Node::Internal { keys, .. } => keys.len() >= MAX_KEYS,
        Node::Leaf { keys, .. } => keys.len() >= MAX_KEYS,
    }
}

impl std::fmt::Debug for LockedBTreeMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockedBTreeMap")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> LockedBTreeMap {
        LockedBTreeMap::new(PoolConfig::small())
    }

    #[test]
    fn insert_get_small() {
        let t = tree();
        t.put(b"b", b"2").unwrap();
        t.put(b"a", b"1").unwrap();
        t.put(b"c", b"3").unwrap();
        assert_eq!(t.get(b"a").unwrap(), b"1");
        assert_eq!(t.get(b"b").unwrap(), b"2");
        assert_eq!(t.get(b"c").unwrap(), b"3");
        assert_eq!(t.get(b"d"), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn replace_keeps_len() {
        let t = tree();
        t.put(b"k", b"v1").unwrap();
        t.put(b"k", b"v2-longer").unwrap();
        assert_eq!(t.get(b"k").unwrap(), b"v2-longer");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn many_keys_split_correctly() {
        let t = tree();
        let n = 2_000u32;
        for i in 0..n {
            t.put(format!("{:08}", i * 7 % n).as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        assert_eq!(t.len() as u32, n);
        for i in 0..n {
            assert!(
                t.get(format!("{:08}", i).as_bytes()).is_some(),
                "missing {i}"
            );
        }
        // Full scan is sorted and complete.
        let mut prev: Option<Vec<u8>> = None;
        let count = t.for_each_range(None, None, |k, _| {
            if let Some(p) = &prev {
                assert!(p.as_slice() < k);
            }
            prev = Some(k.to_vec());
            true
        });
        assert_eq!(count as u32, n);
    }

    #[test]
    fn range_scan_bounds() {
        let t = tree();
        for i in 0..100u32 {
            t.put(format!("{i:04}").as_bytes(), b"v").unwrap();
        }
        let mut keys = Vec::new();
        t.for_each_range(Some(b"0020"), Some(b"0030"), |k, _| {
            keys.push(String::from_utf8(k.to_vec()).unwrap());
            true
        });
        assert_eq!(keys.len(), 10);
        assert_eq!(keys.first().unwrap(), "0020");
        assert_eq!(keys.last().unwrap(), "0029");
    }

    #[test]
    fn remove_works() {
        let t = tree();
        for i in 0..500u32 {
            t.put(format!("{i:04}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        for i in (0..500u32).step_by(2) {
            assert!(t.remove(format!("{i:04}").as_bytes()));
        }
        assert!(!t.remove(b"0000"));
        assert_eq!(t.len(), 250);
        for i in 0..500u32 {
            let got = t.get(format!("{i:04}").as_bytes());
            assert_eq!(got.is_some(), i % 2 == 1, "key {i}");
        }
    }

    #[test]
    fn concurrent_readers_with_writer() {
        let t = std::sync::Arc::new(tree());
        for i in 0..1_000u32 {
            t.put(&i.to_be_bytes(), &i.to_le_bytes()).unwrap();
        }
        let mut handles = Vec::new();
        for _ in 0..3 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1_000u32 {
                    assert!(t.get(&i.to_be_bytes()).is_some());
                }
            }));
        }
        let w = {
            let t = t.clone();
            std::thread::spawn(move || {
                for i in 1_000..1_500u32 {
                    t.put(&i.to_be_bytes(), b"w").unwrap();
                }
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        w.join().unwrap();
        assert_eq!(t.len(), 1_500);
    }
}
