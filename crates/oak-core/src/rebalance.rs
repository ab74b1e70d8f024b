//! Chunk rebalancing: split, merge, and compaction (§4.1).
//!
//! "The chunk object has a rebalance method, which splits chunks when they
//! are over-utilized, merges chunks when they are under-used, and
//! reorganizes chunks' internals." The rebalancer:
//!
//! 1. engages the chunk (per-chunk mutex; concurrent rebalancers of the
//!    same chunk serialize, later ones find it already replaced and
//!    return),
//! 2. freezes it — after `freeze` returns no published mutation is in
//!    flight and none can start,
//! 3. collects the live entries in key order (entries with ⊥ or deleted
//!    values are dropped, garbage-collecting removed keys),
//! 4. optionally engages the successor for a merge when the chunk is
//!    under-used,
//! 5. builds replacement chunks with fully sorted prefixes,
//! 6. splices them into the chunk list and records the replacement pointer
//!    on each engaged chunk (stale readers chase these), and
//! 7. lazily updates the index (§3.1 — the index may be outdated; `locate`
//!    compensates by walking the list).
//!
//! The rebalance guarantees RB1–RB3 follow from freezing: the collected
//! sequence is exactly the live entries at freeze time, sorted; keys
//! inserted before the freeze and not removed are kept (RB1), never-present
//! or removed keys are not resurrected (RB2), and `new_sorted` preserves
//! order (RB3). `tests/rebalance_guarantees.rs` exercises them under
//! concurrency. Cached key prefixes are relative to one chunk:
//! `new_sorted` carries an entry's prefix into a replacement with the same
//! base and derives it again from the key otherwise.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use oak_mempool::SliceRef;

use crate::chunk::Chunk;
use crate::cmp::KeyComparator;
use crate::map::OakMap;

impl<C: KeyComparator> OakMap<C> {
    /// Rebalances `chunk` (idempotent: returns immediately if it was
    /// already replaced). Blocks while another thread rebalances it.
    pub(crate) fn rebalance(&self, chunk: &Arc<Chunk>) {
        oak_failpoints::sync_point!("rebalance/start");
        oak_failpoints::fail_point!("rebalance/start");
        let engaged = chunk.rebalance_lock.lock();
        self.rebalance_engaged(chunk, engaged);
    }

    /// Deadline-aware rebalance: bounds only the wait to *engage* the
    /// chunk (another thread may hold the rebalance lock through a long
    /// merge chain). Once engaged, the rebalance runs to completion —
    /// freeze and splice are irrevocable shared mutations with no safe
    /// abandon point, so cancellation stops at the engage gate (see
    /// DESIGN.md "Overload and degradation"). Returns `false` when the
    /// engage wait timed out; the caller's next budget check then
    /// surfaces [`DeadlineExceeded`](crate::OakError) cleanly.
    pub(crate) fn rebalance_until(
        &self,
        chunk: &Arc<Chunk>,
        deadline: Option<std::time::Instant>,
    ) -> bool {
        let Some(d) = deadline else {
            self.rebalance(chunk);
            return true;
        };
        oak_failpoints::sync_point!("rebalance/start");
        oak_failpoints::fail_point!("rebalance/start");
        let wait = d.saturating_duration_since(std::time::Instant::now());
        let Some(engaged) = chunk.rebalance_lock.try_lock_for(wait) else {
            return false;
        };
        self.rebalance_engaged(chunk, engaged);
        true
    }

    /// The rebalance body, entered with the chunk engaged.
    fn rebalance_engaged(&self, chunk: &Arc<Chunk>, _engaged: oak_sync::MutexGuard<'_, ()>) {
        if chunk.replacement().is_some() {
            return;
        }
        // Perturbation between engage and freeze widens the window in which
        // writers race the freeze drain.
        oak_failpoints::sync_point!("rebalance/freeze");
        oak_failpoints::fail_point!("rebalance/freeze");
        chunk.freeze();

        // Live/dead split must come from one walk per chunk (see
        // `partition_entries`): dead keys are quarantined below, after the
        // replacement pointers publish.
        let keep = |raw: u64| raw != 0 && !self.store.is_deleted(SliceRef::from_raw(raw));
        let (mut items, mut dead_keys) = chunk.partition_entries(keep);

        // Merge policy: engage the successor when we are under-used.
        let merge_threshold =
            (self.config.chunk_capacity as f64 * self.config.merge_ratio) as usize;
        let next_holder = if items.len() <= merge_threshold {
            chunk.next_chunk()
        } else {
            None
        };
        let mut merged_next: Option<&Arc<Chunk>> = None;
        let mut _next_guard = None;
        if let Some(n) = next_holder.as_ref() {
            // try_lock: if the successor is being rebalanced concurrently,
            // skip the merge rather than risk waiting behind a chain.
            if let Some(g) = n.rebalance_lock.try_lock() {
                if n.replacement().is_none() {
                    n.freeze();
                    let (live_n, dead_n) = n.partition_entries(keep);
                    items.extend(live_n);
                    dead_keys.extend(dead_n);
                    merged_next = Some(n);
                    _next_guard = Some(g);
                }
            }
        }

        // Build replacement chunks: each at most half full so fresh
        // bypass insertions have room.
        let cap = self.config.chunk_capacity;
        let per_chunk = (cap / 2).max(1) as usize;
        let mut new_chunks: Vec<Arc<Chunk>> = Vec::new();
        if items.is_empty() {
            new_chunks.push(Arc::new(Chunk::new_empty(cap, chunk.min_key.clone())));
        } else {
            for (i, group) in items.chunks(per_chunk).enumerate() {
                let min_key: Box<[u8]> = if i == 0 {
                    // The first replacement inherits the engaged range's
                    // lower bound (minKey is invariant, §3.1).
                    chunk.min_key.clone()
                } else {
                    // SAFETY: key buffers are immutable and live.
                    unsafe { self.pool().slice(group[0].key) }.into()
                };
                new_chunks.push(Arc::new(Chunk::new_sorted(
                    cap,
                    min_key,
                    group,
                    self.pool(),
                    &self.cmp,
                )));
            }
        }

        // Chain the new chunks and attach the tail.
        let tail = match merged_next {
            Some(n) => n.next_chunk(),
            None => chunk.next_chunk(),
        };
        for w in new_chunks.windows(2) {
            w[0].set_next(Some(w[1].clone()));
        }
        new_chunks
            .last()
            .expect("at least one replacement")
            .set_next(tail);

        // Splice into the chunk list, then record replacements so stale
        // readers (and the lazy index) converge on the new chunks.
        let new_head = new_chunks[0].clone();
        oak_failpoints::sync_point!("rebalance/splice");
        oak_failpoints::fail_point!("rebalance/splice");
        self.splice(chunk, new_head.clone());
        oak_failpoints::sync_point!("rebalance/publish-replacement");
        oak_failpoints::fail_point!("rebalance/publish-replacement");
        chunk.set_replacement(new_head.clone());
        if let Some(n) = merged_next {
            // The chunk now covering n's range start: the last new chunk
            // whose min_key ≤ n.min_key.
            let cover = new_chunks
                .iter()
                .rev()
                .find(|nc| self.cmp.compare(&nc.min_key, &n.min_key) != std::cmp::Ordering::Greater)
                .unwrap_or(&new_head)
                .clone();
            n.set_replacement(cover);
        }

        // Lazy index maintenance: publish new minKeys, drop stale ones.
        for nc in &new_chunks {
            self.index.publish(nc);
        }
        if let Some(n) = merged_next {
            let still_a_boundary = new_chunks
                .iter()
                .any(|nc| self.cmp.compare(&nc.min_key, &n.min_key) == std::cmp::Ordering::Equal);
            if !still_a_boundary {
                self.index.retire(&n.min_key);
            }
        }

        self.rebalances.fetch_add(1, Ordering::Relaxed);

        // Quarantine the replaced chunks' dead key slices. This must come
        // after `set_replacement` on every engaged chunk: the epoch safety
        // argument (reclaim.rs module docs) needs any walker that can still
        // enter these chunks' linked lists to have pinned before the
        // retirement stamp. Exactly-once ownership holds because only the
        // rebalancer that installs the replacement reaches this point for a
        // given chunk (engage + replaced-check above). Then drain
        // opportunistically — grace-expired slices from *earlier*
        // rebalances go back to the pool; our own batch waits two epochs.
        for k in dead_keys {
            self.reclaim.retire(k);
        }
        self.reclaim.try_drain();
    }

    /// Replaces `old` with `new_head` in the chunk list. `old` is engaged
    /// (its rebalance lock is held) and not yet marked replaced, so it is
    /// reachable from the live chain.
    fn splice(&self, old: &Arc<Chunk>, new_head: Arc<Chunk>) {
        if old.min_key.is_empty() {
            // `old` is the first chunk; the index's first pointer
            // necessarily points at it (each first-replacement updates the
            // pointer under the old first's rebalance lock, which we hold
            // transitively). A failed verify-and-swing here means that
            // invariant broke — fail loudly rather than detach the chain.
            let swung = self.index.replace_first(old, new_head);
            assert!(swung, "first pointer out of sync during head splice");
            return;
        }
        let mut spins = 0u64;
        'outer: loop {
            let mut cur = self.index.first_raw();
            loop {
                while let Some(r) = cur.replacement() {
                    cur = r.clone();
                }
                let Some(n) = cur.next_chunk() else {
                    // `old` temporarily unreachable through the live chain
                    // (a concurrent splice is mid-flight); retry.
                    break;
                };
                if Arc::ptr_eq(&n, old) {
                    if cur.swing_next(old, new_head.clone()) {
                        return;
                    }
                    continue 'outer;
                }
                if let Some(r) = n.replacement() {
                    // Resurrected-chunk race: a rebalancer captures its
                    // tail pointer before building replacements, so a
                    // concurrent splice of that tail chunk leaves the
                    // rebalancer re-linking the replaced tail into the
                    // next-chain. The tail's live replacement is then
                    // reachable only through replacement pointers — no
                    // predecessor's `next` leads to it, and a later
                    // rebalance of it would walk here forever. Heal the
                    // chain by physically unlinking the replaced chunk
                    // before walking on.
                    let mut live = r.clone();
                    while let Some(r2) = live.replacement() {
                        live = r2.clone();
                    }
                    if !cur.swing_next(&n, live) {
                        continue 'outer; // chain changed under us; re-walk
                    }
                    continue; // re-examine `cur`'s healed successor
                }
                cur = n;
            }
            spins += 1;
            assert!(spins < 1_000_000, "splice could not find engaged chunk");
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::config::OakMapConfig;

    /// The benchmark's key shape: a 20-digit zero-padded id, then padding.
    fn key(id: u64) -> Vec<u8> {
        let mut k = format!("{id:020}").into_bytes();
        k.resize(40, b'k');
        k
    }

    fn chunks(map: &OakMap) -> Vec<Arc<Chunk>> {
        let mut out = vec![map.first_chunk()];
        while let Some(n) = out.last().expect("non-empty").next_chunk() {
            out.push(n);
        }
        out
    }

    fn assert_scan_equals(map: &OakMap, model: &BTreeMap<Vec<u8>, Vec<u8>>) {
        map.validate(); // includes: every cached prefix agrees with its key
        let mut got = Vec::new();
        map.for_each_in(None, None, |k, v| {
            got.push((k.to_vec(), v.to_vec()));
            true
        });
        let want: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(got, want);
        for (k, v) in model {
            assert_eq!(map.get_copy(k).as_ref(), Some(v));
        }
    }

    #[test]
    fn merge_of_chunks_with_different_skip_rederives_prefixes() {
        let map = OakMap::with_config(OakMapConfig::small().chunk_capacity(64));
        let mut model = BTreeMap::new();
        // Ids straddling a power of ten: chunks below, across and above
        // 10 000 share 16, 15 and 17 leading bytes.
        for id in 9_900..10_100u64 {
            map.put(&key(id), &id.to_le_bytes()).unwrap();
            model.insert(key(id), id.to_le_bytes().to_vec());
        }
        let cs = chunks(&map);
        let i = cs
            .windows(2)
            .position(|w| w[0].skip() != w[1].skip())
            .expect("neighbouring chunks with different skip");
        let (c, n) = (cs[i].clone(), cs[i + 1].clone());
        // Drain `c` to under the merge threshold, then rebalance it: its
        // survivors move into a chunk built together with `n`'s.
        let live = c.collect_live(|raw| raw != 0);
        for (kref, _) in &live[2..] {
            // SAFETY: key buffers are immutable and live.
            let kb = unsafe { map.pool().slice(*kref) }.to_vec();
            if map.remove(&kb) {
                model.remove(&kb);
            }
        }
        if c.replacement().is_none() {
            map.rebalance(&c);
        }
        assert!(c.replacement().is_some() && n.replacement().is_some());
        assert_scan_equals(&map, &model);
    }

    #[test]
    fn split_that_narrows_a_chunk_grows_its_skip() {
        let map = OakMap::with_config(OakMapConfig::small().chunk_capacity(64));
        let mut model = BTreeMap::new();
        let mut put = |id: u64| {
            map.put(&key(id), &id.to_le_bytes()).unwrap();
            model.insert(key(id), id.to_le_bytes().to_vec());
        };
        for id in (1_000..4_300).step_by(100) {
            put(id); // sparse: a chunk spans thousands, skip ≤ 16
        }
        let before = chunks(&map).iter().map(|c| c.skip()).max().unwrap();
        assert!(before <= 16);
        for id in 2_000..2_080 {
            put(id); // dense: the splits leave chunks inside 20xx
        }
        let after = chunks(&map).iter().map(|c| c.skip()).max().unwrap();
        assert!(after >= 18, "skip {before} -> {after}");
        assert_scan_equals(&map, &model);
    }
}
