//! Multi-arena memory pool.
//!
//! The pool owns a set of fixed-size [`Arena`]s, each carved up by its own
//! [`FreeList`]. Allocation tries existing arenas in order, flushes their
//! exact-size bins when all miss, and lazily reserves a new arena when all
//! are still full, up to a configurable budget — the Rust rendering of the
//! paper's "shared pool of large (100 MB by default) pre-allocated off-heap
//! arenas" (§3.2).
//!
//! Each arena's list has a lock-free summary beside it (its non-empty bins
//! and its largest free run), published under the list's lock after every
//! change. The probe reads it first and locks only an arena that can
//! serve, so a request takes about one lock however many arenas are full;
//! before it flushes, the pool still probes every arena under its lock.
//!
//! Arena slots are pre-sized and initialized at most once, so the read path
//! (`slice`, `atomic_*`) indexes into arenas without taking any lock.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use oak_sync::Mutex;

use crate::arena::Arena;
use crate::audit::AllocClass;
use crate::error::AllocError;
use crate::freelist::{round_up, FreeList, Summary};
use crate::refs::{SliceRef, MAX_BLOCKS, MAX_SLICE_LEN};
use crate::shared::ArenaPool;
use crate::stats::{Counters, PoolStats};

/// Configuration for a [`MemoryPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Size of each arena in bytes. The paper's default is 100 MB; tests and
    /// scaled-down benchmarks use much smaller arenas.
    pub arena_size: usize,
    /// Maximum number of arenas the pool may reserve. Reaching this budget
    /// makes further allocations fail with [`AllocError::PoolExhausted`].
    pub max_arenas: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            arena_size: 100 << 20, // 100 MB, as in the paper
            max_arenas: 256,
        }
    }
}

impl PoolConfig {
    /// A small configuration convenient for unit tests.
    pub fn small() -> Self {
        PoolConfig {
            arena_size: 1 << 20, // 1 MB
            max_arenas: 64,
        }
    }

    /// Configuration with an explicit total RAM budget in bytes.
    pub fn with_budget(arena_size: usize, budget_bytes: usize) -> Self {
        PoolConfig {
            arena_size,
            max_arenas: (budget_bytes / arena_size).max(1),
        }
    }
}

struct Block {
    arena: Arena,
    free: Mutex<FreeList>,
    /// What `free` can serve, readable without its lock.
    summary: Summary,
}

impl Block {
    /// Runs `f` on the free list under its lock and publishes the list's
    /// summary before the lock is released. Every change to a list goes
    /// through here, so no change can leave the summary stale.
    #[inline]
    fn with_free<R>(&self, counters: &Counters, f: impl FnOnce(&mut FreeList) -> R) -> R {
        let mut free = self.free.lock();
        counters.freelist_lock_acquires.incr();
        let result = f(&mut free);
        self.summary.publish(&free);
        result
    }
}

/// A multi-arena, thread-safe memory pool with packed-reference addressing.
pub struct MemoryPool {
    config: PoolConfig,
    blocks: Box<[OnceLock<Block>]>,
    /// Number of *claimed* block slots. Slots `[0, nblocks)` are either
    /// initialized or mid-publish by a growing thread (their `OnceLock` is
    /// still empty for the few instructions between the claim CAS and the
    /// `set`); readers skip pending slots, and no `SliceRef` can point at
    /// one because references are only handed out after initialization.
    nblocks: AtomicUsize,
    counters: Counters,
    /// When set, arenas come from (and return to) a shared reservoir
    /// instead of the system allocator (§3.2).
    shared: Option<std::sync::Arc<ArenaPool>>,
    /// Allocation ledger for lifecycle auditing (feature `audit`).
    #[cfg(feature = "audit")]
    ledger: crate::audit::Ledger,
}

impl MemoryPool {
    /// Creates an empty pool; the first arena is reserved on first use.
    pub fn new(config: PoolConfig) -> Self {
        assert!(config.arena_size >= 64, "arena too small");
        assert!(
            config.arena_size.is_multiple_of(8),
            "arena size must be 8-byte aligned"
        );
        assert!(
            config.arena_size <= u32::MAX as usize,
            "arena size must fit 32-bit offsets"
        );
        let max_arenas = config.max_arenas.min(MAX_BLOCKS);
        let blocks = (0..max_arenas)
            .map(|_| OnceLock::new())
            .collect::<Vec<_>>()
            .into_boxed_slice();
        MemoryPool {
            config: PoolConfig {
                max_arenas,
                ..config
            },
            blocks,
            nblocks: AtomicUsize::new(0),
            counters: Counters::default(),
            shared: None,
            #[cfg(feature = "audit")]
            ledger: crate::audit::Ledger::default(),
        }
    }

    /// Creates a pool that draws its arenas from a shared pre-allocated
    /// reservoir and returns them when dropped — the paper's multi-instance
    /// arena pool (§3.2). `config` applies as given, except that arenas
    /// take the reservoir's size: `config.max_arenas` still caps this
    /// instance's own growth.
    pub fn with_shared(config: PoolConfig, shared: std::sync::Arc<ArenaPool>) -> Self {
        let mut pool = Self::new(PoolConfig {
            arena_size: shared.arena_size(),
            ..config
        });
        pool.shared = Some(shared);
        pool
    }

    /// The pool configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Allocates `len` bytes and returns a packed reference.
    ///
    /// The referenced bytes may hold stale data: from slices freed earlier,
    /// or from another instance that used the arena before it came back to
    /// a shared reservoir. Callers overwrite before publishing.
    pub fn allocate(&self, len: usize) -> Result<SliceRef, AllocError> {
        self.allocate_tagged(len, AllocClass::Other)
    }

    /// Like [`allocate`](Self::allocate), but declares what the slice will
    /// hold so the auditor (feature `audit`) can attribute live bytes and
    /// leaks to a slice class. Without the feature the tag is free.
    pub fn allocate_tagged(&self, len: usize, class: AllocClass) -> Result<SliceRef, AllocError> {
        let result = self.allocate_inner(len);
        match &result {
            Ok(r) => {
                #[cfg(feature = "audit")]
                self.ledger.record_alloc(*r, round_up(r.len()), class);
                #[cfg(not(feature = "audit"))]
                let _ = (r, class);
                // `peak_live_bytes` is maintained at snapshot time: the
                // byte counters are thread-striped, so summing them here on
                // every allocation would reintroduce the shared-line walk
                // striping removed.
            }
            Err(_) => {
                self.counters.failed_allocs.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    fn allocate_inner(&self, len: usize) -> Result<SliceRef, AllocError> {
        if len == 0 {
            return Err(AllocError::ZeroSized);
        }
        if len > MAX_SLICE_LEN || len > self.config.arena_size {
            return Err(AllocError::TooLarge {
                requested: len,
                max: MAX_SLICE_LEN.min(self.config.arena_size),
            });
        }
        oak_failpoints::fail_point!("pool/alloc", Err(AllocError::Injected));
        let padded = round_up(len as u32);
        if padded as usize > self.config.arena_size {
            // Coarse oversized rounding can push a near-arena-size request
            // past the arena; no free list could ever satisfy it.
            return Err(AllocError::TooLarge {
                requested: len,
                max: MAX_SLICE_LEN.min(self.config.arena_size),
            });
        }

        self.allocate_from_arenas(len as u32, padded)
    }

    /// Probes the arenas in index order for a slice of `padded` bytes,
    /// locking only those whose summary says they can serve. When that
    /// pass finds nothing, it probes every arena under its lock; when that
    /// misses too, it flushes each arena's bins into its segments and
    /// probes once more; only then does it grow the pool, or refuse with
    /// [`AllocError::PoolExhausted`] at the budget.
    ///
    /// A summary rules an arena out only when its locked `allocate` would
    /// miss, so a single thread gets exactly the offsets a walk that locks
    /// every arena would give it. Under concurrency a stale "cannot serve"
    /// is the answer of a locked probe made a moment earlier, which a walk
    /// holding one lock at a time allows too; and nothing is flushed,
    /// grown or refused before the locked pass has missed.
    ///
    /// Growth is de-amortized: the expensive part (obtaining and zeroing
    /// an arena) runs with no lock held and the new block is published
    /// with one claim CAS on `nblocks` followed by the slot `set` — no
    /// allocating thread ever queues behind another thread's arena
    /// initialization on a mutex. A thread that loses the claim race
    /// returns its arena and re-probes; a thread that finds a
    /// claimed-but-pending slot yields until the (fully free) arena
    /// appears rather than reserving yet another one.
    fn allocate_from_arenas(&self, len: u32, padded: u32) -> Result<SliceRef, AllocError> {
        let mut flushed = false;
        loop {
            let n = self.nblocks.load(Ordering::Acquire);
            let mut pending = false;
            for i in 0..n {
                let Some(block) = self.blocks[i].get() else {
                    // Claimed slot still mid-publish by a growing thread.
                    pending = true;
                    continue;
                };
                if !block.summary.may_serve(padded) {
                    continue;
                }
                if let Some(r) = self.probe(i, block, len, padded) {
                    return Ok(r);
                }
            }
            if pending {
                // Another thread is publishing a fresh, fully free arena;
                // waiting for its short `set` beats claiming another slot.
                std::thread::yield_now();
                continue;
            }
            if let Some(r) = self.probe_locked(n, len, padded) {
                return Ok(r);
            }
            // Every arena missed: binned bytes may still add up to a fit
            // once coalesced. One flush per call; then probe again.
            if !flushed {
                flushed = true;
                if self.flush_bins(n) {
                    continue;
                }
            }
            // All initialized arenas are full: reserve another one. `false`
            // means the shared reservoir is empty.
            if n < self.config.max_arenas && self.grow(n)? {
                continue;
            }
            return Err(AllocError::PoolExhausted);
        }
    }

    /// Allocates `padded` bytes from arena `i` under its lock.
    #[inline]
    fn probe(&self, i: usize, block: &Block, len: u32, padded: u32) -> Option<SliceRef> {
        let offset = block.with_free(&self.counters, |free| free.allocate(padded))?;
        self.note_allocated(padded);
        Some(SliceRef::new(i, offset, len))
    }

    /// Probes arenas `[0, n)` in order, each under its lock whatever its
    /// summary says: the pass that must miss before the pool flushes,
    /// grows or refuses.
    #[cold]
    #[inline(never)]
    fn probe_locked(&self, n: usize, len: u32, padded: u32) -> Option<SliceRef> {
        (self.blocks[..n].iter().enumerate())
            .filter_map(|(i, slot)| Some((i, slot.get()?)))
            .find_map(|(i, block)| self.probe(i, block, len, padded))
    }

    /// Coalesces the exact-size bins of arenas `[0, n)` into their
    /// segments, one arena lock at a time. Returns whether any arena had
    /// binned bytes.
    #[cold]
    #[inline(never)]
    fn flush_bins(&self, n: usize) -> bool {
        let mut flushed = false;
        for block in self.blocks[..n].iter().filter_map(OnceLock::get) {
            flushed |= block.with_free(&self.counters, FreeList::flush);
        }
        flushed
    }

    /// Obtains an arena and publishes it in slot `n`. `Ok(true)` means the
    /// caller should re-probe: this thread published the arena, or lost
    /// the claim race to a thread that is publishing one. `Ok(false)`
    /// means the shared reservoir had no arena left.
    #[cold]
    #[inline(never)]
    fn grow(&self, n: usize) -> Result<bool, AllocError> {
        oak_failpoints::fail_point!("pool/grow", Err(AllocError::Injected));
        let arena = match &self.shared {
            Some(reservoir) => {
                let Some(arena) = reservoir.take() else {
                    return Ok(false);
                };
                self.counters
                    .reservoir_takes
                    .fetch_add(1, Ordering::Relaxed);
                arena
            }
            None => Arena::new(self.config.arena_size),
        };
        if self
            .nblocks
            .compare_exchange(n, n + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            // Lost the claim race: another thread is publishing a fresh
            // arena. Return ours and re-probe.
            self.release_arena(arena);
            return Ok(true);
        }
        let free = FreeList::new(self.config.arena_size as u32);
        let block = Block {
            arena,
            summary: Summary::of(&free),
            free: Mutex::new(free),
        };
        if let Err(block) = self.blocks[n].set(block) {
            // Unreachable: the claim CAS makes each slot index a unique
            // winner. If the invariant is ever broken, fail this one
            // allocation without leaking the arena.
            self.release_arena(block.arena);
            return Err(AllocError::Internal("arena slot double-initialized"));
        }
        Ok(true)
    }

    /// Returns an arena this pool obtained but did not publish: to the
    /// shared reservoir if it came from one, else to the system.
    fn release_arena(&self, arena: Arena) {
        if let Some(reservoir) = &self.shared {
            reservoir.give_back(arena);
            self.counters
                .reservoir_returns
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    fn note_allocated(&self, padded: u32) {
        self.counters.allocated_bytes.add(padded as u64);
        self.counters.alloc_count.incr();
    }

    /// Returns a slice to the free list.
    ///
    /// # Safety-adjacent contract
    /// The caller must guarantee `r` came from [`allocate`](Self::allocate)
    /// on this pool, is freed at most once, and that no live view of the
    /// bytes remains (enforced upstream by header locks / epoch deferral).
    ///
    /// Under the `audit` feature the contract is *checked*: a double free
    /// or a free of a reference this pool never handed out is recorded as
    /// a violation and skipped instead of corrupting the free list.
    pub fn free(&self, r: SliceRef) {
        assert!(!r.is_null(), "freeing the null reference");
        oak_failpoints::fail_point!("pool/free");
        let padded = round_up(r.len());
        #[cfg(feature = "audit")]
        if !self.ledger.check_free(r, padded) {
            return;
        }
        self.counters.freed_bytes.add(padded as u64);
        self.counters.free_count.incr();
        self.block(r.block())
            .with_free(&self.counters, |free| free.free(r.offset(), padded));
    }

    #[inline]
    fn block(&self, idx: usize) -> &Block {
        assert!(
            idx < self.nblocks.load(Ordering::Acquire),
            "block index {idx} out of range"
        );
        // A `SliceRef` is only handed out after its block's `set`, so a
        // pending (claimed, mid-publish) slot can never be dereferenced.
        self.blocks[idx].get().expect("initialized block")
    }

    /// Shared view of the referenced bytes.
    ///
    /// # Safety
    /// No thread may write this byte range while the returned slice is live
    /// (immutable key bytes, or value bytes under the header read lock).
    #[inline]
    pub unsafe fn slice(&self, r: SliceRef) -> &[u8] {
        #[cfg(feature = "audit")]
        self.ledger.check_access(r, round_up(r.len()));
        self.block(r.block()).arena.slice(r.offset(), r.len())
    }

    /// Exclusive view of the referenced bytes.
    ///
    /// # Safety
    /// The caller must have exclusive access to the byte range (value-header
    /// write lock, or a freshly allocated unpublished slice).
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub unsafe fn slice_mut(&self, r: SliceRef) -> &mut [u8] {
        #[cfg(feature = "audit")]
        self.ledger.check_access(r, round_up(r.len()));
        self.block(r.block()).arena.slice_mut(r.offset(), r.len())
    }

    /// Allocates a slice of `data.len()` bytes for `class` (see
    /// [`allocate_tagged`](Self::allocate_tagged)) holding a copy of `data`:
    /// the safe way to create a slice with known contents.
    #[inline]
    pub fn allocate_copy(&self, data: &[u8], class: AllocClass) -> Result<SliceRef, AllocError> {
        let r = self.allocate_tagged(data.len(), class)?;
        // SAFETY: `r` was just allocated and is not shared with any thread
        // yet, so nothing else can read or write its bytes.
        unsafe { self.slice_mut(r) }.copy_from_slice(data);
        Ok(r)
    }

    /// The current virtual address of `r`'s first byte. Address
    /// translation only — arenas never move, so the result stays valid for
    /// the pool's lifetime, but dereferencing it requires the same
    /// synchronization as [`slice`](Self::slice) (and happens at the
    /// caller's access site, which is where audit checks belong).
    #[inline]
    pub fn resolve_addr(&self, r: SliceRef) -> usize {
        self.block(r.block()).arena.addr_of(r.offset())
    }

    /// Asks the memory system for the cache line holding `r`'s first byte
    /// (see [`prefetch_line`]). `r` only forms an address — bounds-checked
    /// like any other translation, never dereferenced — so a reference
    /// read without the lock that guards its bytes is fine here.
    #[inline]
    pub fn prefetch(&self, r: SliceRef) {
        if !r.is_null() {
            prefetch_line(self.resolve_addr(r));
        }
    }

    /// The three words of a 16-byte value header (lock state, generation,
    /// payload reference), resolved with a single block translation: the
    /// block bounds check and `OnceLock` resolution happen once — this sits
    /// on every get and on every entry a scan yields. `Header::at` is its
    /// one caller.
    ///
    /// # Safety
    /// `r` must reference a 16-byte, 8-aligned header slot in this pool
    /// (every `HeaderRef` the value store hands out satisfies this).
    #[inline]
    pub(crate) unsafe fn header_words(
        &self,
        r: SliceRef,
    ) -> (
        &std::sync::atomic::AtomicU32,
        &std::sync::atomic::AtomicU32,
        &AtomicU64,
    ) {
        let arena = &self.block(r.block()).arena;
        let off = r.offset();
        (
            arena.atomic_u32(off),
            arena.atomic_u32(off + 4),
            arena.atomic_u64(off + 8),
        )
    }

    /// Point-in-time footprint statistics. Walks the per-arena free lists
    /// (briefly locking each) to report exact free-space fragmentation.
    pub fn stats(&self) -> PoolStats {
        let n = self.nblocks.load(Ordering::Acquire);
        let mut gauges = PoolStats::default();
        for i in 0..n {
            // Skip a claimed slot still mid-publish by a growing thread.
            let Some(block) = self.blocks[i].get() else {
                continue;
            };
            gauges.arenas += 1;
            let free = block.free.lock();
            gauges.free_bytes += free.free_bytes();
            gauges.binned_bytes += free.binned_bytes();
            gauges.free_segments += free.segment_count() as u64;
            gauges.largest_free_segment = gauges
                .largest_free_segment
                .max(free.largest_segment() as u64);
        }
        gauges.reserved_bytes = gauges.arenas * self.config.arena_size as u64;
        gauges.largest_free_segment_sum = gauges.largest_free_segment;
        self.counters.snapshot(gauges)
    }

    pub(crate) fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Asserts that every arena's summary equals the one recomputed from
    /// its free list under the list's lock. Every change publishes before
    /// it releases that lock, so this holds at any time, not only at a
    /// quiescent point.
    #[doc(hidden)]
    pub fn check_summaries(&self) {
        let n = self.nblocks.load(Ordering::Acquire);
        for (i, slot) in self.blocks[..n].iter().enumerate() {
            if let Some(block) = slot.get() {
                block.summary.check(&block.free.lock(), i);
            }
        }
    }

    /// Every allocation currently live according to the auditor's ledger,
    /// with its class and allocation sequence number.
    #[cfg(feature = "audit")]
    pub fn live_allocations(&self) -> Vec<(SliceRef, crate::audit::LiveAlloc)> {
        self.ledger.live_allocations()
    }

    /// Cross-checks the auditor's ledger against the free lists: ledger
    /// live bytes plus free-list bytes must equal the managed capacity.
    /// Meaningful at any time — the ledger and the free lists are updated
    /// under the same call, so transient concurrent drift is bounded by
    /// in-flight operations; call at a quiescent point for exact results.
    #[cfg(feature = "audit")]
    pub fn audit(&self) -> crate::audit::AuditReport {
        let (live_bytes, live_by_class) = self.ledger.live_summary();
        let n = self.nblocks.load(Ordering::Acquire);
        let mut free_bytes = 0u64;
        let mut initialized = 0u64;
        for i in 0..n {
            let Some(block) = self.blocks[i].get() else {
                continue;
            };
            initialized += 1;
            free_bytes += block.free.lock().free_bytes();
        }
        let capacity_bytes = initialized * self.config.arena_size as u64;
        crate::audit::AuditReport {
            live_bytes,
            free_bytes,
            capacity_bytes,
            balanced: live_bytes + free_bytes == capacity_bytes,
            live_by_class,
            violations: self.ledger.violations(),
        }
    }
}

impl Drop for MemoryPool {
    fn drop(&mut self) {
        // Hand arenas back to the shared reservoir, if any ("each arena …
        // returns to the pool when that instance is disposed", §3.2).
        let Some(reservoir) = self.shared.take() else {
            return;
        };
        let blocks = std::mem::take(&mut self.blocks);
        for slot in Vec::from(blocks) {
            if let Some(block) = slot.into_inner() {
                reservoir.give_back(block.arena);
            }
        }
    }
}

/// Asks the memory system to start fetching the cache line at `addr`, so a
/// later access finds it arriving instead of starting the miss itself. A
/// hint, not an access: any address is allowed and nothing is read through
/// it. What a scan gains from a chunk's entry array is that the array names
/// the next headers, keys and payloads before the walk reaches them; this
/// is how it says so to the hardware. A no-op off x86_64, and under Miri,
/// which has no model of a cache.
#[inline(always)]
pub fn prefetch_line(addr: usize) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    // SAFETY: PREFETCHT0 is an architectural hint; it cannot fault on any
    // address and has no effect the program can observe.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(addr as *const i8);
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = addr;
}

impl std::fmt::Debug for MemoryPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryPool")
            .field("arena_size", &self.config.arena_size)
            .field("arenas", &self.nblocks.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tiny_pool() -> MemoryPool {
        MemoryPool::new(PoolConfig {
            arena_size: 4096,
            max_arenas: 4,
        })
    }

    #[test]
    fn allocate_copy_then_read() {
        let pool = tiny_pool();
        let r = pool
            .allocate_copy(b"hello world", AllocClass::Other)
            .unwrap();
        // SAFETY: nothing writes `r` while the slice is live.
        assert_eq!(unsafe { pool.slice(r) }, b"hello world");
        assert_eq!(r.len(), 11);
    }

    /// A prefetch is a hint: whatever address it is given — a live slice,
    /// the null reference, nonsense — nothing is read and nothing changes.
    #[test]
    fn prefetch_is_a_hint_only() {
        let pool = tiny_pool();
        let r = pool
            .allocate_copy(b"hello world", AllocClass::Other)
            .unwrap();
        pool.prefetch(r);
        pool.prefetch(SliceRef::NULL);
        prefetch_line(0);
        prefetch_line(usize::MAX);
        prefetch_line(pool.resolve_addr(r) + 4096 * 1024);
        // SAFETY: nothing writes `r` while the slice is live.
        assert_eq!(unsafe { pool.slice(r) }, b"hello world");
        assert_eq!(pool.stats().alloc_count, 1);
    }

    #[test]
    fn grows_to_more_arenas() {
        let pool = tiny_pool();
        let mut refs = Vec::new();
        // Each arena fits 4096/1024 = 4 such allocations; 10 forces growth.
        for _ in 0..10 {
            refs.push(pool.allocate(1024).unwrap());
        }
        let stats = pool.stats();
        assert!(stats.arenas >= 3);
        assert_eq!(stats.alloc_count, 10);
        // All refs distinct.
        let mut raw: Vec<u64> = refs.iter().map(|r| r.to_raw()).collect();
        raw.sort_unstable();
        raw.dedup();
        assert_eq!(raw.len(), 10);
    }

    #[test]
    fn exhaustion_is_reported() {
        let pool = tiny_pool();
        let mut n = 0;
        loop {
            match pool.allocate(1024) {
                Ok(_) => n += 1,
                Err(AllocError::PoolExhausted) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert_eq!(n, 16); // 4 arenas × 4 slots
    }

    #[test]
    fn free_allows_reuse() {
        let pool = MemoryPool::new(PoolConfig {
            arena_size: 1024,
            max_arenas: 1,
        });
        let r = pool.allocate(1024).unwrap();
        assert!(matches!(pool.allocate(8), Err(AllocError::PoolExhausted)));
        pool.free(r);
        assert!(pool.allocate(1024).is_ok());
        let stats = pool.stats();
        assert_eq!(stats.free_count, 1);
        assert_eq!(stats.live_bytes, 1024);
    }

    /// A double free of a binned length never reaches the bin: the ledger
    /// records it and skips the free, so the slice is handed out once.
    #[cfg(feature = "audit")]
    #[test]
    fn double_free_is_caught_before_the_bin() {
        let pool = tiny_pool();
        let r = pool.allocate(64).unwrap();
        pool.free(r);
        pool.free(r);
        let report = pool.audit();
        assert_eq!(report.violations.len(), 1);
        assert_eq!(
            report.violations[0].kind,
            crate::audit::ViolationKind::DoubleFree
        );
        assert!(report.balanced, "{report:?}");
        let (a, b) = (pool.allocate(64).unwrap(), pool.allocate(64).unwrap());
        assert_eq!(a, r, "the bin holds the slice once");
        assert_ne!(b, r);
    }

    #[test]
    fn zero_and_oversize_rejected() {
        let pool = tiny_pool();
        assert_eq!(pool.allocate(0), Err(AllocError::ZeroSized));
        assert!(matches!(
            pool.allocate(8192),
            Err(AllocError::TooLarge { .. })
        ));
    }

    #[test]
    fn concurrent_allocation_yields_disjoint_slices() {
        let pool = Arc::new(MemoryPool::new(PoolConfig {
            arena_size: 1 << 16,
            max_arenas: 8,
        }));
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let pool = pool.clone();
            handles.push(std::thread::spawn(move || {
                let mut refs = Vec::new();
                for i in 0..200usize {
                    let r = pool.allocate(64).unwrap();
                    // SAFETY: `r` is this thread's own fresh allocation.
                    unsafe {
                        let s = pool.slice_mut(r);
                        s.fill(t.wrapping_mul(31).wrapping_add(i as u8));
                    }
                    refs.push((r, t.wrapping_mul(31).wrapping_add(i as u8)));
                }
                // Verify our writes were not clobbered by other threads.
                for (r, fill) in &refs {
                    // SAFETY: `r` is still this thread's own allocation.
                    let s = unsafe { pool.slice(*r) };
                    assert!(s.iter().all(|b| b == fill));
                }
                refs.len()
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 800);
        assert_eq!(pool.stats().alloc_count, 800);
    }

    #[test]
    fn oversized_rounding_near_arena_size_is_rejected() {
        // An arena size that is 8-aligned but not 256-aligned, so coarse
        // rounding can overshoot it.
        let pool = MemoryPool::new(PoolConfig {
            arena_size: 4104,
            max_arenas: 1,
        });
        // 4100 ≤ arena but rounds to 4352 > arena: a typed error, not an
        // endless grow-and-probe loop.
        assert!(matches!(
            pool.allocate(4100),
            Err(AllocError::TooLarge { .. })
        ));
        // A request whose padding still fits works.
        assert!(pool.allocate(4096).is_ok());
    }

    #[test]
    fn growth_claim_race_loses_cleanly() {
        // Hammer a growing pool from several threads: every growth slot
        // must end up initialized exactly once, losers must re-probe, and
        // the byte accounting must balance over initialized arenas only.
        let pool = Arc::new(MemoryPool::new(PoolConfig {
            arena_size: 4096,
            max_arenas: 8,
        }));
        let iters: usize = if cfg!(miri) { 8 } else { 64 };
        let mut handles = Vec::new();
        for _ in 0..4 {
            let pool = pool.clone();
            handles.push(std::thread::spawn(move || {
                let mut refs = Vec::new();
                for _ in 0..iters {
                    match pool.allocate(1024) {
                        Ok(r) => refs.push(r),
                        Err(AllocError::PoolExhausted) => break,
                        Err(e) => panic!("unexpected: {e}"),
                    }
                }
                for r in refs {
                    pool.free(r);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = pool.stats();
        assert!(stats.arenas >= 2, "pool never grew: {stats:?}");
        assert_eq!(stats.live_bytes, 0, "{stats:?}");
        assert_eq!(stats.free_bytes, stats.reserved_bytes, "{stats:?}");
    }
}
