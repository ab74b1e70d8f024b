//! Multi-arena memory pool.
//!
//! The pool owns a set of fixed-size [`Arena`]s, each carved up by its own
//! first-fit [`FreeList`]. Allocation tries existing arenas in order and
//! lazily reserves a new arena when all are full, up to a configurable
//! budget — the Rust rendering of the paper's "shared pool of large (100 MB
//! by default) pre-allocated off-heap arenas" (§3.2).
//!
//! Arena slots are pre-sized and initialized at most once, so the read path
//! (`slice`, `atomic_*`) indexes into arenas without taking any lock.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use oak_sync::Mutex;

use crate::arena::Arena;
use crate::audit::AllocClass;
use crate::backing::ArenaBacking;
use crate::classstack::{self, ClassStacks};
use crate::error::AllocError;
use crate::freelist::{round_up, FreeList};
use crate::magazine::{thread_slot, CachedSlice, MagazineRack, MAG_MAX_PADDED, REFILL_BATCH};
use crate::refs::{SliceRef, MAX_BLOCKS, MAX_SLICE_LEN};
use crate::shared::ArenaPool;
use crate::stats::{Counters, PoolStats};

/// Deals each new pool onto a reservoir lane round-robin, so the shards of
/// a sharded map (constructed back to back) land on distinct lanes.
static NEXT_POOL_LANE: AtomicUsize = AtomicUsize::new(0);

/// Configuration for a [`MemoryPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Size of each arena in bytes. The paper's default is 100 MB; tests and
    /// scaled-down benchmarks use much smaller arenas.
    pub arena_size: usize,
    /// Maximum number of arenas the pool may reserve. Reaching this budget
    /// makes further allocations fail with [`AllocError::PoolExhausted`].
    pub max_arenas: usize,
    /// Route small allocations (≤ 2 KiB padded) through thread-affine
    /// allocation magazines that batch-refill from and batch-flush to the
    /// per-arena free lists, taking the free-list lock once per batch
    /// instead of once per operation. Off by default so the direct path's
    /// deterministic first-fit behaviour is preserved for tests; the
    /// benchmarks enable it.
    pub magazines: bool,
    /// Recycle freed slices through lock-free per-class CAS stacks: frees
    /// push and refills pop without taking any mutex, leaving the
    /// free-list locks to cold carves of fresh space. Small classes
    /// (≤ 2 KiB padded) feed the magazine layer in batches; larger classes
    /// up to [the oversized cutoff](crate::LARGE_MAX_PADDED) recycle
    /// through their own exact-size stacks. Off by default for the same
    /// deterministic-first-fit reason as `magazines`; the benchmarks
    /// enable both.
    pub lockfree: bool,
    /// Where arenas live: anonymous heap memory (the default) or
    /// file-backed mmap regions that are demand-paged and survive the
    /// process (see [`ArenaBacking`]).
    pub backing: ArenaBacking,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            arena_size: 100 << 20, // 100 MB, as in the paper
            max_arenas: 256,
            magazines: false,
            lockfree: false,
            backing: ArenaBacking::Anon,
        }
    }
}

impl PoolConfig {
    /// A small configuration convenient for unit tests.
    pub fn small() -> Self {
        PoolConfig {
            arena_size: 1 << 20, // 1 MB
            max_arenas: 64,
            ..PoolConfig::default()
        }
    }

    /// Configuration with an explicit total RAM budget in bytes.
    pub fn with_budget(arena_size: usize, budget_bytes: usize) -> Self {
        PoolConfig {
            arena_size,
            max_arenas: (budget_bytes / arena_size).max(1),
            ..PoolConfig::default()
        }
    }

    /// Enables or disables the magazine layer.
    #[must_use]
    pub fn magazines(mut self, on: bool) -> Self {
        self.magazines = on;
        self
    }

    /// Enables or disables the lock-free class-stack layer.
    #[must_use]
    pub fn lockfree(mut self, on: bool) -> Self {
        self.lockfree = on;
        self
    }

    /// Sets the arena backing.
    #[must_use]
    pub fn backing(mut self, backing: ArenaBacking) -> Self {
        self.backing = backing;
        self
    }

    /// Convenience: file-backed arenas rooted at `dir`.
    #[must_use]
    pub fn file_backed(self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.backing(ArenaBacking::file(dir))
    }
}

struct Block {
    arena: Arena,
    free: Mutex<FreeList>,
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
    /// This pool's reservoir lane. Pools (e.g. the shards of a sharded
    /// map) are dealt onto distinct lanes at construction so their
    /// steady-state arena traffic never contends on one Treiber head.
    lane: usize,
    /// Thread-affine allocation magazines (`config.magazines`).
    rack: Option<MagazineRack>,
    /// Lock-free per-class slice stacks (`config.lockfree`).
    stacks: Option<ClassStacks>,
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
        let rack = config.magazines.then(MagazineRack::new);
        let stacks = config.lockfree.then(ClassStacks::new);
        MemoryPool {
            config: PoolConfig {
                max_arenas,
                ..config
            },
            blocks,
            nblocks: AtomicUsize::new(0),
            counters: Counters::default(),
            shared: None,
            lane: NEXT_POOL_LANE.fetch_add(1, Ordering::Relaxed) % crate::shared::RESERVOIR_LANES,
            rack,
            stacks,
            #[cfg(feature = "audit")]
            ledger: crate::audit::Ledger::default(),
        }
    }

    /// Creates a pool with the default (paper) configuration.
    pub fn with_defaults() -> Self {
        Self::new(PoolConfig::default())
    }

    /// Creates a pool that draws its arenas from a shared pre-allocated
    /// reservoir and returns them when dropped — the paper's multi-instance
    /// arena pool (§3.2). `max_arenas` still caps this instance's own
    /// growth.
    pub fn with_shared(max_arenas: usize, shared: std::sync::Arc<ArenaPool>) -> Self {
        let mut pool = Self::new(PoolConfig {
            arena_size: shared.arena_size(),
            max_arenas,
            ..PoolConfig::default()
        });
        pool.shared = Some(shared);
        pool
    }

    /// The shared reservoir this pool draws from, if any.
    pub fn shared_pool(&self) -> Option<&std::sync::Arc<ArenaPool>> {
        self.shared.as_ref()
    }

    /// The pool configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Allocates `len` bytes and returns a packed reference.
    ///
    /// The referenced bytes are zero-initialized on first use of the arena
    /// but may contain stale data from previously freed slices; callers
    /// always overwrite before publishing.
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

        if padded <= MAG_MAX_PADDED {
            if let Some(rack) = &self.rack {
                // Magazine fast path: one uncontended slot lock, no
                // free-list traffic.
                if let Some((block, offset)) = rack.try_pop(padded) {
                    self.counters.magazine_hits.incr();
                    self.note_allocated(padded);
                    return Ok(SliceRef::new(block as usize, offset, len as u32));
                }
            }
            // Magazine miss (or magazines off): refill from the lock-free
            // class stack before touching any free-list mutex. With a rack
            // present the whole refill batch comes off the stack in one
            // pass — the first slice serves this allocation, the rest are
            // banked — so recycled slices circulate entirely mutex-free.
            let batch = if self.rack.is_some() { REFILL_BATCH } else { 1 };
            if let Some(stacks) = &self.stacks {
                let mut got: Vec<CachedSlice> = Vec::with_capacity(batch);
                if stacks.pop_batch(padded, batch, &mut got, &self.counters) > 0 {
                    self.counters.lockfree_refills.incr();
                    let (block, offset) = got[0];
                    if got.len() > 1 {
                        let rack = self.rack.as_ref().expect("batch > 1 implies rack");
                        rack.bank(padded, &got[1..]);
                        self.counters.magazine_refills.incr();
                    }
                    self.note_allocated(padded);
                    return Ok(SliceRef::new(block as usize, offset, len as u32));
                }
            }
            return self.allocate_from_arenas(len as u32, padded, batch);
        }
        // Oversized classes (≤ 32 KiB padded) recycle through their own
        // exact-size lock-free stacks; no magazine batching, so a hit
        // serves exactly this allocation.
        if classstack::serves(padded) {
            if let Some(stacks) = &self.stacks {
                let mut got: Vec<CachedSlice> = Vec::with_capacity(1);
                if stacks.pop_batch(padded, 1, &mut got, &self.counters) > 0 {
                    self.counters.lockfree_refills.incr();
                    let (block, offset) = got[0];
                    self.note_allocated(padded);
                    return Ok(SliceRef::new(block as usize, offset, len as u32));
                }
            }
        }
        self.allocate_from_arenas(len as u32, padded, 1)
    }

    /// Slow path: probe arena free lists for `batch` slices of `padded`
    /// bytes, growing the pool when every initialized arena is full. With
    /// `batch > 1` (magazines enabled) the surplus slices are banked into
    /// the calling thread's magazine and probing starts at a slot-affine
    /// arena so concurrent refills spread over different free-list locks.
    /// On exhaustion, parked magazine and class-stack slices are flushed
    /// back to the free lists and the probe retried once before reporting
    /// `PoolExhausted`.
    ///
    /// Growth is de-amortized: the expensive part (obtaining and zeroing
    /// an arena) runs with no lock held and the new block is published
    /// with one claim CAS on `nblocks` followed by the slot `set` — no
    /// allocating thread ever queues behind another thread's arena
    /// initialization on a mutex. A thread that loses the claim race
    /// returns its arena and re-probes; a thread that finds a
    /// claimed-but-pending slot yields until the (fully free) arena
    /// appears rather than reserving yet another one.
    fn allocate_from_arenas(
        &self,
        len: u32,
        padded: u32,
        batch: usize,
    ) -> Result<SliceRef, AllocError> {
        let start = if batch > 1 { thread_slot() } else { 0 };
        let mut flushed = false;
        loop {
            let n = self.nblocks.load(Ordering::Acquire);
            let mut pending = false;
            for j in 0..n {
                let i = (start + j) % n;
                let Some(block) = self.blocks[i].get() else {
                    // Claimed slot still mid-publish by a growing thread.
                    pending = true;
                    continue;
                };
                let mut grabbed: Vec<u32> = Vec::new();
                {
                    let mut free = block.free.lock();
                    self.counters.freelist_lock_acquires.incr();
                    while grabbed.len() < batch {
                        match free.allocate(padded) {
                            Some(offset) => grabbed.push(offset),
                            None => break,
                        }
                    }
                }
                if let Some((&first, rest)) = grabbed.split_first() {
                    if !rest.is_empty() {
                        let rack = self.rack.as_ref().expect("batch > 1 implies rack");
                        let banked: Vec<CachedSlice> =
                            rest.iter().map(|&off| (i as u32, off)).collect();
                        rack.bank(padded, &banked);
                        self.counters.magazine_refills.incr();
                    }
                    self.note_allocated(padded);
                    return Ok(SliceRef::new(i, first, len));
                }
            }
            if pending {
                // Another thread is publishing a fresh, fully free arena;
                // waiting for its short `set` beats claiming another slot.
                std::thread::yield_now();
                continue;
            }
            // All initialized arenas are full: reserve another one.
            if n < self.config.max_arenas {
                oak_failpoints::fail_point!("pool/grow", Err(AllocError::Injected));
                let arena = match &self.shared {
                    Some(reservoir) => {
                        let out = reservoir.take(self.lane);
                        self.counters
                            .reservoir_cas_retries
                            .fetch_add(out.cas_retries, Ordering::Relaxed);
                        self.counters
                            .reservoir_steals
                            .fetch_add(out.steals, Ordering::Relaxed);
                        if out.arena.is_some() {
                            self.counters
                                .reservoir_takes
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        out.arena
                    }
                    // Slot `n` names the backing file; a claim-race loser
                    // mapped the same file, which is benign — its mapping
                    // is simply unmapped again and the file is reused by
                    // the next growth into that slot.
                    None => Some(
                        self.config
                            .backing
                            .create_arena(n, self.config.arena_size)?,
                    ),
                };
                if let Some(arena) = arena {
                    match self.nblocks.compare_exchange(
                        n,
                        n + 1,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => {
                            let block = Block {
                                arena,
                                free: Mutex::new(FreeList::new(self.config.arena_size as u32)),
                            };
                            if let Err(block) = self.blocks[n].set(block) {
                                // Unreachable: the claim CAS makes each
                                // slot index a unique winner. If the
                                // invariant is ever broken, fail this one
                                // allocation without leaking the arena.
                                if let Some(reservoir) = &self.shared {
                                    let r = reservoir.give_back(self.lane, block.arena);
                                    self.note_reservoir_return(r);
                                }
                                return Err(AllocError::Internal("arena slot double-initialized"));
                            }
                            continue;
                        }
                        Err(_) => {
                            // Lost the claim race: another thread is
                            // publishing a fresh arena. Return ours and
                            // re-probe.
                            match &self.shared {
                                Some(reservoir) => {
                                    let r = reservoir.give_back(self.lane, arena);
                                    self.note_reservoir_return(r);
                                }
                                None => drop(arena),
                            }
                            continue;
                        }
                    }
                }
                // Shared reservoir empty: fall through to the flush rung
                // below before giving up.
            }
            // Cannot grow. Before declaring exhaustion, return any slices
            // parked in magazines or on the class stacks to the free lists
            // (they are free memory this request's size class may be
            // starving for) and retry.
            if !flushed {
                flushed = true;
                if self.flush_magazines() > 0 {
                    continue;
                }
            }
            return Err(AllocError::PoolExhausted);
        }
    }

    #[inline]
    fn note_allocated(&self, padded: u32) {
        self.counters.allocated_bytes.add(padded as u64);
        self.counters.alloc_count.incr();
    }

    #[inline]
    fn note_reservoir_return(&self, cas_retries: u64) {
        self.counters
            .reservoir_returns
            .fetch_add(1, Ordering::Relaxed);
        self.counters
            .reservoir_cas_retries
            .fetch_add(cas_retries, Ordering::Relaxed);
    }

    /// Returns magazine-held and class-stack-held slices to their arena
    /// free lists, grouping by arena so each free list is locked once.
    /// Returns the bytes released.
    ///
    /// This is the "flush all" rung of the emergency-reclamation ladder:
    /// allocation paths call it on exhaustion, and map-level
    /// `recover_or_err` calls it before surfacing `OutOfMemory`. Draining
    /// the CAS stacks here matters for more than starved size classes —
    /// stack-parked slices are invisible to the coalescing free lists, so
    /// only a flush can merge them back into the large contiguous runs an
    /// oversized allocation needs.
    pub fn flush_magazines(&self) -> u64 {
        let mut drained = match &self.rack {
            Some(rack) => rack.drain_all(),
            None => Vec::new(),
        };
        if !drained.is_empty() {
            self.counters.magazine_flushes.incr();
        }
        if let Some(stacks) = &self.stacks {
            drained.extend(stacks.drain_all(&self.counters));
        }
        if drained.is_empty() {
            return 0;
        }
        let mut released = 0u64;
        let mut by_block: std::collections::HashMap<u32, Vec<(u32, u32)>> =
            std::collections::HashMap::new();
        for (padded, (block, offset)) in drained {
            released += padded as u64;
            by_block.entry(block).or_default().push((offset, padded));
        }
        for (block_idx, slices) in by_block {
            let block = self.block(block_idx as usize);
            let mut free = block.free.lock();
            self.counters.freelist_lock_acquires.incr();
            for (offset, padded) in slices {
                free.free(offset, padded);
            }
        }
        released
    }

    /// Returns overflow slices trimmed from a magazine. Eligible classes
    /// go onto the lock-free class stack; only stack-overflow residue (or
    /// a pool without the lock-free layer) touches the free-list mutex.
    fn return_surplus(&self, padded: u32, surplus: Vec<CachedSlice>) {
        self.counters.magazine_flushes.incr();
        let overflow: Vec<CachedSlice> = match &self.stacks {
            Some(stacks) => surplus
                .into_iter()
                .filter(|&slice| !stacks.try_push(padded, slice, &self.counters))
                .collect(),
            None => surplus,
        };
        if overflow.is_empty() {
            return;
        }
        let mut by_block: std::collections::HashMap<u32, Vec<u32>> =
            std::collections::HashMap::new();
        for (block, offset) in overflow {
            by_block.entry(block).or_default().push(offset);
        }
        for (block_idx, offsets) in by_block {
            let block = self.block(block_idx as usize);
            let mut free = block.free.lock();
            self.counters.freelist_lock_acquires.incr();
            for offset in offsets {
                free.free(offset, padded);
            }
        }
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
        if padded <= MAG_MAX_PADDED {
            if let Some(rack) = &self.rack {
                // Park the slice in this thread's magazine instead of
                // taking the free-list lock; overflow trims cascade to the
                // class stacks (then, only on stack overflow, to the free
                // lists in one batch per arena).
                if let Some(surplus) = rack.push(padded, (r.block() as u32, r.offset())) {
                    self.return_surplus(padded, surplus);
                }
                return;
            }
            if let Some(stacks) = &self.stacks {
                // No magazines: the CAS stack is the fast free path for
                // eligible classes; a full stack falls back to the mutex.
                if stacks.try_push(padded, (r.block() as u32, r.offset()), &self.counters) {
                    return;
                }
            }
        } else if classstack::serves(padded) {
            // Oversized (≤ 32 KiB padded) classes skip the magazines but
            // still recycle lock-free through their exact-size stacks.
            if let Some(stacks) = &self.stacks {
                if stacks.try_push(padded, (r.block() as u32, r.offset()), &self.counters) {
                    return;
                }
            }
        }
        // Beyond the lock-free cutoff, or every lock-free layer declined:
        // the mutex free list is the cold fallback.
        let block = self.block(r.block());
        block.free.lock().free(r.offset(), padded);
        self.counters.freelist_lock_acquires.incr();
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

    /// Writes `data` into a freshly allocated, not-yet-published slice.
    ///
    /// # Safety
    /// `r` must be freshly allocated from this pool and not yet shared with
    /// any other thread.
    pub unsafe fn write_initial(&self, r: SliceRef, data: &[u8]) {
        debug_assert_eq!(r.len() as usize, data.len());
        self.slice_mut(r).copy_from_slice(data);
    }

    /// An `AtomicU32` embedded at offset `delta` inside slice `r`.
    ///
    /// # Safety
    /// See [`Arena::atomic_u32`]; the word must lie inside slice `r`.
    #[inline]
    pub unsafe fn atomic_u32_at(&self, r: SliceRef, delta: u32) -> &std::sync::atomic::AtomicU32 {
        debug_assert!(delta + 4 <= round_up(r.len()));
        self.block(r.block()).arena.atomic_u32(r.offset() + delta)
    }

    /// An `AtomicU64` embedded at offset `delta` inside slice `r`.
    ///
    /// # Safety
    /// See [`Arena::atomic_u64`]; the word must lie inside slice `r`.
    #[inline]
    pub unsafe fn atomic_u64_at(&self, r: SliceRef, delta: u32) -> &AtomicU64 {
        debug_assert!(delta + 8 <= round_up(r.len()));
        self.block(r.block()).arena.atomic_u64(r.offset() + delta)
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
    /// payload reference), resolved with a single block translation.
    /// Equivalent to three `atomic_*_at` calls, but the block bounds check
    /// and `OnceLock` resolution happen once — this sits on every get and
    /// on every entry a scan yields.
    ///
    /// # Safety
    /// `r` must reference a 16-byte, 8-aligned header slot in this pool
    /// (every `HeaderRef` the value store hands out satisfies this).
    #[inline]
    pub unsafe fn header_words(
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

    /// Copies the referenced bytes out into a `Vec`.
    ///
    /// # Safety
    /// Same contract as [`slice`](Self::slice).
    pub unsafe fn copy_out(&self, r: SliceRef) -> Vec<u8> {
        self.slice(r).to_vec()
    }

    /// `true` when this pool's arenas are file-backed.
    pub fn is_file_backed(&self) -> bool {
        self.config.backing.is_file()
    }

    /// Synchronously writes every initialized arena through to its backing
    /// file (a no-op `Ok(())` for anonymous pools). Callers wanting a
    /// consistent on-disk image quiesce writers first — the durable
    /// checkpoint layer does.
    pub fn sync_backing(&self) -> std::io::Result<()> {
        let n = self.nblocks.load(Ordering::Acquire);
        for i in 0..n {
            if let Some(block) = self.blocks[i].get() {
                block.arena.flush()?;
            }
        }
        Ok(())
    }

    /// Point-in-time footprint statistics. Walks the per-arena free lists
    /// (briefly locking each) to report exact free-space fragmentation.
    pub fn stats(&self) -> PoolStats {
        let n = self.nblocks.load(Ordering::Acquire);
        let mut gauges = PoolStats {
            magazine_bytes: self.rack.as_ref().map_or(0, |r| r.held_bytes()),
            class_stack_bytes: self.stacks.as_ref().map_or(0, |s| s.held_bytes()),
            ..PoolStats::default()
        };
        for i in 0..n {
            // Skip a claimed slot still mid-publish by a growing thread.
            let Some(block) = self.blocks[i].get() else {
                continue;
            };
            gauges.arenas += 1;
            let free = block.free.lock();
            gauges.free_bytes += free.free_bytes();
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

    /// Every allocation currently live according to the auditor's ledger,
    /// with its class and allocation sequence number.
    #[cfg(feature = "audit")]
    pub fn live_allocations(&self) -> Vec<(SliceRef, crate::audit::LiveAlloc)> {
        self.ledger.live_allocations()
    }

    /// All lifecycle violations (double free, foreign free, use after
    /// free) recorded since pool creation.
    #[cfg(feature = "audit")]
    pub fn audit_violations(&self) -> Vec<crate::audit::AuditViolation> {
        self.ledger.violations()
    }

    /// Total number of recorded lifecycle violations.
    #[cfg(feature = "audit")]
    pub fn audit_violation_count(&self) -> u64 {
        self.ledger.violation_count()
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
        // Slices parked in allocation magazines or on the lock-free class
        // stacks are free, not leaked: they left the free lists in a
        // refill batch (or were pushed there by a free) but are ready to
        // hand out, so they sit on the free side of the balance sheet.
        free_bytes += self.rack.as_ref().map_or(0, |r| r.held_bytes());
        free_bytes += self.stacks.as_ref().map_or(0, |s| s.held_bytes());
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
                reservoir.give_back(self.lane, block.arena);
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
            magazines: false,
            lockfree: false,
            arena_size: 4096,
            max_arenas: 4,
            ..Default::default()
        })
    }

    #[test]
    fn allocate_write_read() {
        let pool = tiny_pool();
        let r = pool.allocate(11).unwrap();
        unsafe {
            pool.write_initial(r, b"hello world");
            assert_eq!(pool.slice(r), b"hello world");
        }
        assert_eq!(r.len(), 11);
    }

    /// A prefetch is a hint: whatever address it is given — a live slice,
    /// the null reference, nonsense — nothing is read and nothing changes.
    #[test]
    fn prefetch_is_a_hint_only() {
        let pool = tiny_pool();
        let r = pool.allocate(11).unwrap();
        unsafe { pool.write_initial(r, b"hello world") };
        pool.prefetch(r);
        pool.prefetch(SliceRef::NULL);
        prefetch_line(0);
        prefetch_line(usize::MAX);
        prefetch_line(pool.resolve_addr(r) + 4096 * 1024);
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
            magazines: false,
            lockfree: false,
            arena_size: 1024,
            max_arenas: 1,
            ..Default::default()
        });
        let r = pool.allocate(1024).unwrap();
        assert!(matches!(pool.allocate(8), Err(AllocError::PoolExhausted)));
        pool.free(r);
        assert!(pool.allocate(1024).is_ok());
        let stats = pool.stats();
        assert_eq!(stats.free_count, 1);
        assert_eq!(stats.live_bytes, 1024);
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
            magazines: false,
            lockfree: false,
            arena_size: 1 << 16,
            max_arenas: 8,
            ..Default::default()
        }));
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let pool = pool.clone();
            handles.push(std::thread::spawn(move || {
                let mut refs = Vec::new();
                for i in 0..200usize {
                    let r = pool.allocate(64).unwrap();
                    unsafe {
                        let s = pool.slice_mut(r);
                        s.fill(t.wrapping_mul(31).wrapping_add(i as u8));
                    }
                    refs.push((r, t.wrapping_mul(31).wrapping_add(i as u8)));
                }
                // Verify our writes were not clobbered by other threads.
                for (r, fill) in &refs {
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

    fn magazine_pool() -> MemoryPool {
        MemoryPool::new(PoolConfig {
            arena_size: 1 << 16,
            max_arenas: 4,
            magazines: true,
            lockfree: false,
            ..Default::default()
        })
    }

    #[test]
    fn magazines_amortize_freelist_locks() {
        let pool = magazine_pool();
        // Churn one size class: after the first refill, allocs hit the
        // magazine and frees park in it, with no free-list traffic.
        let mut refs = Vec::new();
        for _ in 0..1000 {
            for _ in 0..8 {
                refs.push(pool.allocate(64).unwrap());
            }
            for r in refs.drain(..) {
                pool.free(r);
            }
        }
        let stats = pool.stats();
        assert_eq!(stats.alloc_count, 8000);
        assert_eq!(stats.free_count, 8000);
        assert!(
            stats.magazine_hits >= 7900,
            "hits = {}",
            stats.magazine_hits
        );
        assert!(
            stats.freelist_lock_acquires * 10 <= stats.alloc_count + stats.free_count,
            "locks = {} for {} ops",
            stats.freelist_lock_acquires,
            stats.alloc_count + stats.free_count
        );
        // Accounting: everything freed, residue parked in magazines.
        assert_eq!(stats.live_bytes, 0);
        assert_eq!(
            stats.magazine_bytes + stats.free_bytes,
            stats.reserved_bytes
        );
    }

    #[test]
    fn magazine_exhaustion_flushes_and_reuses() {
        // One 1 KiB arena: alloc + free a 512-byte slice (parks it in a
        // magazine), then demand a full-arena slice. The free lists alone
        // cannot satisfy it; the exhaustion path must flush magazines and
        // retry rather than reporting OOM.
        let pool = MemoryPool::new(PoolConfig {
            arena_size: 1024,
            max_arenas: 1,
            magazines: true,
            lockfree: false,
            ..Default::default()
        });
        let r = pool.allocate(512).unwrap();
        pool.free(r);
        assert!(pool.stats().magazine_bytes > 0);
        let big = pool
            .allocate(1024)
            .expect("flush rung must reclaim magazine bytes");
        pool.free(big);
        // True exhaustion is still reported once magazines are empty.
        let a = pool.allocate(1024).unwrap();
        assert!(matches!(pool.allocate(8), Err(AllocError::PoolExhausted)));
        pool.free(a);
    }

    #[test]
    fn magazine_cross_thread_slices_stay_disjoint() {
        let pool = Arc::new(magazine_pool());
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let pool = pool.clone();
            handles.push(std::thread::spawn(move || {
                let mut refs = Vec::new();
                for i in 0..300usize {
                    let r = pool.allocate(48).unwrap();
                    unsafe { pool.slice_mut(r) }.fill(t ^ (i as u8));
                    refs.push((r, t ^ (i as u8)));
                    if i % 3 == 0 {
                        let (r, _) = refs.swap_remove(i % refs.len());
                        pool.free(r);
                    }
                }
                for (r, fill) in &refs {
                    let s = unsafe { pool.slice(*r) };
                    assert!(s.iter().all(|b| b == fill), "clobbered slice");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn flush_magazines_returns_parked_bytes() {
        let pool = magazine_pool();
        let refs: Vec<_> = (0..32).map(|_| pool.allocate(128).unwrap()).collect();
        for r in refs {
            pool.free(r);
        }
        let parked = pool.stats().magazine_bytes;
        assert!(parked > 0);
        assert_eq!(pool.flush_magazines(), parked);
        let stats = pool.stats();
        assert_eq!(stats.magazine_bytes, 0);
        assert_eq!(stats.free_bytes, stats.reserved_bytes);
        assert_eq!(pool.flush_magazines(), 0);
    }

    fn lockfree_pool() -> MemoryPool {
        MemoryPool::new(PoolConfig {
            arena_size: 1 << 16,
            max_arenas: 4,
            magazines: true,
            lockfree: true,
            ..Default::default()
        })
    }

    #[test]
    fn lockfree_churn_keeps_freelist_cold() {
        let pool = lockfree_pool();
        let rounds: u64 = if cfg!(miri) { 6 } else { 400 };
        let mut refs = Vec::new();
        for _ in 0..rounds {
            // 96 live slices overflow the magazine (cap 64) on the free
            // side, so trims cascade onto the class stack and the next
            // round's refills come back off it mutex-free.
            for _ in 0..96 {
                refs.push(pool.allocate(64).unwrap());
            }
            for r in refs.drain(..) {
                pool.free(r);
            }
        }
        let stats = pool.stats();
        assert_eq!(stats.alloc_count, rounds * 96);
        assert_eq!(stats.free_count, rounds * 96);
        assert!(stats.class_stack_pushes > 0, "stacks never fed: {stats:?}");
        assert!(
            stats.class_stack_pops > 0,
            "stacks never drained: {stats:?}"
        );
        assert!(stats.lockfree_refills > 0, "refills bypassed: {stats:?}");
        // Steady-state recycling is mutex-free; the only free-list lock
        // traffic is the warmup carving of brand-new slices.
        let ops = stats.alloc_count + stats.free_count;
        assert!(
            stats.freelist_lock_acquires * 20 <= ops,
            "locks = {} for {} ops",
            stats.freelist_lock_acquires,
            ops
        );
        // Accounting: nothing live, every byte is free-list, magazine, or
        // stack-held.
        assert_eq!(stats.live_bytes, 0);
        assert_eq!(
            stats.magazine_bytes + stats.class_stack_bytes + stats.free_bytes,
            stats.reserved_bytes
        );
    }

    #[test]
    fn flush_magazines_drains_class_stacks() {
        let pool = lockfree_pool();
        let refs: Vec<_> = (0..100).map(|_| pool.allocate(128).unwrap()).collect();
        for r in refs {
            pool.free(r);
        }
        let stats = pool.stats();
        assert!(
            stats.class_stack_bytes > 0,
            "magazine overflow never reached the stacks: {stats:?}"
        );
        let parked = stats.magazine_bytes + stats.class_stack_bytes;
        assert_eq!(pool.flush_magazines(), parked);
        let stats = pool.stats();
        assert_eq!(stats.magazine_bytes, 0);
        assert_eq!(stats.class_stack_bytes, 0);
        assert_eq!(stats.free_bytes, stats.reserved_bytes);
        assert_eq!(pool.flush_magazines(), 0);
    }

    #[test]
    fn exhaustion_flush_rung_drains_stacks() {
        // Stack-parked slices are invisible to the coalescing free list;
        // an oversized request must trigger the flush rung to reassemble
        // the contiguous run (the magazine-less variant isolates the
        // stack's contribution).
        let pool = MemoryPool::new(PoolConfig {
            arena_size: 1024,
            max_arenas: 1,
            magazines: false,
            lockfree: true,
            ..Default::default()
        });
        let r = pool.allocate(512).unwrap();
        pool.free(r);
        assert!(pool.stats().class_stack_bytes > 0);
        let big = pool
            .allocate(1024)
            .expect("flush rung must drain the class stacks");
        pool.free(big);
        // True exhaustion still terminates cleanly once nothing is parked.
        let a = pool.allocate(1024).unwrap();
        assert!(matches!(pool.allocate(8), Err(AllocError::PoolExhausted)));
        pool.free(a);
    }

    #[test]
    fn lockfree_cross_thread_slices_stay_disjoint() {
        let pool = Arc::new(lockfree_pool());
        let iters: usize = if cfg!(miri) { 40 } else { 400 };
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let pool = pool.clone();
            handles.push(std::thread::spawn(move || {
                let mut refs = Vec::new();
                for i in 0..iters {
                    let r = pool.allocate(48).unwrap();
                    unsafe { pool.slice_mut(r) }.fill(t ^ (i as u8));
                    refs.push((r, t ^ (i as u8)));
                    if i % 3 == 0 {
                        let (r, _) = refs.swap_remove(i % refs.len());
                        pool.free(r);
                    }
                }
                for (r, fill) in &refs {
                    let s = unsafe { pool.slice(*r) };
                    assert!(s.iter().all(|b| b == fill), "clobbered slice");
                }
                for (r, _) in refs {
                    pool.free(r);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = pool.stats();
        assert_eq!(stats.live_bytes, 0);
        assert_eq!(
            stats.magazine_bytes + stats.class_stack_bytes + stats.free_bytes,
            stats.reserved_bytes
        );
    }

    #[test]
    fn oversized_frees_recycle_lock_free() {
        // > 2 KiB padded classes must circulate through the oversized CAS
        // stacks: after warmup, free-list lock traffic stays flat while
        // 8 KiB slices churn.
        let pool = MemoryPool::new(PoolConfig {
            arena_size: 1 << 20,
            max_arenas: 4,
            magazines: false,
            lockfree: true,
            ..Default::default()
        });
        let rounds: u64 = if cfg!(miri) { 6 } else { 200 };
        let mut refs = Vec::new();
        for _ in 0..rounds {
            for _ in 0..8 {
                refs.push(pool.allocate(8192).unwrap());
            }
            for r in refs.drain(..) {
                pool.free(r);
            }
        }
        let stats = pool.stats();
        assert_eq!(stats.alloc_count, rounds * 8);
        assert_eq!(stats.free_count, rounds * 8);
        assert!(stats.class_stack_pushes > 0, "stacks never fed: {stats:?}");
        assert!(stats.lockfree_refills > 0, "refills bypassed: {stats:?}");
        let ops = stats.alloc_count + stats.free_count;
        assert!(
            stats.freelist_lock_acquires * 20 <= ops,
            "oversized freelist stayed hot: {} locks for {} ops",
            stats.freelist_lock_acquires,
            ops
        );
        assert_eq!(stats.live_bytes, 0);
        assert_eq!(
            stats.class_stack_bytes + stats.free_bytes,
            stats.reserved_bytes
        );
    }

    #[test]
    fn beyond_lockfree_cutoff_takes_the_mutex() {
        // > 32 KiB padded slices still coalesce eagerly through the mutex
        // free list; the stacks must not capture them.
        let pool = MemoryPool::new(PoolConfig {
            arena_size: 1 << 20,
            max_arenas: 2,
            magazines: false,
            lockfree: true,
            ..Default::default()
        });
        let r = pool.allocate(64 * 1024).unwrap();
        pool.free(r);
        let stats = pool.stats();
        assert_eq!(stats.class_stack_bytes, 0);
        assert_eq!(stats.free_bytes, stats.reserved_bytes);
    }

    #[test]
    fn oversized_rounding_near_arena_size_is_rejected() {
        // An arena size that is 8-aligned but not 256-aligned, so coarse
        // rounding can overshoot it.
        let pool = MemoryPool::new(PoolConfig {
            arena_size: 4104,
            max_arenas: 1,
            ..Default::default()
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
    fn file_backed_pool_roundtrip() {
        let dir = std::env::temp_dir().join(format!("oak-pool-backing-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = PoolConfig {
            arena_size: 1 << 16,
            max_arenas: 4,
            backing: ArenaBacking::file(&dir),
            ..Default::default()
        };
        let written: Vec<u8> = (0..=255).collect();
        {
            let pool = MemoryPool::new(config.clone());
            assert!(pool.is_file_backed());
            let r = pool.allocate(256).unwrap();
            unsafe { pool.write_initial(r, &written) };
            pool.sync_backing().unwrap();
            // The backing file for arena 0 exists and holds the bytes.
            assert_eq!(r.block(), 0);
            let file = std::fs::read(config.backing.arena_path(0).unwrap()).unwrap();
            let off = r.offset() as usize;
            assert_eq!(&file[off..off + 256], &written[..]);
        }
        // A new pool over the same directory sees the persisted bytes at
        // the same offsets (recovery-style reopen).
        let pool = MemoryPool::new(config);
        let r = pool.allocate(256).unwrap();
        assert_eq!(unsafe { pool.slice(r) }, &written[..]);
        drop(pool);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn growth_claim_race_loses_cleanly() {
        // Hammer a growing pool from several threads: every growth slot
        // must end up initialized exactly once, losers must re-probe, and
        // the byte accounting must balance over initialized arenas only.
        let pool = Arc::new(MemoryPool::new(PoolConfig {
            arena_size: 4096,
            max_arenas: 8,
            magazines: false,
            lockfree: true,
            ..Default::default()
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
        assert_eq!(stats.live_bytes, 0);
        assert_eq!(
            stats.magazine_bytes + stats.class_stack_bytes + stats.free_bytes,
            stats.reserved_bytes
        );
    }
}
