//! Map configuration.

use std::sync::Arc;
use std::time::Duration;

use oak_mempool::{ArenaPool, PoolConfig, ReclamationPolicy, DEFAULT_LOCK_WAIT};

use crate::overload::OverloadConfig;

/// Configuration for an [`OakMap`](crate::OakMap).
///
/// Defaults follow the paper's evaluation setup (§5.1): 4096 entries per
/// chunk, rebalance when the unsorted suffix exceeds half the sorted
/// prefix, 100 MB arenas.
#[derive(Debug, Clone)]
pub struct OakMapConfig {
    /// Entries per chunk.
    pub chunk_capacity: u32,
    /// Rebalance when `unsorted > sorted × ratio` (paper: 0.5).
    pub rebalance_unsorted_ratio: f64,
    /// Merge a chunk into its successor when its live entries fall below
    /// `chunk_capacity × merge_ratio`.
    pub merge_ratio: f64,
    /// Off-heap pool configuration.
    pub pool: PoolConfig,
    /// Shared pre-allocated arena reservoir (§3.2): when set, this map
    /// draws its arenas from the reservoir and returns them on drop,
    /// supporting fleets of short-lived instances (e.g. Druid I²) with no
    /// allocator traffic. `pool.arena_size` is ignored in favour of the
    /// reservoir's.
    pub shared_arenas: Option<Arc<ArenaPool>>,
    /// Value-header reclamation: the paper's default retains headers
    /// forever; [`ReclamationPolicy::ReclaimHeaders`] recycles them through
    /// generation-checked references (§3.3's epoch-based extension).
    pub reclamation: ReclamationPolicy,
    /// Scan in chunk-resident batches: cursors snapshot a chunk's sorted
    /// live entries in one pass (one staleness/revision check per *chunk*)
    /// and drain from a reusable on-heap buffer. Disabling falls back to
    /// per-entry stepping — one staleness check and one linked-list hop
    /// per yielded entry — kept for A/B benchmarking and as the
    /// fine-grained interleaving surface the linearize harness drives.
    /// Both modes honour the same §1.1 scan-validity contract.
    pub batch_scan: bool,
    /// Bounded wall-clock budget for a single value-header lock
    /// acquisition before the map gives up with
    /// [`OakError::Contended`](crate::OakError). Clamped further by the
    /// active operation deadline.
    pub lock_wait: Duration,
    /// Degraded-mode controller thresholds; disabled by default.
    pub overload: OverloadConfig,
}

impl Default for OakMapConfig {
    fn default() -> Self {
        OakMapConfig {
            chunk_capacity: 4096,
            rebalance_unsorted_ratio: 0.5,
            merge_ratio: 0.125,
            pool: PoolConfig::default(),
            shared_arenas: None,
            reclamation: ReclamationPolicy::RetainHeaders,
            batch_scan: true,
            lock_wait: DEFAULT_LOCK_WAIT,
            overload: OverloadConfig::default(),
        }
    }
}

impl OakMapConfig {
    /// Small chunks and arenas: convenient for tests (forces frequent
    /// rebalancing with little data).
    pub fn small() -> Self {
        OakMapConfig {
            chunk_capacity: 64,
            pool: PoolConfig::small(),
            ..OakMapConfig::default()
        }
    }

    /// Draws arenas from a shared pre-allocated reservoir.
    pub fn shared_arenas(mut self, shared: Arc<ArenaPool>) -> Self {
        self.shared_arenas = Some(shared);
        self
    }

    /// Selects the header-reclamation policy.
    pub fn reclamation(mut self, policy: ReclamationPolicy) -> Self {
        self.reclamation = policy;
        self
    }

    /// Sets the chunk capacity (entries per chunk).
    pub fn chunk_capacity(mut self, cap: u32) -> Self {
        assert!(cap >= 4, "chunks need at least 4 entries");
        self.chunk_capacity = cap;
        self
    }

    /// Sets the pool configuration.
    pub fn pool(mut self, pool: PoolConfig) -> Self {
        self.pool = pool;
        self
    }

    /// Enables or disables chunk-batch scanning (per-entry stepping when
    /// off).
    pub fn batch_scan(mut self, on: bool) -> Self {
        self.batch_scan = on;
        self
    }

    /// Bounded wall-clock budget for one value-header lock acquisition.
    pub fn lock_wait(mut self, max_wait: Duration) -> Self {
        self.lock_wait = max_wait;
        self
    }

    /// Degraded-mode controller configuration.
    pub fn overload(mut self, overload: OverloadConfig) -> Self {
        self.overload = overload;
        self
    }

    /// Stable 64-bit fingerprint of the *image-affecting* configuration.
    ///
    /// A durable checkpoint stores this value in its manifest; `open`
    /// refuses images whose fingerprint disagrees with the opening map's
    /// (surfacing [`CorruptionKind::ConfigMismatch`](crate::CorruptionKind)).
    /// Only fields that change how recovered bytes are interpreted
    /// participate — tuning knobs (deadlines, overload thresholds,
    /// magazine/lock-free toggles, arena sizing) deliberately do not, so an
    /// image checkpointed on one machine opens under different resource
    /// limits on another.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over a fixed field encoding; stable across processes and
        // platforms (unlike `DefaultHasher`, which is randomly seeded).
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        // Format version for the fingerprint itself: bump if the encoding
        // below ever changes meaning.
        eat(&1u32.to_le_bytes());
        eat(&self.chunk_capacity.to_le_bytes());
        // Where the deleted prefix-cache toggle was encoded (the cache is
        // always on since): keeps existing checkpoint images opening.
        eat(&[1u8]);
        eat(&[match self.reclamation {
            ReclamationPolicy::RetainHeaders => 0u8,
            ReclamationPolicy::ReclaimHeaders => 1u8,
        }]);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checkpoint manifests store the fingerprint and `open` refuses an
    /// image whose value differs, so the value of an unchanged
    /// configuration may never move: this is the value at commit `9202885`,
    /// when the encoding still had a prefix-cache toggle byte.
    #[test]
    fn default_fingerprint_is_pinned() {
        assert_eq!(OakMapConfig::default().fingerprint(), 0x1c1f_7f70_72a0_569d);
    }
}
