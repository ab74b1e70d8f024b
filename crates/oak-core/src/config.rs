//! Map configuration.

use std::sync::Arc;

use oak_mempool::{ArenaPool, PoolConfig, ReclamationPolicy};

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
    /// reservoir's; the rest of `pool` applies.
    pub shared_arenas: Option<Arc<ArenaPool>>,
    /// Value-header reclamation. The default,
    /// [`ReclamationPolicy::ReclaimHeaders`], recycles removed headers
    /// through generation-checked references (§3.3's epoch-based
    /// extension); [`ReclamationPolicy::RetainHeaders`] is the paper's own
    /// default, which keeps every header forever.
    pub reclamation: ReclamationPolicy,
}

impl Default for OakMapConfig {
    fn default() -> Self {
        OakMapConfig {
            chunk_capacity: 4096,
            rebalance_unsorted_ratio: 0.5,
            merge_ratio: 0.125,
            pool: PoolConfig::default(),
            shared_arenas: None,
            reclamation: ReclamationPolicy::default(),
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

    /// Stable 64-bit fingerprint of the *image-affecting* configuration.
    ///
    /// A durable checkpoint stores this value in its manifest; `open`
    /// refuses images whose fingerprint the opening map's configuration
    /// does not [accept](Self::accepts_fingerprint) (surfacing [`CorruptionKind::ConfigMismatch`](crate::CorruptionKind)).
    /// Only fields that change how recovered bytes are interpreted
    /// participate — tuning knobs (arena sizing, shared arenas, the header
    /// policy) deliberately do not, so an image checkpointed on one machine
    /// opens under different resource limits on another.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint_with(0)
    }

    /// Whether an image stamped with `stored` opens under this
    /// configuration: `stored` is its [`fingerprint`](Self::fingerprint),
    /// or the one an image written under
    /// [`ReclaimHeaders`](ReclamationPolicy::ReclaimHeaders) carried while
    /// the encoding still had the header policy in it.
    pub fn accepts_fingerprint(&self, stored: u64) -> bool {
        stored == self.fingerprint() || stored == self.fingerprint_with(1)
    }

    /// The fingerprint with `policy_byte` where the header policy was
    /// encoded: 0 today for every policy, 1 in images written under
    /// `ReclaimHeaders` before the policy left the encoding.
    fn fingerprint_with(&self, policy_byte: u8) -> u64 {
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
        // Where the header policy was encoded (`RetainHeaders` was 0,
        // `ReclaimHeaders` 1). Recovery replays records through `put`, so
        // the policy never changes how image bytes are read.
        eat(&[policy_byte]);
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

    /// Images written under `ReclaimHeaders` while the header policy was
    /// part of the encoding carry the value pinned here (commit `d2471f5`);
    /// they open under either policy, and other chunk capacities stay
    /// refused.
    #[test]
    fn legacy_reclaim_fingerprint_is_accepted() {
        const LEGACY_RECLAIM: u64 = 0x1c1f_7e70_72a0_54ea;
        for policy in [
            ReclamationPolicy::ReclaimHeaders,
            ReclamationPolicy::RetainHeaders,
        ] {
            let config = OakMapConfig::default().reclamation(policy);
            assert!(config.accepts_fingerprint(LEGACY_RECLAIM));
            assert!(config.accepts_fingerprint(config.fingerprint()));
            assert!(!config
                .chunk_capacity(64)
                .accepts_fingerprint(LEGACY_RECLAIM));
        }
    }
}
