//! Degraded-mode controller: samples pool health and sheds load *before*
//! the out-of-memory ladder engages.
//!
//! The controller classifies the map into three states from periodic
//! samples of [`PoolStats`] plus the reclamation quarantine backlog:
//!
//! | state | entered when | behavior |
//! |---|---|---|
//! | `Healthy` | ample headroom | no intervention |
//! | `Degraded` | headroom below `degraded_headroom`, or free space badly fragmented, or the quarantine backlog large | writes prioritize rebalance draining (an opportunistic quarantine drain runs on the write path); budgeted scans past `degraded_scan_limit` entries are shed with [`OakError::Overloaded`](crate::OakError) |
//! | `Critical` | headroom below `critical_headroom` | writes (every `put`-family operation, budgeted or not) are rejected early with `Overloaded` — cheaper than letting them run the emergency-reclamation OOM ladder and fail anyway |
//!
//! "Headroom" is `1 − live_bytes / capacity` where capacity is the hard
//! byte budget the pool can ever reach (`max_arenas × arena_size`, or the
//! shared reservoir's budget). Quarantined bytes count as live — they are
//! exactly the backlog reclamation has not yet returned to the free lists.
//!
//! The controller is **disabled by default**: an unconfigured map keeps the
//! historical contract of surfacing [`OakError::OutOfMemory`] only after
//! emergency reclamation genuinely fails. Enable it with
//! [`OverloadConfig::standard`] (or custom thresholds) for
//! latency-sensitive deployments that prefer early, cheap `Overloaded`
//! rejections over deep OOM excursions.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use oak_mempool::PoolStats;

/// Controller verdict, coarsest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OverloadState {
    /// Ample headroom; no intervention.
    Healthy,
    /// Memory pressure building: reclaim is prioritized, long scans shed.
    Degraded,
    /// Headroom effectively gone: writes rejected early with `Overloaded`.
    Critical,
}

impl OverloadState {
    fn from_u8(v: u8) -> OverloadState {
        match v {
            2 => OverloadState::Critical,
            1 => OverloadState::Degraded,
            _ => OverloadState::Healthy,
        }
    }
}

/// Thresholds and sampling cadence for the controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadConfig {
    /// Master switch. Default `false` (historical behavior preserved).
    pub enabled: bool,
    /// Reassess every this many write (`put`-family) operations.
    pub sample_every: u64,
    /// Enter `Degraded` when headroom falls below this fraction.
    pub degraded_headroom: f64,
    /// Enter `Critical` when headroom falls below this fraction.
    pub critical_headroom: f64,
    /// Also enter `Degraded` when free-space fragmentation exceeds this
    /// (shattered free lists predict allocation failure well before
    /// `live_bytes` says the pool is full).
    pub degraded_fragmentation: f64,
    /// Also enter `Degraded` when quarantined-but-unreclaimed bytes exceed
    /// this fraction of capacity (reclamation is falling behind).
    pub degraded_quarantine: f64,
    /// In `Degraded`/`Critical`, budgeted scans are shed after visiting
    /// this many entries (`0` = never shed scans).
    pub degraded_scan_limit: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            enabled: false,
            sample_every: 256,
            degraded_headroom: 0.20,
            critical_headroom: 0.05,
            degraded_fragmentation: 0.95,
            degraded_quarantine: 0.25,
            degraded_scan_limit: 100_000,
        }
    }
}

impl OverloadConfig {
    /// Enabled with the default thresholds — the recommended starting point.
    #[must_use]
    pub fn standard() -> Self {
        OverloadConfig {
            enabled: true,
            ..OverloadConfig::default()
        }
    }

    /// Reassess every `n` writes (clamped to ≥ 1).
    #[must_use]
    pub fn sample_every(mut self, n: u64) -> Self {
        self.sample_every = n.max(1);
        self
    }

    /// Set the degraded/critical headroom thresholds.
    #[must_use]
    pub fn headroom(mut self, degraded: f64, critical: f64) -> Self {
        self.degraded_headroom = degraded;
        self.critical_headroom = critical;
        self
    }

    /// Set the scan-shedding limit for degraded mode.
    #[must_use]
    pub fn scan_limit(mut self, entries: u64) -> Self {
        self.degraded_scan_limit = entries;
        self
    }
}

/// Lock-free controller instance owned by a map (or shard).
#[derive(Debug)]
pub struct OverloadController {
    cfg: OverloadConfig,
    /// Hard byte capacity the pool can ever reach; 0 disables assessment
    /// (unknown capacity — controller stays `Healthy`).
    capacity: u64,
    state: AtomicU8,
    ticks: AtomicU64,
}

impl OverloadController {
    pub(crate) fn new(cfg: OverloadConfig, capacity: u64) -> Self {
        OverloadController {
            cfg,
            capacity,
            state: AtomicU8::new(0),
            ticks: AtomicU64::new(0),
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.cfg.enabled && self.capacity > 0
    }

    /// Entries a budgeted scan may deliver before it is shed, under the
    /// verdict `state` reports (`u64::MAX`: never). `state` is asked only
    /// when the answer depends on it — a sharded map's verdict is a walk
    /// over its shards.
    pub(crate) fn scan_shed_limit(&self, state: impl FnOnce() -> OverloadState) -> u64 {
        match self.cfg.degraded_scan_limit {
            limit if limit > 0 && self.enabled() && state() != OverloadState::Healthy => limit,
            _ => u64::MAX, // disabled, healthy, or 0 = never shed scans
        }
    }

    /// Current state without resampling.
    pub fn state(&self) -> OverloadState {
        if !self.enabled() {
            return OverloadState::Healthy;
        }
        OverloadState::from_u8(self.state.load(Ordering::Relaxed))
    }

    /// Write-path hook: every `sample_every` calls, pull fresh stats from
    /// `sample` (pool snapshot + quarantined bytes) and reclassify. Returns
    /// the state the caller should act on.
    pub(crate) fn tick(&self, sample: impl FnOnce() -> (PoolStats, u64)) -> OverloadState {
        if !self.enabled() {
            return OverloadState::Healthy;
        }
        let t = self.ticks.fetch_add(1, Ordering::Relaxed);
        if t.is_multiple_of(self.cfg.sample_every) {
            let (stats, quarantined) = sample();
            let next = self.assess(&stats, quarantined);
            self.state.store(next as u8, Ordering::Relaxed);
            next
        } else {
            OverloadState::from_u8(self.state.load(Ordering::Relaxed))
        }
    }

    /// Pure classification, separated for testability.
    pub(crate) fn assess(&self, stats: &PoolStats, quarantined: u64) -> OverloadState {
        let cap = self.capacity as f64;
        let headroom = 1.0 - stats.live_bytes as f64 / cap;
        if headroom < self.cfg.critical_headroom {
            return OverloadState::Critical;
        }
        let reserved_all = stats.reserved_bytes >= self.capacity;
        if headroom < self.cfg.degraded_headroom
            || (reserved_all && stats.fragmentation() > self.cfg.degraded_fragmentation)
            || quarantined as f64 > self.cfg.degraded_quarantine * cap
        {
            return OverloadState::Degraded;
        }
        OverloadState::Healthy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(live: u64, reserved: u64) -> PoolStats {
        PoolStats {
            live_bytes: live,
            reserved_bytes: reserved,
            ..PoolStats::default()
        }
    }

    #[test]
    fn disabled_is_always_healthy() {
        let c = OverloadController::new(OverloadConfig::default(), 1000);
        assert_eq!(c.tick(|| (stats(999, 1000), 0)), OverloadState::Healthy);
    }

    #[test]
    fn classification_thresholds() {
        let c = OverloadController::new(OverloadConfig::standard(), 1000);
        assert_eq!(c.assess(&stats(100, 1000), 0), OverloadState::Healthy);
        assert_eq!(c.assess(&stats(850, 1000), 0), OverloadState::Degraded);
        assert_eq!(c.assess(&stats(960, 1000), 0), OverloadState::Critical);
        // Quarantine backlog alone degrades.
        assert_eq!(c.assess(&stats(100, 1000), 400), OverloadState::Degraded);
    }

    #[test]
    fn sampling_caches_state() {
        let cfg = OverloadConfig::standard().sample_every(4);
        let c = OverloadController::new(cfg, 1000);
        assert_eq!(c.tick(|| (stats(960, 1000), 0)), OverloadState::Critical);
        // Next three ticks reuse the cached classification.
        for _ in 0..3 {
            assert_eq!(
                c.tick(|| panic!("should not resample")),
                OverloadState::Critical
            );
        }
        assert_eq!(c.tick(|| (stats(10, 1000), 0)), OverloadState::Healthy);
    }
}
