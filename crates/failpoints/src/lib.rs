//! # oak-failpoints — deterministic fault injection for Oak
//!
//! A `fail_point!("pool/alloc")`-style macro backed by a registry of named
//! sites. Each site can be configured with an `Action` (return an injected
//! error, panic, yield the thread N times, or sleep) and a `FirePolicy`
//! deciding *which* hits of the site trigger the action. Schedules derived
//! from a seed (`Schedule::generate`) make whole fault runs reproducible:
//! the same seed always injects the same faults at the same hit counts.
//!
//! ## Zero cost when disabled
//!
//! All registry machinery is compiled only under the `failpoints` feature.
//! Without it, [`eval`] is an empty `#[inline(always)]` function returning
//! `false`, so `fail_point!` folds to nothing in release builds — call sites
//! carry no branch, no atomic, no string.
//!
//! ## Usage in library code
//!
//! ```ignore
//! // Side effects only (panic / yield / delay):
//! oak_failpoints::fail_point!("chunk/cas-value");
//! // Early-return injection (fires when the site is configured with
//! // `Action::ReturnErr`):
//! oak_failpoints::fail_point!("pool/alloc", Err(AllocError::Injected));
//! ```
//!
//! ## Usage in tests
//!
//! Tests configuring the global registry must serialize through
//! `scenario`, which takes a process-wide lock and clears all sites on
//! both entry and drop:
//!
//! ```
//! # #[cfg(feature = "failpoints")] {
//! use oak_failpoints::{scenario, configure, Action, FirePolicy};
//! let _s = scenario();
//! configure("pool/alloc", Action::ReturnErr, FirePolicy::OnHits(vec![2]));
//! # }
//! ```

#![warn(missing_docs)]

/// Description of one failpoint site, used by schedule generation.
///
/// `errorable` marks sites whose `fail_point!` invocation carries a
/// return-expression — only those may be scheduled with
/// `Action::ReturnErr`; at other sites the action would silently do
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteSpec {
    /// Canonical site name, e.g. `"pool/alloc"`.
    pub name: &'static str,
    /// Whether the site supports return-error injection.
    pub errorable: bool,
}

impl SiteSpec {
    /// A site supporting return-error injection.
    pub const fn errorable(name: &'static str) -> Self {
        SiteSpec {
            name,
            errorable: true,
        }
    }

    /// A side-effect-only site (yield / delay / panic).
    pub const fn passive(name: &'static str) -> Self {
        SiteSpec {
            name,
            errorable: false,
        }
    }
}

/// SplitMix64: a tiny, high-quality deterministic PRNG, identical on every
/// platform. Always compiled (no feature gate): it seeds the fault
/// schedules, the retry-backoff jitter, the bench workloads and every
/// seeded property test, so that one seed replays one run everywhere.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the generator.
    pub const fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 pseudo-random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform value in `[lo, hi]` (inclusive).
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform value in `[0, 1)` (53 random mantissa bits).
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Runs a seeded property: calls `property` `cases` times, each time with a
/// fresh generator whose seed is drawn from `base`. There is no shrinking.
/// Instead every run replays the same cases, and a case that panics prints
/// its number and seed on the way out, so `SplitMix64::new(seed)` replays
/// it alone.
pub fn for_each_case(base: u64, cases: u64, mut property: impl FnMut(&mut SplitMix64)) {
    struct NameOnPanic {
        case: u64,
        seed: u64,
    }
    impl Drop for NameOnPanic {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!(
                    "property failed at case {} (seed {:#018x})",
                    self.case, self.seed
                );
            }
        }
    }
    let mut seeds = SplitMix64::new(base);
    for case in 0..cases {
        let seed = seeds.next_u64();
        let _named = NameOnPanic { case, seed };
        property(&mut SplitMix64::new(seed));
    }
}

/// Evaluates the named failpoint.
///
/// Returns `true` when a configured `Action::ReturnErr` fires, telling
/// the `fail_point!` macro to take its early-return arm. Side-effect
/// actions (panic, yield, delay) are performed before returning `false`.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn eval(_name: &str) -> bool {
    false
}

/// Declares a failpoint site.
///
/// * `fail_point!("site")` — side effects only (panic / yield / delay).
/// * `fail_point!("site", expr)` — additionally supports
///   `Action::ReturnErr`: when it fires, the enclosing function returns
///   `expr`.
///
/// Compiles to a true no-op when the `failpoints` feature is disabled.
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {
        let _ = $crate::eval($name);
    };
    ($name:expr, $ret:expr) => {
        if $crate::eval($name) {
            return $ret;
        }
    };
}

/// Evaluates the named sync point (see [`sync_point!`]).
///
/// Inactive implementation: compiled when the `failpoints` feature is off,
/// so instrumented call sites fold to nothing.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn eval_sync(_name: &str) {}

/// Declares a named *sync point* — a decision site a deterministic
/// interleaving schedule can gate on.
///
/// A thread reaching a sync point blocks until the installed
/// `SyncSchedule` (exported under the `failpoints` feature) permits it
/// to proceed; threads
/// with no registered role, and sites not mentioned in the remainder of
/// the schedule, pass through immediately. Compiles to a true no-op when
/// the `failpoints` feature is disabled.
#[macro_export]
macro_rules! sync_point {
    ($name:expr) => {
        $crate::eval_sync($name);
    };
}

#[cfg(feature = "failpoints")]
mod active {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

    use super::{SiteSpec, SplitMix64};

    /// What a firing failpoint does.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Action {
        /// Make `fail_point!(name, expr)` return `expr` from the enclosing
        /// function. At side-effect-only sites this action does nothing.
        ReturnErr,
        /// Panic with a message naming the site.
        Panic,
        /// Call `std::thread::yield_now()` the given number of times —
        /// perturbs interleavings without changing outcomes.
        Yield(u32),
        /// Sleep for the given number of microseconds.
        DelayMicros(u64),
    }

    /// Which hits of a site trigger its action. Hit counts are 1-based and
    /// reset by [`configure`] and [`clear`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum FirePolicy {
        /// Every hit fires.
        Always,
        /// Only the first `n` hits fire.
        Times(u64),
        /// Every `n`-th hit fires (n ≥ 1).
        EveryN(u64),
        /// Exactly the listed 1-based hit counts fire — the deterministic
        /// schedule primitive.
        OnHits(Vec<u64>),
    }

    impl FirePolicy {
        fn fires(&self, hit: u64) -> bool {
            match self {
                FirePolicy::Always => true,
                FirePolicy::Times(n) => hit <= *n,
                FirePolicy::EveryN(n) => *n >= 1 && hit.is_multiple_of(*n),
                FirePolicy::OnHits(hits) => hits.contains(&hit),
            }
        }
    }

    #[derive(Debug)]
    struct SiteEntry {
        action: Option<(Action, FirePolicy)>,
        hits: u64,
        fired: u64,
    }

    #[derive(Default)]
    struct Registry {
        sites: Mutex<HashMap<String, SiteEntry>>,
    }

    fn registry() -> &'static Registry {
        static REGISTRY: OnceLock<Registry> = OnceLock::new();
        REGISTRY.get_or_init(Registry::default)
    }

    fn lock_sites() -> MutexGuard<'static, HashMap<String, SiteEntry>> {
        registry()
            .sites
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Total count of injected faults that actually fired, process-wide.
    static TOTAL_FIRED: AtomicU64 = AtomicU64::new(0);

    /// See the crate-level docs; this is the active implementation.
    pub fn eval(name: &str) -> bool {
        let decided = {
            let mut sites = lock_sites();
            let entry = sites.entry(name.to_string()).or_insert(SiteEntry {
                action: None,
                hits: 0,
                fired: 0,
            });
            entry.hits += 1;
            match &entry.action {
                Some((action, policy)) if policy.fires(entry.hits) => {
                    entry.fired += 1;
                    Some(action.clone())
                }
                _ => None,
            }
        };
        let Some(action) = decided else {
            return false;
        };
        TOTAL_FIRED.fetch_add(1, Ordering::Relaxed);
        match action {
            Action::ReturnErr => true,
            Action::Panic => panic!("failpoint '{name}' injected panic"),
            Action::Yield(n) => {
                for _ in 0..n {
                    std::thread::yield_now();
                }
                false
            }
            Action::DelayMicros(us) => {
                std::thread::sleep(std::time::Duration::from_micros(us));
                false
            }
        }
    }

    /// Configures `name` with an action and fire policy, resetting its hit
    /// and fired counters.
    pub fn configure(name: &str, action: Action, policy: FirePolicy) {
        let mut sites = lock_sites();
        sites.insert(
            name.to_string(),
            SiteEntry {
                action: Some((action, policy)),
                hits: 0,
                fired: 0,
            },
        );
    }

    /// Removes the configuration (and counters) of one site.
    pub fn deconfigure(name: &str) {
        lock_sites().remove(name);
    }

    /// Removes all site configurations and counters.
    pub fn clear() {
        lock_sites().clear();
    }

    /// Number of times `name` has been evaluated since it was configured
    /// (or first hit).
    pub fn hits(name: &str) -> u64 {
        lock_sites().get(name).map_or(0, |e| e.hits)
    }

    /// Number of times `name`'s action has fired.
    pub fn fired(name: &str) -> u64 {
        lock_sites().get(name).map_or(0, |e| e.fired)
    }

    /// Process-wide count of fired injections (all sites, ever).
    pub fn total_fired() -> u64 {
        TOTAL_FIRED.load(Ordering::Relaxed)
    }

    /// RAII guard serializing tests that use the global registry. Sites are
    /// cleared both when the scenario starts and when it drops.
    pub struct Scenario {
        _guard: MutexGuard<'static, ()>,
    }

    /// Enters an exclusive fault-injection scenario.
    ///
    /// Tests touching the registry must hold one of these: the registry is
    /// process-global, and Rust runs tests concurrently.
    pub fn scenario() -> Scenario {
        static SCENARIO: Mutex<()> = Mutex::new(());
        let guard = SCENARIO.lock().unwrap_or_else(PoisonError::into_inner);
        clear();
        Scenario { _guard: guard }
    }

    impl Drop for Scenario {
        fn drop(&mut self) {
            clear();
        }
    }

    /// One configured site of a [`Schedule`].
    #[derive(Debug, Clone)]
    pub struct ScheduleEntry {
        /// Site name.
        pub site: &'static str,
        /// Action to inject.
        pub action: Action,
        /// When it fires.
        pub policy: FirePolicy,
    }

    /// A deterministic per-seed fault schedule over a set of sites.
    #[derive(Debug, Clone)]
    pub struct Schedule {
        /// The seed this schedule was generated from.
        pub seed: u64,
        /// Configured sites.
        pub entries: Vec<ScheduleEntry>,
    }

    impl Schedule {
        /// Generates the schedule for `seed` over `sites`.
        ///
        /// Each site is independently configured with probability ~1/2.
        /// Errorable sites draw from {return-error, yield, delay}; passive
        /// sites from {yield, delay}. Fire points are a small set of exact
        /// hit counts in `[1, 64]`, or — for perturbations only — an
        /// every-N cadence; both exactly reproducible for a given seed.
        /// `Action::Panic` is deliberately never scheduled: random internal
        /// panics are not recoverable in general and are exercised by
        /// dedicated tests instead.
        ///
        /// Error injections are always *finite* (bounded hit sets, never
        /// `EveryN`): the map's retry loops are lock-free only under the
        /// assumption that a failed publish/CAS implies another thread made
        /// progress, and an unbounded refusal stream voids it. Concretely,
        /// `doPut` hits `chunk/publish` twice per retry (link + value
        /// publish), so `ReturnErr` with `EveryN(2)` phase-locks onto the
        /// value publish and the operation livelocks forever. Delays and
        /// yields may recur indefinitely — they perturb timing but cannot
        /// block progress.
        pub fn generate(seed: u64, sites: &[SiteSpec]) -> Schedule {
            let mut rng = SplitMix64::new(seed ^ 0xA076_1D64_78BD_642F);
            let mut entries = Vec::new();
            for site in sites {
                if rng.below(2) == 0 {
                    continue;
                }
                let action = match (site.errorable, rng.below(10)) {
                    (true, 0..=3) => Action::ReturnErr,
                    (_, 4..=6) => Action::DelayMicros(rng.range(1, 100)),
                    _ => Action::Yield(rng.range(1, 4) as u32),
                };
                let policy = if action != Action::ReturnErr && rng.below(3) == 0 {
                    FirePolicy::EveryN(rng.range(2, 8))
                } else {
                    let n = rng.range(1, 3) as usize;
                    let mut hits: Vec<u64> = (0..n).map(|_| rng.range(1, 64)).collect();
                    hits.sort_unstable();
                    hits.dedup();
                    FirePolicy::OnHits(hits)
                };
                entries.push(ScheduleEntry {
                    site: site.name,
                    action,
                    policy,
                });
            }
            Schedule { seed, entries }
        }

        /// Installs every entry into the global registry.
        pub fn install(&self) {
            for e in &self.entries {
                configure(e.site, e.action.clone(), e.policy.clone());
            }
        }
    }
}

#[cfg(feature = "failpoints")]
mod sync {
    //! Deterministic interleaving engine: named sync points + an explicit
    //! thread schedule.
    //!
    //! A [`SyncSchedule`] is an ordered list of `(role, site)` steps. Each
    //! participating thread registers a *role* (an arbitrary short name)
    //! via [`sync_role`]; when it reaches a `sync_point!`, it blocks until
    //! its `(role, site)` pair is at the head of the remaining schedule,
    //! then consumes that step and proceeds. Pairs that do not appear in
    //! the remaining schedule — and threads with no role — pass through
    //! without blocking, so a schedule only needs to name the hits it
    //! cares about.
    //!
    //! Deadlock safety: a waiter that times out marks the whole schedule
    //! *abandoned*; every sync point then becomes a no-op and the test can
    //! fail loudly via [`SyncSession::completed`].

    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
    use std::time::Duration;

    /// One step of a [`SyncSchedule`]: the named `role` must be the thread
    /// that performs the next hit of `site`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SyncStep {
        /// Thread role (registered with [`sync_role`]).
        pub role: String,
        /// Sync-point site name, e.g. `"iter/descend-step"`.
        pub site: String,
    }

    /// An explicit thread interleaving: the ordered `(role, site)` steps
    /// that scheduled threads must perform one at a time.
    #[derive(Debug, Clone, Default)]
    pub struct SyncSchedule {
        /// Ordered steps.
        pub steps: Vec<SyncStep>,
    }

    impl SyncSchedule {
        /// An empty schedule (every sync point passes through).
        pub fn new() -> Self {
            SyncSchedule::default()
        }

        /// Appends one step (builder style).
        pub fn step(mut self, role: &str, site: &str) -> Self {
            self.steps.push(SyncStep {
                role: role.to_string(),
                site: site.to_string(),
            });
            self
        }

        /// Parses the schedule DSL: steps separated by `->`, `;` or
        /// newlines, each `role@site` with an optional `*N` repetition.
        /// `#` starts a comment running to the end of the line.
        ///
        /// ```
        /// # use oak_failpoints::SyncSchedule;
        /// let s = SyncSchedule::parse(
        ///     "scan@iter/descend-step*2 -> main@test/go ; scan@iter/descend-step",
        /// )
        /// .unwrap();
        /// assert_eq!(s.steps.len(), 4);
        /// ```
        pub fn parse(dsl: &str) -> Result<SyncSchedule, String> {
            let mut steps = Vec::new();
            for line in dsl.lines() {
                let line = line.split('#').next().unwrap_or("");
                for tok in line.split(';').flat_map(|s| s.split("->")) {
                    let tok = tok.trim();
                    if tok.is_empty() {
                        continue;
                    }
                    let (pair, reps) = match tok.rsplit_once('*') {
                        Some((p, n)) => {
                            let reps: usize = n
                                .trim()
                                .parse()
                                .map_err(|_| format!("bad repetition in step '{tok}'"))?;
                            (p.trim(), reps)
                        }
                        None => (tok, 1),
                    };
                    let (role, site) = pair
                        .split_once('@')
                        .ok_or_else(|| format!("step '{tok}' is not 'role@site'"))?;
                    let (role, site) = (role.trim(), site.trim());
                    if role.is_empty() || site.is_empty() {
                        return Err(format!("step '{tok}' has an empty role or site"));
                    }
                    for _ in 0..reps {
                        steps.push(SyncStep {
                            role: role.to_string(),
                            site: site.to_string(),
                        });
                    }
                }
            }
            Ok(SyncSchedule { steps })
        }
    }

    struct EngineState {
        steps: VecDeque<SyncStep>,
        abandoned: bool,
        timeout: Duration,
    }

    struct Controller {
        state: Mutex<Option<EngineState>>,
        cv: Condvar,
    }

    fn controller() -> &'static Controller {
        static CTL: OnceLock<Controller> = OnceLock::new();
        CTL.get_or_init(|| Controller {
            state: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    /// Fast-path gate: a single relaxed load when no schedule is installed.
    static SYNC_ACTIVE: AtomicBool = AtomicBool::new(false);

    thread_local! {
        static ROLE: RefCell<Option<String>> = const { RefCell::new(None) };
    }

    /// RAII guard for a thread's schedule role; restores the previous role
    /// (usually none) on drop.
    pub struct SyncRole {
        prev: Option<String>,
    }

    /// Registers the calling thread under `role` for the installed
    /// [`SyncSchedule`]. Threads without a role never block at sync points.
    pub fn sync_role(role: &str) -> SyncRole {
        let prev = ROLE.with(|r| r.replace(Some(role.to_string())));
        SyncRole { prev }
    }

    impl Drop for SyncRole {
        fn drop(&mut self) {
            let prev = self.prev.take();
            ROLE.with(|r| *r.borrow_mut() = prev);
        }
    }

    fn lock_state() -> MutexGuard<'static, Option<EngineState>> {
        controller()
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// See [`sync_point!`]; this is the active implementation.
    pub fn eval_sync(name: &str) {
        if !SYNC_ACTIVE.load(Ordering::Acquire) {
            return;
        }
        let Some(role) = ROLE.with(|r| r.borrow().clone()) else {
            return;
        };
        let c = controller();
        let mut g = lock_state();
        loop {
            let Some(st) = g.as_mut() else { return };
            if st.abandoned {
                return;
            }
            if !st.steps.iter().any(|s| s.role == role && s.site == name) {
                return;
            }
            let head = st.steps.front().expect("non-empty: contains our step");
            if head.role == role && head.site == name {
                st.steps.pop_front();
                c.cv.notify_all();
                return;
            }
            let timeout = st.timeout;
            let (ng, res) =
                c.cv.wait_timeout(g, timeout)
                    .unwrap_or_else(PoisonError::into_inner);
            g = ng;
            if res.timed_out() {
                if let Some(st) = g.as_mut() {
                    st.abandoned = true;
                }
                c.cv.notify_all();
                return;
            }
        }
    }

    /// RAII session for one installed [`SyncSchedule`]. Sessions serialize
    /// process-wide (the engine is global); dropping the session clears the
    /// schedule and releases any stragglers.
    pub struct SyncSession {
        _guard: MutexGuard<'static, ()>,
    }

    /// Installs `schedule` with the default 5-second waiter timeout.
    pub fn sync_scenario(schedule: SyncSchedule) -> SyncSession {
        sync_scenario_with_timeout(schedule, Duration::from_secs(5))
    }

    /// Installs `schedule`; a thread blocked at a sync point for longer
    /// than `timeout` abandons the whole schedule (deadlock safety — the
    /// test should then fail via [`SyncSession::completed`]).
    pub fn sync_scenario_with_timeout(schedule: SyncSchedule, timeout: Duration) -> SyncSession {
        static SESSION: Mutex<()> = Mutex::new(());
        let guard = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
        {
            let mut g = lock_state();
            *g = Some(EngineState {
                steps: schedule.steps.into(),
                abandoned: false,
                timeout,
            });
        }
        SYNC_ACTIVE.store(true, Ordering::Release);
        SyncSession { _guard: guard }
    }

    impl SyncSession {
        /// Steps not yet consumed.
        pub fn remaining(&self) -> Vec<SyncStep> {
            lock_state()
                .as_ref()
                .map(|st| st.steps.iter().cloned().collect())
                .unwrap_or_default()
        }

        /// Whether a waiter timed out and abandoned the schedule.
        pub fn abandoned(&self) -> bool {
            lock_state().as_ref().is_some_and(|st| st.abandoned)
        }

        /// Whether every step was consumed (and nothing timed out).
        pub fn completed(&self) -> bool {
            lock_state()
                .as_ref()
                .is_some_and(|st| st.steps.is_empty() && !st.abandoned)
        }
    }

    impl Drop for SyncSession {
        fn drop(&mut self) {
            SYNC_ACTIVE.store(false, Ordering::Release);
            let mut g = lock_state();
            *g = None;
            controller().cv.notify_all();
        }
    }
}

#[cfg(feature = "failpoints")]
pub use active::{
    clear, configure, deconfigure, eval, fired, hits, scenario, total_fired, Action, FirePolicy,
    Scenario, Schedule, ScheduleEntry,
};

#[cfg(feature = "failpoints")]
pub use sync::{
    eval_sync, sync_role, sync_scenario, sync_scenario_with_timeout, SyncRole, SyncSchedule,
    SyncSession, SyncStep,
};

#[cfg(test)]
mod rng_tests {
    use super::*;

    #[test]
    fn for_each_case_replays_the_same_cases() {
        let draw = |base| {
            let mut seen = Vec::new();
            for_each_case(base, 5, |rng| seen.push((rng.next_u64(), rng.below(10))));
            seen
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_eq!(draw(7).len(), 5);
        assert!(draw(7).windows(2).all(|w| w[0] != w[1]), "cases repeat");
    }

    #[test]
    fn draws_stay_in_range() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..10_000 {
            assert!((0.0..1.0).contains(&rng.unit_f64()));
            assert!((3..=9).contains(&rng.range(3, 9)));
            assert!(rng.below(7) < 7);
        }
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn unconfigured_site_never_fires() {
        let _s = scenario();
        assert!(!eval("t/none"));
        assert_eq!(hits("t/none"), 1);
        assert_eq!(fired("t/none"), 0);
    }

    #[test]
    fn on_hits_fires_exactly_there() {
        let _s = scenario();
        configure("t/oh", Action::ReturnErr, FirePolicy::OnHits(vec![2, 4]));
        let fires: Vec<bool> = (0..5).map(|_| eval("t/oh")).collect();
        assert_eq!(fires, [false, true, false, true, false]);
        assert_eq!(fired("t/oh"), 2);
    }

    #[test]
    fn every_n_and_times() {
        let _s = scenario();
        configure("t/en", Action::ReturnErr, FirePolicy::EveryN(3));
        let fires: Vec<bool> = (0..6).map(|_| eval("t/en")).collect();
        assert_eq!(fires, [false, false, true, false, false, true]);
        configure("t/tm", Action::ReturnErr, FirePolicy::Times(2));
        let fires: Vec<bool> = (0..4).map(|_| eval("t/tm")).collect();
        assert_eq!(fires, [true, true, false, false]);
    }

    #[test]
    fn panic_action_panics_with_site_name() {
        let _s = scenario();
        configure("t/boom", Action::Panic, FirePolicy::Always);
        let err = std::panic::catch_unwind(|| eval("t/boom")).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("t/boom"));
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let sites = [
            SiteSpec::errorable("a"),
            SiteSpec::passive("b"),
            SiteSpec::errorable("c"),
            SiteSpec::passive("d"),
        ];
        for seed in 0..50u64 {
            let s1 = Schedule::generate(seed, &sites);
            let s2 = Schedule::generate(seed, &sites);
            assert_eq!(s1.entries.len(), s2.entries.len());
            for (a, b) in s1.entries.iter().zip(&s2.entries) {
                assert_eq!(a.site, b.site);
                assert_eq!(a.action, b.action);
                assert_eq!(a.policy, b.policy);
            }
            // Return-error only lands on errorable sites.
            for e in &s1.entries {
                if e.action == Action::ReturnErr {
                    assert!(e.site == "a" || e.site == "c");
                }
            }
        }
        // Different seeds must (overwhelmingly) give different schedules.
        let all: Vec<_> = (0..50u64)
            .map(|s| format!("{:?}", Schedule::generate(s, &sites).entries))
            .collect();
        let mut uniq = all.clone();
        uniq.sort();
        uniq.dedup();
        assert!(uniq.len() > 25, "schedules barely vary across seeds");
    }

    #[test]
    fn generated_error_injections_are_finite() {
        // Regression (corpus livelock): `doPut` hits `chunk/publish` twice
        // per retry, so a `ReturnErr` entry with `EveryN(2)` phase-locks
        // onto the same publish call every iteration and the operation
        // never terminates. Generated schedules must keep every error
        // injection on a bounded hit set; unbounded cadences are reserved
        // for progress-neutral perturbations (yield/delay).
        let sites = [
            SiteSpec::errorable("a"),
            SiteSpec::passive("b"),
            SiteSpec::errorable("c"),
            SiteSpec::passive("d"),
            SiteSpec::errorable("e"),
        ];
        for seed in 0..500u64 {
            for e in &Schedule::generate(seed, &sites).entries {
                if e.action == Action::ReturnErr {
                    assert!(
                        matches!(e.policy, FirePolicy::OnHits(_)),
                        "seed {seed}: unbounded error injection at {}: {:?}",
                        e.site,
                        e.policy
                    );
                }
            }
        }
    }

    #[test]
    fn scenario_clears_on_drop() {
        {
            let _s = scenario();
            configure("t/tmp", Action::ReturnErr, FirePolicy::Always);
            assert!(eval("t/tmp"));
        }
        let _s = scenario();
        assert!(!eval("t/tmp"));
    }

    #[test]
    fn sync_dsl_parses_steps_reps_and_comments() {
        let s = SyncSchedule::parse(
            "a@x/one*2 -> b@y/two # trailing comment\n # whole-line comment\n a@x/one ; b@y/two",
        )
        .unwrap();
        let got: Vec<(&str, &str)> = s
            .steps
            .iter()
            .map(|st| (st.role.as_str(), st.site.as_str()))
            .collect();
        assert_eq!(
            got,
            [
                ("a", "x/one"),
                ("a", "x/one"),
                ("b", "y/two"),
                ("a", "x/one"),
                ("b", "y/two")
            ]
        );
        assert!(SyncSchedule::parse("nosite").is_err());
        assert!(SyncSchedule::parse("a@s*zz").is_err());
        assert!(SyncSchedule::parse("@s").is_err());
    }

    #[test]
    fn sync_points_pass_through_without_role_or_schedule() {
        // No schedule installed: free pass.
        eval_sync("t/free");
        let session = sync_scenario(SyncSchedule::parse("w@t/gated").unwrap());
        // Roleless thread: free pass even at a scheduled site.
        eval_sync("t/gated");
        assert_eq!(session.remaining().len(), 1);
        // Role whose (role, site) is not in the schedule: free pass.
        let _r = sync_role("other");
        eval_sync("t/gated");
        eval_sync("t/unrelated");
        assert_eq!(session.remaining().len(), 1);
    }

    #[test]
    fn sync_schedule_orders_two_threads() {
        // An action is ordered by bracketing it between two gates of the
        // same role: the thread holds the turn from consuming its `enter`
        // step until it consumes its `exit` step.
        let session = sync_scenario(
            SyncSchedule::parse(
                "a@t/enter -> a@t/exit -> b@t/enter -> b@t/exit -> \
             a@t/enter -> a@t/exit -> b@t/enter -> b@t/exit",
            )
            .unwrap(),
        );
        let log = std::sync::Arc::new(Mutex::new(Vec::new()));
        let mk = |role: &'static str, log: std::sync::Arc<Mutex<Vec<&'static str>>>| {
            std::thread::spawn(move || {
                let _r = sync_role(role);
                for _ in 0..2 {
                    eval_sync("t/enter");
                    log.lock().unwrap().push(role);
                    eval_sync("t/exit");
                }
            })
        };
        // Start b first to prove the schedule (not spawn order) decides.
        let tb = mk("b", log.clone());
        std::thread::sleep(std::time::Duration::from_millis(10));
        let ta = mk("a", log.clone());
        ta.join().unwrap();
        tb.join().unwrap();
        assert!(session.completed(), "remaining: {:?}", session.remaining());
        assert_eq!(*log.lock().unwrap(), ["a", "b", "a", "b"]);
    }

    #[test]
    fn sync_timeout_abandons_instead_of_deadlocking() {
        let session = sync_scenario_with_timeout(
            // Head step never happens: role "ghost" does not exist.
            SyncSchedule::parse("ghost@t/never -> w@t/wait").unwrap(),
            std::time::Duration::from_millis(50),
        );
        let t = std::thread::spawn(|| {
            let _r = sync_role("w");
            eval_sync("t/wait"); // blocks, times out, abandons
            eval_sync("t/wait"); // abandoned: passes straight through
        });
        t.join().unwrap();
        assert!(session.abandoned());
        assert!(!session.completed());
    }
}
