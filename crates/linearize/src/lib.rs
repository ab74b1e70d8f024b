//! # oak-linearize — correctness harness for Oak
//!
//! History-based correctness checking for the concurrent map, after
//! Herlihy & Wing's linearizability and the Wing & Gong search (see
//! PAPERS.md):
//!
//! * [`history`] — records invocation/response events for every operation
//!   driven through the [`oak_core::OrderedKvMap`] trait, stamped by a
//!   global logical clock.
//! * [`checker`] — validates point-operation histories against a
//!   sequential `BTreeMap`-style model: a per-key decomposition (sound by
//!   compositionality — point ops on distinct keys act on independent
//!   sub-objects), a sequential fast path, a greedy response-order pass,
//!   and a memoized Wing & Gong search for the hard residue.
//! * [`scan`] — validates scans against the §1.1 non-atomic scan
//!   contract: no phantom keys, no duplicates, no missed stable keys,
//!   order/bound discipline, and value sanity.
//! * [`runner`] — seeded deterministic concurrent workloads mixing
//!   put/get/remove/compute/scan, plus the whole-history check.
//! * [`recovery`] — crash-recovery verdicts for the crash-injection
//!   harness: order-sensitive state digests, the acknowledgement-log
//!   model, and prefix-consistency classification of a recovered image.
//!
//! Deterministic *interleavings* (as opposed to seeded perturbation) come
//! from `oak_failpoints`' sync-point engine: oak-core publishes its
//! instrumented decision sites as [`oak_core::SYNC_SITES`], and a
//! [`oak_failpoints::SyncSchedule`](oak_failpoints) replays an explicit
//! thread interleaving across them. The regression tests in this crate
//! pin down the scan/rebalance races fixed in oak-core with exactly such
//! schedules.

#![warn(missing_docs)]

pub mod checker;
pub mod history;
pub mod recovery;
pub mod runner;
pub mod scan;

pub use checker::{check_history, CheckStats, Violation};
pub use history::{transform, History, Op, OpRecord, Recorder, Ret};
pub use recovery::{check_recovery, state_digest, AckRecord, RecoveryVerdict, StateDigest};
pub use runner::{run_and_check, run_recorded, KeyShape, WorkloadCfg};
