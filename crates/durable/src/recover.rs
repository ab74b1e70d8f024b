//! Recovery: rebuilding a live map from a checkpoint image.
//!
//! [`open`] resolves `CURRENT` → manifest → segment, validating every
//! layer (manifest CRC, generation cross-check, per-chunk CRC32C and
//! structural parse, cross-chunk key ordering) before and while replaying
//! the records into a fresh map through the normal `put` path. Replaying
//! through `put` — rather than grafting chunk structures — means every
//! invariant the live map maintains is re-established from scratch: the
//! chunk index and prefix cache are rebuilt as a side effect, and the
//! off-heap allocation ledger balances (`live + free == capacity`) because
//! every byte was allocated through the audited allocator. With the
//! `audit` feature the balance is *checked*, not assumed, before the map
//! is handed back.
//!
//! Validation failures surface as
//! [`OakError::Corrupted`] (the bytes cannot be trusted) and rebuild
//! failures as [`OakError::RecoveryFailed`] (the bytes were fine but a
//! consistent map could not be produced); both leave no partially built
//! map behind.

use std::cmp::Ordering;
use std::path::Path;

use oak_core::{
    CorruptionKind, KeyComparator, Lexicographic, OakError, OakMap, OakMapConfig, RecoveryFailure,
};

use crate::manifest::{read_current, segment_name, Manifest};
use crate::segment::{parse_records, SegmentReader};

/// Opens the checkpoint image in `dir` as a fresh lexicographic map.
///
/// Fails with [`CorruptionKind::MissingManifest`](oak_core::CorruptionKind)
/// when the directory has never completed a checkpoint — use
/// [`open_or_empty`] for open-or-create semantics.
pub fn open(dir: &Path, config: OakMapConfig) -> Result<OakMap<Lexicographic>, OakError> {
    open_with_comparator(dir, config, Lexicographic)
}

/// Like [`open`], but a directory with no completed checkpoint yields an
/// empty map instead of an error — the natural first-boot semantics for
/// the crash-recovery cycle (a crash before the first `CURRENT` swap is a
/// legitimate "nothing was ever acknowledged" state).
pub fn open_or_empty(dir: &Path, config: OakMapConfig) -> Result<OakMap<Lexicographic>, OakError> {
    match read_current(dir)? {
        None => Ok(OakMap::with_comparator(config, Lexicographic)),
        Some(manifest) => rebuild(dir, config, Lexicographic, manifest),
    }
}

/// Opens the checkpoint image in `dir` under a custom key comparator. The
/// comparator must order keys identically to the one that wrote the image
/// (recovery verifies the streamed keys are strictly ascending under `cmp`
/// and fails otherwise).
pub fn open_with_comparator<C: KeyComparator>(
    dir: &Path,
    config: OakMapConfig,
    cmp: C,
) -> Result<OakMap<C>, OakError> {
    match read_current(dir)? {
        None => Err(OakError::Corrupted(CorruptionKind::MissingManifest)),
        Some(manifest) => rebuild(dir, config, cmp, manifest),
    }
}

fn rebuild<C: KeyComparator>(
    dir: &Path,
    config: OakMapConfig,
    cmp: C,
    manifest: Manifest,
) -> Result<OakMap<C>, OakError> {
    if !config.accepts_fingerprint(manifest.fingerprint) {
        return Err(OakError::Corrupted(CorruptionKind::ConfigMismatch));
    }
    let map = OakMap::with_comparator(config, cmp.clone());
    let seg_path = dir.join(segment_name(manifest.generation));
    let mut reader = SegmentReader::open(&seg_path, manifest.generation)?;
    let mut prev_key: Option<Vec<u8>> = None;
    for desc in &manifest.chunks {
        let payload = reader.read_chunk(desc)?;
        parse_records(&payload, desc.count, |k, v| {
            // Checkpoints stream in comparator order; a non-ascending key
            // means the image and manifest disagree about record framing
            // (or the comparator differs from the writer's) — either way
            // the rebuilt map would silently drop entries.
            if let Some(prev) = &prev_key {
                if cmp.compare(prev, k) != Ordering::Less {
                    return Err(OakError::RecoveryFailed(RecoveryFailure::Verification));
                }
            }
            prev_key = Some(k.to_vec());
            map.put(k, v)
                .map_err(|_| OakError::RecoveryFailed(RecoveryFailure::Reinsert))
        })?;
    }
    if map.len() as u64 != manifest.entries {
        return Err(OakError::RecoveryFailed(RecoveryFailure::Verification));
    }
    #[cfg(feature = "audit")]
    {
        // The ledger must balance *now*, before anyone trusts the map:
        // live + free == capacity, and nothing allocated during replay
        // may have leaked.
        let report = map.audit();
        if !report.pool.balanced || report.leaked_bytes != 0 {
            return Err(OakError::RecoveryFailed(RecoveryFailure::Verification));
        }
    }
    Ok(map)
}
