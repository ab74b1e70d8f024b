//! Checkpoint/recovery integration tests: roundtrips, torn-write
//! atomicity under injected faults, corruption detection, and the
//! post-open audit gate.

use std::path::{Path, PathBuf};

use oak_core::{CorruptionKind, OakError, OakMap, OakMapConfig};
use oak_durable::{open, open_or_empty, CheckpointStats};
use oak_failpoints::{configure, scenario, Action, FirePolicy};

/// `oak_durable::checkpoint` under the failpoint scenario lock. The
/// registry is process-global and `failed_checkpoint_preserves_previous_image`
/// arms the checkpoint sites: a neighbouring test's unserialised checkpoint
/// could consume the armed fault and fail in its place.
fn checkpoint(map: &OakMap, dir: &Path) -> std::io::Result<CheckpointStats> {
    let _s = scenario();
    oak_durable::checkpoint(map, dir)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "oak-durab-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn filled(n: u32) -> OakMap {
    let map = OakMap::with_config(OakMapConfig::small());
    for i in 0..n {
        map.put(
            format!("key-{i:06}").as_bytes(),
            format!("value-{i}-{}", "x".repeat((i % 80) as usize)).as_bytes(),
        )
        .unwrap();
    }
    map
}

#[test]
fn checkpoint_open_roundtrip() {
    let dir = tmp_dir("roundtrip");
    let map = filled(3000);
    map.remove(b"key-000100");
    map.remove(b"key-002999");
    let stats = checkpoint(&map, &dir).unwrap();
    assert_eq!(stats.entries, 2998);
    assert!(stats.chunks > 1, "want a multi-chunk image: {stats:?}");

    let recovered = open(&dir, OakMapConfig::small()).unwrap();
    assert_eq!(recovered.len(), 2998);
    assert!(recovered.get(b"key-000100").is_none());
    for i in (0..3000).step_by(97) {
        let key = format!("key-{i:06}");
        match recovered.get(key.as_bytes()) {
            Some(v) => assert!(v
                .to_vec()
                .unwrap()
                .starts_with(format!("value-{i}-").as_bytes())),
            None => assert!(i == 100 || i == 2999, "lost {key}"),
        }
    }
    // Structural invariants all hold on the rebuilt map.
    recovered.validate();
    std::fs::remove_dir_all(&dir).ok();
}

/// Entry count and an order-sensitive FNV-1a digest of a full scan.
fn digest(map: &OakMap) -> (u64, u64) {
    let (mut n, mut h) = (0u64, 0xcbf2_9ce4_8422_2325u64);
    map.for_each_in(None, None, |k, v| {
        n += 1;
        for &b in k.iter().chain([0xff].iter()).chain(v) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        true
    });
    (n, h)
}

/// Chunks cache key prefixes relative to the leading bytes their keys
/// share; neither those bytes nor the prefixes are part of the image.
/// Recovery replays records through `put`, so the rebuilt chunks derive
/// their own — the recovered map must hold the same contents and pass the
/// prefix check in `validate()`. Keys: the benchmarks' zero-padded ids
/// around a power of ten, so every multi-key chunk skips leading bytes,
/// by different amounts.
#[test]
fn recovery_of_chunks_with_relative_prefixes_keeps_the_digest() {
    let dir = tmp_dir("relative-prefixes");
    let map = OakMap::with_config(OakMapConfig::small());
    for id in (99_000..101_000u64).rev() {
        let mut key = format!("{id:020}").into_bytes();
        key.resize(20 + (id % 3) as usize * 40, b'k');
        map.put(&key, &id.to_le_bytes()).unwrap();
    }
    for id in (99_000..101_000u64).step_by(7) {
        map.remove(format!("{id:020}").as_bytes()); // hits every third id
    }
    map.validate();
    let stats = checkpoint(&map, &dir).unwrap();
    assert!(stats.chunks > 1, "want a multi-chunk image: {stats:?}");

    let recovered = open(&dir, OakMapConfig::small()).unwrap();
    recovered.validate();
    assert_eq!(digest(&recovered), digest(&map));
    assert_eq!(recovered.len() as u64, stats.entries);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn second_checkpoint_supersedes_and_prunes() {
    let dir = tmp_dir("supersede");
    let map = filled(500);
    let s1 = checkpoint(&map, &dir).unwrap();
    map.put(b"zzz-new", b"after-first").unwrap();
    let s2 = checkpoint(&map, &dir).unwrap();
    assert!(s2.generation > s1.generation);
    // Old generation is gone; the image opens at the new one.
    assert!(!dir
        .join(format!("segment-{:06}.oakseg", s1.generation))
        .exists());
    let recovered = open(&dir, OakMapConfig::small()).unwrap();
    assert_eq!(recovered.len(), 501);
    assert_eq!(
        recovered.get(b"zzz-new").unwrap().to_vec().unwrap(),
        b"after-first"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn open_or_empty_on_fresh_dir() {
    let dir = tmp_dir("fresh");
    std::fs::create_dir_all(&dir).unwrap();
    let map = open_or_empty(&dir, OakMapConfig::small()).unwrap();
    assert!(map.is_empty());
    // Strict open refuses.
    assert_eq!(
        open(&dir, OakMapConfig::small()).unwrap_err(),
        OakError::Corrupted(CorruptionKind::MissingManifest)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn config_fingerprint_mismatch_is_refused() {
    let dir = tmp_dir("fingerprint");
    let written = filled(50);
    checkpoint(&written, &dir).unwrap();
    let other = OakMapConfig::small().chunk_capacity(128);
    assert_eq!(
        open(&dir, other).unwrap_err(),
        OakError::Corrupted(CorruptionKind::ConfigMismatch)
    );
    // Resource-tuning knobs deliberately don't participate: an image
    // opens under another arena sizing with every pair intact.
    let tuned = OakMapConfig {
        pool: oak_mempool::PoolConfig {
            arena_size: 1 << 20,
            max_arenas: 32,
        },
        ..OakMapConfig::small()
    };
    let recovered = open(&dir, tuned).unwrap();
    assert_eq!(recovered.pool().config().max_arenas, 32);
    assert_eq!(digest(&recovered), digest(&written));
    std::fs::remove_dir_all(&dir).ok();
}

/// The header policy is not part of the image: recovery replays records
/// through `put`, so an image checkpointed under either policy opens
/// under the other with every pair intact.
#[test]
fn header_policy_does_not_gate_open() {
    use oak_mempool::ReclamationPolicy::{ReclaimHeaders, RetainHeaders};
    for (written_under, opened_under) in [
        (RetainHeaders, ReclaimHeaders),
        (ReclaimHeaders, RetainHeaders),
    ] {
        let dir = tmp_dir("policy");
        let written = OakMap::with_config(OakMapConfig::small().reclamation(written_under));
        for i in 0..400u32 {
            let key = format!("key-{i:06}");
            written
                .put(key.as_bytes(), format!("value-{i}").as_bytes())
                .unwrap();
            if i % 3 == 0 {
                written.remove(key.as_bytes());
            }
        }
        checkpoint(&written, &dir).unwrap();
        let recovered = open(&dir, OakMapConfig::small().reclamation(opened_under)).unwrap();
        let pairs = |m: &OakMap| {
            let mut out = Vec::new();
            m.for_each_in(None, None, |k, v| {
                out.push((k.to_vec(), v.to_vec()));
                true
            });
            out
        };
        assert_eq!(recovered.len(), written.len());
        assert_eq!(
            pairs(&recovered),
            pairs(&written),
            "{written_under:?} → {opened_under:?}"
        );
        recovered.validate();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// An image written while the fingerprint still encoded the header policy,
/// under `ReclaimHeaders`, carries a fingerprint of its own: it opens with
/// every pair intact.
#[test]
fn legacy_reclaim_fingerprint_opens() {
    /// `OakMapConfig::small().reclamation(ReclaimHeaders).fingerprint()`
    /// at commit `d2471f5`.
    const LEGACY_SMALL_RECLAIM: u64 = 0x2b98_3f0d_2138_207a;
    let dir = tmp_dir("legacyfp");
    let written = filled(300);
    checkpoint(&written, &dir).unwrap();
    // Restamp the manifest as the older encoding wrote it: the fingerprint
    // sits at bytes 16..24, and the trailing CRC covers the rest.
    let name = std::fs::read_to_string(dir.join("CURRENT")).unwrap();
    let path = dir.join(name.trim());
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[16..24].copy_from_slice(&LEGACY_SMALL_RECLAIM.to_le_bytes());
    let body = bytes.len() - 4;
    let crc = oak_durable::crc32c::crc32c(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let recovered = open(&dir, OakMapConfig::small()).unwrap();
    assert_eq!(digest(&recovered), digest(&written));
    recovered.validate();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flipped_segment_byte_is_caught() {
    let dir = tmp_dir("bitrot");
    checkpoint(&filled(400), &dir).unwrap();
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "oakseg"))
        .unwrap();
    let mut bytes = std::fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&seg, &bytes).unwrap();
    match open(&dir, OakMapConfig::small()) {
        Err(OakError::Corrupted(
            CorruptionKind::ChunkChecksum | CorruptionKind::TruncatedChunk,
        )) => {}
        other => panic!("corruption not surfaced: {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_segment_is_caught() {
    let dir = tmp_dir("truncate");
    checkpoint(&filled(400), &dir).unwrap();
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "oakseg"))
        .unwrap();
    let len = std::fs::metadata(&seg).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
    f.set_len(len / 2).unwrap();
    drop(f);
    match open(&dir, OakMapConfig::small()) {
        Err(OakError::Corrupted(_)) => {}
        other => panic!("truncation not surfaced: {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scribbled_manifest_is_caught() {
    let dir = tmp_dir("badman");
    checkpoint(&filled(64), &dir).unwrap();
    let name = std::fs::read_to_string(dir.join("CURRENT")).unwrap();
    let path = dir.join(name.trim());
    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes.len() - 9; // inside the chunk table, before the CRC
    bytes[at] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(
        open(&dir, OakMapConfig::small()).unwrap_err(),
        OakError::Corrupted(CorruptionKind::BadManifest)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A failed checkpoint (injected fault at any of the three durable sites)
/// must leave the directory resolving to the previous complete image.
#[test]
fn failed_checkpoint_preserves_previous_image() {
    let dir = tmp_dir("atomic");
    let map = filled(1200);
    let s1 = checkpoint(&map, &dir).unwrap();
    map.put(b"zzz-only-in-gen2", b"?").unwrap();

    for site in [
        "durable/seg-write",
        "durable/manifest-write",
        "durable/current-swap",
    ] {
        let _s = scenario();
        configure(site, Action::ReturnErr, FirePolicy::Times(1));
        let err = oak_durable::checkpoint(&map, &dir).expect_err(site);
        assert_eq!(err.kind(), std::io::ErrorKind::Other, "{site}");
        drop(_s);
        let recovered = open(&dir, OakMapConfig::small()).unwrap();
        assert_eq!(recovered.len() as u64, s1.entries, "after fault at {site}");
        assert!(recovered.get(b"zzz-only-in-gen2").is_none());
    }
    // With injection cleared the retry succeeds and supersedes gen 1.
    checkpoint(&map, &dir).unwrap();
    let recovered = open(&dir, OakMapConfig::small()).unwrap();
    assert_eq!(recovered.len() as u64, s1.entries + 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// Checkpoint taken while writers run: the image is a consistent cut —
/// every recovered value was committed at some point, keys are complete
/// for the untouched range, and recovery's own validation passes.
#[test]
fn checkpoint_under_concurrent_writes_recovers_consistent_cut() {
    let dir = tmp_dir("concurrent");
    let map = std::sync::Arc::new(filled(2000));
    let stop = std::sync::atomic::AtomicBool::new(false);
    let stats = std::thread::scope(|s| {
        let m = map.clone();
        let stop = &stop;
        s.spawn(move || {
            let mut i = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let k = format!("key-{:06}", (i * 37) % 2000);
                m.put(k.as_bytes(), format!("updated-{i}").as_bytes())
                    .unwrap();
                i += 1;
            }
        });
        let stats = checkpoint(&map, &dir).unwrap();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        stats
    });
    assert_eq!(stats.entries, 2000, "no key vanished mid-scan");
    let recovered = open(&dir, OakMapConfig::small()).unwrap();
    assert_eq!(recovered.len(), 2000);
    for i in 0..2000u32 {
        let key = format!("key-{i:06}");
        let v = recovered
            .get(key.as_bytes())
            .expect("key lost")
            .to_vec()
            .unwrap();
        assert!(
            v.starts_with(format!("value-{i}-").as_bytes()) || v.starts_with(b"updated-"),
            "{key} holds neither old nor new value: {:?}",
            String::from_utf8_lossy(&v)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The audit feature's post-open gate: the rebuilt map's ledger balances
/// (`live + free == capacity`) and nothing leaked during replay. `open`
/// checks this internally; here we assert it end-to-end as well.
#[cfg(feature = "audit")]
#[test]
fn recovered_map_ledger_balances() {
    let dir = tmp_dir("audit");
    checkpoint(&filled(1500), &dir).unwrap();
    let recovered = open(&dir, OakMapConfig::small()).unwrap();
    let report = recovered.audit();
    assert!(report.pool.balanced, "live+free != capacity: {report:?}");
    assert_eq!(report.leaked_bytes, 0);
    // And the rebuilt map keeps working.
    recovered.put(b"post-open-write", b"ok").unwrap();
    assert_eq!(recovered.len(), 1501);
    std::fs::remove_dir_all(&dir).ok();
}
