//! Footprint under allocator churn: a fixed live set rewritten many times
//! over with `write-churn`'s value sizes must not make the pool reserve
//! much more than the user's data. Free space that no later request can
//! use — holes of the wrong size, headers never reused — shows up here as
//! reserved arenas with little live data in them.

use oak_core::{OakMap, OakMapConfig};
use oak_failpoints::SplitMix64;
use oak_mempool::PoolConfig;

/// Keys in the live set at all times.
const LIVE: usize = 2_000;
/// Times the live set is rewritten over.
const CHURN: usize = 20;
/// Arena size: small, so reserved bytes move in fine steps.
const ARENA: usize = 64 << 10;
const KEY_LEN: usize = 100;

/// Reserved bytes per byte of user data (keys plus values) allowed after
/// the churn. Bins, smallest fit and recycled headers read 1.24 here;
/// smallest fit without the bins read 1.32, and the first-fit list they
/// replaced 1.35 with recycled headers and 1.41 with retained ones.
const MAX_RESERVED_PER_USER_BYTE: f64 = 1.30;

/// A 100-byte key for `id`, spread over the key space.
fn key(id: u64) -> Vec<u8> {
    let mut k = format!("{:016x}", SplitMix64::new(id).next_u64()).into_bytes();
    k.resize(KEY_LEN, b'.');
    k
}

/// One of `write-churn`'s 17 value sizes: 512 + 64·k bytes, k in 0..17.
fn value(rng: &mut SplitMix64, fill: usize) -> Vec<u8> {
    vec![fill as u8; 512 + 64 * rng.below(17) as usize]
}

#[test]
fn reserved_bytes_track_user_bytes_under_write_churn() {
    let m = OakMap::with_config(OakMapConfig::small().pool(PoolConfig {
        arena_size: ARENA,
        max_arenas: 1024,
    }));
    let mut rng = SplitMix64::new(0x5EED_F007);
    let mut ids: Vec<u64> = (0..LIVE as u64).collect();
    let mut value_lens = vec![0; LIVE];
    let mut next_id = LIVE as u64;
    for (slot, len) in value_lens.iter_mut().enumerate() {
        let v = value(&mut rng, slot);
        *len = v.len();
        m.put(&key(ids[slot]), &v).unwrap();
    }
    for op in 0..LIVE * CHURN {
        let slot = rng.below(LIVE as u64) as usize;
        if rng.below(2) == 1 {
            // Replace the key: its key slice, header and payload go.
            assert!(m.remove(&key(ids[slot])));
            ids[slot] = next_id;
            next_id += 1;
        }
        // A new value, or an overwrite at a new size that frees the old
        // payload.
        let v = value(&mut rng, op);
        value_lens[slot] = v.len();
        m.put(&key(ids[slot]), &v).unwrap();
    }
    assert_eq!(m.len(), LIVE);
    let user_bytes = LIVE * KEY_LEN + value_lens.iter().sum::<usize>();
    let pool = m.stats().pool;
    let ratio = pool.reserved_bytes as f64 / user_bytes as f64;
    assert!(
        ratio < MAX_RESERVED_PER_USER_BYTE,
        "reserved {ratio:.3} bytes per user byte ({user_bytes} user bytes): {pool:?}"
    );
    m.validate();
}
