//! Output checks: every key and value the library hands back is checked
//! against what the generator wrote.

use crate::gen::{key_digits, key_id, value_header, KEY_LEN};
use crate::target::Target;

/// What a full ascending scan of a quiet map found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanSummary {
    pub entries: u64,
    /// Key bytes plus value bytes of every entry.
    pub user_bytes: u64,
    /// Order-sensitive digest of every key and value byte.
    pub digest: u64,
    /// Entries out of order, with a foreign key, or whose value does not
    /// carry its key's id; plus one if the count disagrees with `len()`.
    pub failures: u64,
}

fn fold_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h ^ bytes.len() as u64).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Scans the whole (quiet) map in ascending order, checks every entry, and
/// hands `(id, stamp, value length)` to `visit`.
pub fn full_scan<M: Target>(map: &M, mut visit: impl FnMut(u64, u64, usize)) -> ScanSummary {
    let mut s = ScanSummary::default();
    let mut prev: Option<u64> = None;
    let visited = map.for_each_in(None, None, |k, v| {
        s.entries += 1;
        s.user_bytes += (k.len() + v.len()) as u64;
        s.digest = fold_bytes(fold_bytes(s.digest, k), v);
        match (key_id(k), value_header(v)) {
            (Some(id), Some((vid, stamp))) if vid == id && prev.is_none_or(|p| p < id) => {
                prev = Some(id);
                visit(id, stamp, v.len());
            }
            _ => s.failures += 1,
        }
        true
    });
    if visited as u64 != s.entries || s.entries != map.len() as u64 {
        s.failures += 1;
    }
    s
}

/// What a bounded scan's callback keeps of an entry: the key's 20 id
/// digits and the id in the value's first 8 bytes. Copying 28 bytes is all
/// the callback does, so the time around the scan is the library's; the
/// entries are checked after the timer stops.
pub type RawEntry = ([u8; 20], [u8; 8]);

/// Stands in for an entry that cannot be one of ours.
const FOREIGN: RawEntry = ([0; 20], [0xFF; 8]);

pub fn raw_entry(key: &[u8], value: &[u8]) -> RawEntry {
    let mut raw = FOREIGN;
    if key.len() == KEY_LEN && value.len() >= 8 {
        raw.0.copy_from_slice(key_digits(key));
        raw.1.copy_from_slice(&value[..8]);
    }
    raw
}

/// A stream scan from `start` (inclusive) that stops after `limit` entries
/// and records every entry delivered into `got`.
pub fn collect_scan<M: Target>(
    map: &M,
    start: &[u8; KEY_LEN],
    ascending: bool,
    limit: usize,
    got: &mut Vec<RawEntry>,
) {
    got.clear();
    let visit = |k: &[u8], v: &[u8]| {
        got.push(raw_entry(k, v));
        got.len() < limit
    };
    let visited = if ascending {
        map.for_each_in(Some(start), None, visit)
    } else {
        map.for_each_descending(Some(start), None, visit)
    };
    if visited != got.len() {
        // The library's own count disagrees with what it delivered.
        got.push(FOREIGN);
    }
}

/// The check the concurrent stages can make without knowing the map's
/// contents: the first key is on the right side of `start` and the keys
/// move strictly in scan direction.
pub fn in_order(got: &[RawEntry], start: &[u8; KEY_LEN], ascending: bool) -> bool {
    let forward = |a: &[u8], b: &[u8]| if ascending { a < b } else { a > b };
    let first_ok = got.first().is_none_or(|(first, _)| {
        first[..] == *key_digits(start) || forward(key_digits(start), first)
    });
    first_ok
        && got.iter().all(|e| *e != FOREIGN)
        && got.windows(2).all(|w| forward(&w[0].0, &w[1].0))
}

/// The ids of recorded entries, for the exact check against a shadow;
/// `u64::MAX` (never a key id) stands in for an entry whose key is not ours
/// or whose value names another id.
pub fn decode(got: &[RawEntry]) -> Vec<u64> {
    got.iter()
        .map(|(digits, vid)| {
            std::str::from_utf8(digits)
                .ok()
                .and_then(|d| d.parse::<u64>().ok())
                .filter(|&id| id.to_le_bytes() == *vid)
                .unwrap_or(u64::MAX)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{new_key_buf, new_value_buf, stamp_value, write_key};

    fn key(id: u64) -> [u8; KEY_LEN] {
        let mut k = new_key_buf();
        write_key(&mut k, id);
        k
    }

    fn entry(id: u64) -> RawEntry {
        let mut v = new_value_buf();
        stamp_value(&mut v, id, 1);
        raw_entry(&key(id), &v)
    }

    #[test]
    fn in_order_accepts_sorted_and_flags_unsorted() {
        let up = [entry(10), entry(11), entry(15)];
        assert!(in_order(&up, &key(10), true));
        assert!(in_order(&up, &key(9), true));
        assert!(!in_order(&up, &key(11), true), "first key below the bound");
        assert!(!in_order(&[entry(12), entry(12)], &key(10), true), "repeat");
        assert!(!in_order(&[entry(12), FOREIGN], &key(10), true));
        let down = [entry(10), entry(4)];
        assert!(in_order(&down, &key(10), false));
        assert!(!in_order(&down, &key(9), false));
        assert!(!in_order(&[entry(4), entry(5)], &key(10), false));
        assert!(in_order(&[], &key(10), true));
    }

    #[test]
    fn decode_returns_ids_and_flags_mismatched_values() {
        let mut wrong = entry(7);
        wrong.1 = 8u64.to_le_bytes();
        assert_eq!(
            decode(&[entry(3), wrong, FOREIGN]),
            vec![3, u64::MAX, u64::MAX]
        );
        assert_eq!(raw_entry(b"short", b"12345678"), FOREIGN);
    }

    #[test]
    fn the_digest_depends_on_order_and_boundaries() {
        let ab = fold_bytes(fold_bytes(0, b"ab"), b"c");
        let a_bc = fold_bytes(fold_bytes(0, b"a"), b"bc");
        let c_ab = fold_bytes(fold_bytes(0, b"c"), b"ab");
        assert!(ab != a_bc && ab != c_ab && a_bc != c_ab);
    }
}
