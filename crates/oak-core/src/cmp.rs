//! Key comparators over serialized bytes.
//!
//! "To allow efficient search over buffer-resident keys, the user is
//! further required to provide a comparator" (§2.1). Comparators order the
//! *serialized* key bytes so searches never deserialize.

use std::cmp::Ordering;

/// Total order over serialized key bytes.
///
/// Implementations must be cheap to clone (they are typically zero-sized)
/// and must treat the empty byte string as the infimum: Oak's first chunk
/// uses the empty key as its `minKey` (−∞).
pub trait KeyComparator: Send + Sync + Clone + 'static {
    /// Compares two serialized keys.
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering;

    /// An order-preserving 64-bit prefix of `key`, used by chunks to
    /// short-circuit comparisons against cached on-heap prefixes without
    /// dereferencing off-heap key bytes.
    ///
    /// # Contract
    ///
    /// For any two keys `a`, `b` with `prefix(a) = Some(pa)`,
    /// `prefix(b) = Some(pb)`:
    ///
    /// - `pa < pb` implies `compare(a, b) == Less`, and symmetrically for
    ///   `Greater` (equivalently: `compare(a, b) == Less` implies
    ///   `pa <= pb`). Equal prefixes imply nothing — the caller falls back
    ///   to [`compare`](Self::compare) on a tie.
    /// - A prefix of `0` is reserved as "no information": the chunk layer
    ///   stores `None` as `0` and always falls back to a full compare when
    ///   either side's stored prefix is `0`. Implementations may return
    ///   `Some(0)` freely — it is treated exactly like `None` and can only
    ///   cost a full compare, never a wrong verdict.
    ///
    /// Returning `None` for every key (the default) opts the comparator
    /// out of prefix acceleration entirely.
    #[inline]
    fn prefix(&self, key: &[u8]) -> Option<u64> {
        let _ = key;
        None
    }

    /// Whether [`compare`](Self::compare) is plain bytewise lexicographic
    /// order, i.e. `compare(a, b) == a.cmp(b)` for all byte strings.
    ///
    /// Chunks of such a map cache prefixes *relative to the chunk*: a
    /// chunk whose sorted keys all start with the same bytes skips them
    /// and caches the eight bytes that follow, so keys that agree on their
    /// first eight bytes (zero-padded decimal ids, a common table prefix)
    /// are still told apart on-heap. That is sound only for bytewise
    /// order, where keys sharing a leading run are ordered by what follows
    /// it and every other key falls entirely before or after them. The
    /// default (`false`) keeps [`prefix`](Self::prefix) applied to whole
    /// keys.
    #[inline]
    fn bytewise(&self) -> bool {
        false
    }
}

/// The canonical order-preserving prefix for lexicographic byte order:
/// the first eight bytes, big-endian, zero-padded on the right. Strict
/// inequality of padded prefixes implies strict lexicographic order of the
/// keys (the first differing padded byte is either a real byte difference
/// or a zero pad against a real byte, and a zero pad means the shorter key
/// is a proper prefix of the longer, hence lexicographically smaller).
#[inline]
pub fn lexicographic_prefix(key: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = key.len().min(8);
    buf[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(buf)
}

/// Plain lexicographic byte order; correct for big-endian-encoded integers
/// and UTF-8 strings, and the comparator used throughout the benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lexicographic;

impl KeyComparator for Lexicographic {
    #[inline]
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        a.cmp(b)
    }

    #[inline]
    fn prefix(&self, key: &[u8]) -> Option<u64> {
        Some(lexicographic_prefix(key))
    }

    #[inline]
    fn bytewise(&self) -> bool {
        true
    }
}

/// Numeric order for 8-byte big-endian `u64` keys (equivalent to
/// lexicographic on the bytes, provided as a typed convenience; the empty
/// key sorts first).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct U64BeComparator;

impl KeyComparator for U64BeComparator {
    #[inline]
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        match (a.len(), b.len()) {
            (8, 8) => {
                let x = u64::from_be_bytes(a.try_into().unwrap());
                let y = u64::from_be_bytes(b.try_into().unwrap());
                x.cmp(&y)
            }
            // Shorter keys (notably the empty −∞ minKey) sort first.
            _ => a.len().cmp(&b.len()).then_with(|| a.cmp(b)),
        }
    }

    /// Only 8-byte keys get a prefix: this comparator sorts non-8-byte
    /// keys by length first, which zero-padded byte prefixes do not
    /// preserve (e.g. `[1]` sorts before `[0, 2]` here but its padded
    /// prefix is larger). Odd-length keys fall back to full compares.
    #[inline]
    fn prefix(&self, key: &[u8]) -> Option<u64> {
        if key.len() == 8 {
            Some(u64::from_be_bytes(key.try_into().unwrap()))
        } else {
            None
        }
    }
}

/// An owned key ordered by a [`KeyComparator`] — the key type of Oak's
/// on-heap chunk index.
#[derive(Debug, Clone)]
pub(crate) struct MinKey<C> {
    pub(crate) bytes: Box<[u8]>,
    pub(crate) cmp: C,
}

impl<C: KeyComparator> MinKey<C> {
    pub(crate) fn new(bytes: &[u8], cmp: C) -> Self {
        MinKey {
            bytes: bytes.into(),
            cmp,
        }
    }
}

impl<C: KeyComparator> PartialEq for MinKey<C> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp.compare(&self.bytes, &other.bytes) == Ordering::Equal
    }
}
impl<C: KeyComparator> Eq for MinKey<C> {}
impl<C: KeyComparator> PartialOrd for MinKey<C> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<C: KeyComparator> Ord for MinKey<C> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp.compare(&self.bytes, &other.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexicographic_order() {
        let c = Lexicographic;
        assert_eq!(c.compare(b"", b"a"), Ordering::Less);
        assert_eq!(c.compare(b"a", b"a"), Ordering::Equal);
        assert_eq!(c.compare(b"ab", b"b"), Ordering::Less);
    }

    #[test]
    fn u64_be_order_matches_numeric() {
        let c = U64BeComparator;
        for (x, y) in [(0u64, 1u64), (255, 256), (1 << 40, (1 << 40) + 1)] {
            assert_eq!(
                c.compare(&x.to_be_bytes(), &y.to_be_bytes()),
                Ordering::Less,
                "{x} < {y}"
            );
        }
        assert_eq!(c.compare(b"", &0u64.to_be_bytes()), Ordering::Less);
    }

    /// Exhaustive-ish check of the prefix contract: strict prefix
    /// inequality must imply the same strict compare verdict.
    #[test]
    fn prefix_order_preservation() {
        let keys: Vec<Vec<u8>> = vec![
            vec![],
            vec![0],
            vec![0, 0],
            vec![0, 1],
            vec![1],
            vec![1, 0],
            vec![1, 0, 0, 0, 0, 0, 0, 0],
            vec![1, 0, 0, 0, 0, 0, 0, 0, 0],
            vec![1, 0, 0, 0, 0, 0, 0, 0, 1],
            vec![2],
            b"abcdefg".to_vec(),
            b"abcdefgh".to_vec(),
            b"abcdefghi".to_vec(),
            b"abcdefgi".to_vec(),
            vec![255; 7],
            vec![255; 8],
            vec![255; 9],
        ];
        let c = Lexicographic;
        for a in &keys {
            for b in &keys {
                let (pa, pb) = (c.prefix(a).unwrap(), c.prefix(b).unwrap());
                if pa < pb {
                    assert_eq!(c.compare(a, b), Ordering::Less, "{a:?} vs {b:?}");
                } else if pa > pb {
                    assert_eq!(c.compare(a, b), Ordering::Greater, "{a:?} vs {b:?}");
                }
            }
        }
        let c = U64BeComparator;
        for a in &keys {
            for b in &keys {
                let (Some(pa), Some(pb)) = (c.prefix(a), c.prefix(b)) else {
                    continue;
                };
                if pa < pb {
                    assert_eq!(c.compare(a, b), Ordering::Less, "{a:?} vs {b:?}");
                } else if pa > pb {
                    assert_eq!(c.compare(a, b), Ordering::Greater, "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn min_key_ordering_uses_comparator() {
        let a = MinKey::new(&5u64.to_be_bytes(), U64BeComparator);
        let b = MinKey::new(&10u64.to_be_bytes(), U64BeComparator);
        assert!(a < b);
        let inf = MinKey::new(b"", U64BeComparator);
        assert!(inf < a);
    }
}
