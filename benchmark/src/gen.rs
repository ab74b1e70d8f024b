//! Input generation: everything the library sees is bytes made here from
//! `--seed`. splitmix64 for randomness, Gray et al.'s Zipf sampler with a
//! bijective rank scramble, the 100-byte keys of `crates/bench`, and values
//! that carry their key id and a write stamp so reads can be checked.

/// Entries present after set-up. (Unit tests run the whole pipeline in a
/// debug build, on a map a hundredth the size.)
pub const N: u64 = if cfg!(test) { 2_000 } else { 200_000 };
/// Ids are drawn from `[0, ID_RANGE)`, so half the uniform lookups miss.
pub const ID_RANGE: u64 = 2 * N;

pub const KEY_LEN: usize = 100;
const KEY_DIGITS: usize = 20;

/// Bytes at the front of every value: key id, then write stamp (both LE).
pub const VALUE_HEADER: usize = 16;
pub const VALUE_LEN: usize = 1024;
/// Longest value any workload writes (`512 + 64 * 16`).
pub const MAX_VALUE_LEN: usize = 1536;
const VALUE_FILL: u8 = 0xA5;

/// splitmix64 (Steele, Lea & Flood): one add, two xor-shift-multiplies.
#[derive(Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    #[cfg(test)]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent stream for `(seed, stream)`.
    pub fn for_stream(seed: u64, stream: u64) -> Self {
        let mut mixer = SplitMix64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        SplitMix64(mixer.next_u64())
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` by multiply-shift (bias below 2^-44 for our n).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A key buffer ready for [`write_key`]: id digits, then `k` padding.
pub fn new_key_buf() -> [u8; KEY_LEN] {
    let mut buf = [b'k'; KEY_LEN];
    write_key(&mut buf, 0);
    buf
}

/// Writes `id` as 20 zero-padded decimal digits at the front of `buf`, so
/// byte order equals id order.
#[inline]
pub fn write_key(buf: &mut [u8; KEY_LEN], mut id: u64) {
    for slot in buf[..KEY_DIGITS].iter_mut().rev() {
        *slot = b'0' + (id % 10) as u8;
        id /= 10;
    }
}

/// The id a key encodes, or `None` if it is not one of ours.
pub fn key_id(key: &[u8]) -> Option<u64> {
    if key.len() != KEY_LEN || key[KEY_DIGITS..].iter().any(|&b| b != b'k') {
        return None;
    }
    key[..KEY_DIGITS].iter().try_fold(0u64, |acc, &b| {
        b.is_ascii_digit()
            .then(|| acc.checked_mul(10)?.checked_add((b - b'0') as u64))
            .flatten()
    })
}

/// The id digits of a key: unique per key, and cheap to keep and compare
/// inside a scan callback.
#[inline]
pub fn key_digits(key: &[u8]) -> &[u8] {
    &key[..KEY_DIGITS.min(key.len())]
}

/// A value buffer ready for [`stamp_value`].
pub fn new_value_buf() -> Vec<u8> {
    vec![VALUE_FILL; MAX_VALUE_LEN]
}

/// Writes the key id and write stamp into the front of `buf`.
#[inline]
pub fn stamp_value(buf: &mut [u8], id: u64, stamp: u64) {
    buf[..8].copy_from_slice(&id.to_le_bytes());
    buf[8..VALUE_HEADER].copy_from_slice(&stamp.to_le_bytes());
}

/// `(key id, write stamp)` of a stored value; `None` if it is too short.
#[inline]
pub fn value_header(v: &[u8]) -> Option<(u64, u64)> {
    let id = u64::from_le_bytes(v.get(..8)?.try_into().ok()?);
    let stamp = u64::from_le_bytes(v.get(8..VALUE_HEADER)?.try_into().ok()?);
    Some((id, stamp))
}

/// Zipf ranks after Gray et al., "Quickly Generating Billion-Record
/// Synthetic Databases" (the YCSB generator).
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0);
        let zeta = |m: u64| (1..=m).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    /// The rank (0 = most popular) for a uniform `u` in `[0, 1)`.
    pub fn rank(&self, u: f64) -> u64 {
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// The probability of rank `r` under the exact distribution.
    #[cfg(test)]
    fn mass(&self, r: u64) -> f64 {
        ((r + 1) as f64).powf(-self.theta) / self.zetan
    }
}

/// How a stage draws key ids from `[0, ID_RANGE)`.
pub enum KeyDist {
    Uniform,
    /// Zipfian popularity ranks, mapped to ids by [`Ranks`].
    Zipf {
        zipf: Zipf,
        ranks: Ranks,
    },
    /// Uniform over the ids set-up inserted.
    SetUp(Ranks),
}

/// Odd and not a multiple of 5, hence coprime to `ID_RANGE = 2^7 * 5^5`;
/// `rank -> rank * M + offset (mod ID_RANGE)` is then a bijection.
const SCRAMBLE_MUL: u64 = 2_654_435_761;

/// The seed's bijection from popularity rank to key id. It scatters hot
/// keys over the id range, and set-up inserts exactly the even ranks: the
/// share of lookups that hit is then the same for every seed (a random
/// half would make it swing with whether the few hottest ids were drawn).
#[derive(Clone, Copy)]
pub struct Ranks {
    offset: u64,
}

impl Ranks {
    pub fn new(seed: u64) -> Self {
        Ranks {
            offset: SplitMix64::for_stream(seed, 0x5CA7).below(ID_RANGE),
        }
    }

    #[inline]
    pub fn id(self, rank: u64) -> u64 {
        (rank * SCRAMBLE_MUL + self.offset) % ID_RANGE
    }
}

impl KeyDist {
    pub fn zipf(theta: f64, seed: u64) -> Self {
        KeyDist::Zipf {
            zipf: Zipf::new(ID_RANGE, theta),
            ranks: Ranks::new(seed),
        }
    }

    #[inline]
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        match self {
            KeyDist::Uniform => rng.below(ID_RANGE),
            KeyDist::Zipf { zipf, ranks } => ranks.id(zipf.rank(rng.unit_f64())),
            KeyDist::SetUp(ranks) => ranks.id(2 * rng.below(N)),
        }
    }
}

/// Op classes. The discriminant indexes per-class arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Get = 0,
    Put = 1,
    Remove = 2,
    Compute = 3,
    ScanAsc = 4,
    ScanDesc = 5,
}

pub const OP_KINDS: [OpKind; 6] = [
    OpKind::Get,
    OpKind::Put,
    OpKind::Remove,
    OpKind::Compute,
    OpKind::ScanAsc,
    OpKind::ScanDesc,
];

impl OpKind {
    pub fn is_write(self) -> bool {
        matches!(self, OpKind::Put | OpKind::Remove | OpKind::Compute)
    }

    pub fn is_scan(self) -> bool {
        matches!(self, OpKind::ScanAsc | OpKind::ScanDesc)
    }
}

/// Percent of ops per class, in [`OP_KINDS`] order; sums to 100.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mix(pub [u32; 6]);

impl Mix {
    pub const fn only(kind: OpKind) -> Mix {
        let mut w = [0; 6];
        w[kind as usize] = 100;
        Mix(w)
    }

    pub fn has(&self, kind: OpKind) -> bool {
        self.0[kind as usize] > 0
    }

    fn pick(&self, pct: u32) -> OpKind {
        let mut acc = 0;
        for kind in OP_KINDS {
            acc += self.0[kind as usize];
            if pct < acc {
                return kind;
            }
        }
        unreachable!("mix weights sum to 100")
    }
}

/// Value length of a put.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueLen {
    /// Always [`VALUE_LEN`].
    Fixed,
    /// `512 + 64 * (x mod 17)`: 17 sizes from 512 B to 1536 B, so an
    /// overwrite usually resizes and a freed slot rarely fits the next put.
    Varied,
}

impl ValueLen {
    #[inline]
    pub fn draw(self, rng: &mut SplitMix64) -> usize {
        match self {
            ValueLen::Fixed => VALUE_LEN,
            ValueLen::Varied => 512 + 64 * (rng.next_u64() % 17) as usize,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub id: u64,
    /// Meaningful for puts only.
    pub value_len: usize,
}

/// One thread's op sequence: a pure function of `(seed, stream)`.
pub struct OpStream<'a> {
    rng: SplitMix64,
    mix: Mix,
    dist: &'a KeyDist,
    value_len: ValueLen,
}

impl<'a> OpStream<'a> {
    pub fn new(seed: u64, stream: u64, mix: Mix, dist: &'a KeyDist, value_len: ValueLen) -> Self {
        assert_eq!(mix.0.iter().sum::<u32>(), 100, "mix must sum to 100");
        OpStream {
            rng: SplitMix64::for_stream(seed, stream),
            mix,
            dist,
            value_len,
        }
    }

    #[inline]
    pub fn next_op(&mut self) -> Op {
        let kind = self.mix.pick(self.rng.below(100) as u32);
        let id = self.dist.sample(&mut self.rng);
        let value_len = match kind {
            OpKind::Put => self.value_len.draw(&mut self.rng),
            _ => 0,
        };
        Op {
            kind,
            id,
            value_len,
        }
    }
}

/// The ids set-up inserts, in insertion order: the ids of the [`N`] even
/// popularity ranks (see [`Ranks`]), shuffled by the seed.
pub fn setup_ids(seed: u64) -> Vec<u64> {
    let ranks = Ranks::new(seed);
    let mut ids: Vec<u64> = (0..N).map(|i| ranks.id(2 * i)).collect();
    let mut rng = SplitMix64::for_stream(seed, 0x5E7);
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.below(i as u64 + 1) as usize);
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_sort_like_ids_and_round_trip() {
        let mut a = new_key_buf();
        let mut b = new_key_buf();
        for (x, y) in [(0, 1), (9, 10), (99_999, 100_000), (399_998, 399_999)] {
            write_key(&mut a, x);
            write_key(&mut b, y);
            assert!(a < b);
            assert_eq!(key_id(&a), Some(x));
            assert_eq!(key_id(&b), Some(y));
        }
        assert_eq!(a.len(), 100);
        assert_eq!(key_id(b"short"), None);
    }

    #[test]
    fn values_carry_id_and_stamp() {
        let mut v = new_value_buf();
        stamp_value(&mut v, 42, 7);
        assert_eq!(value_header(&v[..VALUE_LEN]), Some((42, 7)));
        assert_eq!(value_header(&v[..8]), None);
    }

    #[test]
    fn ranks_map_to_ids_one_to_one() {
        let ranks = Ranks::new(9);
        let mut seen = vec![false; ID_RANGE as usize];
        for rank in 0..ID_RANGE {
            assert!(!std::mem::replace(&mut seen[ranks.id(rank) as usize], true));
        }
    }

    #[test]
    fn zipf_top_one_percent_mass_matches_theta() {
        let n = 400_000;
        let zipf = Zipf::new(n, 0.99);
        let top = n / 100;
        let expected: f64 = (0..top).map(|r| zipf.mass(r)).sum();
        let mut rng = SplitMix64::new(3);
        let samples = 400_000;
        let hits = (0..samples)
            .filter(|_| zipf.rank(rng.unit_f64()) < top)
            .count();
        let got = hits as f64 / samples as f64;
        // theta = 0.99 over 400 000 ids puts about two thirds of the mass on
        // the top 1 %; Gray's approximation is good to a couple of percent.
        assert!(
            expected > 0.6 && expected < 0.75,
            "expected mass {expected}"
        );
        assert!(
            (got - expected).abs() < 0.03,
            "sampled {got} vs exact {expected}"
        );
    }

    #[test]
    fn the_same_seed_gives_the_same_op_stream() {
        let dist = KeyDist::zipf(0.99, 11);
        let mix = Mix([90, 5, 0, 0, 5, 0]);
        let take = |seed, stream| {
            let mut s = OpStream::new(seed, stream, mix, &dist, ValueLen::Varied);
            (0..1000).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(take(11, 0), take(11, 0));
        assert_ne!(take(11, 0), take(11, 1));
        assert_ne!(take(11, 0), take(12, 0));
        let ops = take(11, 0);
        assert!(ops.iter().all(|op| op.id < ID_RANGE));
        assert!(ops
            .iter()
            .all(|op| (op.kind == OpKind::Put) == (op.value_len >= 512)));
    }

    #[test]
    fn setup_ids_are_n_distinct_ids_fixed_by_the_seed() {
        let ids = setup_ids(5);
        assert_eq!(ids.len(), N as usize);
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), N as usize);
        assert!(sorted.last().unwrap() < &ID_RANGE);
        assert_eq!(ids, setup_ids(5));
        assert_ne!(ids, setup_ids(6));
        // Exactly the even ranks are present, whatever the seed.
        let ranks = Ranks::new(5);
        assert!(sorted.binary_search(&ranks.id(0)).is_ok());
        assert!(sorted.binary_search(&ranks.id(1)).is_err());
    }
}
