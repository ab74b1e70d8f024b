//! Log-bucket latency histogram: 64 sub-buckets per octave, so a reported
//! quantile is within 1/64 (1.6 %) of the recorded value. One per worker
//! thread and op class, merged when the stage ends.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Values below `2 * SUB` get a bucket each; every later octave gets `SUB`.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Counts of recorded values (nanoseconds, but any `u64` works).
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    // `v` has its top bit at position `top` >= SUB_BITS + 1; keep the top
    // SUB_BITS + 1 bits (a mantissa in [SUB, 2 * SUB)).
    let top = 63 - v.leading_zeros();
    let shift = top - SUB_BITS;
    (shift as usize) * SUB as usize + (v >> shift) as usize
}

/// The smallest value of bucket `b` and the bucket's width.
fn bucket_range(b: usize) -> (u64, u64) {
    if b < 2 * SUB as usize {
        return (b as u64, 1);
    }
    let shift = (b / SUB as usize - 1) as u32;
    let mantissa = (b % SUB as usize) as u64 + SUB;
    (mantissa << shift, 1 << shift)
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn sum(&self) -> u128 {
        self.sum
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in `[0, 1]`: the midpoint of the bucket
    /// holding the `ceil(q * count)`-th smallest value. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, width) = bucket_range(b);
                let mid = lo as f64 + (width - 1) as f64 / 2.0;
                return mid.min(self.max as f64);
            }
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SplitMix64;

    fn exact_quantile(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    /// Latency-shaped data: a log-uniform body from 50 ns to 50 ms.
    fn synthetic(seed: u64, n: usize) -> Vec<u64> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| (50.0 * 1e6f64.powf(rng.unit_f64())) as u64)
            .collect()
    }

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut next = 0u64;
        for b in 0..BUCKETS {
            let (lo, width) = bucket_range(b);
            assert_eq!(lo, next, "bucket {b} starts where the last ended");
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(lo + (width - 1)), b);
            next = lo.wrapping_add(width);
        }
        assert_eq!(next, 0, "the last bucket ends at u64::MAX");
    }

    #[test]
    fn quantiles_are_within_two_percent_of_an_exact_sort() {
        let data = synthetic(7, 200_000);
        let mut h = Histogram::default();
        data.iter().for_each(|&v| h.record(v));
        let mut sorted = data.clone();
        sorted.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&sorted, q);
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() <= 0.02 * exact,
                "q={q}: histogram {got} vs exact {exact}"
            );
        }
        assert_eq!(h.max(), *sorted.last().unwrap());
        assert_eq!(h.count(), data.len() as u64);
    }

    #[test]
    fn merge_is_associative_and_equals_recording_everything() {
        let parts: Vec<Vec<u64>> = (0..3).map(|i| synthetic(100 + i, 10_000)).collect();
        let hists: Vec<Histogram> = parts
            .iter()
            .map(|p| {
                let mut h = Histogram::default();
                p.iter().for_each(|&v| h.record(v));
                h
            })
            .collect();
        // (a + b) + c
        let mut left = hists[0].clone();
        left.merge(&hists[1]);
        left.merge(&hists[2]);
        // a + (b + c)
        let mut bc = hists[1].clone();
        bc.merge(&hists[2]);
        let mut right = hists[0].clone();
        right.merge(&bc);
        let mut all = Histogram::default();
        parts.iter().flatten().for_each(|&v| all.record(v));
        for h in [&left, &right] {
            assert_eq!(h.counts, all.counts);
            assert_eq!(h.count(), all.count());
            assert_eq!(h.sum(), all.sum());
            assert_eq!(h.max(), all.max());
        }
    }

    #[test]
    fn an_empty_histogram_reports_zero() {
        assert_eq!(Histogram::default().quantile(0.99), 0.0);
    }
}
