//! The one reference model of [`FreeList`] placement, shared by the
//! property tests that pin it offset for offset.
//!
//! The rule, written as plainly as possible: a request pops the most
//! recently freed slice of its exact length (lengths up to 2 KiB have a
//! bin), else takes the low end of the smallest free segment that fits
//! (lowest offset among equals, found by a linear scan), else bumps the
//! tail; when all three miss, the caller flushes the bins into the
//! segments and asks once more. Frees of binned lengths go onto their bin
//! untouched; longer frees, and flushed slices, merge with both
//! neighbours, and a run that reaches the tail joins it.

use oak_mempool::FreeList;

/// Largest length that has a bin.
pub const BIN_MAX: u32 = 2048;
const GRAN: u32 = 8;

#[derive(Debug)]
pub struct Model {
    /// `bins[len / 8]`: binned offsets, most recent last.
    bins: Vec<Vec<u32>>,
    /// Coalesced segments `(offset, len)`, sorted by offset; none adjacent
    /// to another or to the tail.
    segs: Vec<(u32, u32)>,
    tail: u32,
    capacity: u32,
}

impl Model {
    pub fn new(capacity: u32) -> Self {
        Model {
            bins: vec![Vec::new(); (BIN_MAX / GRAN) as usize + 1],
            segs: Vec::new(),
            tail: 0,
            capacity,
        }
    }

    /// Bin pop, then smallest fit, then tail bump.
    pub fn allocate(&mut self, len: u32) -> Option<u32> {
        if len <= BIN_MAX {
            if let Some(off) = self.bins[(len / GRAN) as usize].pop() {
                return Some(off);
            }
        }
        let best = self
            .segs
            .iter()
            .enumerate()
            .filter(|&(_, &(_, l))| l >= len)
            .min_by_key(|&(_, &(o, l))| (l, o))
            .map(|(i, _)| i);
        if let Some(i) = best {
            let (off, seg_len) = self.segs[i];
            if seg_len == len {
                self.segs.remove(i);
            } else {
                self.segs[i] = (off + len, seg_len - len);
            }
            return Some(off);
        }
        if self.capacity - self.tail >= len {
            self.tail += len;
            return Some(self.tail - len);
        }
        None
    }

    pub fn free(&mut self, offset: u32, len: u32) {
        if len <= BIN_MAX {
            self.bins[(len / GRAN) as usize].push(offset);
        } else {
            self.segs.push((offset, len));
            self.merge();
        }
    }

    /// Moves every binned slice into the segments; whether any was binned.
    pub fn flush(&mut self) -> bool {
        let mut any = false;
        for (i, bin) in self.bins.iter_mut().enumerate() {
            for off in bin.drain(..) {
                self.segs.push((off, i as u32 * GRAN));
                any = true;
            }
        }
        self.merge();
        any
    }

    /// Re-sorts the segments, merges every adjacent pair, and absorbs a
    /// run that ends at the tail.
    fn merge(&mut self) {
        self.segs.sort_unstable();
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(self.segs.len());
        for &(o, l) in &self.segs {
            match merged.last_mut() {
                Some(last) if last.0 + last.1 == o => last.1 += l,
                _ => merged.push((o, l)),
            }
        }
        if let Some(&(o, l)) = merged.last() {
            if o + l == self.tail {
                self.tail = o;
                merged.pop();
            }
        }
        self.segs = merged;
    }

    pub fn binned_bytes(&self) -> u64 {
        (self.bins.iter().enumerate())
            .map(|(i, b)| b.len() as u64 * (i as u64 * GRAN as u64))
            .sum()
    }

    pub fn free_bytes(&self) -> u64 {
        let segs: u64 = self.segs.iter().map(|&(_, l)| l as u64).sum();
        segs + self.binned_bytes() + (self.capacity - self.tail) as u64
    }

    /// Segments, binned slices, and the tail if it is not empty.
    pub fn segment_count(&self) -> usize {
        self.segs.len()
            + self.bins.iter().map(Vec::len).sum::<usize>()
            + usize::from(self.tail < self.capacity)
    }

    pub fn largest_segment(&self) -> u32 {
        let seg = self.segs.iter().map(|&(_, l)| l).max().unwrap_or(0);
        let binned = (self.bins.iter().enumerate())
            .filter(|(_, b)| !b.is_empty())
            .map(|(i, _)| i as u32 * GRAN)
            .max()
            .unwrap_or(0);
        seg.max(binned).max(self.capacity - self.tail)
    }
}

/// One pool-shaped allocation against both: probe, and on a miss flush
/// and probe once more. Every answer of the real list must equal the
/// model's.
pub fn allocate(fl: &mut FreeList, model: &mut Model, len: u32) -> Option<u32> {
    let got = fl.allocate(len);
    assert_eq!(got, model.allocate(len), "placement of a {len} B request");
    if got.is_some() {
        return got;
    }
    let flushed = fl.flush();
    assert_eq!(flushed, model.flush(), "flush of a {len} B miss");
    if !flushed {
        return None;
    }
    let got = fl.allocate(len);
    assert_eq!(got, model.allocate(len), "placement after a flush, {len} B");
    got
}

/// The real list's invariants, plus every figure it reports against the
/// model's.
pub fn check(fl: &FreeList, model: &Model) {
    fl.check_invariants();
    assert_eq!(fl.free_bytes(), model.free_bytes(), "free bytes");
    assert_eq!(fl.binned_bytes(), model.binned_bytes(), "binned bytes");
    assert_eq!(fl.segment_count(), model.segment_count(), "segment count");
    assert_eq!(fl.largest_segment(), model.largest_segment(), "largest");
}
