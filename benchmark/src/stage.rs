//! The closed-loop stage: `THREADS` workers, each issuing its next op only
//! after the previous one returned, for a fixed duration. Every op is timed
//! into a per-thread, per-class histogram; the histograms are merged when
//! the stage ends.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::counters::Counters;
use crate::gen::{
    new_key_buf, new_value_buf, stamp_value, value_header, write_key, KeyDist, Mix, Op, OpKind,
    OpStream, ValueLen, KEY_LEN, OP_KINDS, VALUE_HEADER,
};
use crate::hist::Histogram;
use crate::target::Target;
use crate::verify::{collect_scan, in_order, RawEntry};

/// Worker threads per stage. Oak's callers each wait for their reply, and
/// the sandbox has two cores.
pub const THREADS: usize = 2;

pub struct StageSpec<'a> {
    pub mixes: [Mix; THREADS],
    pub dist: &'a KeyDist,
    pub value_len: ValueLen,
    pub scan_len: usize,
    pub duration: Duration,
    pub seed: u64,
    /// Distinguishes this stage's op streams from every other stage's.
    pub stream_base: u64,
}

#[derive(Default)]
struct ThreadResult {
    hist: [Histogram; 6],
    scan_entries: u64,
    failed: u64,
    elapsed: Duration,
}

#[derive(Default)]
pub struct StageResult {
    /// Latency per op class, in [`OP_KINDS`] order, all threads merged.
    pub hist: [Histogram; 6],
    /// Entries delivered to scan callbacks.
    pub scan_entries: u64,
    pub failed: u64,
    /// From the common start to the last thread's last op. Rates are counts
    /// over this: the write paths slow down as a stage goes on (the default
    /// allocator's free list grows), so a stage has no steady rate to take
    /// a median of, but its count over a fixed time repeats.
    pub wall_s: f64,
    /// Growth of the map's counters over the stage.
    pub delta: Counters,
}

impl StageResult {
    /// Adds a later slice of the same stage.
    pub fn absorb(&mut self, later: StageResult) {
        for (merged, h) in self.hist.iter_mut().zip(&later.hist) {
            merged.merge(h);
        }
        self.scan_entries += later.scan_entries;
        self.failed += later.failed;
        self.wall_s += later.wall_s;
        self.delta.absorb(&later.delta);
    }

    pub fn ops(&self) -> u64 {
        self.hist.iter().map(Histogram::count).sum()
    }

    pub fn class(&self, kind: OpKind) -> &Histogram {
        &self.hist[kind as usize]
    }

    pub fn write_ops(&self) -> u64 {
        OP_KINDS
            .iter()
            .filter(|k| k.is_write())
            .map(|&k| self.class(k).count())
            .sum()
    }

    pub fn scans(&self) -> u64 {
        self.class(OpKind::ScanAsc).count() + self.class(OpKind::ScanDesc).count()
    }
}

/// A thread's write stamps: unique across threads and stages, so a torn or
/// misplaced value cannot pass for a good one.
pub struct Stamps(u64);

impl Stamps {
    pub fn new(stream: u64) -> Self {
        Stamps((stream + 1) << 40)
    }

    pub fn next(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }
}

/// The in-place 8-byte update `compute_if_present` runs: stamp += 1.
#[inline]
pub fn bump_stamp(bytes: &mut [u8]) {
    if let Some(field) = bytes.get_mut(8..VALUE_HEADER) {
        let stamp = u64::from_le_bytes((&*field).try_into().expect("8 bytes"));
        field.copy_from_slice(&stamp.wrapping_add(1).to_le_bytes());
    }
}

/// A thread's reusable buffers.
pub struct Scratch {
    pub key: [u8; KEY_LEN],
    pub value: Vec<u8>,
    pub scanned: Vec<RawEntry>,
    pub stamps: Stamps,
}

impl Scratch {
    pub fn new(stream: u64, scan_len: usize) -> Self {
        Scratch {
            key: new_key_buf(),
            value: new_value_buf(),
            scanned: Vec::with_capacity(scan_len + 1),
            stamps: Stamps::new(stream),
        }
    }
}

/// One op's outcome.
pub struct Done {
    /// The second timer read, so the stage loop needs no third.
    pub at: Instant,
    pub nanos: u64,
    /// Entries a scan delivered.
    pub entries: usize,
    /// The op returned `Err` or what came back failed its check.
    pub failed: bool,
}

/// Runs one op between two timer reads. A get's id compare sits between
/// them (one integer compare); a scan's order check runs after the second.
#[inline]
pub fn timed_op<M: Target>(map: &M, op: Op, s: &mut Scratch, scan_len: usize) -> Done {
    write_key(&mut s.key, op.id);
    if op.kind == OpKind::Put {
        stamp_value(&mut s.value, op.id, s.stamps.next());
    }
    let key = &s.key;
    let ascending = op.kind == OpKind::ScanAsc;
    let t0 = Instant::now();
    let failed = match op.kind {
        OpKind::Get => {
            let found = map.get_with(key, |v| value_header(v).map(|(id, _)| id));
            matches!(found, Some(got) if got != Some(op.id))
        }
        OpKind::Put => map.put(key, &s.value[..op.value_len]).is_err(),
        OpKind::Remove => {
            map.remove(key);
            false
        }
        OpKind::Compute => {
            map.compute_if_present(key, |w| bump_stamp(w.as_mut_slice()));
            false
        }
        OpKind::ScanAsc | OpKind::ScanDesc => {
            collect_scan(map, key, ascending, scan_len, &mut s.scanned);
            false
        }
    };
    let at = Instant::now();
    let scanned = if op.kind.is_scan() {
        s.scanned.as_slice()
    } else {
        &[]
    };
    Done {
        at,
        nanos: (at - t0).as_nanos() as u64,
        entries: scanned.len(),
        failed: failed || scanned.len() > scan_len || !in_order(scanned, key, ascending),
    }
}

fn worker<M: Target>(
    map: &M,
    spec: &StageSpec<'_>,
    thread: usize,
    start: &Barrier,
) -> ThreadResult {
    let stream = spec.stream_base + thread as u64;
    let mut ops = OpStream::new(
        spec.seed,
        stream,
        spec.mixes[thread],
        spec.dist,
        spec.value_len,
    );
    let mut scratch = Scratch::new(stream, spec.scan_len);
    let mut out = ThreadResult::default();
    start.wait();
    let begin = Instant::now();
    let end = begin + spec.duration;
    loop {
        let op = ops.next_op();
        let done = timed_op(map, op, &mut scratch, spec.scan_len);
        out.hist[op.kind as usize].record(done.nanos);
        out.scan_entries += done.entries as u64;
        out.failed += done.failed as u64;
        if done.at >= end {
            out.elapsed = done.at - begin;
            return out;
        }
    }
}

pub fn run_stage<M: Target>(map: &M, spec: &StageSpec<'_>) -> StageResult {
    let before = map.counters();
    let start = Barrier::new(THREADS);
    let results: Vec<ThreadResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let start = &start;
                scope.spawn(move || worker(map, spec, t, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a stage worker panicked"))
            .collect()
    });
    let mut stage = StageResult {
        delta: map.counters().since(&before),
        ..StageResult::default()
    };
    for r in &results {
        for (merged, h) in stage.hist.iter_mut().zip(&r.hist) {
            merged.merge(h);
        }
        stage.scan_entries += r.scan_entries;
        stage.failed += r.failed;
        stage.wall_s = stage.wall_s.max(r.elapsed.as_secs_f64());
    }
    stage
}
