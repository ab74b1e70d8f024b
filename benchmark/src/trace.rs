//! Outside-in tracing: one span around every call the benchmark makes into
//! a layer's `pub` functions. Spans stay in memory and are written out as
//! JSON lines when the workload ends. Nothing inside the library crates is
//! instrumented, so an op span has no library children; the tree is
//! `stage -> call`, and a stage's self time is what the harness itself
//! spent (key generation, checks, span bookkeeping).

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::hist::Histogram;

/// Layer = module of the system under test (plus the harness itself).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Harness,
    Mempool,
    Value,
    Core,
    Iter,
    Sharded,
    Durable,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Mempool => "mempool",
            Layer::Value => "value",
            Layer::Core => "core",
            Layer::Iter => "iter",
            Layer::Sharded => "sharded",
            Layer::Durable => "durable",
        }
    }
}

/// "No span": the parent of a root span.
pub const NO_SPAN: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    /// The function called, with the outcome where the benchmark splits on
    /// it (`get_with.hit`, `put.new`).
    pub func: &'static str,
    /// Spans of one generated op share an id.
    pub op_id: u32,
    /// Index of the span that caused this one, or [`NO_SPAN`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// The open stage span new call spans hang under.
    stage: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stage: NO_SPAN,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a stage span; calls recorded until [`end_stage`] are its
    /// children. Stages do not nest.
    pub fn begin_stage(&mut self, func: &'static str) {
        assert_eq!(self.stage, NO_SPAN, "stages do not nest");
        self.stage = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            layer: Layer::Harness,
            func,
            op_id: 0,
            parent: NO_SPAN,
            start_ns: now,
            end_ns: now,
        });
    }

    /// Closes the open stage.
    pub fn end_stage(&mut self) {
        self.spans[self.stage as usize].end_ns = self.now_ns();
        self.stage = NO_SPAN;
    }

    /// Seconds since the open stage began.
    pub fn stage_elapsed_s(&self) -> f64 {
        (self.now_ns() - self.spans[self.stage as usize].start_ns) as f64 / 1e9
    }

    /// Runs `f` under a span.
    #[inline]
    pub fn call<R>(
        &mut self,
        layer: Layer,
        func: &'static str,
        op_id: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        let start_ns = (start - self.origin).as_nanos() as u64;
        let end_ns = (end - self.origin).as_nanos() as u64;
        self.spans.push(Span {
            layer,
            func,
            op_id,
            parent: self.stage,
            start_ns,
            end_ns,
        });
        result
    }

    /// Renames the last recorded span, for outcomes known only after the
    /// call returns.
    pub fn relabel_last(&mut self, func: &'static str) {
        if let Some(last) = self.spans.last_mut() {
            last.func = func;
        }
    }

    /// Durations of the spans named `(layer, func)` recorded under a stage
    /// whose name starts with `stage_prefix`.
    pub fn durations(&self, stage_prefix: &str, layer: Layer, func: &str) -> Histogram {
        let in_stage = |s: &Span| {
            s.parent != NO_SPAN && self.spans[s.parent as usize].func.starts_with(stage_prefix)
        };
        let mut h = Histogram::default();
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.func == func && in_stage(s))
            .for_each(|s| h.record(s.duration_ns()));
        h
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = std::fs::File::create(path)?;
        let mut out = BufWriter::new(&file);
        for s in &self.spans {
            write!(
                out,
                "{{\"layer\":\"{}\",\"fn\":\"{}\",\"op_id\":{},\"parent\":",
                s.layer.name(),
                s.func,
                s.op_id
            )?;
            match s.parent {
                NO_SPAN => write!(out, "null")?,
                p => write!(out, "{p}")?,
            }
            writeln!(
                out,
                ",\"start_ns\":{},\"end_ns\":{}}}",
                s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        drop(out);
        // Tens of megabytes: have them written back now, inside this run,
        // not by the kernel in the middle of whatever is measured next.
        file.sync_all()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_SPAN {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if lo < hi {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// One row of the per-layer table.
pub struct LayerRow {
    pub layer: Layer,
    pub func: &'static str,
    pub count: u64,
    pub p50_ns: f64,
    pub p99_ns: f64,
    /// Median self time; equals `p50_ns` for spans without children.
    pub self_p50_ns: f64,
    /// Sum of self times, in milliseconds.
    pub self_total_ms: f64,
}

/// Spans grouped by `(layer, fn)`, in layer order.
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let selfs = self_times(spans);
    let mut groups: std::collections::BTreeMap<(Layer, &'static str), (Histogram, Histogram)> =
        Default::default();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        let (dur, slf) = groups.entry((s.layer, s.func)).or_default();
        dur.record(s.duration_ns());
        slf.record(self_ns);
    }
    groups
        .into_iter()
        .map(|((layer, func), (dur, slf))| LayerRow {
            layer,
            func,
            count: dur.count(),
            p50_ns: dur.quantile(0.5),
            p99_ns: dur.quantile(0.99),
            self_p50_ns: slf.quantile(0.5),
            self_total_ms: slf.sum() as f64 / 1e6,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer: Layer::Core,
            func: "f",
            op_id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span(NO_SPAN, 0, 100),   // 0: root
            span(0, 10, 30),         // 1: child of root
            span(0, 20, 50),         // 2: overlaps span 1 -> union is [10, 50)
            span(0, 60, 70),         // 3: disjoint child
            span(2, 25, 45),         // 4: grandchild, charged to span 2 only
            span(0, 90, 120),        // 5: sticks out of the root -> clipped to [90, 100)
            span(NO_SPAN, 200, 260), // 6: second root, no children
        ];
        let selfs = self_times(&spans);
        // root: 100 - (40 + 10 + 10)
        assert_eq!(selfs[0], 40);
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[2], 30 - 20);
        assert_eq!(selfs[3], 10);
        assert_eq!(selfs[4], 20);
        assert_eq!(selfs[5], 30);
        assert_eq!(selfs[6], 60);
    }

    #[test]
    fn the_tracer_nests_calls_under_the_open_stage() {
        let mut t = Tracer::new();
        t.begin_stage("stage");
        let v = t.call(Layer::Core, "get_with", 7, || 41 + 1);
        t.relabel_last("get_with.hit");
        t.end_stage();
        t.call(Layer::Durable, "open", 8, || ());
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (NO_SPAN, 0, NO_SPAN)
        );
        assert_eq!(s[1].func, "get_with.hit");
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let rows = layer_table(s);
        assert_eq!(rows.len(), 3);
        assert_eq!(t.durations("stage", Layer::Core, "get_with.hit").count(), 1);
        assert_eq!(t.durations("other", Layer::Core, "get_with.hit").count(), 0);
        assert_eq!(t.durations("stage", Layer::Durable, "open").count(), 0);
    }
}
