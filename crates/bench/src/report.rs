//! summary.csv-style reporting, following the artifact appendix layout:
//!
//! ```text
//! Scenario, Bench, Heap size, Direct Mem, #Threads, Shards, Final Size, Throughput
//! ```

use std::fmt::Write as _;

use oak_mempool::PoolStats;

/// One row of the summary table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Scenario label, e.g. `4a-put`.
    pub scenario: String,
    /// Solution name, e.g. `OakMap`.
    pub bench: String,
    /// Simulated on-heap budget (bytes; 0 = unbounded).
    pub heap_bytes: u64,
    /// Off-heap budget (bytes; 0 = none).
    pub direct_bytes: u64,
    /// Worker threads.
    pub threads: usize,
    /// Shards behind the solution (1 for unsharded maps).
    pub shards: usize,
    /// Map size after ingestion.
    pub final_size: usize,
    /// Millions of operations per second (artifact unit).
    pub mops: f64,
    /// Free-form note (e.g. `OOM`).
    pub note: String,
    /// Snapshot of the solution's off-heap pool, when it has one (Oak
    /// adapters report these): contention / failure counters surfaced next
    /// to throughput, so a run that looked fast but aborted locks or
    /// dropped allocations is visible in the report.
    pub robustness: Option<PoolStats>,
}

impl Row {
    fn to_json(&self) -> String {
        let pool = match &self.robustness {
            Some(rb) => {
                let cells: Vec<String> = pool_columns(rb)
                    .map(|(name, v, _)| format!("\"{name}\": {v}"))
                    .collect();
                format!("{{{}}}", cells.join(", "))
            }
            None => "null".to_string(),
        };
        format!(
            "    {{\"scenario\": \"{}\", \"bench\": \"{}\", \"heap_bytes\": {}, \
             \"direct_bytes\": {}, \"threads\": {}, \"shards\": {}, \"final_size\": {}, \
             \"mops\": {:.6}, \"note\": \"{}\", \"robustness\": {pool}}}",
            json_escape(&self.scenario),
            json_escape(&self.bench),
            self.heap_bytes,
            self.direct_bytes,
            self.threads,
            self.shards,
            self.final_size,
            self.mops,
            json_escape(&self.note)
        )
    }
}

/// External fragmentation of the pool's free space as a rounded percentage
/// (the one derived column the exporters add to the metric table).
pub fn fragmentation_pct(s: &PoolStats) -> u64 {
    (s.fragmentation() * 100.0).round() as u64
}

/// Every exported pool column as `(name, value, incident)`: the metric
/// table in [`PoolStats::METRICS`] order, then the derived
/// `fragmentation_pct`. Hot-path traffic counters (`offheap_key_derefs`,
/// `magazine_hits`, the `scan_*` batch counters, …) carry no incident flag:
/// they are non-zero on every healthy run and belong in the CSV/JSON, not
/// the table's incident note.
fn pool_columns(s: &PoolStats) -> impl Iterator<Item = (&'static str, u64, bool)> {
    let derived = ("fragmentation_pct", fragmentation_pct(s), true);
    s.values()
        .map(|(m, v)| (m.name, v, m.incident))
        .chain([derived])
}

/// Accumulates rows and renders the CSV.
#[derive(Debug, Default)]
pub struct Summary {
    rows: Vec<Row>,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// All rows collected so far.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Renders the artifact-style CSV, extended with one column per pool
    /// metric (blank for solutions without an off-heap pool).
    pub fn to_csv(&self) -> String {
        let names: String = pool_columns(&PoolStats::default())
            .map(|(name, ..)| format!(",{name}"))
            .collect();
        let mut out = format!(
            "Scenario,Bench,Heap size,Direct Mem,#Threads,Shards,Final Size,Throughput,Note{names}\n"
        );
        for r in &self.rows {
            let pool: String = match &r.robustness {
                Some(rb) => pool_columns(rb).map(|(_, v, _)| format!(",{v}")).collect(),
                None => pool_columns(&PoolStats::default()).map(|_| ",").collect(),
            };
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{:.6},{}{pool}",
                r.scenario,
                r.bench,
                human_bytes(r.heap_bytes),
                human_bytes(r.direct_bytes),
                r.threads,
                r.shards,
                r.final_size,
                r.mops,
                r.note
            );
        }
        out
    }

    /// Renders the machine-readable JSON report: one object per row with
    /// scenario → throughput plus every pool metric under its `PoolStats`
    /// field name, and the exact command that produced the run (so a
    /// checked-in baseline documents how to regenerate it). Hand-rolled —
    /// the workspace deliberately has no serde dependency.
    pub fn to_json(&self, command: &str) -> String {
        let rows: Vec<String> = self.rows.iter().map(Row::to_json).collect();
        format!(
            "{{\n  \"command\": \"{}\",\n  \"rows\": [\n{}\n  ]\n}}\n",
            json_escape(command),
            rows.join(",\n")
        )
    }

    /// Renders an aligned table for the terminal.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "{:<28} {:<16} {:>9} {:>9} {:>8} {:>7} {:>11} {:>12}  Note\n",
            "Scenario", "Bench", "Heap", "DirectMem", "Threads", "Shards", "FinalSize", "Mops/s"
        );
        for r in &self.rows {
            // Contention details only when something actually went wrong:
            // the common all-zero case stays quiet.
            let mut note = r.note.clone();
            let fired: Vec<String> = r
                .robustness
                .iter()
                .flat_map(pool_columns)
                .filter(|&(_, v, incident)| incident && v != 0)
                .map(|(name, v, _)| format!("{name}={v}"))
                .collect();
            if !fired.is_empty() {
                if !note.is_empty() {
                    note.push(' ');
                }
                let _ = write!(note, "[{}]", fired.join(" "));
            }
            let _ = writeln!(
                out,
                "{:<28} {:<16} {:>9} {:>9} {:>8} {:>7} {:>11} {:>12.4}  {}",
                r.scenario,
                r.bench,
                human_bytes(r.heap_bytes),
                human_bytes(r.direct_bytes),
                r.threads,
                r.shards,
                r.final_size,
                r.mops,
                note
            );
        }
        out
    }
}

/// Minimal JSON string escaping for the report's controlled label/note
/// strings (quotes, backslashes, control characters).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a byte count the way the artifact's config does (`12g`, `100m`).
pub fn human_bytes(b: u64) -> String {
    if b == 0 {
        "0".to_string()
    } else if b.is_multiple_of(1 << 30) {
        format!("{}g", b >> 30)
    } else if b.is_multiple_of(1 << 20) {
        format!("{}m", b >> 20)
    } else {
        format!("{b}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(bench: &str, robustness: Option<PoolStats>) -> Row {
        Row {
            scenario: "4a-put".into(),
            bench: bench.into(),
            heap_bytes: 12 << 30,
            direct_bytes: 20 << 30,
            threads: 4,
            shards: 1,
            final_size: 10_000_000,
            mops: 1.5,
            note: String::new(),
            robustness,
        }
    }

    #[test]
    fn csv_layout() {
        let mut s = Summary::new();
        s.push(row("OakMap", None));
        let csv = s.to_csv();
        assert!(csv.starts_with("Scenario,Bench,"));
        assert!(csv.contains("#Threads,Shards,Final Size"));
        assert!(csv.contains("4a-put,OakMap,12g,20g,4,1,10000000,1.500000,"));
        assert!(s.to_table().contains("OakMap"));
    }

    #[test]
    fn every_metric_is_exported_once_under_its_own_name() {
        // Field i of the metric table carries i + 1, so a value landing in
        // a neighbour's column or key cannot go unnoticed.
        let stats = PoolStats::from_fn(|i| i as u64 + 1);
        let mut s = Summary::new();
        s.push(row("OakMap", Some(stats)));
        s.push(row("JavaSkipListMap", None));

        let csv = s.to_csv();
        let lines: Vec<Vec<&str>> = csv.lines().map(|l| l.split(',').collect()).collect();
        let [header, with, without] = &lines[..] else {
            panic!("header and two rows expected:\n{csv}");
        };
        assert_eq!(with.len(), header.len());
        assert_eq!(without.len(), header.len(), "poolless row lost cells");
        assert_eq!(header.last(), Some(&"fragmentation_pct"));
        let json = s.to_json("synchrobench --quick --json out.json");
        assert_eq!(json.matches("\"fragmentation_pct\": ").count(), 1);
        // Every incident row that fired (and no other) reaches the note.
        let table = s.to_table();
        let note = &table[table.find('[').unwrap() + 1..table.find(']').unwrap()];
        for (i, m) in PoolStats::METRICS.iter().enumerate() {
            let cols: Vec<usize> = (0..header.len()).filter(|&c| header[c] == m.name).collect();
            assert_eq!(cols.len(), 1, "{} in the CSV header", m.name);
            assert_eq!(with[cols[0]], (i + 1).to_string(), "{} CSV cell", m.name);
            assert_eq!(without[cols[0]], "", "{} blank without a pool", m.name);
            let key = format!("\"{}\": ", m.name);
            assert_eq!(json.matches(&key).count(), 1, "{} as a JSON key", m.name);
            assert!(json.contains(&format!("{key}{}", i + 1)), "{} JSON", m.name);
            let cell = format!("{}={}", m.name, i + 1);
            assert_eq!(note.split(' ').any(|c| c == cell), m.incident, "{cell}");
        }

        assert!(json.contains("\"command\": \"synchrobench --quick --json out.json\""));
        assert!(json.contains("\"mops\": 1.500000"));
        assert!(json.contains("\"robustness\": null"));
        // Balanced braces/brackets: crude but effective shape check for a
        // hand-rolled encoder.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn checked_in_baseline_has_the_current_robustness_keys() {
        // CI compares fresh runs with BENCH_synchrobench.json; the file must
        // be regenerated when the metric table changes, not go stale.
        let baseline = include_str!("../../../BENCH_synchrobench.json");
        let want: Vec<&str> = pool_columns(&PoolStats::default())
            .map(|(name, ..)| name)
            .collect();
        let objects: Vec<&str> = baseline
            .split("\"robustness\": {")
            .skip(1)
            .map(|rest| &rest[..rest.find('}').expect("object closes")])
            .collect();
        assert!(!objects.is_empty(), "no row with pool counters");
        for object in objects {
            let keys: Vec<&str> = object
                .split(", ")
                .map(|cell| cell.split(':').next().expect("key").trim_matches('"'))
                .collect();
            assert_eq!(keys, want, "regenerate BENCH_synchrobench.json");
        }
    }

    #[test]
    fn hot_path_counters_alone_stay_out_of_the_table_note() {
        // A healthy run (only traffic counters non-zero) prints no
        // incident bracket, but the counters are in the CSV.
        let traffic = |i: usize| {
            if PoolStats::METRICS[i].incident {
                0
            } else {
                12345
            }
        };
        let mut s = Summary::new();
        s.push(row("OakMap", Some(PoolStats::from_fn(traffic))));
        assert!(!s.to_table().contains('['));
        assert!(s.to_csv().contains(",12345,"));
    }

    #[test]
    fn json_escapes_strings() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn human_bytes_formats() {
        assert_eq!(human_bytes(0), "0");
        assert_eq!(human_bytes(1 << 30), "1g");
        assert_eq!(human_bytes(100 << 20), "100m");
        assert_eq!(human_bytes(1234), "1234");
    }
}
