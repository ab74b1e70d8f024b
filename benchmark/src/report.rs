//! Metrics, the machine descriptor, and the JSON the benchmark prints.
//! Hand-written JSON: the sandbox has no serde.

use std::fmt::Write as _;

/// The library crates are built against the std-only stand-ins under
/// `stand-ins/` (see `[patch.crates-io]` in Cargo.toml). Numbers measured
/// with the stand-ins are never compared with numbers measured with the
/// registry crates; change this when the patch section is removed.
pub const DEPS: &str = "stand-in";

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Ops, spans or entries the value was computed from (0 = a reading).
    pub samples: u64,
    /// The stage or probe the value came from.
    pub source: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric {
            name,
            unit,
            // JSON has no NaN or infinity; a metric without samples reads 0.
            value: if value.is_finite() { value } else { 0.0 },
            samples: 0,
            source: "",
        }
    }

    pub fn samples(mut self, samples: u64) -> Self {
        self.samples = samples;
        self
    }

    pub fn source(mut self, source: &'static str) -> Self {
        self.source = source;
        self
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}`, the shape the driver reads,
/// with names prefixed by `prefix`; `detail` adds each metric's sample count
/// and source for the report file. Values print with all their digits.
pub fn metrics_json(metrics: &[Metric], prefix: &str, detail: bool) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let mut field = format!(
                "{}: {{\"value\": {}, \"unit\": {}",
                json_string(&format!("{prefix}{}", m.name)),
                m.value,
                json_string(m.unit)
            );
            if detail {
                write!(
                    field,
                    ", \"samples\": {}, \"source\": {}",
                    m.samples,
                    json_string(m.source)
                )
                .expect("write to String");
            }
            field + "}"
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("  {title}");
    for m in metrics {
        println!(
            "    {:<34} {:>16.3} {:<10} n={:<9} {}",
            m.name, m.value, m.unit, m.samples, m.source
        );
    }
}

fn first_line_with(path: &str, prefix: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(prefix))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Where the numbers were measured, as a JSON object. A result from a
/// 2-core sandbox is never compared with one from another machine.
pub fn machine_descriptor(threads: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let unknown = || "unknown".to_string();
    let cpu = first_line_with("/proc/cpuinfo", "model name").unwrap_or_else(unknown);
    let mem_kb = first_line_with("/proc/meminfo", "MemTotal")
        .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
        .unwrap_or(0);
    let governor = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .map_or_else(|_| unknown(), |s| s.trim().to_string());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(unknown);
    // The driver's checkout is not a git repository; run.sh passes the
    // commit through the environment when it can find one.
    let commit = std::env::var("OAK_BENCH_COMMIT")
        .ok()
        .filter(|s| !s.is_empty())
        .unwrap_or_else(unknown);
    format!(
        "{{\"nproc\": {nproc}, \"available_parallelism\": {nproc}, \"threads\": {threads}, \
         \"oversubscribed\": {}, \"cpu_model\": {}, \"governor\": {}, \"mem_total_mb\": {}, \
         \"rustc\": {}, \"commit\": {}, \"deps\": {}}}",
        nproc < threads,
        json_string(&cpu),
        json_string(&governor),
        mem_kb / 1024,
        json_string(&rustc),
        json_string(&commit),
        json_string(DEPS)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn values_keep_their_digits_and_nan_reads_zero() {
        let m = [
            Metric::new("a", "ns", 1234.567890123),
            Metric::new("b", "s", f64::NAN),
        ];
        assert_eq!(
            metrics_json(&m, "w/", false),
            "{\"w/a\": {\"value\": 1234.567890123, \"unit\": \"ns\"}, \
             \"w/b\": {\"value\": 0, \"unit\": \"s\"}}"
        );
        assert_eq!(
            metrics_json(&m[..1], "", true),
            "{\"a\": {\"value\": 1234.567890123, \"unit\": \"ns\", \"samples\": 0, \"source\": \"\"}}"
        );
    }
}
