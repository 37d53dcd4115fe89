//! The repository benchmark. See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The line before
//! it holds the host fingerprint and run details. The exit code is 1 when a
//! correctness check failed and 2 on bad arguments.

mod data;
mod frame;
mod host;
mod prequential;
mod report;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use host::{CpuTicks, Host};
use prequential::{Shape, Spec};
use report::Report;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = [
    "agrawal-prequential",
    "hyperplane-prequential",
    "serve-mixed",
];

/// End-to-end metrics `(name, unit)`, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("learn_inst_per_s", "1/s"),
    ("predict_p50_us", "us"),
    ("accuracy", "ratio"),
    ("success_rate", "ratio"),
];

/// Metrics a user sees that spread too widely across seeds or runs to carry
/// a bound (see README.md). The traced run prints them with the end-to-end
/// metrics, as a `traced.` and an `untraced.` copy each.
pub const UNBOUNDED: [(&str, &str); 4] = [
    ("predict_inst_per_s", "1/s"),
    ("predict_p99_us", "us"),
    ("final_splits", "count"),
    ("model_bytes", "bytes"),
];

/// Per-layer metrics `(name, unit)`, printed with `--trace 1` besides the
/// `traced.` and `untraced.` copies. A layer a workload does not reach
/// reads 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("stream.generate_s", "s"),
    ("tree.learn_batch_us.p50", "us"),
    ("tree.learn_batch_us.p99", "us"),
    ("tree.learn_share", "ratio"),
    ("node.candidates_stored", "count"),
    ("tree.decisions", "count"),
    ("tree.predict_batch_us.p50", "us"),
    ("tree.predict_batch_us.p99", "us"),
    ("arena.descent_steps", "count"),
    ("arena.leaves", "count"),
    ("arena.depth", "count"),
    ("epoch.publish_us.p50", "us"),
    ("epoch.publish_us.p99", "us"),
    ("epoch.pin_us.p50", "us"),
    ("epoch.published", "count"),
    ("epoch.live_max", "count"),
    ("registry.predict_us.p50", "us"),
    ("registry.predict_us.p99", "us"),
    ("registry.learn_us.p50", "us"),
    ("registry.learn_us.p99", "us"),
    ("protocol.frame_open_us.p50", "us"),
    ("protocol.frame_seal_us.p50", "us"),
    ("protocol.request_decode_us.p50", "us"),
    ("protocol.response_encode_us.p50", "us"),
    ("protocol.request_bytes", "bytes"),
    ("protocol.response_bytes", "bytes"),
    ("serve.transport_us.p50", "us"),
    ("serve.predict_sent", "count"),
    ("serve.predict_failed", "count"),
    ("serve.learn_sent", "count"),
    ("serve.learn_failed", "count"),
    ("host.available_parallelism", "count"),
    ("host.steal_share", "ratio"),
];

/// The end-to-end values one kind of measurement (plain or traced) gave.
pub struct E2e {
    /// Rows learned per second.
    pub learn_inst_per_s: f64,
    /// Rows predicted per second.
    pub predict_inst_per_s: f64,
    /// Median latency of one predict call as its caller sees it.
    pub predict_p50_us: f64,
    /// Tail latency of one predict call (p99, or the highest percentile the
    /// sample supports).
    pub predict_p99_us: f64,
    /// Share of predictions equal to the label.
    pub accuracy: f64,
    /// Splits of the final model, as the paper counts them.
    pub final_splits: f64,
    /// Resident heap bytes of the final model.
    pub model_bytes: f64,
}

impl E2e {
    fn put(&self, report: &mut Report, prefix: &str) {
        for (name, value) in [
            ("learn_inst_per_s", self.learn_inst_per_s),
            ("predict_inst_per_s", self.predict_inst_per_s),
            ("predict_p50_us", self.predict_p50_us),
            ("predict_p99_us", self.predict_p99_us),
            ("accuracy", self.accuracy),
            ("final_splits", self.final_splits),
            ("model_bytes", self.model_bytes),
        ] {
            report.set(format!("{prefix}{name}"), value);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} is outside (0, 120]"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args, report: &mut Report) -> [E2e; 2] {
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "agrawal-prequential" => {
            let spec = Spec {
                stream: "Agrawal",
                scale: 1.0,
                batch: 1_000,
                shape: Shape::MinDepth(4),
                min_accuracy: 0.8,
            };
            prequential::run(&spec, seed, seconds, trace, report)
        }
        "hyperplane-prequential" => {
            let spec = Spec {
                stream: "Hyperplane",
                scale: 1.0,
                batch: 500,
                shape: Shape::SingleLeaf,
                min_accuracy: 0.8,
            };
            prequential::run(&spec, seed, seconds, trace, report)
        }
        "serve-mixed" => serve::run(seed, seconds, trace, report),
        other => unreachable!("workload {other} was validated"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    let ticks = CpuTicks::now();
    let started = Instant::now();
    let mut report = Report::default();
    let [plain, traced] = run(&args, &mut report);
    let steal = match (ticks, CpuTicks::now()) {
        (Some(before), Some(after)) => after.steal_share_since(&before),
        _ => 0.0,
    };

    let setup_s = report.metrics["setup_s"];
    if args.trace {
        plain.put(&mut report, "untraced.");
        traced.put(&mut report, "traced.");
        report.set("host.available_parallelism", host.cores as f64);
        report.set("host.steal_share", steal);
    } else {
        plain.put(&mut report, "");
    }
    // Non-finite values cannot be printed as JSON; they fail the run.
    let names = metric_names(args.trace);
    for (name, _) in &names {
        let value = report.metrics.get(name.as_str()).copied().unwrap_or(0.0);
        report.check(value.is_finite(), || format!("metric {name} is {value}"));
    }
    let success_rate = report.success_rate();
    for prefix in prefixes(args.trace) {
        report.set(format!("{prefix}setup_s"), setup_s);
        report.set(format!("{prefix}success_rate"), success_rate);
    }

    for failure in &report.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!("{}", details(&args, &host, steal, started, &report));
    println!("{}", result_line(&report, &names));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn prefixes(trace: bool) -> &'static [&'static str] {
    if trace {
        &["untraced.", "traced."]
    } else {
        &[""]
    }
}

/// `(name, unit)` of every metric the mode prints, in order.
pub fn metric_names(trace: bool) -> Vec<(String, &'static str)> {
    if !trace {
        return END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
    }
    let mut names: Vec<(String, &str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for prefix in prefixes(true) {
        let shown = END_TO_END.iter().chain(&UNBOUNDED);
        names.extend(shown.map(|&(n, u)| (format!("{prefix}{n}"), u)));
    }
    names
}

fn result_line(report: &Report, names: &[(String, &str)]) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = report.metrics.get(name.as_str()).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {value:?}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed
    )
}

fn details(args: &Args, host: &Host, steal: f64, started: Instant, report: &Report) -> String {
    let mut notes = String::new();
    for (key, value) in &report.notes {
        let _ = write!(notes, ", {}: {}", json_str(key), json_str(value));
    }
    let printed = metric_names(args.trace);
    let mut others = String::new();
    for (name, value) in &report.metrics {
        if value.is_finite() && !printed.iter().any(|(n, _)| n == name) {
            let sep = if others.is_empty() { "" } else { ", " };
            let _ = write!(others, "{sep}{}: {value:?}", json_str(name));
        }
    }
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"wall_s\": {:?}, \
         \"host\": {{\"available_parallelism\": {}, \"cpu_model\": {}, \"rustc\": {}, \
         \"steal_share\": {steal:?}}}, \"notes\": {{\"failures\": {}{notes}}}, \
         \"other_metrics\": {{{others}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        started.elapsed().as_secs_f64(),
        host.cores,
        json_str(&host.cpu_model),
        json_str(&host.rustc),
        report.failures.len(),
    )
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    /// `BENCHMARK.json` and the tables above name the same workloads and
    /// metrics, with the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "metric {name} ({unit})");
        }
        for prefix in ["traced.", "untraced."] {
            for (name, unit) in END_TO_END.iter().chain(&UNBOUNDED) {
                let entry = format!("\"name\": \"{prefix}{name}\", \"unit\": \"{unit}\"");
                assert!(json.contains(&entry), "metric {prefix}{name}");
            }
        }
        let entries = json.matches("\"unit\":").count();
        let shown = END_TO_END.len() + UNBOUNDED.len();
        assert_eq!(entries, END_TO_END.len() + 2 * shown + PER_LAYER.len());
    }
}
