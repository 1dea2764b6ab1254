//! End-to-end and per-layer benchmark of the deflation cluster simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-out <path>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: repeated
//! `run_cluster_replay` runs on arrivals generated from `--seed`, for at
//! least `--seconds`, with host times scaled to a reference host speed
//! (see `reference.rs`). `--trace 1` is the separate traced run that splits
//! host time across layers and reads the program's counters. Either way
//! the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A failed output or regime check prints `CHECK FAILED` lines, reports
//! `correct: false` with every operation failed, and exits with code 1.
//! See `perfbench/README.md` for the workloads and metrics.

mod measure;
mod reference;
mod traced;
mod workload;

use std::path::PathBuf;

use simkit::JsonValue;

use crate::workload::Workload;

const USAGE: &str = "usage: perfbench --workload <overcommit-100|light-4k|sharded-10k|chaos-100> \
                     --seed <n> --seconds <s> --trace <0|1> [--spans-out <path>]";

/// What one benchmark process measured and checked.
#[derive(Default)]
pub struct Report {
    /// Offered arrivals over every simulation the process ran.
    pub attempted: u64,
    /// Failed checks; any one fails every operation of the run.
    pub failures: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Median of a non-empty sample; sorts it in place.
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        spans_out,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let w = args.workload;
    let report = if args.trace {
        let spans_out = args.spans_out.unwrap_or_else(|| {
            PathBuf::from(format!(
                "perfbench/out/spans-{}-{}.json",
                w.name(),
                args.seed
            ))
        });
        traced::run(w, args.seed, args.seconds, &spans_out)
    } else {
        measure::run(w, args.seed, args.seconds)
    };
    for f in &report.failures {
        println!("CHECK FAILED: {f}");
        eprintln!("CHECK FAILED: {f}");
    }
    let correct = report.failures.is_empty();
    let mut metrics = JsonValue::object();
    for &(name, value, unit) in &report.metrics {
        metrics.set(
            name,
            JsonValue::object().with("value", value).with("unit", unit),
        );
    }
    let out = JsonValue::object()
        .with("correct", correct)
        .with("attempted", report.attempted)
        .with("failed", if correct { 0 } else { report.attempted })
        .with("metrics", metrics);
    println!("{out}");
    if !correct {
        std::process::exit(1);
    }
}
