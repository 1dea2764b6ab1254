//! The measured (untraced) run: repeated `run_cluster_replay` runs on
//! the generated arrivals with set-up timed between them, every timed
//! interval scaled by the reference kernel around it, and the end-to-end
//! metrics.

use std::time::Instant;

use cluster::{run_cluster_replay, ClusterSimConfig, ClusterSimResult, VmRequest};

use crate::reference;
use crate::workload::{fingerprint, generate, Workload};
use crate::{median, Report};

/// Set-ups timed before each measured simulation run. Spreading them
/// across the whole run, between the simulations, makes `setup_s` sample
/// the same host conditions as `arrivals_per_s` instead of one short
/// window at the start.
const SETUPS_PER_RUN: usize = 10;
/// Set-ups timed by the traced run, which reports only their median.
pub const TRACED_SETUPS: usize = 21;
/// Fewest measured simulation runs per process, whatever `--seconds` says.
const MIN_RUNS: usize = 3;

/// The inputs of one process and the wall times of building them.
pub struct Setup {
    pub cfg: ClusterSimConfig,
    pub reqs: Vec<VmRequest>,
    /// Wall time of each config build + input generation.
    pub totals: Vec<f64>,
    /// Wall time of each `TraceGenerator::generate_until` alone.
    pub gens: Vec<f64>,
    /// Whether every set-up generated the same arrivals as the first.
    pub inputs_repeat: bool,
}

impl Setup {
    /// Builds the config and generates the arrivals `reps` times, timing
    /// each; keeps the first inputs.
    pub fn new(w: Workload, seed: u64, reps: usize) -> Setup {
        let (cfg, reqs, total, gen) = setup_once(w, seed);
        let mut s = Setup {
            cfg,
            reqs,
            totals: vec![total],
            gens: vec![gen],
            inputs_repeat: true,
        };
        s.retime(w, seed, reps.saturating_sub(1));
        s
    }

    /// Times `reps` more set-ups, checking that each generates the
    /// same arrivals as the first.
    pub fn retime(&mut self, w: Workload, seed: u64, reps: usize) {
        for _ in 0..reps {
            let (_, reqs, total, gen) = setup_once(w, seed);
            self.inputs_repeat &= same_inputs(&reqs, &self.reqs);
            self.totals.push(total);
            self.gens.push(gen);
        }
    }

    /// The failed check, if a set-up generated different arrivals.
    pub fn check(&self, w: Workload, seed: u64) -> Option<String> {
        (!self.inputs_repeat)
            .then(|| format!("{}: seed {seed} generated different inputs", w.name()))
    }
}

/// Whether two generated traces are the same requests in the same order.
fn same_inputs(a: &[VmRequest], b: &[VmRequest]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.id == y.id
                && x.arrival == y.arrival
                && x.lifetime == y.lifetime
                && x.spec == y.spec
                && x.type_name == y.type_name
                && x.low_priority == y.low_priority
                && x.min_size == y.min_size
        })
}

/// One config build and input generation, with the wall time of both
/// and of the generation alone.
fn setup_once(w: Workload, seed: u64) -> (ClusterSimConfig, Vec<VmRequest>, f64, f64) {
    let t0 = Instant::now();
    let cfg = w.config(seed);
    let t1 = Instant::now();
    let reqs = generate(&cfg);
    let t2 = Instant::now();
    (cfg, reqs, (t2 - t0).as_secs_f64(), (t2 - t1).as_secs_f64())
}

/// Times one `run_cluster_replay` on a copy of the inputs; the copy is
/// made outside the timed interval and the result dropped after it.
pub fn timed_replay(cfg: &ClusterSimConfig, reqs: &[VmRequest]) -> (f64, ClusterSimResult) {
    let input = reqs.to_vec();
    let t = Instant::now();
    let r = run_cluster_replay(cfg, input);
    (t.elapsed().as_secs_f64(), r)
}

pub fn run(w: Workload, seed: u64, seconds: f64) -> Report {
    // Every timed interval sits between two runs of the reference kernel
    // and is scaled by their mean: `kernel` is the run just before it.
    let mut kernel = reference::time_kernel();
    let mut kernels = vec![kernel];
    let mut s = Setup::new(w, seed, SETUPS_PER_RUN);
    let mut setups = Vec::new();
    let n = s.reqs.len();
    let mut report = Report::default();
    let start = Instant::now();
    let mut rates = Vec::new();
    let mut raw_rates = Vec::new();
    let mut prints: Vec<String> = Vec::new();
    let mut first: Option<ClusterSimResult> = None;
    let mut reset = true;
    let mut peak_rss = None;
    loop {
        let after = reference::time_kernel();
        kernels.push(after);
        let batch = &s.totals[s.totals.len() - SETUPS_PER_RUN..];
        setups.extend(batch.iter().map(|&t| reference::scale(t, kernel, after)));
        kernel = after;
        // Peak RSS is taken over the first run alone: later runs in the
        // same process inherit whatever the allocator kept from earlier
        // ones, and the kernel's own memory is freed before the reset.
        if first.is_none() {
            reset = reset_peak_rss();
        }
        let (wall, r) = timed_replay(&s.cfg, &s.reqs);
        let after = reference::time_kernel();
        kernels.push(after);
        rates.push(n as f64 / reference::scale(wall, kernel, after));
        raw_rates.push(n as f64 / wall);
        kernel = after;
        prints.push(fingerprint(&r));
        report.attempted += n as u64;
        if first.is_none() {
            peak_rss = peak_rss_bytes();
            report.failures.extend(w.check(&r, n));
            first = Some(r);
        }
        if rates.len() >= MIN_RUNS && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        s.retime(w, seed, SETUPS_PER_RUN);
    }
    let r = first.expect("at least MIN_RUNS runs");
    report.failures.extend(s.check(w, seed));
    if prints.iter().any(|p| *p != prints[0]) {
        report
            .failures
            .push(format!("{}: runs disagree: {prints:?}", w.name()));
    }
    println!(
        "{} seed {seed}: fingerprint {} over {} runs of {n} arrivals",
        w.name(),
        prints[0],
        prints.len()
    );
    println!("arrivals_per_ref_s by run: {rates:.0?}");
    println!("unscaled arrivals_per_s by run: {raw_rates:.0?}");
    println!(
        "unscaled medians: arrivals_per_s {:.1}, setup_s {:.6}; reference kernel {:.4} s over {} runs",
        median(&mut raw_rates),
        median(&mut s.totals),
        median(&mut kernels),
        kernels.len()
    );
    println!("setup_s over {} set-ups", setups.len());
    if !reset {
        println!("cannot reset VmHWM: peak_rss_mb covers set-up too");
    }
    let peak_rss_mb = match peak_rss {
        Some(b) => b as f64 / 1e6,
        None => {
            report.failures.push("cannot read VmHWM".into());
            0.0
        }
    };
    let m = &mut report.metrics;
    m.push(("arrivals_per_ref_s", median(&mut rates), "arrivals/s"));
    m.push(("setup_s", median(&mut setups), "s"));
    m.push(("peak_rss_mb", peak_rss_mb, "MB"));
    m.push((
        "lowpri_survival",
        1.0 - r.preemption_probability,
        "fraction",
    ));
    m.push((
        "admit_rate",
        1.0 - r.stats.rejected as f64 / n as f64,
        "fraction",
    ));
    m.push(("mean_utilization", r.mean_utilization, "fraction"));
    m.push((
        "goodput_cpu_h",
        r.high_pri_cpu_hours + r.low_pri_effective_cpu_hours,
        "CPU-h",
    ));
    report
}

/// Resets this process's `VmHWM` to its current RSS (Linux
/// `clear_refs` value 5); `false` when the kernel refuses.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process (`VmHWM`), in bytes.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}
