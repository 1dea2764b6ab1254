//! The traced run: per-layer host time and the program's deterministic
//! counters.
//!
//! On the replayable workloads (`overcommit-100`, `light-4k`) the same
//! arrivals are fed through the benchmark's own `simkit::Scheduler` loop,
//! which calls `ClusterManager::launch` and `exit` and records a span
//! around each call. A shadow `PlacementIndex`, refreshed from every
//! server a launch or exit touches, answers the same placement query the
//! manager is about to make, so the query's cost can be timed from
//! outside. Every workload also runs outside ablations (trace off, and on
//! `sharded-10k` one thread and one cell) through `run_cluster_replay`,
//! and reads its counters from the run summary.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use cluster::{
    AvailabilityMode, ClusterManager, ClusterSimConfig, ClusterSimResult, ClusterStats,
    LaunchOutcome, PlacementIndex, ShardingConfig, VmRequest,
};
use deflate_core::VmId;
use simkit::{run_until, JsonValue, Scheduler, SimRng, SimTime};

use crate::measure::{timed_replay, Setup, TRACED_SETUPS};
use crate::workload::{counter, fingerprint, over_cells, path, Workload};
use crate::{median, Report};

/// Root spans (one per event) written to the span dump; the aggregate
/// covers every span.
const SPAN_DUMP_ROOTS: usize = 500;

/// What the timed calls are, in the order their metrics are printed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    LaunchFree,
    LaunchDeflate,
    LaunchPreempt,
    LaunchReject,
    ExitPlain,
    ExitReinflate,
    Choose,
}

const LAYERS: [Layer; 7] = [
    Layer::LaunchFree,
    Layer::LaunchDeflate,
    Layer::LaunchPreempt,
    Layer::LaunchReject,
    Layer::ExitPlain,
    Layer::ExitReinflate,
    Layer::Choose,
];

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::LaunchFree => "manager.launch.free",
            Layer::LaunchDeflate => "manager.launch.deflate",
            Layer::LaunchPreempt => "manager.launch.preempt",
            Layer::LaunchReject => "manager.launch.reject",
            Layer::ExitPlain => "manager.exit.plain",
            Layer::ExitReinflate => "manager.exit.reinflate",
            Layer::Choose => "placement_index.choose",
        }
    }

    /// Classifies a launch by its outcome and the counters it moved.
    fn of_launch(out: &LaunchOutcome, before: &ClusterStats, after: &ClusterStats) -> Layer {
        match out {
            LaunchOutcome::Rejected => Layer::LaunchReject,
            LaunchOutcome::Placed { preempted, .. } if !preempted.is_empty() => {
                Layer::LaunchPreempt
            }
            _ if after.deflations > before.deflations => Layer::LaunchDeflate,
            _ => Layer::LaunchFree,
        }
    }
}

/// One recorded interval, in nanoseconds since the traced loop started.
struct Span {
    name: &'static str,
    /// Index of the enclosing span; `None` for a root.
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory during the traced loop and written out at the
/// end, plus the per-call self times each layer's metrics come from.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Self time of every call, per layer, in nanoseconds.
    calls: [Vec<u64>; LAYERS.len()],
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            calls: Default::default(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn span(&mut self, name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> u32 {
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Opens a root span now; [`Tracer::close`] sets its end.
    fn open(&mut self, name: &'static str) -> u32 {
        let now = self.now();
        self.span(name, None, now, now)
    }

    fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now();
    }

    fn call(&mut self, layer: Layer, self_ns: u64) {
        self.calls[layer as usize].push(self_ns);
    }

    fn busy_ns(&self, layer: Layer) -> u64 {
        self.calls[layer as usize].iter().sum()
    }
}

enum Ev {
    Arrive(usize),
    Depart(VmId),
}

/// What the traced loop measured besides the spans.
struct Traced {
    tracer: Tracer,
    loop_ns: u64,
    /// Benchmark-only work inside the loop (shadow index refreshes),
    /// excluded from the event loop's busy time.
    bench_ns: u64,
    pops: u64,
    stats: ClusterStats,
    summary: JsonValue,
    run_summary_s: f64,
    drop_s: f64,
    failures: Vec<String>,
}

/// Replays `reqs` through the benchmark's own event loop. Mirrors the
/// monolithic simulator's event order exactly (departure scheduled before
/// the next arrival), so the manager ends in the same state as in
/// `run_cluster_replay`.
fn traced_loop(cfg: &ClusterSimConfig, reqs: &[VmRequest]) -> Traced {
    let horizon = SimTime::ZERO + cfg.horizon;
    let policy = cfg.manager.placement;
    let first_try = if cfg.manager.deflation_enabled {
        AvailabilityMode::Deflation
    } else {
        AvailabilityMode::PreemptionOnly
    };
    let mut manager = ClusterManager::new(cfg.manager.clone());
    let mut shadow = PlacementIndex::new(manager.servers());
    // Only TwoChoices draws from the RNG; the shadow's stream never
    // reaches the manager.
    let mut rng = SimRng::seed_from_u64(cfg.manager.seed);
    let mut tracer = Tracer::new();
    let mut bench_ns = 0u64;
    let mut sched: Scheduler<Ev> = Scheduler::new();
    if let Some(first) = reqs.first() {
        sched.at(first.arrival, Ev::Arrive(0));
    }
    let loop_start = tracer.now();
    run_until(&mut sched, horizon, |sched, now, ev| {
        let root = tracer.open(match ev {
            Ev::Arrive(_) => "simkit.event.arrive",
            Ev::Depart(_) => "simkit.event.depart",
        });
        match ev {
            Ev::Arrive(i) => {
                let req = &reqs[i];
                let c0 = tracer.now();
                let mut chosen =
                    shadow.choose(policy, manager.servers(), &req.spec, first_try, &mut rng);
                if chosen.is_none() && !req.low_priority {
                    chosen = shadow.choose(
                        policy,
                        manager.servers(),
                        &req.spec,
                        AvailabilityMode::PreemptionOnly,
                        &mut rng,
                    );
                }
                let c1 = tracer.now();
                let before = manager.stats();
                let l0 = tracer.now();
                let out = manager.launch(now, req);
                let l1 = tracer.now();
                let layer = Layer::of_launch(&out, &before, &manager.stats());
                let r0 = tracer.now();
                if let Some(si) = chosen {
                    shadow.refresh(si, &manager.servers()[si]);
                }
                if let LaunchOutcome::Placed { server, .. } = &out {
                    let si = server.0 as usize;
                    shadow.refresh(si, &manager.servers()[si]);
                    sched.after(req.lifetime, Ev::Depart(req.id));
                }
                bench_ns += tracer.now() - r0;
                if let Some(next) = reqs.get(i + 1) {
                    if next.arrival <= horizon {
                        sched.at(next.arrival, Ev::Arrive(i + 1));
                    }
                }
                tracer.span(Layer::Choose.name(), Some(root), c0, c1);
                tracer.span(layer.name(), Some(root), l0, l1);
                tracer.call(Layer::Choose, c1 - c0);
                // The launch makes the same placement query the shadow
                // just answered; its own work is the rest of the call.
                tracer.call(layer, (l1 - l0).saturating_sub(c1 - c0));
            }
            Ev::Depart(id) => {
                let before = manager.stats();
                let e0 = tracer.now();
                let out = manager.exit(now, id);
                let e1 = tracer.now();
                let layer = if manager.stats().reinflations > before.reinflations {
                    Layer::ExitReinflate
                } else {
                    Layer::ExitPlain
                };
                let r0 = tracer.now();
                if let Some(sid) = out {
                    let si = sid.0 as usize;
                    shadow.refresh(si, &manager.servers()[si]);
                }
                bench_ns += tracer.now() - r0;
                tracer.span(layer.name(), Some(root), e0, e1);
                tracer.call(layer, e1 - e0);
            }
        }
        tracer.close(root);
    });
    let loop_ns = tracer.now() - loop_start;
    let pops = sched.dispatched();

    let mut failures = Vec::new();
    if catch_unwind(AssertUnwindSafe(|| manager.assert_consistent())).is_err() {
        failures.push("traced run: ClusterManager::assert_consistent failed".into());
    }
    if catch_unwind(AssertUnwindSafe(|| {
        shadow.assert_consistent(manager.servers())
    }))
    .is_err()
    {
        failures.push("traced run: shadow PlacementIndex::assert_consistent failed".into());
    }
    let stats = manager.stats();
    let s0 = tracer.now();
    let summary = manager.run_summary(horizon, "cluster_sim");
    let s1 = tracer.now();
    tracer.span("manager.run_summary", None, s0, s1);
    let d0 = tracer.now();
    drop(manager);
    let d1 = tracer.now();
    tracer.span("manager.drop", None, d0, d1);
    Traced {
        tracer,
        loop_ns,
        bench_ns,
        pops,
        stats,
        summary,
        run_summary_s: (s1 - s0) as f64 / 1e9,
        drop_s: (d1 - d0) as f64 / 1e9,
        failures,
    }
}

/// Median wall time with the lifecycle trace on over off, alternating
/// the two on the same inputs. Runs at least `min_pairs` pairs and keeps
/// going while `deadline` has not passed. Returns the ratio and every
/// trace-on result.
fn trace_overhead(
    cfg: &ClusterSimConfig,
    reqs: &[VmRequest],
    min_pairs: usize,
    deadline: Instant,
) -> (f64, Vec<(f64, ClusterSimResult)>) {
    let mut off_cfg = cfg.clone();
    off_cfg.manager.lifecycle_trace = false;
    let mut ratios = Vec::new();
    let mut on_runs = Vec::new();
    while ratios.len() < min_pairs || Instant::now() < deadline {
        let on = timed_replay(cfg, reqs);
        let (off_wall, _) = timed_replay(&off_cfg, reqs);
        ratios.push(on.0 / off_wall);
        on_runs.push(on);
    }
    (median(&mut ratios), on_runs)
}

pub fn run(w: Workload, seed: u64, seconds: f64, spans_out: &Path) -> Report {
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut s = Setup::new(w, seed, TRACED_SETUPS);
    let n = s.reqs.len();
    let mut report = Report::default();
    let mut runs = 0u64;

    let traced = w.replayable().then(|| {
        runs += 1;
        traced_loop(&s.cfg, &s.reqs)
    });
    // The sharding ablations below already take twice the measured
    // run's time, so sharded-10k times one trace on/off pair.
    let (min_pairs, deadline) = if w == Workload::Sharded10k {
        (1, Instant::now())
    } else {
        (2, deadline)
    };
    let (overhead_x, on_runs) = trace_overhead(&s.cfg, &s.reqs, min_pairs, deadline);
    runs += 2 * on_runs.len() as u64;
    let (on_wall, r) = &on_runs[0];
    report.failures.extend(w.check(r, n));
    report.failures.extend(s.check(w, seed));
    let print = fingerprint(r);
    if on_runs.iter().any(|(_, o)| fingerprint(o) != print) {
        report.failures.push(format!("{}: runs disagree", w.name()));
    }
    println!("{} seed {seed}: fingerprint {print}", w.name());

    // Sharding ablations: one worker thread, and one cell.
    let (mut parallel_x, mut vs_monolith_x) = (0.0, 0.0);
    if w == Workload::Sharded10k {
        let mut one_thread = s.cfg.clone();
        one_thread.sharding.threads = 1;
        let (t1_wall, t1) = timed_replay(&one_thread, &s.reqs);
        if fingerprint(&t1) != print {
            report
                .failures
                .push("sharded-10k: result changed with the thread count".into());
        }
        let mut mono = s.cfg.clone();
        mono.sharding = ShardingConfig::default();
        let (mono_wall, _) = timed_replay(&mono, &s.reqs);
        runs += 2;
        parallel_x = t1_wall / on_wall;
        vs_monolith_x = mono_wall / on_wall;
    }
    report.attempted = runs * n as u64;

    if let Some(t) = &traced {
        if t.summary.to_string() != r.summary.to_string()
            || format!("{:?}", t.stats) != format!("{:?}", r.stats)
        {
            report.failures.push(format!(
                "{}: traced run diverged from run_cluster_replay: {:?} vs {:?}",
                w.name(),
                t.stats,
                r.stats
            ));
        }
        if t.pops != r.events {
            report.failures.push(format!(
                "{}: traced loop popped {} events, the simulator {}",
                w.name(),
                t.pops,
                r.events
            ));
        }
        report.failures.extend(t.failures.iter().cloned());
        match write_spans(t, w, seed, spans_out) {
            Ok(()) => println!("span dump: {}", spans_out.display()),
            Err(e) => report
                .failures
                .push(format!("cannot write {}: {e}", spans_out.display())),
        }
    }

    let m = &mut report.metrics;
    m.push(("traces.generate_s", median(&mut s.gens), "s"));
    m.push(("traces.arrivals", n as f64, "count"));
    let (pops, event_busy_s) = match &traced {
        Some(t) => {
            let layers_ns: u64 = LAYERS.iter().map(|l| t.tracer.busy_ns(*l)).sum();
            // Launch self times exclude the placement query the shadow
            // stands for; add it back once to get the calls' wall time.
            let in_calls = layers_ns + t.tracer.busy_ns(Layer::Choose);
            let busy = t.loop_ns.saturating_sub(in_calls + t.bench_ns);
            (t.pops, busy as f64 / 1e9)
        }
        None => (r.events, 0.0),
    };
    m.push(("simkit.event.pops", pops as f64, "count"));
    m.push(("simkit.event.busy_s", event_busy_s, "s"));
    for layer in LAYERS {
        let mut ns: Vec<f64> = traced
            .as_ref()
            .map(|t| {
                t.tracer.calls[layer as usize]
                    .iter()
                    .map(|&x| x as f64)
                    .collect()
            })
            .unwrap_or_default();
        let busy_s = ns.iter().sum::<f64>() / 1e9;
        ns.sort_by(f64::total_cmp);
        let name = layer.name();
        m.push((leak(format!("{name}.calls")), ns.len() as f64, "count"));
        m.push((leak(format!("{name}.busy_s")), busy_s, "s"));
        m.push((
            leak(format!("{name}.p50_us")),
            quantile(&ns, 0.50) / 1e3,
            "us",
        ));
        m.push((
            leak(format!("{name}.p99_us")),
            quantile(&ns, 0.99) / 1e3,
            "us",
        ));
    }
    let records = over_cells(&r.summary, |s| path(s, &["trace", "records"]));
    let dropped = over_cells(&r.summary, |s| path(s, &["trace", "dropped"]));
    m.push(("simkit.trace.overhead_x", overhead_x, "x"));
    m.push(("simkit.trace.records", records, "count"));
    m.push(("simkit.trace.dropped", dropped, "count"));
    let (run_summary_s, drop_s) = traced
        .as_ref()
        .map_or((0.0, 0.0), |t| (t.run_summary_s, t.drop_s));
    m.push(("manager.run_summary_s", run_summary_s, "s"));
    m.push(("manager.drop_s", drop_s, "s"));

    let c = |key: &str| counter(&r.summary, key);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let cascade_ops = over_cells(&r.summary, |s| {
        path(s, &["histograms", "cascade.latency_s", "count"])
    });
    m.push(("cascade.ops", cascade_ops, "count"));
    m.push(("cluster.deflations", r.stats.deflations as f64, "count"));
    m.push(("cluster.reinflations", r.stats.reinflations as f64, "count"));
    let attempts = c("vm.hotplug.unplug_attempts");
    m.push(("vm.hotplug.unplug_attempts", attempts, "count"));
    m.push((
        "vm.hotplug.unplug_success_ratio",
        ratio(attempts - c("vm.hotplug.unplug_shortfalls"), attempts),
        "ratio",
    ));
    let make_room = over_cells(&r.summary, |s| {
        path(s, &["trace", "spans", "server.make_room"])
    });
    m.push(("server.make_room.spans", make_room, "count"));

    let spill_offered = c("cluster.spills_offered");
    let spills_placed = path(&r.summary, &["spills", "placed"]);
    m.push(("shard.parallel_x", parallel_x, "x"));
    m.push(("shard.vs_monolith_x", vs_monolith_x, "x"));
    m.push(("shard.spill_offered", spill_offered, "count"));
    m.push((
        "shard.spill_placed_ratio",
        ratio(spills_placed, spill_offered),
        "ratio",
    ));
    m.push(("shard.cell_imbalance", cell_imbalance(&r.summary), "x"));

    m.push(("distress.hard_samples", c("distress.hard_samples"), "count"));
    m.push((
        "cluster.emergency_reinflations",
        r.stats.emergency_reinflations as f64,
        "count",
    ));
    m.push((
        "migration.success_ratio",
        ratio(c("cluster.migrations"), c("cluster.migrations_started")),
        "ratio",
    ));
    m.push(("cluster.defrag_rounds", c("cluster.defrag_rounds"), "count"));
    m.push(("partition.heals", c("cluster.partition_heals"), "count"));
    m.push((
        "partition.divergence",
        c("cluster.partition_divergence"),
        "count",
    ));
    m.push((
        "failover.recovery_scans",
        c("cluster.recovery_scans"),
        "count",
    ));
    m.push((
        "failover.inventory_servers",
        c("cluster.recovery_inventory_servers"),
        "count",
    ));
    m.push((
        "failover.queue_parked",
        c("cluster.admission_queue_parked"),
        "count",
    ));
    m.push((
        "outcome.preemption_prob",
        r.preemption_probability,
        "fraction",
    ));
    m.push((
        "outcome.reject_rate",
        r.stats.rejected as f64 / n as f64,
        "fraction",
    ));
    report
}

/// Max over mean of per-cell `cluster.launched`; 1 for one cell.
fn cell_imbalance(summary: &JsonValue) -> f64 {
    let Some(cells) = summary.get("per_cell").and_then(JsonValue::as_array) else {
        return 1.0;
    };
    let launched: Vec<f64> = cells
        .iter()
        .map(|c| counter(c, "cluster.launched"))
        .collect();
    let mean = launched.iter().sum::<f64>() / launched.len().max(1) as f64;
    let max = launched.iter().copied().fold(0.0, f64::max);
    if mean > 0.0 {
        max / mean
    } else {
        1.0
    }
}

/// Nearest-rank quantile of sorted samples; 0 for none.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Metric names are built once per process; leaking them keeps the
/// report's name type `&'static str`.
fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// Writes the span dump: a per-name aggregate (calls, total and self
/// time) over every span, then the first `SPAN_DUMP_ROOTS` root spans
/// with their children.
fn write_spans(t: &Traced, w: Workload, seed: u64, path: &Path) -> std::io::Result<()> {
    let spans = &t.tracer.spans;
    let mut child_ns = vec![0u64; spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            child_ns[p as usize] += sp.end_ns - sp.start_ns;
        }
    }
    let mut agg: std::collections::BTreeMap<&str, (u64, u64, u64)> = Default::default();
    for (i, sp) in spans.iter().enumerate() {
        let dur = sp.end_ns - sp.start_ns;
        let e = agg.entry(sp.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur.saturating_sub(child_ns[i]);
    }
    let mut aggregate = JsonValue::object();
    for (name, (calls, total, own)) in agg {
        aggregate.set(
            name,
            JsonValue::object()
                .with("calls", calls)
                .with("total_s", total as f64 / 1e9)
                .with("self_s", own as f64 / 1e9),
        );
    }
    let mut roots: Vec<(JsonValue, Vec<JsonValue>)> = Vec::new();
    let mut kept: Vec<Option<usize>> = vec![None; spans.len()];
    for (i, sp) in spans.iter().enumerate() {
        let node = JsonValue::object()
            .with("name", sp.name)
            .with("start_us", sp.start_ns as f64 / 1e3)
            .with("dur_us", (sp.end_ns - sp.start_ns) as f64 / 1e3);
        match sp.parent {
            None if roots.len() < SPAN_DUMP_ROOTS => {
                kept[i] = Some(roots.len());
                roots.push((node, Vec::new()));
            }
            Some(p) => {
                if let Some(r) = kept[p as usize] {
                    roots[r].1.push(node);
                }
            }
            None => {}
        }
    }
    let roots: Vec<JsonValue> = roots
        .into_iter()
        .map(|(node, children)| node.with("children", JsonValue::Arr(children)))
        .collect();
    let doc = JsonValue::object()
        .with("workload", w.name())
        .with("seed", seed)
        .with("loop_s", t.loop_ns as f64 / 1e9)
        .with("bench_overhead_s", t.bench_ns as f64 / 1e9)
        .with("spans_total", spans.len())
        .with(
            "note",
            "self_s is a span's time minus its children's. The placement_index.choose \
             child is a shadow query made just before the launch; the launch's own \
             metrics subtract it, standing for the same query inside the call.",
        )
        .with("aggregate", aggregate)
        .with("roots_kept", roots.len())
        .with("roots", JsonValue::Arr(roots));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(doc.to_pretty().as_bytes())?;
    f.write_all(b"\n")?;
    f.flush()
}
