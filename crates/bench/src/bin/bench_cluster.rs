//! Cluster-simulation timing harness: runs trace-driven simulations with
//! the placement index (`indexed`), with the fused naive scan the index
//! is equivalence-tested against (`naive`, `PlacementEngine::NaiveScan`),
//! and with the cellular sharded simulator (`sharded`, `--cells` cells federated
//! under the epoch barrier), records wall-time and events/sec per run,
//! and writes the machine-readable `BENCH_cluster.json` (schema v4) used
//! to track the simulator's performance trajectory across PRs.
//!
//! ```text
//! cargo run --release -p bench --bin bench_cluster -- \
//!     [OUT.json] [--small | --scale | --scale-smoke] [--cells N] [--threads N]
//! ```
//!
//! * default: the paper-scale primary configuration (100 servers, 24 h
//!   horizon, the Fig. 8c default trace) — the number quoted in
//!   acceptance gates — plus a cloud-scale sweep in two regimes:
//!   saturated (100 → 100k servers) and light (1k → 50k servers), with
//!   arrivals scaled proportionally and shorter horizons at the largest
//!   sizes; the naive O(servers)-per-event column stops at 10k;
//! * `--small`: a CI-sized primary (20 servers, 6 h), no sweep;
//! * `--scale`: the sweep only (skips the primary's repeat runs);
//! * `--scale-smoke`: one saturated (2 h) and one light (12 h)
//!   1000-server sweep row for CI;
//! * `--cells N`: cell count for the sweep's sharded column (default 8);
//! * `--threads N`: worker threads for the sharded column (default 0 =
//!   one per core; results are thread-count invariant, only wall time
//!   moves).
//!
//! Output schema v4 (`BENCH_cluster.json`) — every row carries its full
//! configuration (rows use different horizons, so per-row recording is
//! the only unambiguous form), its load regime and the indexed run's
//! mean utilization:
//!
//! ```json
//! {
//!   "schema_version": 4,
//!   "config": {"n_servers": ..., "horizon_hours": ..., "arrivals_per_hour": ...,
//!              "cells": 1, "threads": 0, "runs": ...},
//!   "runs": [{"wall_time_s": ..., "events": ..., "events_per_sec": ...}, ...],
//!   "best": {...},
//!   "naive": {"runs": [...], "best": {...}},
//!   "speedup": ...,                    // indexed / naive best events/s
//!   "hot_loop": {...},                 // scratch-buffer refactor note
//!   "stats": {"launched": ..., "rejected": ..., ...},
//!   "scale_sweep": [
//!     {"config": {"n_servers": ..., "horizon_hours": ..., "arrivals_per_hour": ...,
//!                 "cells": ..., "threads": ...},
//!      "regime": "saturated" | "light",
//!      "mean_utilization": ...,        // indexed run
//!      "naive": {...} | null,          // null above 10k servers
//!      "indexed": {...},               // single-cell
//!      "sharded": {...},               // --cells cells, epoch barrier
//!      "speedup_indexed_vs_naive": ... | null,
//!      "speedup_sharded_vs_indexed": ...}, ...
//!   ]
//! }
//! ```
//!
//! The naive and indexed columns run the identical simulation (the index
//! is equivalence-tested to pick the same servers), so that speedup
//! isolates the placement data structure. The sharded column partitions
//! the fleet, so its result is a different (equally valid, deterministic)
//! simulation; its speedup column measures the cellular decomposition —
//! per-event placement cost drops from O(n_servers) to O(n_servers /
//! cells) in the saturated regime, and cells run on all cores.

use std::time::Instant;

use cluster::{
    run_cluster_sim, ClusterManagerConfig, ClusterSimConfig, PlacementEngine, ShardingConfig,
    TraceConfig,
};
use simkit::{JsonValue, SimDuration};

/// Offered load for the saturated scale-sweep rows, in arrivals per
/// server-hour. Chosen in the overload regime (mean utilization ≈ 0.985
/// at 1000 servers over 24 h, with sustained rejections) where nearly
/// every arrival falls through the free tier into the availability tier
/// — the naive scan's worst case (a full O(servers) pass per query) and
/// the pressure the histogram planner exists to absorb.
const SWEEP_RATE_PER_SERVER_HOUR: f64 = 10.0;

/// Offered load for the light scale-sweep rows (mean utilization ≈ 0.3
/// over 12 h). Nearly every server free-fits each arrival, so BestFit
/// has the whole fleet to rank: scanning it costs O(servers) per arrival
/// in either engine, which made BestFit ≈ 93% of wall time at 4k servers
/// before the index scored free-vector classes instead of servers.
const LIGHT_RATE_PER_SERVER_HOUR: f64 = 1.0;

/// Largest fleet the naive O(servers)-per-event column still runs at;
/// above this only indexed and sharded columns are measured.
const NAIVE_MAX_SERVERS: usize = 10_000;

struct BenchRun {
    wall_time_s: f64,
    events: u64,
    events_per_sec: f64,
}

fn sim_cfg(
    n_servers: usize,
    horizon_hours: f64,
    rate: f64,
    engine: PlacementEngine,
    sharding: ShardingConfig,
) -> ClusterSimConfig {
    ClusterSimConfig {
        manager: ClusterManagerConfig {
            n_servers,
            engine,
            ..ClusterManagerConfig::default()
        },
        trace: TraceConfig {
            arrivals_per_hour: rate,
            ..TraceConfig::default()
        },
        horizon: SimDuration::from_secs((horizon_hours * 3_600.0) as u64),
        sharding,
    }
}

fn time_runs(
    cfg: &ClusterSimConfig,
    runs: usize,
    label: &str,
) -> (Vec<BenchRun>, cluster::ClusterSimResult) {
    let mut results = Vec::new();
    let mut last = None;
    for i in 0..runs {
        let start = Instant::now();
        let r = run_cluster_sim(cfg);
        let wall = start.elapsed().as_secs_f64();
        let events = r.events;
        let eps = events as f64 / wall.max(1e-9);
        eprintln!("  {label} run {i}: {events} events in {wall:.3}s = {eps:.0} events/s");
        results.push(BenchRun {
            wall_time_s: wall,
            events,
            events_per_sec: eps,
        });
        last = Some(r);
    }
    (results, last.expect("at least one run"))
}

fn run_json(r: &BenchRun) -> JsonValue {
    JsonValue::object()
        .with("wall_time_s", r.wall_time_s)
        .with("events", r.events as f64)
        .with("events_per_sec", r.events_per_sec)
}

fn best(results: &[BenchRun]) -> &BenchRun {
    results
        .iter()
        .min_by(|a, b| a.wall_time_s.total_cmp(&b.wall_time_s))
        .expect("at least one run")
}

fn row_config(n: usize, hours: f64, rate: f64, cells: usize, threads: usize) -> JsonValue {
    JsonValue::object()
        .with("n_servers", n as f64)
        .with("horizon_hours", hours)
        .with("arrivals_per_hour", rate)
        .with("cells", cells as f64)
        .with("threads", threads as f64)
}

fn main() {
    let mut out_path = "BENCH_cluster.json".to_string();
    let mut mode = "default";
    let mut args = std::env::args().skip(1);
    let mut cell: Option<(usize, f64, f64)> = None;
    let mut cells_arg = 8usize;
    let mut threads_arg = 0usize;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--small" => mode = "small",
            "--scale" => mode = "scale",
            "--scale-smoke" => mode = "scale-smoke",
            "--cells" => {
                cells_arg = args
                    .next()
                    .and_then(|a| a.parse().ok())
                    .expect("--cells takes a count");
            }
            "--threads" => {
                threads_arg = args
                    .next()
                    .and_then(|a| a.parse().ok())
                    .expect("--threads takes a count");
            }
            // Manual probe: time one cell (all columns) and exit.
            // Usage: --cell <n_servers> <horizon_hours> <arrivals_per_hour>
            "--cell" => {
                let mut num = || {
                    args.next()
                        .and_then(|a| a.parse::<f64>().ok())
                        .expect("--cell takes <n_servers> <hours> <arrivals/h>")
                };
                cell = Some((num() as usize, num(), num()));
            }
            _ => out_path = arg,
        }
    }
    let sharding = ShardingConfig {
        cells: cells_arg,
        threads: threads_arg,
        ..ShardingConfig::default()
    };
    if let Some((n, hours, rate)) = cell {
        eprintln!("bench_cluster [cell]: {n} servers, {hours} h, {rate} arrivals/h");
        let (idx, r) = time_runs(
            &sim_cfg(
                n,
                hours,
                rate,
                PlacementEngine::Indexed,
                ShardingConfig::default(),
            ),
            1,
            "indexed",
        );
        let (sha, _) = time_runs(
            &sim_cfg(n, hours, rate, PlacementEngine::Indexed, sharding),
            1,
            &format!("sharded(cells={cells_arg})"),
        );
        let speedup = sha[0].events_per_sec / idx[0].events_per_sec.max(1e-9);
        eprintln!(
            "  sharded/indexed {speedup:.2}x  util={:.3} launched={} rejected={}",
            r.mean_utilization, r.stats.launched, r.stats.rejected
        );
        return;
    }

    // Primary cell: repeated runs of both placement columns at one
    // monolithic configuration — this is the acceptance-gate number and
    // stays byte-identical to the golden-pinned simulator.
    let (n_servers, horizon_hours, rate, runs) = match mode {
        "small" => (20usize, 6.0f64, 120.0f64, 2usize),
        // The smoke's real payload is its 1000-server sweep cell; keep
        // the primary CI-sized.
        "scale-smoke" => (20, 6.0, 120.0, 1),
        // "scale" keeps the paper-scale primary but runs each column once.
        "scale" => (100, 24.0, 280.0, 1),
        _ => (100, 24.0, 280.0, 3),
    };
    eprintln!(
        "bench_cluster [{mode}]: {n_servers} servers, {horizon_hours} h horizon, \
         {rate} arrivals/h, {runs} run(s) per column"
    );
    let (indexed_runs, last) = time_runs(
        &sim_cfg(
            n_servers,
            horizon_hours,
            rate,
            PlacementEngine::Indexed,
            ShardingConfig::default(),
        ),
        runs,
        "indexed",
    );
    let (naive_runs, _) = time_runs(
        &sim_cfg(
            n_servers,
            horizon_hours,
            rate,
            PlacementEngine::NaiveScan,
            ShardingConfig::default(),
        ),
        runs,
        "naive",
    );
    let primary_speedup =
        best(&indexed_runs).events_per_sec / best(&naive_runs).events_per_sec.max(1e-9);
    eprintln!("  primary speedup (indexed/naive, best events/s): {primary_speedup:.2}x");

    // Scale sweep: arrivals scale with fleet size at a saturated or a
    // light per-server rate, horizons shrink at the largest sizes so the
    // single-cell column stays tractable. The naive column stops at
    // NAIVE_MAX_SERVERS.
    let (sat, light) = (SWEEP_RATE_PER_SERVER_HOUR, LIGHT_RATE_PER_SERVER_HOUR);
    let sweep_cells: &[(usize, f64, f64)] = match mode {
        "small" => &[],
        "scale-smoke" => &[(1000, 2.0, sat), (1000, 12.0, light)],
        _ => &[
            (100, 24.0, sat),
            (1000, 24.0, sat),
            (5000, 6.0, sat),
            (10_000, 3.0, sat),
            (50_000, 2.0, sat),
            (100_000, 1.0, sat),
            (1000, 12.0, light),
            (4000, 12.0, light),
            (10_000, 6.0, light),
            (50_000, 2.0, light),
        ],
    };
    let mut sweep_json = Vec::new();
    for &(n, hours, per_server) in sweep_cells {
        let cell_rate = per_server * n as f64;
        let regime = if per_server == light {
            "light"
        } else {
            "saturated"
        };
        eprintln!("scale sweep ({regime}): {n} servers, {hours} h, {cell_rate} arrivals/h");
        let (idx, idx_result) = time_runs(
            &sim_cfg(
                n,
                hours,
                cell_rate,
                PlacementEngine::Indexed,
                ShardingConfig::default(),
            ),
            1,
            "indexed",
        );
        let naive = (n <= NAIVE_MAX_SERVERS).then(|| {
            time_runs(
                &sim_cfg(
                    n,
                    hours,
                    cell_rate,
                    PlacementEngine::NaiveScan,
                    ShardingConfig::default(),
                ),
                1,
                "naive",
            )
            .0
        });
        let (sha, _) = time_runs(
            &sim_cfg(n, hours, cell_rate, PlacementEngine::Indexed, sharding),
            1,
            &format!("sharded(cells={cells_arg})"),
        );
        let speedup_sharded = sha[0].events_per_sec / idx[0].events_per_sec.max(1e-9);
        eprintln!("  {n} servers: sharded/indexed {speedup_sharded:.2}x");
        let mut row = JsonValue::object()
            .with(
                "config",
                row_config(n, hours, cell_rate, cells_arg, threads_arg),
            )
            .with("regime", regime)
            .with("mean_utilization", idx_result.mean_utilization)
            .with("indexed", run_json(&idx[0]))
            .with("sharded", run_json(&sha[0]))
            .with("speedup_sharded_vs_indexed", speedup_sharded);
        if let Some(nai) = naive {
            let speedup_naive = idx[0].events_per_sec / nai[0].events_per_sec.max(1e-9);
            row = row
                .with("naive", run_json(&nai[0]))
                .with("speedup_indexed_vs_naive", speedup_naive);
        } else {
            row = row
                .with("naive", JsonValue::Null)
                .with("speedup_indexed_vs_naive", JsonValue::Null);
        }
        sweep_json.push(row);
    }

    let doc = JsonValue::object()
        .with("schema_version", 4.0)
        .with(
            "config",
            row_config(n_servers, horizon_hours, rate, 1, 0).with("runs", runs as f64),
        )
        .with(
            "runs",
            JsonValue::Arr(indexed_runs.iter().map(run_json).collect()),
        )
        .with("best", run_json(best(&indexed_runs)))
        .with(
            "naive",
            JsonValue::object()
                .with(
                    "runs",
                    JsonValue::Arr(naive_runs.iter().map(run_json).collect()),
                )
                .with("best", run_json(best(&naive_runs))),
        )
        .with("speedup", primary_speedup)
        .with(
            "hot_loop",
            JsonValue::object().with(
                "note",
                "per-event heap allocations removed from the simulate/reclaim hot paths \
                 (scratch buffers for make_room plans, preemption candidates, distress \
                 samples, crash victim lists); before/after indexed events/s on the same \
                 host: 10k-server sweep row 29753 -> 31753 (+6.7%), 5k row 101646 -> \
                 105907 (+4.2%); the 100-server primary is noise-dominated at <50 ms wall",
            ),
        )
        .with(
            "stats",
            JsonValue::object()
                .with("launched", last.stats.launched as f64)
                .with("rejected", last.stats.rejected as f64)
                .with("preempted", last.stats.preempted as f64)
                .with("deflations", last.stats.deflations as f64)
                .with("reinflations", last.stats.reinflations as f64)
                .with("mean_utilization", last.mean_utilization)
                .with("mean_overcommitment", last.mean_overcommitment),
        )
        .with("scale_sweep", JsonValue::Arr(sweep_json));
    let text = doc.to_pretty();
    if let Err(e) = std::fs::write(&out_path, &text) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("{text}");
    eprintln!("written to {out_path}");
}
