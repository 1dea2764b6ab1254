//! The four benchmark workloads: configuration from a seed, input
//! generation, and the checks that keep each workload in its regime.

use cluster::{
    ClusterManagerConfig, ClusterSimConfig, ClusterSimResult, DistressConfig, MigrationPolicy,
    ShardingConfig, TraceConfig, TraceGenerator, VmRequest,
};
use deflate_core::ResourceVector;
use simkit::{
    AdmissionOverflow, FaultPlan, JsonValue, ManagerPlan, PartitionPlan, SimDuration, SimTime,
};

/// One named workload. Every workload runs the default
/// `ClusterManagerConfig` (BestFit, indexed engine, lifecycle trace on)
/// except where its constructor says otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 8c fleet, overcommitted: cascade reclaim and
    /// trace emission dominate, placement is cheap.
    Overcommit100,
    /// A large, lightly loaded fleet: BestFit scores nearly every server
    /// on each arrival, nothing deflates.
    Light4k,
    /// A saturated 10k-server fleet split into 8 cells on 2 threads: the
    /// epoch barrier, spill settlement and cell merge.
    Sharded10k,
    /// Distress, migration, partitions and manager crashes on a
    /// memory-balanced 100-server fleet.
    Chaos100,
}

pub const ALL: [Workload; 4] = [
    Workload::Overcommit100,
    Workload::Light4k,
    Workload::Sharded10k,
    Workload::Chaos100,
];

/// Memory-balanced server shape (as in `fig_distress`): the stock
/// CPU-bound shape never contends on memory, so distress and migration
/// would never trigger.
fn balanced_capacity() -> ResourceVector {
    ResourceVector::new(16.0, 32_768.0, 400.0, 800.0)
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Overcommit100 => "overcommit-100",
            Workload::Light4k => "light-4k",
            Workload::Sharded10k => "sharded-10k",
            Workload::Chaos100 => "chaos-100",
        }
    }

    /// The full simulation configuration for `seed`. The seed drives the
    /// arrival trace and, on `chaos-100`, the fault plan.
    pub fn config(self, seed: u64) -> ClusterSimConfig {
        let (n_servers, per_server_hour, hours) = match self {
            Workload::Overcommit100 => (100, 2.8, 240),
            Workload::Light4k => (4_000, 1.0, 12),
            Workload::Sharded10k => (10_000, 10.0, 2),
            Workload::Chaos100 => (100, 2.8, 240),
        };
        let mut manager = ClusterManagerConfig {
            n_servers,
            ..ClusterManagerConfig::default()
        };
        let mut sharding = ShardingConfig::default();
        match self {
            Workload::Overcommit100 | Workload::Light4k => {}
            Workload::Sharded10k => {
                sharding = ShardingConfig {
                    cells: 8,
                    threads: 2,
                    ..ShardingConfig::default()
                };
            }
            Workload::Chaos100 => {
                manager.server_capacity = balanced_capacity();
                manager.distress = DistressConfig::guarded();
                manager.migration = MigrationPolicy {
                    defrag_interval: SimDuration::from_hours(1),
                    ..MigrationPolicy::enabled()
                };
                manager.faults = FaultPlan {
                    partitions: PartitionPlan {
                        prob: 0.02,
                        ..PartitionPlan::none()
                    },
                    manager: ManagerPlan {
                        prob: 0.02,
                        overflow: AdmissionOverflow::Defer,
                        ..ManagerPlan::none()
                    },
                    ..FaultPlan::chaos(fault_seed(seed))
                };
            }
        }
        ClusterSimConfig {
            manager,
            trace: TraceConfig {
                arrivals_per_hour: per_server_hour * n_servers as f64,
                seed,
                ..TraceConfig::default()
            },
            horizon: SimDuration::from_hours(hours),
            sharding,
        }
    }

    /// Whether the benchmark's own event loop (plain launch and exit)
    /// reproduces the simulator on this workload: no faults, distress,
    /// migration or cells.
    pub fn replayable(self) -> bool {
        matches!(self, Workload::Overcommit100 | Workload::Light4k)
    }

    /// Whether every launch is a fresh arrival (no crash or OOM
    /// relaunches, no admission queue), so launched + rejected must
    /// equal the offered arrivals.
    fn relaunch_free(self) -> bool {
        self != Workload::Chaos100
    }

    /// Output and regime checks on one simulation result; returns the
    /// failed checks.
    pub fn check(self, r: &ClusterSimResult, arrivals: usize) -> Vec<String> {
        let s = &r.stats;
        let mut failed = Vec::new();
        let mut expect = |ok: bool, what: &str| {
            if !ok {
                failed.push(format!("{}: {what}", self.name()));
            }
        };
        if self.relaunch_free() {
            expect(
                s.launched + s.rejected == arrivals as u64,
                "launched + rejected != offered arrivals",
            );
        }
        match self {
            Workload::Overcommit100 => {
                expect(s.deflations > 0, "regime: no deflations");
                expect(s.preempted > 0, "regime: no preemptions");
            }
            Workload::Light4k => {
                expect(s.rejected == 0, "regime: rejects on the light fleet");
                expect(s.preempted == 0, "regime: preemptions on the light fleet");
                expect(s.deflations == 0, "regime: deflations on the light fleet");
            }
            Workload::Sharded10k => {
                let offered = counter(&r.summary, "cluster.spills_offered");
                let placed = path(&r.summary, &["spills", "placed"]);
                let rejected = path(&r.summary, &["spills", "rejected"]);
                expect(offered > 0.0, "regime: no spills");
                expect(
                    offered == placed + rejected,
                    "spills_offered != spills.placed + spills.rejected",
                );
            }
            Workload::Chaos100 => {
                expect(s.manager_crashes > 0, "regime: no manager crash");
                expect(
                    counter(&r.summary, "cluster.partition_heals") > 0.0,
                    "regime: no partition heal",
                );
                expect(s.migrations > 0, "regime: no completed migration");
            }
        }
        failed
    }
}

/// The chaos fault-plan seed, derived from the workload seed so that one
/// `--seed` fixes every input.
fn fault_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC4A0_5EED
}

/// The workload's arrivals: the only input the simulator receives.
pub fn generate(cfg: &ClusterSimConfig) -> Vec<VmRequest> {
    TraceGenerator::new(cfg.trace.clone()).generate_until(SimTime::ZERO + cfg.horizon)
}

/// The number at `keys` inside `v`; 0 when absent (a counter that
/// never fired is not recorded).
pub fn path(v: &JsonValue, keys: &[&str]) -> f64 {
    keys.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

/// A run-summary counter (already summed over cells on a sharded run).
pub fn counter(summary: &JsonValue, key: &str) -> f64 {
    path(summary, &["counters", key])
}

/// Sums `f` over the per-cell reports of a sharded summary, or applies
/// it to a monolithic one.
pub fn over_cells(summary: &JsonValue, f: impl Fn(&JsonValue) -> f64) -> f64 {
    match summary.get("per_cell").and_then(JsonValue::as_array) {
        Some(cells) => cells.iter().map(f).sum(),
        None => f(summary),
    }
}

/// FNV-1a over the run summary and every numeric result field: equal
/// fingerprints mean the same simulated outcome.
pub fn fingerprint(r: &ClusterSimResult) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(r.summary.to_string().as_bytes());
    eat(format!("{:?}", r.stats).as_bytes());
    for x in [
        r.preemption_probability,
        r.mean_utilization,
        r.offered_utilization,
        r.mean_overcommitment,
        r.peak_overcommitment,
        r.high_pri_cpu_hours,
        r.low_pri_spec_cpu_hours,
        r.low_pri_effective_cpu_hours,
    ]
    .into_iter()
    .chain(r.server_overcommitment.iter().copied())
    {
        eat(&x.to_bits().to_le_bytes());
    }
    eat(&r.events.to_le_bytes());
    format!("{h:016x}")
}
