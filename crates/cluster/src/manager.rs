//! The centralized cluster manager (paper §5, Fig. 2).
//!
//! The manager owns the physical servers, places arriving VMs with a
//! deflation-aware bin-packing policy, asks the target server's local
//! controller to make room (proportional cascade deflation, preemption
//! fallback), and reinflates deflated VMs when resources free up.
//! Everything a server decides on its own — departures, crashes,
//! reboots, distress sampling — runs in that controller
//! (`crate::controller`); the manager only sinks the outcomes, into its
//! books when it can see the server and into the server's divergence
//! log when it cannot.

use std::collections::{HashMap, HashSet};

use deflate_core::{CascadeConfig, ResourceKind, ResourceVector, ServerId, VmId};
use hypervisor::{
    GuestConfig, LatencyModel, MigrationSession, PhysicalServer, PrecopyPlan, ReclaimReport,
    ReclaimSession, ServerAggregates, Vm, VmFaults, VmPriority,
};
use simkit::{
    FaultInjector, FaultPlan, JsonValue, MetricsRegistry, SeqHash, SimDuration, SimRng, SimTime,
};

use crate::controller::{Cause, Controller, Outcome};
use crate::distress::{DistressConfig, DistressEvent};
use crate::journal::{Journal, Record};
use crate::migration::MigrationPolicy;
use crate::partition::{
    DivergenceEvent, DivergenceLog, PartitionSession, Reachability, ReconcileOutcome,
};
use crate::placement::{
    avail_from_free, choose_server_with, AvailabilityMode, PlacementEngine, PlacementPolicy,
};

use crate::placement_index::PlacementIndex;
use crate::predictor::DemandPredictor;
use crate::traces::VmRequest;

/// How long a cascade waits on a dead or unreachable agent when the
/// cascade config carries no explicit deadline.
const DEFAULT_AGENT_WAIT: SimDuration = SimDuration::from_secs(30);

/// Cluster manager configuration.
#[derive(Debug, Clone)]
pub struct ClusterManagerConfig {
    /// Number of physical servers.
    pub n_servers: usize,
    /// Per-server capacity.
    pub server_capacity: ResourceVector,
    /// Placement policy.
    pub placement: PlacementPolicy,
    /// When `false`, low-priority VMs are *not* deflatable (their minimum
    /// size equals their spec), so every resource shortage preempts —
    /// the "preemption-only" baseline of Fig. 8c.
    pub deflation_enabled: bool,
    /// Cascade configuration used by local controllers.
    pub cascade: CascadeConfig,
    /// Fraction of a VM's memory its workload actually uses (drives how
    /// much guest memory is free for hot-unplug; the Azure study the
    /// paper cites puts average utilization below 50 %).
    pub usage_fraction: f64,
    /// Predictive headroom (the paper's §7 future work): forecast
    /// high-priority demand with an EWMA and hold back that much CPU
    /// from reinflation, so high-priority arrivals place into free
    /// resources instead of waiting out a synchronous reclamation.
    pub proactive_headroom: bool,
    /// Capacity heterogeneity: 0 gives a homogeneous pool; `h > 0`
    /// alternates servers between `(1+h)×` and `(1−h)×` the base
    /// capacity (total capacity is preserved for even server counts).
    /// Cosine-fitness placement only has direction to exploit on mixed
    /// pools.
    pub capacity_skew: f64,
    /// RNG seed (placement randomization).
    pub seed: u64,
    /// Fault plan driving deterministic fault injection. The default
    /// ([`FaultPlan::none`]) injects nothing and keeps the manager
    /// byte-identical to a build without fault plumbing.
    pub faults: FaultPlan,
    /// A low-priority VM whose agent misses this many *consecutive*
    /// cascade deadlines is declared unresponsive and pivoted to
    /// hypervisor-only deflation. 0 disables the escalation.
    pub unresponsive_after: u32,
    /// Which implementation answers placement queries: the
    /// incrementally-maintained [`PlacementIndex`] (default) or the
    /// fused naive scan (the equivalence oracle). Both pick the *same*
    /// server on the same RNG stream; the index is only maintained when
    /// it is the active engine, so the scan pays no index cost.
    pub engine: PlacementEngine,
    /// Record the lifecycle journal: one typed [`Record`] per launch,
    /// exit, deflation layer, crash, migration, partition, ... On by
    /// default. Metrics counters/gauges/histograms are recorded either
    /// way.
    pub lifecycle_trace: bool,
    /// Guest-distress loop: OOM/thrash consequences, emergency
    /// reinflation and the per-VM deflation circuit breaker. Disabled by
    /// default ([`DistressConfig::none`]), which keeps the manager
    /// byte-identical to a build without distress plumbing.
    pub distress: DistressConfig,
    /// Live-migration machinery: distress rescue, drain-before-crash
    /// and background defragmentation. Disabled by default
    /// ([`MigrationPolicy::none`]), which keeps the manager
    /// byte-identical to a build without migration plumbing.
    pub migration: MigrationPolicy,
}

impl Default for ClusterManagerConfig {
    fn default() -> Self {
        ClusterManagerConfig {
            n_servers: 100,
            server_capacity: ResourceVector::new(16.0, 65_536.0, 400.0, 800.0),
            placement: PlacementPolicy::BestFit,
            deflation_enabled: true,
            cascade: CascadeConfig::VM_LEVEL,
            usage_fraction: 0.5,
            proactive_headroom: false,
            capacity_skew: 0.0,
            seed: 1,
            faults: FaultPlan::none(),
            unresponsive_after: 3,
            engine: PlacementEngine::Indexed,
            lifecycle_trace: true,
            distress: DistressConfig::none(),
            migration: MigrationPolicy::none(),
        }
    }
}

/// Counters the manager maintains.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClusterStats {
    /// VMs successfully placed.
    pub launched: u64,
    /// Low-priority VMs successfully placed.
    pub launched_low: u64,
    /// Requests rejected (no server fit even after deflation).
    pub rejected: u64,
    /// Low-priority VMs preempted to make room.
    pub preempted: u64,
    /// Deflation operations executed (per-VM cascades).
    pub deflations: u64,
    /// Reinflation operations executed.
    pub reinflations: u64,
    /// Σ reclamation latency paid by high-priority launches (seconds).
    pub highpri_alloc_latency_secs: f64,
    /// High-priority VMs launched.
    pub highpri_launches: u64,
    /// VMs declared unresponsive (pivoted to hypervisor-only deflation).
    pub unresponsive_vms: u64,
    /// Whole-server crashes injected.
    pub server_crashes: u64,
    /// Guest OOM kills (sustained hard distress past the grace window).
    pub oom_kills: u64,
    /// Emergency reinflation rounds run for distressed VMs.
    pub emergency_reinflations: u64,
    /// Live migrations committed (the VM landed on its destination).
    pub migrations: u64,
    /// Manager (control-plane) crashes suffered.
    pub manager_crashes: u64,
}

impl ClusterStats {
    /// Mean reclamation latency a high-priority launch had to wait for.
    pub fn mean_highpri_alloc_latency_secs(&self) -> f64 {
        if self.highpri_launches == 0 {
            0.0
        } else {
            self.highpri_alloc_latency_secs / self.highpri_launches as f64
        }
    }

    /// Folds another manager's counters into this one. The cellular
    /// simulator merges per-cell stats with this; every field is a sum,
    /// so merged cellular totals read exactly like monolithic ones.
    pub fn absorb(&mut self, o: &ClusterStats) {
        self.launched += o.launched;
        self.launched_low += o.launched_low;
        self.rejected += o.rejected;
        self.preempted += o.preempted;
        self.deflations += o.deflations;
        self.reinflations += o.reinflations;
        self.highpri_alloc_latency_secs += o.highpri_alloc_latency_secs;
        self.highpri_launches += o.highpri_launches;
        self.unresponsive_vms += o.unresponsive_vms;
        self.server_crashes += o.server_crashes;
        self.oom_kills += o.oom_kills;
        self.emergency_reinflations += o.emergency_reinflations;
        self.migrations += o.migrations;
        self.manager_crashes += o.manager_crashes;
    }
}

/// The result of a launch request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchOutcome {
    /// Placed on a server; lists any VMs preempted to make room.
    Placed {
        /// Target server.
        server: ServerId,
        /// Low-priority VMs preempted in the process.
        preempted: Vec<VmId>,
    },
    /// No server could host the VM even with full deflation.
    Rejected,
}

/// Cluster-wide running sums, maintained incrementally.
///
/// Every server mutation in [`ClusterManager`] snapshots the touched
/// server's [`ServerAggregates`] before and after and applies the delta
/// here, so `utilization()`, `overcommitment()` and the per-priority CPU
/// metrics are O(1) instead of walking servers × VMs on every arrival
/// and departure.
#[derive(Debug, Clone, Copy)]
struct ClusterTotals {
    /// Σ physical capacity over all servers (fixed at construction).
    capacity: ResourceVector,
    /// Σ per-server aggregates over all servers.
    agg: ServerAggregates,
}

/// What one server crash took down, so the simulator can relaunch
/// high-priority VMs and account preempted low-priority ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerFailure {
    /// The crashed server.
    pub server: ServerId,
    /// High-priority VMs lost (candidates for relaunch elsewhere).
    pub lost_high: Vec<VmId>,
    /// Low-priority VMs lost (counted as preempted).
    pub lost_low: Vec<VmId>,
    /// Whether the manager watched the crash. `false` behind a
    /// partition or while the manager is down: the losses reach its
    /// books only at heal or recovery time, which decides relaunches.
    pub observed: bool,
}

/// One parked migration the manager is waiting out: the destination
/// carries a capacity hold sized `reserved`, the listed donors were
/// deflated to make it, and the source still runs the VM. Finished (the
/// VM moves) or aborted (the hold is released and every donor gets its
/// memory back) by [`ClusterManager::finish_migration`] — or cleaned up
/// by [`ClusterManager::fail_server`] when either end crashes first.
#[derive(Debug, Clone)]
struct InFlightMigration {
    /// Source server index.
    src: usize,
    /// Destination server index (carries the hold).
    dst: usize,
    /// The held capacity (the VM's effective allocation at reserve time).
    reserved: ResourceVector,
    /// Destination donors and what each gave (the abort undo-log).
    reserve_outcomes: Vec<(VmId, ResourceVector)>,
    /// The pre-copy schedule the move follows.
    plan: PrecopyPlan,
}

/// The deflation-based cluster manager.
pub struct ClusterManager {
    cfg: ClusterManagerConfig,
    servers: Vec<PhysicalServer>,
    /// Every server's local controller. Its cascade is `cfg.cascade`,
    /// plus the working-set-floor flag when the distress loop asks for
    /// it; it also keeps the per-VM distress/breaker state.
    ctl: Controller,
    rng: SimRng,
    stats: ClusterStats,
    /// VM → server index. Touched on every launch and exit, so it (and
    /// the two liveness maps below) uses the fast deterministic
    /// [`SeqHash`] instead of SipHash.
    index: HashMap<VmId, usize, SeqHash>,
    /// Fault injector; `None` under the empty plan so the fault-free path
    /// stays byte-identical.
    fault: Option<FaultInjector>,
    /// Consecutive missed cascade deadlines per low-priority VM.
    missed: HashMap<VmId, u32, SeqHash>,
    /// In-flight parked migrations keyed by the moving VM; empty (and
    /// never touched) while migration is disabled.
    migrations: HashMap<VmId, InFlightMigration, SeqHash>,
    /// VMs on reachable servers whose deflation circuit breaker is
    /// currently open — the true gauge behind `cluster.breaker_open_vms`
    /// (trips are counted separately as `cluster.breaker_trips`).
    breaker_open_now: u64,
    /// VMs declared unresponsive (hypervisor-only deflation from now on).
    unresponsive: HashSet<VmId, SeqHash>,
    /// Counters, gauges and histograms by dotted key.
    metrics: MetricsRegistry,
    /// The lifecycle journal, one typed record per fact (written only
    /// through [`note`](Self::note)).
    journal: Journal,
    /// High-priority demand forecaster (proactive headroom).
    predictor: DemandPredictor,
    /// Incrementally-maintained cluster-wide sums.
    totals: ClusterTotals,
    /// Thread-local leaked-session count already folded into the
    /// `cluster.session_leaked` counter; `update_gauges` polls the
    /// delta. Stays at zero (and registers no key) unless a
    /// [`ReclaimSession`] is ever dropped unconsumed.
    leaked_seen: u64,
    /// Incrementally-maintained placement index (refreshed after every
    /// server mutation while `cfg.engine` is [`PlacementEngine::Indexed`]).
    pindex: PlacementIndex,
    /// Control-plane liveness per server (`Up` / `Partitioned` / `Down`),
    /// orthogonal to the physical `up` flag.
    reach: Vec<Reachability>,
    /// One parked session per partitioned server: the frozen aggregate
    /// snapshot, the stale hosted-VM view and the divergence log. Empty
    /// (and never touched) while no partition is open, so partition-free
    /// runs stay byte-identical.
    partitions: HashMap<usize, PartitionSession>,
    /// Whether the manager process itself is crashed. While `true`,
    /// every server is `Partitioned` or `Down`, placement is suspended
    /// (the simulator parks arrivals), and the only exit is the
    /// [`recover_manager`](Self::recover_manager) inventory scan.
    mgr_down: bool,
    /// When the current manager crash began (valid while `mgr_down`).
    mgr_down_since: SimTime,
    /// Reusable id buffer for per-launch fault/shield planning — the
    /// launch hot loop walks a server's low-priority ids on every
    /// reclaiming placement, so it recycles this instead of allocating.
    scratch_ids: Vec<VmId>,
    /// Reusable `(order, vm, server)` buffer for the distress sampling
    /// round's deterministic ordering pass (O(running VMs) per round).
    scratch_sample: Vec<(usize, u64, usize)>,
}

impl ClusterManager {
    /// Creates a cluster with empty servers.
    pub fn new(cfg: ClusterManagerConfig) -> Self {
        let skew = cfg.capacity_skew.clamp(0.0, 0.9);
        let servers: Vec<PhysicalServer> = (0..cfg.n_servers)
            .map(|i| {
                let factor = if skew == 0.0 {
                    1.0
                } else if i % 2 == 0 {
                    1.0 + skew
                } else {
                    1.0 - skew
                };
                PhysicalServer::new(ServerId(i as u64), cfg.server_capacity.scale(factor))
            })
            .collect();
        let cascade = if !cfg.distress.is_none() && cfg.distress.working_set_floor {
            cfg.cascade.with_working_set_floor(true)
        } else {
            cfg.cascade
        };
        let ctl = Controller::new(cascade, servers.len(), &cfg.distress);
        let rng = SimRng::seed_from_u64(cfg.seed);
        let capacity = servers
            .iter()
            .fold(ResourceVector::ZERO, |acc, s| acc + s.capacity());
        let fault = if cfg.faults.is_none() {
            None
        } else {
            Some(FaultInjector::new(cfg.faults.clone()))
        };
        let pindex = PlacementIndex::new(&servers);
        let servers_len = servers.len();
        ClusterManager {
            cfg,
            servers,
            ctl,
            rng,
            stats: ClusterStats::default(),
            index: HashMap::default(),
            fault,
            missed: HashMap::default(),
            migrations: HashMap::default(),
            breaker_open_now: 0,
            unresponsive: HashSet::default(),
            metrics: MetricsRegistry::new(),
            journal: Journal::default(),
            predictor: DemandPredictor::new(simkit::SimDuration::from_mins(10), 0.3),
            totals: ClusterTotals {
                capacity,
                agg: ServerAggregates::default(),
            },
            leaked_seen: hypervisor::leaked_sessions(),
            pindex,
            reach: vec![Reachability::Up; servers_len],
            partitions: HashMap::new(),
            mgr_down: false,
            mgr_down_since: SimTime::ZERO,
            scratch_ids: Vec::new(),
            scratch_sample: Vec::new(),
        }
    }

    /// One placement query, answered by the configured engine. The
    /// engines are equivalence-tested to pick the same server, so this
    /// is purely a performance switch; debug builds additionally
    /// cross-check every indexed answer against the naive oracle (on a
    /// cloned RNG, so both consume the identical stream).
    fn place(&mut self, demand: &ResourceVector, mode: AvailabilityMode) -> Option<usize> {
        let (policy, servers) = (self.cfg.placement, &self.servers);
        if self.cfg.engine == PlacementEngine::NaiveScan {
            return choose_server_with(policy, servers, demand, mode, &mut self.rng);
        }
        #[cfg(debug_assertions)]
        let mut oracle_rng = self.rng.clone();
        let choice = self
            .pindex
            .choose(policy, servers, demand, mode, &mut self.rng);
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            choice,
            choose_server_with(policy, servers, demand, mode, &mut oracle_rng),
            "placement index diverged from the naive scan"
        );
        choice
    }

    /// Re-derives the placement index's cached entry for one server;
    /// call after any mutation of that server. No-op when the server's
    /// mutation counter is unchanged, and skipped entirely when a scan
    /// engine is active (the scans read live server state).
    fn refresh_index(&mut self, si: usize) {
        if self.cfg.engine == PlacementEngine::Indexed {
            self.pindex.refresh(si, &self.servers[si]);
        }
    }

    /// Settles one server's mutations into the cluster bookkeeping:
    /// applies the aggregate delta since `before` and refreshes the
    /// placement index. Every reclamation path calls this once per
    /// consumed [`ReclaimSession`] (or mutation phase) instead of
    /// hand-rolling the snapshot/delta/refresh triple. Returns the new
    /// snapshot so multi-phase paths can chain.
    fn settle(&mut self, si: usize, before: &ServerAggregates) -> ServerAggregates {
        let after = self.servers[si].aggregates();
        self.totals.agg.shift_by(before, &after);
        self.refresh_index(si);
        after
    }

    /// Journals one lifecycle fact when the lifecycle trace is on — the
    /// only place that reads `cfg.lifecycle_trace`.
    fn note(&mut self, now: SimTime, record: Record) {
        if self.cfg.lifecycle_trace {
            self.journal.push(now, record);
        }
    }

    /// The lifecycle journal recorded so far.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable metrics access (CSV/JSON export needs `&mut` for lazy
    /// quantile sorting; harnesses may also record their own keys).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Folds gauge history up to `now` and builds the machine-readable
    /// per-run summary: every metric, plus the journal's record counts
    /// under `trace`.
    pub fn run_summary(&mut self, now: SimTime, run: &str) -> JsonValue {
        self.metrics.finalize(now);
        self.metrics
            .run_summary(run)
            .with("trace", self.journal.summary())
    }

    /// The servers (for metrics).
    pub fn servers(&self) -> &[PhysicalServer] {
        &self.servers
    }

    /// Manager counters.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// Number of currently running VMs.
    pub fn running_vms(&self) -> usize {
        self.index.len()
    }

    /// Whether a VM is still running (it may have been preempted).
    pub fn is_running(&self, id: VmId) -> bool {
        self.index.contains_key(&id)
    }

    /// Total physical capacity across all servers. O(1): fixed at
    /// construction.
    pub fn total_capacity(&self) -> ResourceVector {
        self.totals.capacity
    }

    /// Cluster-wide committed fraction of capacity (dominant dimension).
    /// O(1): reads the incrementally-maintained totals.
    pub fn utilization(&self) -> f64 {
        let committed = &self.totals.agg.committed;
        let capacity = &self.totals.capacity;
        let mut worst: f64 = 0.0;
        for k in ResourceKind::ALL {
            if capacity.get(k) > 0.0 {
                worst = worst.max(committed.get(k) / capacity.get(k));
            }
        }
        worst
    }

    /// Cluster-wide nominal overcommitment: `Σ specs / capacity − 1` on
    /// the dominant dimension (≥ 0). O(1).
    pub fn overcommitment(&self) -> f64 {
        let specs = &self.totals.agg.spec_total;
        let capacity = &self.totals.capacity;
        let mut worst: f64 = 0.0;
        for k in ResourceKind::ALL {
            if capacity.get(k) > 0.0 {
                worst = worst.max(specs.get(k) / capacity.get(k));
            }
        }
        (worst - 1.0).max(0.0)
    }

    /// Per-server nominal overcommitment values.
    pub fn server_overcommitments(&self) -> Vec<f64> {
        self.servers.iter().map(|s| s.overcommitment()).collect()
    }

    /// Aggregate CPU currently allocated to high-priority VMs (their
    /// full specs — they are never deflated, so spec equals effective).
    /// O(1).
    pub fn high_pri_cpu(&self) -> f64 {
        let t = &self.totals.agg;
        (t.spec_total.get(ResourceKind::Cpu) - t.low_spec.get(ResourceKind::Cpu)).max(0.0)
    }

    /// Aggregate *nominal* CPU of running low-priority VMs (what flat
    /// transient billing charges for). O(1).
    pub fn low_pri_spec_cpu(&self) -> f64 {
        self.totals.agg.low_spec.get(ResourceKind::Cpu)
    }

    /// Aggregate *effective* CPU of running low-priority VMs (what
    /// resource-as-a-service billing charges for). O(1).
    pub fn low_pri_effective_cpu(&self) -> f64 {
        self.totals.agg.low_effective.get(ResourceKind::Cpu)
    }

    /// Cross-checks the incrementally-maintained cluster totals against
    /// a full recomputation, and the VM index against server contents.
    /// Panics on divergence. Debug builds run this from `update_gauges`
    /// (i.e. on every launch/exit); release builds only pay for it when
    /// a harness calls it explicitly.
    pub fn assert_consistent(&self) {
        let mut recomputed = ServerAggregates::default();
        let mut hosted = 0usize;
        for (si, s) in self.servers.iter().enumerate() {
            s.assert_aggregates_consistent();
            if let Some(sess) = self.partitions.get(&si) {
                // The manager's books carry the *frozen* snapshot of a
                // partitioned server, not its live state — the live
                // delta settles in one pass at heal time.
                recomputed.shift_by(&ServerAggregates::default(), &sess.frozen);
                hosted += sess.vms.len();
            } else {
                let a = s.aggregates();
                recomputed.shift_by(&ServerAggregates::default(), &a);
                hosted += s.vm_count();
            }
        }
        assert!(
            self.totals.agg.approx_eq(&recomputed),
            "cluster totals drifted: cached {:?} vs recomputed {:?}",
            self.totals.agg,
            recomputed
        );
        assert_eq!(
            self.index.len(),
            hosted,
            "VM index size {} != hosted VM count {hosted}",
            self.index.len()
        );
        for (id, si) in &self.index {
            if let Some(sess) = self.partitions.get(si) {
                // The index keeps the stale view: it must match the
                // frozen hosted set, not the (unobservable) live one.
                assert!(
                    sess.vms.contains(id),
                    "index maps {id} to partitioned server {si}, \
                     which was not hosting it at partition time"
                );
            } else {
                assert!(
                    self.servers[*si].vm(*id).is_some(),
                    "index maps {id} to server {si}, which does not host it"
                );
            }
        }
        // Reachability invariants: the per-server state, the session
        // ledger and the transport-level connected flag must agree, and
        // `Up`/`Down` must match the physical flag (`Partitioned` may
        // hide either — the manager cannot tell).
        assert_eq!(
            self.reach.len(),
            self.servers.len(),
            "reachability vector does not cover every server"
        );
        for (si, s) in self.servers.iter().enumerate() {
            let r = self.reach[si];
            assert_eq!(
                r == Reachability::Partitioned,
                self.partitions.contains_key(&si),
                "server {si} reachability {r:?} disagrees with the session ledger"
            );
            assert_eq!(
                s.is_connected(),
                r != Reachability::Partitioned,
                "server {si} connected flag disagrees with reachability {r:?}"
            );
            match r {
                Reachability::Up => assert!(s.is_up(), "reachable server {si} is down"),
                Reachability::Down => assert!(!s.is_up(), "down server {si} is up"),
                Reachability::Partitioned => {}
            }
        }
        // Lifecycle-map invariant: the liveness/distress side tables may
        // only reference hosted VMs. A VM that exits, is preempted,
        // crashes, or is OOM-killed must leave all of them, or a
        // relaunch under the same id inherits stale breaker/liveness
        // state (and the maps leak for VMs never relaunched).
        for id in self.missed.keys() {
            assert!(
                self.index.contains_key(id),
                "missed-deadline entry for {id}, which is not hosted"
            );
        }
        for id in &self.unresponsive {
            assert!(
                self.index.contains_key(id),
                "unresponsive entry for {id}, which is not hosted"
            );
        }
        for (si, id) in self.ctl.tracked() {
            assert!(
                self.servers[si].vm(id).is_some(),
                "distress entry for {id} on server {si}, which does not host it"
            );
        }
        // Open-breaker gauge invariant: the incremental counter behind
        // `cluster.breaker_open_vms` must equal a fresh count of open
        // breakers on reachable servers, or opens and closes went
        // asymmetric somewhere.
        let open: u64 = (0..self.servers.len())
            .filter(|si| !self.partitions.contains_key(si))
            .map(|si| self.ctl.open_breakers(si))
            .sum();
        assert_eq!(
            self.breaker_open_now, open,
            "open-breaker gauge drifted from the distress state"
        );
        // Migration-ledger invariants: every in-flight move references
        // an up destination, each server's capacity hold is exactly the
        // sum of the holds the ledger placed there, and a down server
        // carries no hold at all (its reservations died with it).
        let mut held = vec![ResourceVector::ZERO; self.servers.len()];
        for (vm, f) in &self.migrations {
            assert!(
                f.dst < self.servers.len() && self.servers[f.dst].is_up(),
                "in-flight migration of {vm} references down destination {}",
                f.dst
            );
            assert!(
                !self.partitions.contains_key(&f.src) && !self.partitions.contains_key(&f.dst),
                "in-flight migration of {vm} touches a partitioned server \
                 (partition entry must abort or park-clean it)"
            );
            held[f.dst] += f.reserved;
        }
        for (si, s) in self.servers.iter().enumerate() {
            // Compared with a float epsilon: the ledger sums holds in
            // map order while the server accumulated them in event
            // order, so the last bits may differ.
            assert!(
                s.reserved().approx_eq(&held[si], 1e-6),
                "server {si} holds {:?} but the migration ledger expects {:?}",
                s.reserved(),
                held[si]
            );
            if !s.is_up() {
                assert!(
                    s.reserved().is_zero(),
                    "down server {si} still carries a capacity hold"
                );
            }
        }
        // Manager-down invariants: a dead control plane can reach no
        // server, holds no migration ledger (torn down at crash time),
        // and keeps no agent-liveness state in manager memory (parked in
        // the per-server sessions for the inventory scan to re-learn).
        if self.mgr_down {
            for (si, r) in self.reach.iter().enumerate() {
                assert!(
                    *r != Reachability::Up,
                    "server {si} still reachable while the manager is down"
                );
            }
            assert!(
                self.migrations.is_empty(),
                "in-flight migrations survived a manager crash"
            );
            assert!(
                self.missed.is_empty() && self.unresponsive.is_empty(),
                "manager-side lifecycle maps survived a manager crash \
                 (must be parked in the sessions)"
            );
        }
        if self.cfg.engine == PlacementEngine::Indexed {
            self.pindex.assert_consistent(&self.servers);
        }
    }

    /// Computes the per-VM fault conditions one reclamation round on
    /// server `si` must work around: VMs already declared unresponsive
    /// pivot to hypervisor-only deflation; the injector decides which
    /// agents are down, which control messages are lost, and which guest
    /// hotplug paths stall. Empty (and draws nothing) under the empty
    /// fault plan.
    fn plan_vm_faults(
        &mut self,
        now: SimTime,
        si: usize,
        demand: &ResourceVector,
    ) -> HashMap<VmId, VmFaults> {
        let mut map = HashMap::new();
        if self.fault.is_none() && self.unresponsive.is_empty() {
            return map;
        }
        // Faults only matter when the launch actually triggers a
        // reclamation round (make_room returns early otherwise).
        if demand.saturating_sub(&self.servers[si].free()).is_zero() {
            return map;
        }
        let burn = self.cfg.cascade.deadline.unwrap_or(DEFAULT_AGENT_WAIT);
        let mut ids = std::mem::take(&mut self.scratch_ids);
        ids.clear();
        self.servers[si].low_priority_ids_into(&mut ids);
        for &id in &ids {
            let mut f = VmFaults::default();
            if self.unresponsive.contains(&id) {
                f.hypervisor_only = true;
            } else if let Some(inj) = self.fault.as_mut() {
                if self.cfg.cascade.use_app {
                    let down = inj.agent_down(id.0, now);
                    let lost = !down && inj.msg_lost(id.0, now);
                    if down {
                        self.metrics.incr("fault.injected.agent_down");
                    }
                    if lost {
                        self.metrics.incr("fault.injected.msg_loss");
                    }
                    if down || lost {
                        f.agent_timeout = Some(burn);
                    }
                }
                if self.cfg.cascade.use_os {
                    if let Some(stall) = inj.hotplug_stall(id.0, now) {
                        self.metrics.incr("fault.injected.hotplug_stall");
                        f.hotplug_stall = Some(stall);
                    }
                }
            }
            if f != VmFaults::default() {
                map.insert(id, f);
            }
        }
        self.scratch_ids = ids;
        map
    }

    /// Folds one reclamation round's outcomes into retry counters and
    /// agent-liveness tracking: a VM whose agent missed this cascade's
    /// deadline accrues a consecutive miss (escalating to unresponsive at
    /// the configured threshold); an agent that answered resets its count.
    fn note_cascade_outcomes(
        &mut self,
        now: SimTime,
        faults: &HashMap<VmId, VmFaults>,
        report: &ReclaimReport,
    ) {
        let retries: u64 = report
            .outcomes
            .iter()
            .map(|(_, o)| u64::from(o.retries))
            .sum();
        if retries > 0 {
            self.metrics.add("cascade.retries", retries);
        }
        if self.fault.is_none() {
            return;
        }
        for (id, out) in &report.outcomes {
            let f = faults.get(id).copied().unwrap_or_default();
            if f.hypervisor_only {
                continue; // Already escalated; liveness no longer tracked.
            }
            if f.agent_timeout.is_some() {
                let m = {
                    let m = self.missed.entry(*id).or_insert(0);
                    *m += 1;
                    *m
                };
                if self.cfg.unresponsive_after > 0
                    && m >= self.cfg.unresponsive_after
                    && self.unresponsive.insert(*id)
                {
                    self.stats.unresponsive_vms += 1;
                    self.metrics.incr("cluster.unresponsive_vms");
                    let rec = Record::AgentUnresponsive {
                        vm: *id,
                        missed_deadlines: m,
                    };
                    self.note(now, rec);
                }
            } else if self.cfg.cascade.use_app && out.app.engaged() {
                self.missed.insert(*id, 0);
            }
        }
    }

    /// Forgets every side-table entry for a VM leaving the cluster
    /// (exit, preemption, crash loss, OOM kill): the VM→server index,
    /// agent-liveness counters, the unresponsive set and its
    /// distress/breaker state. A VM that departs with its breaker open
    /// also leaves the open-breaker gauge, or the gauge drifts from the
    /// controller state and a relaunch under the same id inherits stale
    /// state.
    fn drop_vm_tracking(&mut self, now: SimTime, id: VmId) {
        if let Some(si) = self.index.remove(&id) {
            if self.ctl.forget(si, id) {
                self.shift_breaker_gauge(now, -1);
            }
        }
        self.missed.remove(&id);
        self.unresponsive.remove(&id);
    }

    /// Moves the open-breaker gauge by `delta` VMs.
    fn shift_breaker_gauge(&mut self, now: SimTime, delta: i64) {
        if delta == 0 {
            return;
        }
        self.breaker_open_now = self
            .breaker_open_now
            .checked_add_signed(delta)
            .expect("open-breaker gauge underflow");
        self.metrics.gauge_set(
            "cluster.breaker_open_vms",
            now,
            self.breaker_open_now as f64,
        );
    }

    /// Crashes a server: every hosted VM is lost and the server leaves
    /// the placement pool until [`recover_server`](Self::recover_server).
    /// On a reachable server the manager settles the loss at once: the
    /// incremental aggregates stay exact, lost low-priority VMs count as
    /// preempted, and in-flight migrations touching the server are torn
    /// down. Behind a partition (or while the manager is down) only the
    /// divergence log records the crash, and the manager discovers the
    /// losses at heal or recovery time (`observed` is `false`). Returns
    /// `None` when the server is unknown. Failing an already-down server
    /// means the fault schedule is buggy: debug builds panic, release
    /// builds count `cluster.fault_noops` and carry on.
    pub fn fail_server(&mut self, now: SimTime, sid: ServerId) -> Option<ServerFailure> {
        let si = sid.0 as usize;
        if si >= self.servers.len() {
            return None;
        }
        let Some(out) = self.ctl.crash(si, &mut self.servers[si]) else {
            debug_assert!(false, "fail_server: {sid} is already down");
            self.metrics.incr("cluster.fault_noops");
            return None;
        };
        let observed = self.reach[si] != Reachability::Partitioned;
        self.sink(now, si, &out);
        let Outcome::Crashed {
            lost_high,
            lost_low,
            ..
        } = out
        else {
            unreachable!("a crash reports a crash outcome");
        };
        Some(ServerFailure {
            server: sid,
            lost_high,
            lost_low,
            observed,
        })
    }

    /// Returns a crashed server to service. A reachable server rejoins
    /// the placement pool; one that reboots while the manager is down
    /// finds no control plane and rejoins as partitioned (the recovery
    /// scan absorbs it with everyone else); one that reboots behind a
    /// partition stays unreachable and logs the reboot for the heal.
    /// Returns `false` when the server is unknown. Recovering a server
    /// that is already up means the fault schedule is buggy: debug
    /// builds panic, release builds count `cluster.fault_noops` and
    /// carry on.
    pub fn recover_server(&mut self, now: SimTime, sid: ServerId) -> bool {
        let si = sid.0 as usize;
        if si >= self.servers.len() {
            return false;
        }
        let Some(out) = Controller::restart(&mut self.servers[si]) else {
            debug_assert!(false, "recover_server: {sid} is already up");
            self.metrics.incr("cluster.fault_noops");
            return false;
        };
        self.sink(now, si, &out);
        true
    }

    /// The one sink for the local controller's outcomes on server `si`.
    /// A reachable server's outcome lands in the manager's books at once
    /// (aggregates, index, stats, metrics, trace, spans); a partitioned
    /// server's — every live server's while the manager is down — is
    /// appended to its divergence log for the heal or the recovery scan
    /// to replay, leaving the frozen books untouched.
    fn sink(&mut self, now: SimTime, si: usize, out: &Outcome) {
        if let Some(session) = self.partitions.get_mut(&si) {
            let ev = match *out {
                Outcome::Departed {
                    vm,
                    cause,
                    hotplug,
                    ref reinflated,
                    ..
                } => {
                    let (at, reinflated) = (now, reinflated.len() as u64);
                    Some(match cause {
                        Cause::Exit => DivergenceEvent::Exited {
                            at,
                            vm,
                            reinflated,
                            hotplug,
                        },
                        Cause::OomKill => DivergenceEvent::OomKilled {
                            at,
                            vm,
                            reinflated,
                            hotplug,
                        },
                    })
                }
                Outcome::Crashed { .. } => Some(DivergenceEvent::Crashed { at: now }),
                Outcome::Restarted => Some(DivergenceEvent::Restarted { at: now }),
                Outcome::Rescued { vm, granted, .. } => {
                    (granted > 0.0).then_some(DivergenceEvent::EmergencyReinflated {
                        at: now,
                        vm,
                        granted_mb: granted,
                    })
                }
                Outcome::BreakerOpened { vm, trips, .. } => {
                    Some(DivergenceEvent::BreakerOpened { at: now, vm, trips })
                }
                Outcome::BreakerClosed { vm } => {
                    Some(DivergenceEvent::BreakerClosed { at: now, vm })
                }
            };
            if let Some(ev) = ev {
                session.log.push(ev);
            }
            self.refresh_index(si);
            return;
        }
        let sid = ServerId(si as u64);
        match out {
            Outcome::Departed {
                vm,
                cause,
                freed,
                hotplug,
                mid,
                reinflated,
                breaker_open,
            } => {
                self.drop_vm_tracking(now, *vm);
                if *breaker_open {
                    self.shift_breaker_gauge(now, -1);
                }
                let (vm, server, freed) = (*vm, sid, (*freed).into());
                let rec = match cause {
                    Cause::Exit => {
                        self.metrics.incr("cluster.exits");
                        Record::Exited { vm, server, freed }
                    }
                    Cause::OomKill => {
                        self.stats.oom_kills += 1;
                        self.metrics.incr("cluster.oom_kills");
                        Record::OomKilled { vm, server, freed }
                    }
                };
                self.note(now, rec);
                // Fold the guest's hotplug counters into the registry so
                // run summaries report cluster-wide unplug activity.
                for (key, n) in [
                    ("vm.hotplug.unplug_attempts", hotplug.unplug_attempts),
                    ("vm.hotplug.unplug_shortfalls", hotplug.unplug_shortfalls),
                    ("vm.hotplug.plug_ops", hotplug.plug_ops),
                ] {
                    self.metrics.add(key, n);
                }
                // The removal was settled between removal and reinflation
                // (see `depart`); the reinflation settles below.
                self.note_reinflations(now, sid, reinflated);
                self.settle(si, mid);
            }
            Outcome::Crashed {
                lost_high,
                lost_low,
                open_breakers,
                before,
            } => {
                for id in lost_high.iter().chain(lost_low) {
                    self.drop_vm_tracking(now, *id);
                }
                self.shift_breaker_gauge(now, -(*open_breakers as i64));
                // A crash mid-migration must not leak the in-flight
                // ledger: moves *into* the dead server lost their hold
                // with the machine, so only the ledger entry is dropped.
                for _ in self.abort_migrations_touching(now, si) {
                    self.metrics.incr("cluster.migrations_aborted");
                }
                self.reach[si] = Reachability::Down;
                self.settle(si, before);
                self.stats.server_crashes += 1;
                self.stats.preempted += lost_low.len() as u64;
                self.metrics.incr("cluster.server_crashes");
                self.metrics.incr("fault.injected.server_crash");
                self.metrics.add("cluster.preempted", lost_low.len() as u64);
                let rec = Record::ServerCrashed {
                    server: sid,
                    lost_high: lost_high.len() as u32,
                    lost_low: lost_low.len() as u32,
                };
                self.note(now, rec);
            }
            Outcome::Restarted => {
                self.reach[si] = Reachability::Up;
                self.refresh_index(si);
                self.metrics.incr("cluster.server_recoveries");
                if self.mgr_down {
                    // No control plane to rejoin: the server comes back
                    // partitioned, like every other, until the scan.
                    self.isolate_server(now, si);
                }
                let rec = Record::ServerRestarted {
                    server: sid,
                    manager_down: self.mgr_down,
                };
                self.note(now, rec);
            }
            Outcome::Rescued {
                vm,
                needed,
                granted,
                before,
            } => {
                if *granted > 0.0 {
                    self.stats.emergency_reinflations += 1;
                    self.metrics.incr("cluster.emergency_reinflations");
                    let rec = Record::EmergencyGrant {
                        vm: *vm,
                        server: sid,
                        needed_mb: *needed,
                        granted_mb: *granted,
                    };
                    self.note(now, rec);
                }
                self.settle(si, before);
                return;
            }
            Outcome::BreakerOpened { vm, trips, hold } => {
                self.metrics.incr("cluster.breaker_trips");
                self.shift_breaker_gauge(now, 1);
                let rec = Record::BreakerOpened {
                    vm: *vm,
                    server: sid,
                    trips: *trips,
                    hold_samples: *hold,
                };
                self.note(now, rec);
                return;
            }
            Outcome::BreakerClosed { .. } => {
                self.shift_breaker_gauge(now, -1);
                self.metrics.incr("distress.breaker_closed");
                return;
            }
        }
        self.update_gauges(now);
    }

    /// Handles a VM request: placement, reclamation, admission.
    pub fn launch(&mut self, now: SimTime, req: &VmRequest) -> LaunchOutcome {
        self.launch_impl(now, req, true)
    }

    /// [`launch`](Self::launch) that leaves a rejection *uncounted*: the
    /// cellular simulator's spill protocol probes the home cell and then
    /// ring neighbors with this, and only charges one `cluster.rejected`
    /// (via [`reject_spill`](Self::reject_spill)) once every candidate
    /// cell has refused. State-wise it is identical to `launch` — a
    /// refusing manager is left exactly as it was (the reclaim session
    /// rolls back any partial deflation), which is what makes the
    /// cross-cell message commit-or-rollback safe.
    pub fn launch_deferred(&mut self, now: SimTime, req: &VmRequest) -> LaunchOutcome {
        self.launch_impl(now, req, false)
    }

    /// Charges the final rejection of a request no cell could host:
    /// counted against this (home) manager so merged cellular stats sum
    /// exactly like monolithic ones.
    pub fn reject_spill(&mut self, now: SimTime, id: VmId) {
        self.reject(now, id, "no cell fits");
    }

    /// Counts one final rejection.
    fn reject(&mut self, now: SimTime, vm: VmId, why: &'static str) {
        self.stats.rejected += 1;
        self.metrics.incr("cluster.rejected");
        self.note(now, Record::Rejected { vm, why });
    }

    /// Counts and journals the reinflation grants one server handed out.
    fn note_reinflations(
        &mut self,
        now: SimTime,
        server: ServerId,
        grants: &[(VmId, ResourceVector)],
    ) {
        self.stats.reinflations += grants.len() as u64;
        self.metrics
            .add("cluster.reinflations", grants.len() as u64);
        for &(vm, by) in grants {
            let by = by.into();
            self.note(now, Record::Reinflated { vm, server, by });
        }
    }

    fn launch_impl(&mut self, now: SimTime, req: &VmRequest, count_reject: bool) -> LaunchOutcome {
        if !req.low_priority {
            self.predictor.observe(now, req.spec.get(ResourceKind::Cpu));
        }
        // Two-tier placement: prefer a server where free + deflatable
        // resources cover the demand (no preemption needed). Only
        // high-priority demand may fall back to servers where
        // low-priority VMs must be preempted (§5, "In the worst case, VMs
        // that are farthest from their deflation target are preempted").
        let first_try = if self.cfg.deflation_enabled {
            AvailabilityMode::Deflation
        } else {
            AvailabilityMode::PreemptionOnly
        };
        let mut chosen = self.place(&req.spec, first_try);
        if chosen.is_none() && !req.low_priority {
            chosen = self.place(&req.spec, AvailabilityMode::PreemptionOnly);
        }
        let Some(si) = chosen else {
            if count_reject {
                self.reject(now, req.id, "no server fits");
            }
            return LaunchOutcome::Rejected;
        };

        let before = self.servers[si].aggregates();
        let vm_faults = self.plan_vm_faults(now, si, &req.spec);
        let controller = self.ctl.hv;
        let session = if self.cfg.distress.is_none() {
            controller.make_room_with(now, &mut self.servers[si], &req.spec, &vm_faults)
        } else {
            // Breaker-open VMs are shielded from further memory
            // deflation; the proportional planner routes their share to
            // healthy donors (they can still be preempted).
            let mut ids = std::mem::take(&mut self.scratch_ids);
            ids.clear();
            self.servers[si].low_priority_ids_into(&mut ids);
            let shielded: HashSet<VmId> = ids
                .iter()
                .filter(|id| self.ctl.breaker_open(si, **id))
                .copied()
                .collect();
            self.scratch_ids = ids;
            controller.make_room_shielded(
                now,
                &mut self.servers[si],
                &req.spec,
                &vm_faults,
                &shielded,
            )
        };

        if !session.satisfied() {
            // Deflation and preemption could not cover the demand (the
            // server was dominated by high-priority VMs); reject — and
            // leave the cluster exactly as it was. `make_room` itself
            // refuses to touch a server it cannot satisfy, so this
            // rollback is defense-in-depth: undo any partial deflation
            // by handing the reclaimed resources back.
            let rb = session.rollback();
            debug_assert!(
                rb.restored_vms == 0,
                "an unsatisfiable make_room must not preempt"
            );
            if rb.reinflated_vms > 0 {
                self.metrics
                    .add("cluster.reject_rollback_reinflations", rb.reinflated_vms);
            }
            self.settle(si, &before);
            if count_reject {
                self.reject(now, req.id, "reclaim fell short");
            }
            self.update_gauges(now);
            return LaunchOutcome::Rejected;
        }

        let report = session.commit();
        self.note_cascade_outcomes(now, &vm_faults, &report);
        self.stats.deflations += report.outcomes.len() as u64;
        self.metrics
            .add("cluster.deflations", report.outcomes.len() as u64);
        for (_, out) in &report.outcomes {
            self.metrics
                .observe("cascade.latency_s", out.latency.as_secs_f64());
        }
        for id in &report.preempted {
            self.drop_vm_tracking(now, *id);
        }
        self.stats.preempted += report.preempted.len() as u64;
        self.metrics
            .add("cluster.preempted", report.preempted.len() as u64);
        if !report.outcomes.is_empty() || !report.preempted.is_empty() {
            let sid = ServerId(si as u64);
            Record::make_room(sid, req.id, &report, |rec| self.note(now, rec));
        }

        let priority = if req.low_priority {
            VmPriority::Low
        } else {
            VmPriority::High
        };
        let min = if self.cfg.deflation_enabled {
            req.min_size
        } else if req.low_priority {
            // Preemption-only baseline: nothing is deflatable.
            req.spec
        } else {
            ResourceVector::ZERO
        };
        let vm = if self.cfg.distress.is_none() {
            Vm::new(req.id, req.spec, priority).with_min(min)
        } else {
            // Under the distress loop guests get force-unplug semantics
            // (hard distress is reachable) and low-priority VMs carry a
            // working-set floor derived from their resident set.
            let guest = GuestConfig {
                force_unplug: self.cfg.distress.force_unplug,
                ..GuestConfig::default()
            };
            let mut vm =
                Vm::with_models(req.id, req.spec, priority, guest, LatencyModel::default())
                    .with_min(min);
            if req.low_priority && self.cfg.distress.floor_fraction > 0.0 {
                let floor = req.spec.get(ResourceKind::Memory)
                    * self.cfg.usage_fraction
                    * self.cfg.distress.floor_fraction;
                vm = vm.with_memory_floor(floor);
            }
            vm
        };
        vm.set_usage(
            req.spec.get(ResourceKind::Memory) * self.cfg.usage_fraction,
            req.spec.get(ResourceKind::Cpu) * self.cfg.usage_fraction,
        );
        self.servers[si].add_vm(vm);
        self.settle(si, &before);
        self.index.insert(req.id, si);
        let rec = Record::Launched {
            vm: req.id,
            server: ServerId(si as u64),
            type_name: req.type_name,
        };
        self.note(now, rec);
        self.stats.launched += 1;
        self.metrics.incr("cluster.launched");
        if req.low_priority {
            self.stats.launched_low += 1;
            self.metrics.incr("cluster.launched_low");
        } else {
            self.stats.highpri_launches += 1;
            self.stats.highpri_alloc_latency_secs += report.latency.as_secs_f64();
            self.metrics.incr("cluster.highpri_launches");
            self.metrics
                .observe("highpri.alloc_latency_s", report.latency.as_secs_f64());
        }
        self.update_gauges(now);
        LaunchOutcome::Placed {
            server: ServerId(si as u64),
            preempted: report.preempted,
        }
    }

    /// Records the cluster-wide time-weighted gauges at `now`. O(1):
    /// every value comes from the incrementally-maintained totals.
    fn update_gauges(&mut self, now: SimTime) {
        #[cfg(debug_assertions)]
        self.assert_consistent();
        // Fold any sessions leaked since the last poll into the
        // release-build counter (debug builds panic at the leak site).
        let leaked = hypervisor::leaked_sessions();
        if leaked > self.leaked_seen {
            self.metrics
                .add("cluster.session_leaked", leaked - self.leaked_seen);
            self.leaked_seen = leaked;
        }
        let util = self.utilization();
        let over = self.overcommitment();
        let running = self.running_vms() as f64;
        self.metrics.gauge_set("cluster.utilization", now, util);
        self.metrics.gauge_set("cluster.overcommitment", now, over);
        self.metrics.gauge_set("cluster.running_vms", now, running);
    }

    /// Handles a VM's natural exit: it leaves its server and the freed
    /// resources reinflate the server's deflated VMs. Returns the server
    /// the VM ran on, or `None` when the VM was already gone (preempted
    /// earlier, or killed or crashed behind the same partition). Behind
    /// a partition the manager's frozen view keeps the VM until the heal
    /// replays the exit.
    ///
    /// Transactional: the index entry is only dropped once the server
    /// has actually given up the VM, so a failed removal cannot leave
    /// the index pointing at nothing (or vice versa).
    pub fn exit(&mut self, now: SimTime, id: VmId) -> Option<ServerId> {
        let si = *self.index.get(&id)?;
        let Some(out) = self.depart(now, si, id, Cause::Exit) else {
            if self.reach[si] != Reachability::Partitioned {
                // The index claims server `si` hosts the VM but the
                // server disagrees — the two structures desynced.
                // Surface it loudly in debug builds, count it and repair
                // the index in release builds.
                debug_assert!(false, "index desync: {id} not on server {si}");
                self.metrics.incr("cluster.index_desync");
                self.index.remove(&id);
            }
            return None;
        };
        self.sink(now, si, &out);
        Some(ServerId(si as u64))
    }

    /// Whether a VM's deflation circuit breaker is currently open, as
    /// its server's local controller sees it.
    pub fn breaker_open(&self, id: VmId) -> bool {
        self.index
            .get(&id)
            .is_some_and(|si| self.ctl.breaker_open(*si, id))
    }

    /// One distress-sampling round over every low-priority VM, run by
    /// each server's local controller: classify each guest as healthy /
    /// soft (thrashing) / hard (OOM), run emergency reinflation for
    /// distressed guests, advance the per-VM circuit breakers, and fire
    /// the OOM killer on hard distress that outlived the grace window.
    /// Reachable VMs are sampled first in id order, then each up
    /// partitioned server's in server order. Behind a partition every
    /// action lands in the divergence log, and there is no migration
    /// escalation (moving a VM needs the manager). Returns the kills,
    /// slowdowns and rescue migrations for the simulator to act on. A
    /// no-op unless the distress loop is enabled.
    pub fn sample_distress(&mut self, now: SimTime) -> Vec<DistressEvent> {
        let d = self.cfg.distress;
        if d.is_none() {
            return Vec::new();
        }
        let interval_secs = d.sample_interval.as_secs_f64();
        let mut events = Vec::new();
        // Deterministic sample order: reachable VMs by id, then each
        // partitioned server's by id. The buffer is O(running VMs) and
        // rebuilt every round, so it is recycled instead of reallocated.
        let mut vms = std::mem::take(&mut self.scratch_sample);
        vms.clear();
        for (si, s) in self.servers.iter().enumerate().filter(|(_, s)| s.is_up()) {
            let order = if self.reach[si] == Reachability::Partitioned {
                si + 1
            } else {
                0
            };
            let low = s.vms().filter(|v| v.priority() == VmPriority::Low);
            vms.extend(low.map(|v| (order, v.id().0, si)));
        }
        vms.sort_unstable();
        let mut sampled = 0u64;
        let mut distressed = 0u64;
        for &(_, raw, si) in &vms {
            let id = VmId(raw);
            let observed = self.reach[si] != Reachability::Partitioned;
            let s = self.ctl.sample(now, si, &mut self.servers[si], id, &d);
            for out in s.rescue.iter().chain(&s.breaker) {
                self.sink(now, si, out);
            }
            if observed {
                sampled += 1;
                if s.hard || s.soft {
                    distressed += 1;
                }
                if s.hard {
                    self.metrics.incr("distress.hard_samples");
                } else if s.soft {
                    self.metrics.incr("distress.soft_samples");
                }
            }
            if s.kill {
                // Grace expired without rescue: the guest OOM killer
                // fires and the VM dies.
                self.oom_kill(now, si, id);
                events.push(DistressEvent::OomKill {
                    vm: id,
                    server: ServerId(si as u64),
                    observed,
                });
                continue;
            }
            if s.soft {
                events.push(DistressEvent::Slowdown {
                    vm: id,
                    perf: d.thrash_perf(s.frac),
                });
            }
            // Same-server mitigation left the guest distressed but
            // alive: escalate to live migration when the policy allows.
            if observed
                && (s.hard || s.soft)
                && !self.cfg.migration.is_none()
                && self.cfg.migration.distress_rescue
                && !self.migrations.contains_key(&id)
            {
                if let Some(total) = self.begin_migration(now, id) {
                    events.push(DistressEvent::Migration { vm: id, total });
                }
            }
        }
        if sampled > 0 {
            self.metrics.add(
                "distress.lowpri_sample_seconds",
                (sampled as f64 * interval_secs) as u64,
            );
        }
        if distressed > 0 {
            self.metrics.add(
                "cluster.distress_seconds",
                (distressed as f64 * interval_secs) as u64,
            );
        }
        vms.clear();
        self.scratch_sample = vms;
        self.update_gauges(now);
        events
    }

    /// The guest OOM killer fires on server `si`: the VM dies and its
    /// resources reinflate the survivors. The caller relaunches it
    /// through the crash path.
    fn oom_kill(&mut self, now: SimTime, si: usize, id: VmId) {
        let out = self
            .depart(now, si, id, Cause::OomKill)
            .expect("sampled VM is hosted");
        self.sink(now, si, &out);
    }

    /// Removes `id` from server `si` through its local controller, which
    /// reinflates the survivors. Between the removal and the
    /// reinflation a watching manager settles the removal into its
    /// totals and placement index and, for a natural exit under proactive headroom, holds
    /// back the forecast high-priority CPU demand from reinflation
    /// (cluster-wide free CPU counts toward the target). `None` when the
    /// server does not host the VM.
    fn depart(&mut self, now: SimTime, si: usize, id: VmId, cause: Cause) -> Option<Outcome> {
        use ResourceKind::Cpu;
        let observed = self.reach[si] != Reachability::Partitioned;
        let headroom = observed && cause == Cause::Exit && self.cfg.proactive_headroom;
        let indexed = self.cfg.engine == PlacementEngine::Indexed;
        let (totals, predictor, pindex) = (&mut self.totals, &mut self.predictor, &mut self.pindex);
        let between =
            |freed: &ResourceVector, before: &ServerAggregates, server: &PhysicalServer| {
                if observed {
                    totals.agg.shift_by(before, &server.aggregates());
                    if indexed {
                        pindex.refresh(si, server);
                    }
                }
                if !headroom {
                    return *freed;
                }
                let predicted = predictor.predict(now);
                // O(1): committed never exceeds per-server capacity, so the
                // cluster-wide free CPU (which already includes the freed
                // resources) is the difference of the totals.
                let free_cpu = totals
                    .capacity
                    .saturating_sub(&totals.agg.committed)
                    .get(Cpu);
                let deficit = (predicted - (free_cpu - freed.get(Cpu))).max(0.0);
                let hold_cpu = deficit.min(freed.get(Cpu));
                if freed.get(Cpu) > 0.0 {
                    freed.scale(1.0 - hold_cpu / freed.get(Cpu))
                } else {
                    *freed
                }
            };
        self.ctl
            .depart(now, si, &mut self.servers[si], id, cause, between)
    }

    /// The best migration destination for `demand`: the up server with
    /// the most deflation-aware headroom that can cover it, excluding
    /// the source. Deterministic and RNG-free for every engine — the
    /// indexed engine answers from cached availability vectors in one
    /// pass; scan engines rank live state the same way (dominating
    /// availability, largest norm, ties to the lowest index).
    fn find_destination(&self, demand: &ResourceVector, exclude: usize) -> Option<usize> {
        if self.cfg.engine == PlacementEngine::Indexed {
            return self
                .pindex
                .best_headroom(&self.servers, demand, Some(exclude));
        }
        let mut best: Option<(usize, f64)> = None;
        for (i, s) in self.servers.iter().enumerate() {
            if i == exclude || !s.placeable() {
                continue;
            }
            let avail = avail_from_free(s, &s.free(), AvailabilityMode::Deflation);
            if !avail.dominates(demand) {
                continue;
            }
            let norm = avail.norm();
            if best.map_or(true, |(_, bn)| norm > bn) {
                best = Some((i, norm));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Starts a live migration for `vm`: picks the destination with the
    /// most headroom, reserves the VM's effective allocation there
    /// (deflating destination VMs if needed — never preempting), and
    /// parks the session in the in-flight ledger. Returns the planned
    /// wall-clock span of the move — the caller schedules
    /// [`finish_migration`](Self::finish_migration) after it elapses —
    /// or `None` when migration is off, the VM is unknown or already
    /// moving, or no destination can take it.
    pub fn begin_migration(&mut self, now: SimTime, vm: VmId) -> Option<SimDuration> {
        if self.cfg.migration.is_none() || self.migrations.contains_key(&vm) {
            return None;
        }
        let si = *self.index.get(&vm)?;
        let demand = self.servers[si].vm(vm)?.effective();
        let Some(di) = self.find_destination(&demand, si) else {
            self.metrics.incr("cluster.migration_no_target");
            return None;
        };
        let before_dst = self.servers[di].aggregates();
        // Making room on the destination honors the circuit breaker:
        // the reservation must not squeeze a guest the breaker just
        // rescued. Empty while the distress loop is off.
        let shielded: HashSet<VmId> = if self.cfg.distress.is_none() {
            HashSet::new()
        } else {
            self.servers[di]
                .low_priority_ids()
                .into_iter()
                .filter(|id| self.ctl.breaker_open(di, *id))
                .collect()
        };
        let (src_ref, dst_ref) = if si < di {
            let (l, r) = self.servers.split_at_mut(di);
            (&mut l[si], &mut r[0])
        } else {
            let (l, r) = self.servers.split_at_mut(si);
            (&mut r[0], &mut l[di])
        };
        let mut sess =
            MigrationSession::begin(now, src_ref, dst_ref, vm, self.cfg.migration.session)?;
        let controller = self.ctl.hv;
        if !sess.reserve_shielded(&controller, &shielded) {
            sess.rollback();
            // The failed make_room deflated and rolled back destination
            // VMs — versions bumped — so settle to refresh the index.
            self.settle(di, &before_dst);
            self.metrics.incr("cluster.migration_no_target");
            return None;
        }
        let parked = sess.park();
        let total = parked.plan.total;
        self.migrations.insert(
            vm,
            InFlightMigration {
                src: si,
                dst: di,
                reserved: parked.reserved,
                reserve_outcomes: parked.reserve_outcomes,
                plan: parked.plan,
            },
        );
        self.settle(di, &before_dst);
        self.metrics.incr("cluster.migrations_started");
        let rec = Record::MigrationStarted {
            vm,
            src: ServerId(si as u64),
            dst: ServerId(di as u64),
            rounds: parked.plan.rounds,
        };
        self.note(now, rec);
        Some(total)
    }

    /// Completes an in-flight migration: moves the VM onto its reserved
    /// destination (delta-exact on both servers), charges the blackout
    /// to the migration latency histogram, and reinflates the landed VM
    /// toward its spec from the destination's remaining free pool.
    /// Returns the destination, or `None` when the move no longer
    /// applies (the VM exited, was preempted, or was OOM-killed during
    /// the copy window) — in that case the destination hold is released
    /// and its donors are made whole.
    pub fn finish_migration(&mut self, now: SimTime, vm: VmId) -> Option<ServerId> {
        let inflight = self.migrations.remove(&vm)?;
        if self.index.get(&vm) != Some(&inflight.src) {
            // A crashed source cleans the ledger in `fail_server`, so a
            // surviving entry whose VM is elsewhere means the VM died or
            // departed mid-copy: nothing to cut over.
            self.abort_migration(now, vm, &inflight);
            self.update_gauges(now);
            return None;
        }
        let (si, di) = (inflight.src, inflight.dst);
        let before_src = self.servers[si].aggregates();
        let moved = self.servers[si]
            .remove_vm(vm)
            .expect("indexed VM is hosted");
        self.settle(si, &before_src);
        let before_dst = self.servers[di].aggregates();
        self.servers[di].release_reservation(&inflight.reserved);
        self.servers[di].add_vm(moved);
        self.index.insert(vm, di);
        self.ctl.moved(si, di, vm);
        let mid_dst = self.settle(di, &before_dst);
        // The move usually lands on a roomier host: hand the landed VM
        // back as much of its deflation as the destination's free pool
        // covers (element-wise, never above its spec).
        let landed = self.servers[di].vm(vm).expect("just landed");
        let gap = landed.spec().saturating_sub(&landed.effective());
        let free = self.servers[di].free();
        let mut grant = ResourceVector::ZERO;
        for k in ResourceKind::ALL {
            grant.set(k, gap.get(k).min(free.get(k)).max(0.0));
        }
        if !grant.is_zero() {
            let mut session = ReclaimSession::begin(now, &mut self.servers[di]);
            session.reinflate(vm, &grant);
            let applied = session.commit().reinflated;
            self.note_reinflations(now, ServerId(di as u64), &applied);
            self.settle(di, &mid_dst);
        }
        self.stats.migrations += 1;
        self.metrics.incr("cluster.migrations");
        self.metrics
            .add("cluster.migration_mb", inflight.plan.copied_mb as u64);
        self.metrics
            .observe("migration.downtime_s", inflight.plan.downtime.as_secs_f64());
        let rec = Record::Migrated {
            vm,
            src: ServerId(si as u64),
            dst: ServerId(di as u64),
            rounds: inflight.plan.rounds,
            copied_mb: inflight.plan.copied_mb,
        };
        self.note(now, rec);
        self.update_gauges(now);
        Some(ServerId(di as u64))
    }

    /// Undoes a parked migration's destination state: releases the
    /// capacity hold and hands every destination donor back exactly
    /// what it gave (reverse order, mirroring the session's own
    /// rollback). A down destination is skipped — its holds died with
    /// the machine.
    fn abort_migration(&mut self, now: SimTime, vm: VmId, inflight: &InFlightMigration) {
        let di = inflight.dst;
        if self.servers[di].is_up() {
            let before = self.servers[di].aggregates();
            self.servers[di].release_reservation(&inflight.reserved);
            for (id, got) in inflight.reserve_outcomes.iter().rev() {
                let _ = self.servers[di].reinflate_vm(now, *id, got);
            }
            self.settle(di, &before);
        }
        self.metrics.incr("cluster.migrations_aborted");
        let dst = ServerId(di as u64);
        self.note(now, Record::MigrationAborted { vm, dst });
    }

    /// Removes every in-flight migration touching server `si` from the
    /// ledger, in VM order: moves out of it abort normally (destination
    /// hold released, donors reinflated); moves into it are returned
    /// for the caller to clean up.
    fn abort_migrations_touching(
        &mut self,
        now: SimTime,
        si: usize,
    ) -> Vec<(VmId, InFlightMigration)> {
        let mut affected: Vec<VmId> = self
            .migrations
            .iter()
            .filter(|(_, f)| f.src == si || f.dst == si)
            .map(|(id, _)| *id)
            .collect();
        affected.sort_unstable_by_key(|v| v.0);
        let mut inbound = Vec::new();
        for vm in affected {
            let inflight = self.migrations.remove(&vm).expect("listed as in-flight");
            if inflight.src == si {
                self.abort_migration(now, vm, &inflight);
            } else {
                inbound.push((vm, inflight));
            }
        }
        inbound
    }

    /// Evacuates every VM on `sid` via live migration (advance-warning
    /// maintenance or a scripted crash with `crash_warning`). Returns
    /// the started moves with their planned spans so the caller can
    /// schedule their completions; VMs with no viable destination stay
    /// put — and die with the server if the warning was real. A no-op
    /// unless migration is enabled and the server is up.
    pub fn drain_server(&mut self, now: SimTime, sid: ServerId) -> Vec<(VmId, SimDuration)> {
        let si = sid.0 as usize;
        if self.cfg.migration.is_none() || si >= self.servers.len() || !self.servers[si].placeable()
        {
            return Vec::new();
        }
        let mut ids: Vec<VmId> = self.servers[si].vms().map(|vm| vm.id()).collect();
        ids.sort_unstable_by_key(|v| v.0);
        let mut started = Vec::new();
        for vm in ids {
            if let Some(total) = self.begin_migration(now, vm) {
                started.push((vm, total));
            }
        }
        self.metrics.incr("cluster.drains");
        let rec = Record::Drained {
            server: sid,
            hosted: self.servers[si].vm_count() as u32,
            moves: started.len() as u32,
        };
        self.note(now, rec);
        self.update_gauges(now);
        started
    }

    /// One background defragmentation pass: picks the up server hosting
    /// the fewest VMs (at most `max_defrag_per_round`, all low-priority,
    /// none already moving) and migrates them off, converting scattered
    /// fragments into one whole placeable slot. Returns the started
    /// moves for the caller to schedule.
    pub fn defrag_round(&mut self, now: SimTime) -> Vec<(VmId, SimDuration)> {
        if self.cfg.migration.is_none() {
            return Vec::new();
        }
        let cap = self.cfg.migration.max_defrag_per_round;
        let mut victim: Option<(usize, usize)> = None; // (vm_count, index)
        for (i, s) in self.servers.iter().enumerate() {
            if !s.placeable() {
                continue;
            }
            let count = s.vm_count();
            if count == 0 || count > cap {
                continue;
            }
            let movable = s.vms().all(|vm| {
                vm.priority() == VmPriority::Low && !self.migrations.contains_key(&vm.id())
            });
            if movable && victim.map_or(true, |(bc, _)| count < bc) {
                victim = Some((count, i));
            }
        }
        let Some((_, si)) = victim else {
            return Vec::new();
        };
        let mut ids: Vec<VmId> = self.servers[si].vms().map(|vm| vm.id()).collect();
        ids.sort_unstable_by_key(|v| v.0);
        let mut started = Vec::new();
        for vm in ids {
            if let Some(total) = self.begin_migration(now, vm) {
                started.push((vm, total));
            }
        }
        if !started.is_empty() {
            self.metrics.incr("cluster.defrag_rounds");
            let rec = Record::Defragged {
                server: ServerId(si as u64),
                moves: started.len() as u32,
            };
            self.note(now, rec);
        }
        self.update_gauges(now);
        started
    }

    // ───────────────────── partition control plane ─────────────────────

    /// The manager's view of `sid`'s control-plane liveness.
    pub fn reachability(&self, sid: ServerId) -> Reachability {
        self.reach
            .get(sid.0 as usize)
            .copied()
            .unwrap_or(Reachability::Down)
    }

    /// Whether `sid` is currently behind a partition.
    pub fn is_partitioned(&self, sid: ServerId) -> bool {
        self.partitions.contains_key(&(sid.0 as usize))
    }

    /// The currently-partitioned servers, in index order.
    pub fn partitioned_servers(&self) -> Vec<ServerId> {
        let mut v: Vec<usize> = self.partitions.keys().copied().collect();
        v.sort_unstable();
        v.into_iter().map(|si| ServerId(si as u64)).collect()
    }

    /// The server hosting `id` per the manager's (possibly frozen)
    /// index view.
    pub fn server_of(&self, id: VmId) -> Option<ServerId> {
        self.index.get(&id).map(|si| ServerId(*si as u64))
    }

    /// The server hosting `id` per the manager's (possibly frozen) index
    /// view, if that server is currently partitioned.
    pub fn partitioned_host(&self, id: VmId) -> Option<ServerId> {
        let si = *self.index.get(&id)?;
        self.partitions
            .contains_key(&si)
            .then_some(ServerId(si as u64))
    }

    /// The divergence log a partitioned server has accumulated so far.
    pub fn divergence_log(&self, sid: ServerId) -> Option<&DivergenceLog> {
        self.partitions.get(&(sid.0 as usize)).map(|s| &s.log)
    }

    /// Opens a network partition between the manager and `sid`: the
    /// server leaves the placement pool *without* releasing capacity,
    /// its contribution to the cached cluster totals freezes at the
    /// last-observed snapshot, its open breakers leave the manager's
    /// gauge (the state stays with the local controller), and any
    /// in-flight migration touching it is
    /// torn down (moves out abort normally — the destination is still
    /// reachable; moves in have their stranded reservation cleared by
    /// the local controller, logged as divergence). Returns `false`
    /// when the server is unknown or down — a partition window opening
    /// over a crashed server never starts. Partitioning an
    /// already-partitioned server means the fault schedule is buggy:
    /// debug builds panic, release builds count `cluster.fault_noops`
    /// and carry on (mirroring `fail_server`/`recover_server`).
    pub fn partition_server(&mut self, now: SimTime, sid: ServerId) -> bool {
        let si = sid.0 as usize;
        if si >= self.servers.len() {
            return false;
        }
        debug_assert!(!self.mgr_down, "partition_server while the manager is down");
        if self.reach[si] == Reachability::Partitioned {
            debug_assert!(false, "partition_server: {sid} is already partitioned");
            self.metrics.incr("cluster.fault_noops");
            return false;
        }
        if self.reach[si] != Reachability::Up || !self.servers[si].is_up() {
            return false;
        }
        let hosted = self.isolate_server(now, si);
        self.metrics.incr("cluster.partitions");
        let rec = Record::Partitioned {
            server: sid,
            hosted: hosted as u32,
        };
        self.note(now, rec);
        self.update_gauges(now);
        true
    }

    /// The mechanics of losing contact with one reachable server —
    /// shared by [`partition_server`](Self::partition_server) (one
    /// network window, with its own metrics) and
    /// [`crash_manager`](Self::crash_manager) (every reachable server at
    /// once, metered as a single manager crash). Freezes the view,
    /// tears down touching migrations, opens the session. Returns the
    /// frozen hosted-VM count.
    fn isolate_server(&mut self, now: SimTime, si: usize) -> usize {
        self.reach[si] = Reachability::Partitioned;
        self.servers[si].set_connected(false);
        // Evict from the placement pool; capacity stays committed.
        self.refresh_index(si);
        // Freeze the manager's view *before* any partition-entry
        // mutation, so the snapshot equals exactly the contribution the
        // cached totals already carry.
        let frozen = self.servers[si].aggregates();
        let vms: HashSet<VmId, SeqHash> = self.servers[si].vms().map(|vm| vm.id()).collect();
        let low: HashSet<VmId, SeqHash> = self.servers[si].low_priority_ids().into_iter().collect();
        let mut session = PartitionSession {
            since: now,
            frozen,
            vms,
            low,
            missed: HashMap::default(),
            unresponsive: HashSet::default(),
            log: DivergenceLog::default(),
        };
        // The distress state stays with the local controller; its open
        // breakers leave the manager's gauge while unobservable.
        let open = self.ctl.open_breakers(si) as i64;
        self.shift_breaker_gauge(now, -open);
        // Tear down in-flight migrations touching the server. The local
        // controller clears inbound reservations, which must not settle:
        // the manager's frozen snapshot has to keep matching the totals.
        for (vm, inflight) in self.abort_migrations_touching(now, si) {
            self.servers[si].release_reservation(&inflight.reserved);
            for (id, got) in inflight.reserve_outcomes.iter().rev() {
                let _ = self.servers[si].reinflate_vm(now, *id, got);
            }
            self.refresh_index(si);
            session
                .log
                .push(DivergenceEvent::ReservationCleared { at: now, vm });
            self.metrics.incr("cluster.migrations_aborted");
        }
        let hosted = session.vms.len();
        self.partitions.insert(si, session);
        hosted
    }

    /// Closes the partition around `sid` and runs the anti-entropy
    /// reconciliation pass: the divergence log is replayed delta-exactly
    /// against the frozen snapshot, lifecycle maps are re-keyed, open
    /// breakers rejoin the gauge, the placement index is repaired, and the
    /// caller gets back which VMs died unobserved (high-priority ones
    /// are relaunch candidates). Returns `None` when the server is
    /// unknown. Healing a server that is not partitioned means the
    /// fault schedule is buggy: debug builds panic, release builds
    /// count `cluster.fault_noops` and carry on.
    pub fn heal_server(&mut self, now: SimTime, sid: ServerId) -> Option<ReconcileOutcome> {
        let si = sid.0 as usize;
        if si >= self.servers.len() {
            return None;
        }
        debug_assert!(!self.mgr_down, "heal_server while the manager is down");
        if self.reach[si] != Reachability::Partitioned {
            debug_assert!(false, "heal_server: {sid} is not partitioned");
            self.metrics.incr("cluster.fault_noops");
            return None;
        }
        let session = self
            .partitions
            .remove(&si)
            .expect("partitioned server has a session");
        let (frozen, since) = (session.frozen, session.since);
        let out = self.absorb_session(now, si, session);
        // Settle the whole partition window in one delta-exact step and
        // repair the placement index.
        let live = self.servers[si].aggregates();
        self.totals.agg.shift_by(&frozen, &live);
        self.refresh_index(si);
        self.metrics.incr("cluster.partition_heals");
        self.metrics
            .add("cluster.partition_divergence", out.divergence as u64);
        self.metrics
            .observe("partition.window_s", (now - since).as_secs_f64());
        let rec = Record::Healed {
            server: sid,
            divergence: out.divergence as u32,
            exited: out.exited.len() as u32,
            oom_killed: out.oom_killed.len() as u32,
            lost_high: out.lost_high.len() as u32,
            lost_low: out.lost_low.len() as u32,
        };
        self.note(now, rec);
        self.update_gauges(now);
        Some(out)
    }

    /// Reconnects one server and absorbs its inventory report after an
    /// unobserved window: classifies every frozen VM's fate from the divergence log,
    /// replays the counters the manager missed, restores surviving VMs'
    /// index entries and parked agent-liveness state (and their open
    /// breakers to the gauge), and drops tracking for the dead. Shared
    /// by the heal path (which then settles the frozen→live aggregate
    /// delta) and the manager-recovery scan (which rebuilds the totals
    /// from zero instead). Touches neither the cluster totals nor the
    /// placement index.
    fn absorb_session(
        &mut self,
        now: SimTime,
        si: usize,
        session: PartitionSession,
    ) -> ReconcileOutcome {
        self.servers[si].set_connected(true);
        self.reach[si] = if self.servers[si].is_up() {
            Reachability::Up
        } else {
            Reachability::Down
        };
        let replay = session.log.replay_summary();
        let mut frozen_ids: Vec<VmId> = session.vms.iter().copied().collect();
        frozen_ids.sort_unstable_by_key(|v| v.0);
        let mut out = ReconcileOutcome {
            server: ServerId(si as u64),
            divergence: session.log.len(),
            exited: Vec::new(),
            oom_killed: Vec::new(),
            lost_high: Vec::new(),
            lost_low: Vec::new(),
            crashed: replay.crashed,
        };
        // Open breakers on the server rejoin the manager's gauge.
        let open = self.ctl.open_breakers(si) as i64;
        self.shift_breaker_gauge(now, open);
        for id in frozen_ids {
            if self.servers[si].vm(id).is_some() {
                // Survivor: (re)index it and hand its parked agent state
                // back to the manager's maps. A heal re-inserts
                // identical entries; the recovery scan rebuilds them
                // from scratch.
                self.index.insert(id, si);
                if let Some(n) = session.missed.get(&id) {
                    self.missed.insert(id, *n);
                }
                if session.unresponsive.contains(&id) {
                    self.unresponsive.insert(id);
                }
                continue;
            }
            // Gone: replay its departure against the lifecycle maps.
            self.drop_vm_tracking(now, id);
            if replay.exited.contains(&id) {
                out.exited.push(id);
            } else if replay.oom_killed.contains(&id) {
                out.oom_killed.push(id);
            } else if session.low.contains(&id) {
                out.lost_low.push(id);
            } else {
                out.lost_high.push(id);
            }
        }
        // Replay the counters the manager could not record live.
        let kills = out.oom_killed.len() as u64;
        let crashed = u64::from(replay.crashed);
        self.stats.oom_kills += kills;
        self.stats.reinflations += replay.reinflated;
        self.stats.emergency_reinflations += replay.emergency;
        self.stats.server_crashes += crashed;
        for (key, n) in [
            ("cluster.exits", out.exited.len() as u64),
            ("cluster.oom_kills", kills),
            ("cluster.reinflations", replay.reinflated),
            ("vm.hotplug.unplug_attempts", replay.hotplug.unplug_attempts),
            (
                "vm.hotplug.unplug_shortfalls",
                replay.hotplug.unplug_shortfalls,
            ),
            ("vm.hotplug.plug_ops", replay.hotplug.plug_ops),
            ("cluster.emergency_reinflations", replay.emergency),
            ("cluster.breaker_trips", replay.trips),
            ("distress.breaker_closed", replay.closes),
            ("cluster.server_crashes", crashed),
            ("fault.injected.server_crash", crashed),
            ("cluster.server_recoveries", replay.restarts),
        ] {
            if n > 0 {
                self.metrics.add(key, n);
            }
        }
        if replay.crashed {
            // Crash losses count as preempted (the key registers even
            // when none were low-priority, as on the observed path).
            self.stats.preempted += out.lost_low.len() as u64;
            self.metrics
                .add("cluster.preempted", out.lost_low.len() as u64);
        }
        out
    }

    /// Whether the manager itself is crashed (every server autonomous,
    /// placement suspended, arrivals parked by the caller).
    pub fn manager_down(&self) -> bool {
        self.mgr_down
    }

    /// The manager process crashes: every reachable server loses its
    /// control plane at once, which is semantically "all servers
    /// partitioned simultaneously" — each one's view freezes, its local
    /// controller carries on alone, and every in-flight migration is
    /// torn down through the partition-entry abort paths (the manager
    /// that commanded them is gone). The manager-side agent-liveness
    /// maps (`missed`, `unresponsive`) die with the process and are
    /// parked in the per-server sessions: that state belongs to the
    /// server-side agents, and the restarted manager re-learns it from
    /// the inventory scan. Crashing an already-down manager means the
    /// fault schedule is buggy: debug builds panic, release builds count
    /// `cluster.fault_noops`.
    pub fn crash_manager(&mut self, now: SimTime) -> bool {
        if self.mgr_down {
            debug_assert!(false, "crash_manager: manager is already down");
            self.metrics.incr("cluster.fault_noops");
            return false;
        }
        let mut isolated = 0u32;
        for si in 0..self.servers.len() {
            if self.reach[si] == Reachability::Up && self.servers[si].is_up() {
                self.isolate_server(now, si);
                isolated += 1;
            }
        }
        // Park the dying manager's agent-liveness maps with each VM's
        // hosting session. Every entry references a hosted VM, and
        // every hosting server is now partitioned (already-partitioned
        // servers keep carrying their own parked copies as empty maps —
        // the manager retained those across plain network windows).
        for (id, n) in std::mem::take(&mut self.missed) {
            let session = self.partitions.get_mut(&self.index[&id]);
            session
                .expect("hosting server is isolated")
                .missed
                .insert(id, n);
        }
        for id in std::mem::take(&mut self.unresponsive) {
            let session = self.partitions.get_mut(&self.index[&id]);
            session
                .expect("hosting server is isolated")
                .unresponsive
                .insert(id);
        }
        self.mgr_down = true;
        self.mgr_down_since = now;
        self.stats.manager_crashes += 1;
        self.metrics.incr("fault.manager_crashes");
        self.note(now, Record::ManagerCrashed { isolated });
        self.update_gauges(now);
        true
    }

    /// The manager restarts and rebuilds its entire state by an
    /// **inventory scan** — no persisted snapshot. Every derived table
    /// (VM index, cluster totals, distress/breaker state, agent
    /// liveness, placement index) is reconstructed from per-server
    /// reports: live hosted VMs and aggregates straight off each
    /// server, divergence logs replayed in order for the counters the
    /// manager missed, parked lifecycle state handed back for
    /// survivors. Servers in `still_unreachable` (an open *network*
    /// partition outlives the manager crash) cannot answer the scan:
    /// the manager conservatively carries their last cached report (the
    /// frozen session) until their own heal. Returns one
    /// [`ReconcileOutcome`] per scanned server so the caller can decide
    /// relaunches, exactly as after `heal_server`.
    pub fn recover_manager(
        &mut self,
        now: SimTime,
        still_unreachable: &[ServerId],
    ) -> Vec<ReconcileOutcome> {
        if !self.mgr_down {
            debug_assert!(false, "recover_manager: manager is not down");
            self.metrics.incr("cluster.fault_noops");
            return Vec::new();
        }
        self.mgr_down = false;
        let skip: HashSet<usize, SeqHash> =
            still_unreachable.iter().map(|s| s.0 as usize).collect();
        // Nothing below survived the crash in manager memory: the
        // ledgers were torn down or parked at crash time, and the
        // derived tables are dropped here before the scan re-derives
        // them from server ground truth.
        debug_assert!(self.migrations.is_empty());
        debug_assert!(self.missed.is_empty());
        debug_assert!(self.unresponsive.is_empty());
        debug_assert_eq!(self.breaker_open_now, 0);
        self.index.clear();
        self.totals.agg = ServerAggregates::default();
        let mut outs = Vec::new();
        let mut divergence = 0u32;
        let mut scanned = 0u32;
        for si in 0..self.servers.len() {
            if skip.contains(&si) {
                if let Some(sess) = self.partitions.get(&si) {
                    // Still unreachable: carry the last cached report.
                    for id in sess.vms.iter() {
                        self.index.insert(*id, si);
                    }
                    let frozen = sess.frozen;
                    self.totals
                        .agg
                        .shift_by(&ServerAggregates::default(), &frozen);
                } else {
                    // Crashed behind a still-open network window:
                    // nothing to carry; it rejoins via recover_server.
                    debug_assert_eq!(self.reach[si], Reachability::Down);
                }
                continue;
            }
            scanned += 1;
            if let Some(session) = self.partitions.remove(&si) {
                divergence += session.log.len() as u32;
                outs.push(self.absorb_session(now, si, session));
            } else {
                // Crashed while still reachable, before the manager
                // died: the server reports itself empty.
                debug_assert_eq!(self.reach[si], Reachability::Down);
            }
            let live = self.servers[si].aggregates();
            self.totals
                .agg
                .shift_by(&ServerAggregates::default(), &live);
        }
        // The placement index is derived state too: rebuild wholesale
        // from the scanned servers.
        if self.cfg.engine == PlacementEngine::Indexed {
            self.pindex = PlacementIndex::new(&self.servers);
        }
        self.metrics.incr("cluster.recovery_scans");
        self.metrics
            .add("cluster.recovery_inventory_servers", u64::from(scanned));
        self.metrics
            .add("cluster.recovery_divergence", u64::from(divergence));
        self.metrics.observe(
            "failover.downtime_s",
            (now - self.mgr_down_since).as_secs_f64(),
        );
        let rec = Record::ManagerRecovered {
            scanned,
            divergence,
        };
        self.note(now, rec);
        self.update_gauges(now);
        outs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimDuration;

    fn small_cfg(deflation: bool) -> ClusterManagerConfig {
        ClusterManagerConfig {
            n_servers: 2,
            server_capacity: ResourceVector::new(8.0, 32_768.0, 200.0, 400.0),
            deflation_enabled: deflation,
            ..ClusterManagerConfig::default()
        }
    }

    fn req(id: u64, low: bool) -> VmRequest {
        let spec = ResourceVector::new(4.0, 16_384.0, 100.0, 200.0);
        VmRequest {
            id: VmId(id),
            arrival: SimTime::ZERO,
            lifetime: SimDuration::from_hours(1),
            spec,
            type_name: "test",
            low_priority: low,
            min_size: if low {
                spec.scale(0.3)
            } else {
                ResourceVector::ZERO
            },
        }
    }

    #[test]
    fn places_until_full_then_deflates() {
        let mut m = ClusterManager::new(small_cfg(true));
        // 4 VMs fill both servers exactly.
        for i in 0..4 {
            let out = m.launch(SimTime::ZERO, &req(i, true));
            assert!(matches!(out, LaunchOutcome::Placed { .. }));
        }
        assert_eq!(m.running_vms(), 4);
        assert!((m.utilization() - 1.0).abs() < 1e-9);
        assert_eq!(m.overcommitment(), 0.0);

        // A 5th VM forces deflation but no preemption.
        let out = m.launch(SimTime::ZERO, &req(4, true));
        match out {
            LaunchOutcome::Placed { preempted, .. } => assert!(preempted.is_empty()),
            LaunchOutcome::Rejected => panic!("should deflate, not reject"),
        }
        assert_eq!(m.running_vms(), 5);
        assert!(m.overcommitment() > 0.0);
        assert!(m.stats().deflations > 0);
    }

    #[test]
    fn preemption_only_mode_preempts_instead() {
        let mut m = ClusterManager::new(small_cfg(false));
        for i in 0..4 {
            m.launch(SimTime::ZERO, &req(i, true));
        }
        let out = m.launch(SimTime::ZERO, &req(4, true));
        match out {
            LaunchOutcome::Placed { preempted, .. } => {
                assert!(!preempted.is_empty(), "preemption-only must preempt")
            }
            LaunchOutcome::Rejected => panic!("should place after preempting"),
        }
        assert!(m.stats().preempted > 0);
        // The preempted VM no longer runs.
        assert_eq!(m.running_vms(), 4);
    }

    #[test]
    fn high_priority_is_never_preempted() {
        let mut m = ClusterManager::new(small_cfg(true));
        for i in 0..4 {
            m.launch(SimTime::ZERO, &req(i, false));
        }
        // Cluster is full of high-priority VMs; another must be rejected.
        let out = m.launch(SimTime::ZERO, &req(4, false));
        assert_eq!(out, LaunchOutcome::Rejected);
        assert_eq!(m.stats().rejected, 1);
        assert_eq!(m.running_vms(), 4);
    }

    #[test]
    fn exit_reinflates_deflated_vms() {
        let mut m = ClusterManager::new(ClusterManagerConfig {
            n_servers: 1,
            server_capacity: ResourceVector::new(8.0, 32_768.0, 200.0, 400.0),
            ..ClusterManagerConfig::default()
        });
        m.launch(SimTime::ZERO, &req(0, true));
        m.launch(SimTime::ZERO, &req(1, true));
        // Third VM deflates the first two.
        m.launch(SimTime::ZERO, &req(2, true));
        let deflated: f64 = m.servers()[0]
            .vms()
            .map(|vm| vm.max_deflation())
            .fold(0.0, f64::max);
        assert!(deflated > 0.0);

        // One exits; the others reinflate.
        assert!(m.exit(SimTime::from_secs(60), VmId(2)).is_some());
        let still: f64 = m.servers()[0]
            .vms()
            .map(|vm| vm.max_deflation())
            .fold(0.0, f64::max);
        assert!(still < deflated, "reinflation should reduce deflation");
        assert!(m.stats().reinflations > 0);
    }

    #[test]
    fn heterogeneous_pool_alternates_capacities() {
        let m = ClusterManager::new(ClusterManagerConfig {
            n_servers: 4,
            capacity_skew: 0.5,
            ..small_cfg(true)
        });
        let caps: Vec<f64> = m
            .servers()
            .iter()
            .map(|s| s.capacity().get(ResourceKind::Cpu))
            .collect();
        assert_eq!(caps, vec![12.0, 4.0, 12.0, 4.0]);
        // Total capacity is preserved versus the homogeneous pool.
        let hom = ClusterManager::new(ClusterManagerConfig {
            n_servers: 4,
            ..small_cfg(true)
        });
        assert!(m.total_capacity().approx_eq(&hom.total_capacity(), 1e-9));
        // Big VMs only fit the big servers.
        let mut m = m;
        for i in 0..3 {
            let out = m.launch(SimTime::ZERO, &req(i, true));
            assert!(matches!(out, LaunchOutcome::Placed { .. }), "vm {i}");
        }
        // Best-fit prefers the roomier (big) servers; the small ones
        // stay empty while big-server headroom lasts.
        for (i, s) in m.servers().iter().enumerate() {
            if i % 2 == 1 {
                assert_eq!(s.vm_count(), 0, "server {i}");
            }
        }
    }

    #[test]
    fn lifecycle_trace_records_events() {
        let mut m = ClusterManager::new(small_cfg(true));
        for i in 0..5 {
            m.launch(SimTime::ZERO, &req(i, true));
        }
        m.exit(SimTime::from_secs(60), VmId(0));
        let log = m.journal();
        assert_eq!(log.count("cluster.launch"), 5);
        assert!(log.count("cascade.deflate") > 0, "5th VM forces deflation");
        assert_eq!(log.count("cluster.exit"), 1);
        assert!(log.count("cluster.reinflate") > 0, "exit frees resources");
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn manager_emits_spans_and_metrics() {
        let mut m = ClusterManager::new(small_cfg(true));
        for i in 0..5 {
            m.launch(SimTime::ZERO, &req(i, true));
        }
        m.exit(SimTime::from_secs(60), VmId(0));

        // The 5th launch forced deflation, which records a make_room
        // followed by its cascade.deflate records.
        let entries = m.journal().entries();
        let room = entries
            .iter()
            .position(|(_, r)| r.kind() == "server.make_room")
            .expect("deflation should record a make_room");
        assert_eq!(entries[room + 1].1.kind(), "cascade.deflate");

        // Counters mirror ClusterStats.
        let stats = m.stats();
        let metrics = m.metrics();
        assert_eq!(metrics.count("cluster.launched"), stats.launched);
        assert_eq!(metrics.count("cluster.deflations"), stats.deflations);
        assert_eq!(metrics.count("cluster.exits"), 1);
        assert_eq!(metrics.count("cluster.reinflations"), stats.reinflations);
        // Hotplug counters were folded in on exit (VM_LEVEL cascade does
        // not unplug, so attempts may be zero — the key need not exist).
        assert!(metrics.histogram("cascade.latency_s").is_some());
    }

    #[test]
    fn run_summary_is_machine_readable() {
        let mut m = ClusterManager::new(small_cfg(true));
        for i in 0..5 {
            m.launch(SimTime::ZERO, &req(i, true));
        }
        let doc = m.run_summary(SimTime::from_secs(100), "unit");
        assert_eq!(doc.get("run").and_then(|v| v.as_str()), Some("unit"));
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("cluster.launched"))
                .and_then(|v| v.as_f64()),
            Some(5.0)
        );
        assert!(doc
            .get("gauges")
            .and_then(|g| g.get("cluster.utilization"))
            .is_some());
        let text = doc.to_pretty();
        assert!(simkit::JsonValue::parse(&text).is_ok());
    }

    #[test]
    fn run_summary_aggregates_metrics_and_journal() {
        let mut m = ClusterManager::new(small_cfg(true));
        for i in 0..5 {
            m.launch(SimTime::ZERO, &req(i, true));
        }
        let records = m.journal().len();
        let deflations = m.journal().count("cascade.deflate");
        assert!(deflations > 0, "the fifth launch deflates");
        let doc = m.run_summary(SimTime::from_secs(100), "unit");
        let num = |v: Option<&JsonValue>| v.and_then(JsonValue::as_f64);
        assert_eq!(
            num(doc.get("counters").and_then(|c| c.get("cluster.launched"))),
            Some(5.0)
        );
        let trace = doc.get("trace").expect("summary has a trace section");
        assert_eq!(num(trace.get("records")), Some(records as f64));
        assert_eq!(num(trace.get("dropped")), Some(0.0));
        let spans = trace.get("spans").expect("per-kind counts");
        assert_eq!(num(spans.get("cluster.launch")), Some(5.0));
        assert_eq!(num(spans.get("cascade.deflate")), Some(deflations as f64));
    }

    #[test]
    fn exit_of_preempted_vm_is_noop() {
        let mut m = ClusterManager::new(small_cfg(false));
        for i in 0..5 {
            m.launch(SimTime::ZERO, &req(i, true));
        }
        assert!(m.stats().preempted > 0);
        // Find a preempted id: one of 0..5 is not running.
        let gone: Vec<u64> = (0..5).filter(|i| !m.is_running(VmId(*i))).collect();
        assert!(!gone.is_empty());
        assert!(m.exit(SimTime::from_secs(1), VmId(gone[0])).is_none());
    }

    #[test]
    fn exit_reports_hosting_server() {
        let mut m = ClusterManager::new(small_cfg(true));
        let out = m.launch(SimTime::ZERO, &req(0, true));
        let LaunchOutcome::Placed { server, .. } = out else {
            panic!("empty cluster must place");
        };
        assert_eq!(m.exit(SimTime::from_secs(1), VmId(0)), Some(server));
        // A second exit of the same VM is a no-op.
        assert_eq!(m.exit(SimTime::from_secs(2), VmId(0)), None);
        m.assert_consistent();
    }

    #[test]
    fn rejected_launch_is_state_neutral() {
        let mut m = ClusterManager::new(small_cfg(true));
        // Fill the cluster with high-priority VMs (untouchable).
        for i in 0..4 {
            let out = m.launch(SimTime::ZERO, &req(i, false));
            assert!(matches!(out, LaunchOutcome::Placed { .. }));
        }
        let util = m.utilization();
        let over = m.overcommitment();
        let aggs: Vec<_> = m.servers().iter().map(|s| s.aggregates()).collect();

        let out = m.launch(SimTime::ZERO, &req(4, false));
        assert_eq!(out, LaunchOutcome::Rejected);

        // The reject left every server — and the cluster totals — as
        // they were.
        assert_eq!(m.running_vms(), 4);
        assert_eq!(m.utilization(), util);
        assert_eq!(m.overcommitment(), over);
        for (s, before) in m.servers().iter().zip(&aggs) {
            assert!(s.aggregates().approx_eq(before));
        }
        m.assert_consistent();
    }

    #[test]
    fn server_crash_is_exact_and_recoverable() {
        let mut m = ClusterManager::new(small_cfg(true));
        for i in 0..4 {
            m.launch(SimTime::ZERO, &req(i, i % 2 == 0));
        }
        let running_before = m.running_vms();
        let f = m
            .fail_server(SimTime::from_secs(10), ServerId(0))
            .expect("server 0 is up");
        assert_eq!(f.server, ServerId(0));
        let lost = f.lost_high.len() + f.lost_low.len();
        assert!(lost > 0, "server 0 hosted something");
        assert_eq!(m.running_vms(), running_before - lost);
        assert!(!m.servers()[0].is_up());
        assert_eq!(m.servers()[0].vm_count(), 0);
        for id in f.lost_high.iter().chain(&f.lost_low) {
            assert!(!m.is_running(*id));
        }
        assert_eq!(m.stats().server_crashes, 1);
        assert_eq!(m.stats().preempted, f.lost_low.len() as u64);
        m.assert_consistent();

        // While down, the server takes no placements. (Double-fail and
        // recover-of-up are exercised by the idempotency tests below.)
        let out = m.launch(SimTime::from_secs(12), &req(90, true));
        if let LaunchOutcome::Placed { server, .. } = out {
            assert_ne!(server, ServerId(0), "down server must not place");
        }

        assert!(m.recover_server(SimTime::from_secs(20), ServerId(0)));
        assert!(m.servers()[0].is_up());
        m.assert_consistent();
        // Recovered server hosts again.
        let out = m.launch(SimTime::from_secs(30), &req(91, true));
        assert!(matches!(out, LaunchOutcome::Placed { .. }));
    }

    #[test]
    fn dead_agents_escalate_to_hypervisor_only() {
        use simkit::SimDuration;
        let mut cfg = ClusterManagerConfig {
            n_servers: 1,
            server_capacity: ResourceVector::new(8.0, 32_768.0, 200.0, 400.0),
            cascade: CascadeConfig::FULL.with_deadline(SimDuration::from_secs(5)),
            unresponsive_after: 3,
            ..ClusterManagerConfig::default()
        };
        // Agents crash fast and never come back within the run.
        cfg.faults = FaultPlan {
            seed: 11,
            agent_crash_rate_per_hour: 1_000.0,
            agent_restart: SimDuration::from_hours(1_000),
            ..FaultPlan::none()
        };
        let mut m = ClusterManager::new(cfg);
        // Two low-priority VMs fill the server.
        m.launch(SimTime::ZERO, &req(0, true));
        m.launch(SimTime::ZERO, &req(1, true));

        // Each high-priority launch forces a cascade round against both
        // agents; each exit reinflates so the next round deflates again.
        for round in 0..5u64 {
            let t = SimTime::from_secs(1_000 * (round + 1));
            let out = m.launch(t, &req(100 + round, false));
            assert!(matches!(out, LaunchOutcome::Placed { .. }), "round {round}");
            m.exit(t + SimDuration::from_secs(10), VmId(100 + round));
            m.assert_consistent();
        }

        let stats = m.stats();
        assert_eq!(
            stats.unresponsive_vms, 2,
            "both dead agents escalate exactly once"
        );
        assert_eq!(m.metrics().count("cluster.unresponsive_vms"), 2);
        assert!(m.metrics().count("fault.injected.agent_down") >= 6);
        // The escalation is visible as a typed record.
        assert_eq!(m.journal().count("cluster.agent_unresponsive"), 2);
    }

    #[test]
    fn fault_free_run_registers_no_fault_keys() {
        let mut m = ClusterManager::new(small_cfg(true));
        for i in 0..5 {
            m.launch(SimTime::ZERO, &req(i, true));
        }
        m.exit(SimTime::from_secs(60), VmId(0));
        let doc = m.run_summary(SimTime::from_secs(100), "unit");
        let text = doc.to_string();
        assert!(
            !text.contains("fault."),
            "fault path must be opt-in: {text}"
        );
        assert!(!text.contains("cluster.unresponsive_vms"));
        assert!(!text.contains("cluster.server_crashes"));
        assert!(!text.contains("cascade.retries"));
    }

    #[test]
    fn distress_disabled_run_registers_no_distress_keys() {
        let mut m = ClusterManager::new(small_cfg(true));
        for i in 0..5 {
            m.launch(SimTime::ZERO, &req(i, true));
        }
        // Sampling a disabled loop is a no-op and draws nothing.
        assert!(m.sample_distress(SimTime::from_secs(60)).is_empty());
        m.exit(SimTime::from_secs(120), VmId(0));
        let doc = m.run_summary(SimTime::from_secs(200), "unit");
        let text = doc.to_string();
        assert!(
            !text.contains("distress."),
            "distress path must be opt-in: {text}"
        );
        assert!(!text.contains("cluster.oom_kills"));
        assert!(!text.contains("cluster.emergency_reinflations"));
        assert!(!text.contains("cluster.breaker_open_vms"));
        assert!(!text.contains("cluster.distress_seconds"));
    }

    /// Drives one low-priority VM into hard distress (OOM) by deflating
    /// it below its resident set through the manager's own bookkeeping.
    fn force_oom(m: &mut ClusterManager, id: VmId, mem: f64) {
        let before = m.servers[0].aggregates();
        let cascade = m.ctl.hv.cascade;
        let _ = m.servers[0]
            .deflate_vm(SimTime::ZERO, id, &ResourceVector::memory(mem), &cascade)
            .expect("VM is hosted");
        m.settle(0, &before);
    }

    fn distress_cfg(d: crate::distress::DistressConfig) -> ClusterManagerConfig {
        ClusterManagerConfig {
            n_servers: 1,
            server_capacity: ResourceVector::new(8.0, 32_768.0, 200.0, 400.0),
            distress: d,
            ..ClusterManagerConfig::default()
        }
    }

    #[test]
    fn sustained_hard_distress_fires_the_oom_killer() {
        let mut d = crate::distress::DistressConfig::unguarded();
        d.floor_fraction = 0.0; // no floor: deflation may cut freely
        let mut m = ClusterManager::new(distress_cfg(d));
        m.launch(SimTime::ZERO, &req(0, true));
        m.launch(SimTime::ZERO, &req(1, true));
        // Cut VM 0 well below its 8192 MiB resident set.
        force_oom(&mut m, VmId(0), 9_000.0);
        assert!(m.servers()[0]
            .vm(VmId(0))
            .unwrap()
            .state()
            .borrow()
            .is_oom());

        // The grace clock starts at the first sample (60 s); the 180 s
        // window expires at the 240 s sample.
        for s in 1..=4u64 {
            let evs = m.sample_distress(SimTime::from_secs(60 * s));
            if s < 4 {
                assert!(evs.is_empty(), "sample {s} must not kill yet");
                assert!(m.is_running(VmId(0)));
            } else {
                assert_eq!(evs.len(), 1);
                assert!(matches!(
                    evs[0],
                    DistressEvent::OomKill {
                        vm: VmId(0),
                        server: ServerId(0),
                        observed: true
                    }
                ));
            }
        }
        assert!(!m.is_running(VmId(0)));
        assert_eq!(m.stats().oom_kills, 1);
        let metrics = m.metrics();
        assert_eq!(metrics.count("cluster.oom_kills"), 1);
        assert!(metrics.count("cluster.distress_seconds") >= 180);
        assert!(metrics.count("distress.lowpri_sample_seconds") > 0);
        assert_eq!(m.journal().count("cluster.guest_oom_kill"), 1);
        m.assert_consistent();
    }

    #[test]
    fn emergency_reinflation_rescues_before_the_grace_window() {
        let d = crate::distress::DistressConfig::guarded();
        let mut m = ClusterManager::new(distress_cfg(d));
        m.launch(SimTime::ZERO, &req(0, true));
        m.launch(SimTime::ZERO, &req(1, true));
        force_oom(&mut m, VmId(0), 9_000.0);
        // Soak up the freed memory so the rescue must tap donor VM 1.
        let spec = ResourceVector::new(0.0, 9_000.0, 0.0, 0.0);
        let hi = VmRequest {
            id: VmId(9),
            arrival: SimTime::ZERO,
            lifetime: SimDuration::from_hours(1),
            spec,
            type_name: "hog",
            low_priority: false,
            min_size: ResourceVector::ZERO,
        };
        assert!(matches!(
            m.launch(SimTime::ZERO, &hi),
            LaunchOutcome::Placed { .. }
        ));
        assert!(m.servers()[0]
            .vm(VmId(0))
            .unwrap()
            .state()
            .borrow()
            .is_oom());

        // One guarded sample rescues: no kill, OOM cleared, donor intact.
        let evs = m.sample_distress(SimTime::from_secs(60));
        assert!(evs.is_empty(), "rescued, not killed or slowed: {evs:?}");
        let vm0 = m.servers()[0].vm(VmId(0)).unwrap();
        assert!(!vm0.state().borrow().is_oom());
        let vm1 = m.servers()[0].vm(VmId(1)).unwrap();
        let donor_eff = vm1.effective().get(ResourceKind::Memory);
        let donor_usage = vm1.state().borrow().usage.memory_mb;
        assert!(
            donor_eff >= donor_usage - 1.0,
            "donor squeezed below its own resident set: {donor_eff} < {donor_usage}"
        );
        assert!(m.stats().emergency_reinflations >= 1);
        assert!(m.metrics().count("cluster.emergency_reinflations") >= 1);
        // Survive every later sample: nothing ever dies.
        for s in 2..=6u64 {
            assert!(m.sample_distress(SimTime::from_secs(60 * s)).is_empty());
        }
        assert_eq!(m.stats().oom_kills, 0);
        m.assert_consistent();
    }

    #[test]
    fn breaker_opens_after_consecutive_distress_and_shields_memory() {
        let mut d = crate::distress::DistressConfig::unguarded();
        d.breaker_after = 2;
        d.breaker_cooldown = 2;
        d.grace_window = SimDuration::from_hours(10); // never kill here
        d.floor_fraction = 0.0;
        let mut m = ClusterManager::new(distress_cfg(d));
        m.launch(SimTime::ZERO, &req(0, true));
        m.launch(SimTime::ZERO, &req(1, true));
        force_oom(&mut m, VmId(0), 9_000.0);

        m.sample_distress(SimTime::from_secs(60));
        assert!(!m.breaker_open(VmId(0)), "one sample is not enough");
        m.sample_distress(SimTime::from_secs(120));
        assert!(m.breaker_open(VmId(0)), "two consecutive samples trip it");
        assert_eq!(m.metrics().count("cluster.breaker_trips"), 1);

        // A reclamation round must not squeeze the breaker-open VM: the
        // demand routes to VM 1 (9000 MiB are free, the rest comes from
        // the donor).
        let eff0_before = m.servers()[0]
            .vm(VmId(0))
            .unwrap()
            .effective()
            .get(ResourceKind::Memory);
        let hi = VmRequest {
            id: VmId(9),
            arrival: SimTime::ZERO,
            lifetime: SimDuration::from_hours(1),
            spec: ResourceVector::new(0.0, 12_000.0, 0.0, 0.0),
            type_name: "hog",
            low_priority: false,
            min_size: ResourceVector::ZERO,
        };
        assert!(matches!(
            m.launch(SimTime::from_secs(130), &hi),
            LaunchOutcome::Placed { preempted, .. } if preempted.is_empty()
        ));
        let eff0_after = m.servers()[0]
            .vm(VmId(0))
            .unwrap()
            .effective()
            .get(ResourceKind::Memory);
        assert!(
            eff0_after >= eff0_before - 1e-6,
            "breaker-open VM was deflated further: {eff0_before} -> {eff0_after}"
        );

        // Restore health; after the cool-down the breaker closes.
        let before = m.servers[0].aggregates();
        m.servers[0].reinflate_vm(
            SimTime::from_secs(140),
            VmId(0),
            &ResourceVector::memory(900.0),
        );
        m.settle(0, &before);
        assert!(!m.servers()[0]
            .vm(VmId(0))
            .unwrap()
            .state()
            .borrow()
            .is_oom());
        m.sample_distress(SimTime::from_secs(180));
        assert!(m.breaker_open(VmId(0)), "one healthy sample of two");
        m.sample_distress(SimTime::from_secs(240));
        assert!(
            !m.breaker_open(VmId(0)),
            "cool-down reached; breaker closes"
        );
        m.assert_consistent();
    }

    /// Regression: the OOM-kill path must clear the killed VM's
    /// distress/breaker entry. Before the fix only `sample_distress`
    /// removed it, so a direct kill leaked the entry — and a later VM
    /// reusing the id inherited a tripped breaker.
    #[test]
    fn oom_kill_clears_distress_state() {
        let d = crate::distress::DistressConfig::unguarded();
        let mut m = ClusterManager::new(distress_cfg(d));
        m.launch(SimTime::ZERO, &req(0, true));
        m.launch(SimTime::ZERO, &req(1, true));
        // Accumulated breaker/liveness state from earlier samples.
        m.sample_distress(SimTime::ZERO);
        assert!(m.ctl.tracked().any(|(_, id)| id == VmId(0)));
        m.oom_kill(SimTime::ZERO, 0, VmId(0));
        assert!(
            !m.ctl.tracked().any(|(_, id)| id == VmId(0)),
            "OOM kill left stale distress/breaker state for a dead VM"
        );
        m.assert_consistent();
    }

    /// Regression: emergency donor harvesting must honor a donor's
    /// advisory working-set floor even when the cascade itself does not
    /// enforce floors (`working_set_floor: false`). Before the fix the
    /// give was capped at the contractual minimum only, so a rescue
    /// could push a healthy donor straight into the same distress.
    #[test]
    fn emergency_reinflate_honors_donor_floor() {
        let mut d = crate::distress::DistressConfig::unguarded();
        d.emergency_reinflate = true;
        d.working_set_floor = false;
        d.floor_fraction = 1.0; // floor == resident set at launch
        let mut m = ClusterManager::new(distress_cfg(d));
        m.launch(SimTime::ZERO, &req(0, true)); // victim
        m.launch(SimTime::ZERO, &req(1, true)); // donor
        let floor = 16_384.0 * m.cfg.usage_fraction; // 8192 MiB
                                                     // The donor's resident set shrinks well below its floor: lots of
                                                     // donatable headroom by the usage rule, little by the floor.
        m.servers()[0].vm(VmId(1)).unwrap().set_usage(1_000.0, 1.0);
        // The victim's resident set fills its spec; cutting it 9000 MiB
        // drives it deep into hard distress.
        m.servers()[0].vm(VmId(0)).unwrap().set_usage(16_384.0, 2.0);
        force_oom(&mut m, VmId(0), 9_000.0);
        // Soak up most of the freed pool so the rescue must harvest.
        let soak = VmRequest {
            id: VmId(2),
            arrival: SimTime::ZERO,
            lifetime: SimDuration::from_hours(1),
            spec: ResourceVector::new(0.0, 8_500.0, 0.0, 0.0),
            type_name: "soak",
            low_priority: true,
            min_size: ResourceVector::new(0.0, 2_550.0, 0.0, 0.0),
        };
        assert!(matches!(
            m.launch(SimTime::ZERO, &soak),
            LaunchOutcome::Placed { .. }
        ));
        let out = m
            .ctl
            .rescue(SimTime::ZERO, 0, &mut m.servers[0], VmId(0))
            .expect("the victim needs memory");
        m.sink(SimTime::ZERO, 0, &out);
        assert_eq!(m.stats().emergency_reinflations, 1, "rescue must run");
        let donor_eff = m.servers()[0]
            .vm(VmId(1))
            .unwrap()
            .effective()
            .get(ResourceKind::Memory);
        assert!(
            donor_eff >= floor - 1e-6,
            "donor harvested below its working-set floor: {donor_eff} < {floor}"
        );
        m.assert_consistent();
    }

    #[test]
    fn incremental_metrics_match_recomputation() {
        let mut m = ClusterManager::new(small_cfg(true));
        // Mixed workload: highs and lows, with deflation pressure.
        for i in 0..5 {
            m.launch(SimTime::ZERO, &req(i, i % 2 == 0));
        }
        m.exit(SimTime::from_secs(30), VmId(1));
        m.launch(SimTime::from_secs(60), &req(5, true));
        m.assert_consistent();

        // The O(1) per-priority CPU metrics agree with a walk over
        // every hosted VM.
        let mut high = 0.0;
        let mut low_spec = 0.0;
        let mut low_eff = 0.0;
        for vm in m.servers().iter().flat_map(|s| s.vms()) {
            match vm.priority() {
                VmPriority::High => high += vm.spec().get(ResourceKind::Cpu),
                VmPriority::Low => {
                    low_spec += vm.spec().get(ResourceKind::Cpu);
                    low_eff += vm.effective().get(ResourceKind::Cpu);
                }
            }
        }
        assert!((m.high_pri_cpu() - high).abs() < 1e-6);
        assert!((m.low_pri_spec_cpu() - low_spec).abs() < 1e-6);
        assert!((m.low_pri_effective_cpu() - low_eff).abs() < 1e-6);
    }

    fn migration_cfg() -> ClusterManagerConfig {
        ClusterManagerConfig {
            migration: crate::migration::MigrationPolicy::enabled(),
            ..small_cfg(true)
        }
    }

    #[test]
    fn migration_commits_and_lands_on_destination() {
        let mut m = ClusterManager::new(migration_cfg());
        let t = SimTime::ZERO;
        assert!(matches!(
            m.launch(t, &req(0, true)),
            LaunchOutcome::Placed { .. }
        ));
        let src = *m.index.get(&VmId(0)).unwrap();
        let total = m.begin_migration(t, VmId(0)).expect("empty peer must fit");
        assert!(total > SimDuration::ZERO);
        assert!(m.migrations.contains_key(&VmId(0)));
        let dst = m.migrations[&VmId(0)].dst;
        assert_ne!(src, dst);
        assert!(
            !m.servers[dst].reserved().is_zero(),
            "destination must hold the reservation while copying"
        );
        // A second begin for the same VM is refused while one is in
        // flight.
        assert!(m.begin_migration(t, VmId(0)).is_none());
        m.assert_consistent();

        let landed = m.finish_migration(t + total, VmId(0)).expect("commit");
        assert_eq!(landed, ServerId(dst as u64));
        assert_eq!(*m.index.get(&VmId(0)).unwrap(), dst);
        assert!(m.servers[src].vm(VmId(0)).is_none());
        assert!(m.servers[dst].vm(VmId(0)).is_some());
        assert!(m.servers[dst].reserved().is_zero(), "hold converts to a VM");
        assert!(m.migrations.is_empty());
        assert_eq!(m.stats().migrations, 1);
        assert_eq!(m.metrics().count("cluster.migrations"), 1);
        assert!(m.metrics().count("cluster.migration_mb") > 0);
        m.assert_consistent();
    }

    #[test]
    fn destination_crash_mid_migration_clears_the_ledger() {
        let mut m = ClusterManager::new(migration_cfg());
        let t = SimTime::ZERO;
        m.launch(t, &req(0, true));
        let total = m.begin_migration(t, VmId(0)).expect("reserve");
        let dst = m.migrations[&VmId(0)].dst;
        m.fail_server(t, ServerId(dst as u64)).expect("dst was up");
        assert!(
            m.migrations.is_empty(),
            "crash must clear in-flight entries touching the dead server"
        );
        assert!(m.servers[dst].reserved().is_zero());
        assert_eq!(m.metrics().count("cluster.migrations_aborted"), 1);
        // The VM never left its source; the deferred completion is a
        // no-op.
        assert!(m.is_running(VmId(0)));
        assert!(m.finish_migration(t + total, VmId(0)).is_none());
        assert!(m.is_running(VmId(0)));
        m.assert_consistent();
    }

    #[test]
    fn source_crash_mid_migration_releases_the_destination_hold() {
        let mut m = ClusterManager::new(migration_cfg());
        let t = SimTime::ZERO;
        m.launch(t, &req(0, true));
        let src = *m.index.get(&VmId(0)).unwrap();
        let total = m.begin_migration(t, VmId(0)).expect("reserve");
        let dst = m.migrations[&VmId(0)].dst;
        m.fail_server(t, ServerId(src as u64)).expect("src was up");
        // The VM died with its source; the destination hold must not
        // strand capacity.
        assert!(m.migrations.is_empty());
        assert!(!m.is_running(VmId(0)));
        assert!(
            m.servers[dst].reserved().is_zero(),
            "aborted migration must release its reservation"
        );
        assert_eq!(m.metrics().count("cluster.migrations_aborted"), 1);
        assert!(m.finish_migration(t + total, VmId(0)).is_none());
        m.assert_consistent();
    }

    // ─────────────────────── partition tests ───────────────────────

    #[test]
    #[should_panic(expected = "already partitioned")]
    fn double_partition_debug_panics() {
        let mut m = ClusterManager::new(small_cfg(true));
        m.launch(SimTime::ZERO, &req(0, true));
        assert!(m.partition_server(SimTime::from_secs(10), ServerId(0)));
        // The fault schedule never opens a second window over an open
        // one (windows are merged per server); doing so is a bug.
        m.partition_server(SimTime::from_secs(11), ServerId(0));
    }

    #[test]
    #[should_panic(expected = "is not partitioned")]
    fn heal_of_unpartitioned_debug_panics() {
        let mut m = ClusterManager::new(small_cfg(true));
        m.launch(SimTime::ZERO, &req(0, true));
        m.heal_server(SimTime::from_secs(10), ServerId(0));
    }

    #[test]
    fn partition_freezes_totals_and_excludes_placement() {
        let mut m = ClusterManager::new(small_cfg(true));
        // Two VMs land on server 0 (best-fit on an empty pool), then
        // partition it.
        m.launch(SimTime::ZERO, &req(0, true));
        m.launch(SimTime::ZERO, &req(1, true));
        let si = *m.index.get(&VmId(0)).unwrap();
        let other = 1 - si;
        let util = m.utilization();
        assert!(m.partition_server(SimTime::from_secs(10), ServerId(si as u64)));
        assert_eq!(
            m.reachability(ServerId(si as u64)),
            Reachability::Partitioned
        );
        assert!(m.is_partitioned(ServerId(si as u64)));
        assert_eq!(m.partitioned_servers(), vec![ServerId(si as u64)]);
        // Totals are frozen: nothing changed by the partition itself.
        assert_eq!(m.utilization(), util);
        assert_eq!(m.running_vms(), 2);
        m.assert_consistent();

        // New placements avoid the partitioned server.
        let out = m.launch(SimTime::from_secs(20), &req(2, true));
        match out {
            LaunchOutcome::Placed { server, .. } => assert_eq!(server, ServerId(other as u64)),
            LaunchOutcome::Rejected => panic!("the reachable server has room"),
        }

        // An exit behind the partition mutates the server but NOT the
        // manager's frozen view: totals, index and counters hold still.
        let exits_before = m.metrics().count("cluster.exits");
        assert!(m.exit(SimTime::from_secs(30), VmId(0)).is_some());
        assert!(m.is_running(VmId(0)), "manager's index view is frozen");
        assert_eq!(m.metrics().count("cluster.exits"), exits_before);
        assert_eq!(m.divergence_log(ServerId(si as u64)).unwrap().len(), 1);
        m.assert_consistent();

        // Heal: one delta-exact settle, the exit replays, the index
        // repairs, and the server hosts again.
        let out = m
            .heal_server(SimTime::from_secs(40), ServerId(si as u64))
            .expect("was partitioned");
        assert_eq!(out.server, ServerId(si as u64));
        assert_eq!(out.divergence, 1);
        assert_eq!(out.exited, vec![VmId(0)]);
        assert!(out.oom_killed.is_empty() && out.lost_high.is_empty() && out.lost_low.is_empty());
        assert!(!out.crashed);
        assert_eq!(m.reachability(ServerId(si as u64)), Reachability::Up);
        assert!(!m.is_running(VmId(0)));
        assert_eq!(m.running_vms(), 2);
        assert_eq!(m.metrics().count("cluster.exits"), exits_before + 1);
        m.assert_consistent();
    }

    #[test]
    fn crash_behind_partition_is_discovered_at_heal() {
        // One server, so both VMs stack on it by construction.
        let mut m = ClusterManager::new(ClusterManagerConfig {
            n_servers: 1,
            ..small_cfg(true)
        });
        m.launch(SimTime::ZERO, &req(0, true));
        m.launch(SimTime::ZERO, &req(1, false));
        let si = *m.index.get(&VmId(0)).unwrap();
        assert_eq!(*m.index.get(&VmId(1)).unwrap(), si);
        assert!(m.partition_server(SimTime::from_secs(10), ServerId(si as u64)));

        // The crash happens physically, unobserved.
        let f = m
            .fail_server(SimTime::from_secs(20), ServerId(si as u64))
            .expect("server was up");
        assert!(!f.observed);
        assert_eq!((f.lost_high, f.lost_low), (vec![VmId(1)], vec![VmId(0)]));
        assert_eq!(m.running_vms(), 2, "manager still believes both run");
        assert_eq!(m.stats().server_crashes, 0);
        m.assert_consistent();

        let out = m
            .heal_server(SimTime::from_secs(30), ServerId(si as u64))
            .expect("was partitioned");
        assert!(out.crashed);
        assert_eq!(out.lost_high, vec![VmId(1)]);
        assert_eq!(out.lost_low, vec![VmId(0)]);
        assert_eq!(m.reachability(ServerId(si as u64)), Reachability::Down);
        assert_eq!(m.running_vms(), 0);
        assert_eq!(m.stats().server_crashes, 1);
        assert_eq!(m.stats().preempted, 1);
        m.assert_consistent();

        // The ordinary recovery path brings it back.
        assert!(m.recover_server(SimTime::from_secs(40), ServerId(si as u64)));
        assert_eq!(m.reachability(ServerId(si as u64)), Reachability::Up);
        m.assert_consistent();
    }

    #[test]
    fn restart_behind_partition_reconciles_to_up() {
        let mut m = ClusterManager::new(small_cfg(true));
        m.launch(SimTime::ZERO, &req(0, true));
        let si = *m.index.get(&VmId(0)).unwrap();
        assert!(m.partition_server(SimTime::from_secs(10), ServerId(si as u64)));
        let f = m
            .fail_server(SimTime::from_secs(20), ServerId(si as u64))
            .expect("server was up");
        assert_eq!(f.lost_low, vec![VmId(0)]);
        assert!(!f.observed);
        assert!(m.recover_server(SimTime::from_secs(25), ServerId(si as u64)));
        // Still unreachable, so still not placeable.
        assert!(!m.servers()[si].placeable());

        let out = m
            .heal_server(SimTime::from_secs(30), ServerId(si as u64))
            .expect("was partitioned");
        assert!(out.crashed);
        assert_eq!(out.lost_low, vec![VmId(0)]);
        assert_eq!(
            m.reachability(ServerId(si as u64)),
            Reachability::Up,
            "the server rebooted behind the partition"
        );
        assert!(m.servers()[si].placeable());
        assert_eq!(m.stats().server_crashes, 1);
        assert_eq!(m.metrics().count("cluster.server_recoveries"), 1);
        m.assert_consistent();
    }

    #[test]
    fn partition_of_migration_destination_clears_stranded_reservation() {
        let mut m = ClusterManager::new(migration_cfg());
        let t = SimTime::ZERO;
        m.launch(t, &req(0, true));
        let total = m.begin_migration(t, VmId(0)).expect("reserve");
        let dst = m.migrations[&VmId(0)].dst;
        assert!(m.partition_server(t, ServerId(dst as u64)));
        assert!(
            m.migrations.is_empty(),
            "ledger must not reference a partition"
        );
        assert!(
            m.servers[dst].reserved().is_zero(),
            "local controller clears the stranded hold"
        );
        assert_eq!(m.metrics().count("cluster.migrations_aborted"), 1);
        assert_eq!(m.divergence_log(ServerId(dst as u64)).unwrap().len(), 1);
        m.assert_consistent();
        // The deferred completion no longer applies; the VM stayed put.
        assert!(m.finish_migration(t + total, VmId(0)).is_none());
        assert!(m.is_running(VmId(0)));
        let out = m
            .heal_server(t + total, ServerId(dst as u64))
            .expect("heal");
        assert_eq!(out.divergence, 1);
        m.assert_consistent();
    }

    #[test]
    fn partition_of_migration_source_aborts_normally() {
        let mut m = ClusterManager::new(migration_cfg());
        let t = SimTime::ZERO;
        m.launch(t, &req(0, true));
        let src = *m.index.get(&VmId(0)).unwrap();
        m.begin_migration(t, VmId(0)).expect("reserve");
        let dst = m.migrations[&VmId(0)].dst;
        assert!(m.partition_server(t, ServerId(src as u64)));
        assert!(m.migrations.is_empty());
        assert!(
            m.servers[dst].reserved().is_zero(),
            "reachable destination aborts normally"
        );
        assert_eq!(m.metrics().count("cluster.migrations_aborted"), 1);
        // A normal abort is manager-side work, not divergence.
        assert!(m.divergence_log(ServerId(src as u64)).unwrap().is_empty());
        m.assert_consistent();
        m.heal_server(t, ServerId(src as u64)).expect("heal");
        m.assert_consistent();
    }

    #[test]
    fn partition_parks_and_returns_breaker_state() {
        // Trip a breaker, partition the server, heal with the VM alive:
        // the breaker state must survive the round trip exactly.
        let mut d = crate::distress::DistressConfig::guarded();
        d.breaker_after = 2;
        d.emergency_reinflate = false;
        let mut m = ClusterManager::new(distress_cfg(d));
        m.launch(SimTime::ZERO, &req(0, true));
        m.launch(SimTime::ZERO, &req(1, true));
        force_oom(&mut m, VmId(0), 9_000.0);
        m.sample_distress(SimTime::from_secs(60));
        m.sample_distress(SimTime::from_secs(120));
        assert!(m.breaker_open(VmId(0)), "two hard samples trip the breaker");
        let open_before = m.breaker_open_now;

        assert!(m.partition_server(SimTime::from_secs(130), ServerId(0)));
        assert!(
            m.breaker_open(VmId(0)),
            "the state stays with the server's local controller"
        );
        assert_eq!(
            m.breaker_open_now,
            open_before - 1,
            "unobservable breakers leave the manager's gauge"
        );
        // The local controller keeps sampling; nothing new diverges.
        assert!(m.sample_distress(SimTime::from_secs(180)).is_empty());
        m.assert_consistent();

        let out = m
            .heal_server(SimTime::from_secs(240), ServerId(0))
            .expect("heal");
        assert_eq!(out.divergence, 0);
        assert!(m.breaker_open(VmId(0)), "state returned at heal");
        assert_eq!(m.breaker_open_now, open_before);
        m.assert_consistent();
    }

    #[test]
    fn partitioned_sample_kills_and_heal_replays_counters() {
        let mut d = crate::distress::DistressConfig::unguarded();
        d.floor_fraction = 0.0;
        let mut m = ClusterManager::new(distress_cfg(d));
        m.launch(SimTime::ZERO, &req(0, true));
        m.launch(SimTime::ZERO, &req(1, true));
        force_oom(&mut m, VmId(0), 9_000.0);
        assert!(m.partition_server(SimTime::from_secs(10), ServerId(0)));

        // Grace clock starts at the first sample behind the partition;
        // the 180 s window expires at the fourth.
        for s in 1..=4u64 {
            let evs = m.sample_distress(SimTime::from_secs(60 * s));
            if s < 4 {
                assert!(evs.is_empty(), "sample {s} must not kill yet");
            } else {
                assert!(matches!(
                    evs[0],
                    DistressEvent::OomKill {
                        vm: VmId(0),
                        server: ServerId(0),
                        observed: false
                    }
                ));
            }
        }
        // The kill is local only: no manager counters moved yet.
        assert_eq!(m.stats().oom_kills, 0);
        assert!(m.is_running(VmId(0)), "frozen view");
        m.assert_consistent();

        let out = m
            .heal_server(SimTime::from_secs(300), ServerId(0))
            .expect("heal");
        assert_eq!(out.oom_killed, vec![VmId(0)]);
        assert_eq!(m.stats().oom_kills, 1);
        assert_eq!(m.metrics().count("cluster.oom_kills"), 1);
        assert!(!m.is_running(VmId(0)));
        assert!(m.is_running(VmId(1)));
        assert!(
            m.metrics().count("cluster.partition_divergence") >= 1,
            "the kill diverged"
        );
        m.assert_consistent();
    }

    #[test]
    fn partition_disabled_run_registers_no_partition_keys() {
        let mut m = ClusterManager::new(small_cfg(true));
        for i in 0..5 {
            m.launch(SimTime::ZERO, &req(i, true));
        }
        m.exit(SimTime::from_secs(60), VmId(0));
        let doc = m.run_summary(SimTime::from_secs(100), "unit");
        let text = doc.to_string();
        assert!(
            !text.contains("partition"),
            "partition path must be opt-in: {text}"
        );
        assert!(!text.contains("cluster.fault_noops"));
    }

    // ───────────────── fail/recover idempotency (satellite) ─────────────────

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "already down")]
    fn double_fail_panics_in_debug() {
        let mut m = ClusterManager::new(small_cfg(true));
        m.fail_server(SimTime::ZERO, ServerId(0)).expect("up");
        m.fail_server(SimTime::from_secs(1), ServerId(0));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "already up")]
    fn recover_of_up_server_panics_in_debug() {
        let mut m = ClusterManager::new(small_cfg(true));
        m.recover_server(SimTime::ZERO, ServerId(0));
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn double_fail_and_recover_of_up_are_counted_noops_in_release() {
        let mut m = ClusterManager::new(small_cfg(true));
        assert!(m.fail_server(SimTime::ZERO, ServerId(0)).is_some());
        assert!(m.fail_server(SimTime::from_secs(1), ServerId(0)).is_none());
        assert!(m.recover_server(SimTime::from_secs(2), ServerId(0)));
        assert!(!m.recover_server(SimTime::from_secs(3), ServerId(0)));
        assert_eq!(m.metrics().count("cluster.fault_noops"), 2);
        m.assert_consistent();
    }

    #[test]
    fn fail_recover_of_unknown_server_is_refused() {
        let mut m = ClusterManager::new(small_cfg(true));
        assert!(m.fail_server(SimTime::ZERO, ServerId(99)).is_none());
        assert!(!m.recover_server(SimTime::ZERO, ServerId(99)));
        assert!(!m.partition_server(SimTime::ZERO, ServerId(99)));
        assert!(m.heal_server(SimTime::ZERO, ServerId(99)).is_none());
    }
}
