//! Byte-identity pins for the reclamation paths.
//!
//! Five small deterministic runs — plain, chaos (server crashes +
//! agent faults), guarded distress (emergency reinflation + OOM
//! kills), distress with live migration (rescue moves and their
//! reserve–copy–commit accounting), and that migration run under
//! manager↔server partitions and manager crashes (the server-local
//! controller acting alone, replayed at heal and recovery) — have
//! their full run summaries committed under
//! `tests/golden/`. Any refactor of the reclamation machinery (the
//! `ReclaimSession` commit/rollback paths, the cascade, placement) must
//! reproduce these summaries byte for byte; a behavioural change that
//! is *supposed* to move numbers regenerates them explicitly with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p cluster --test golden_summary
//! ```
//!
//! and the diff is reviewed like any other code change.

use cluster::distress::DistressConfig;
use cluster::manager::ClusterManagerConfig;
use cluster::simulate::{run_cluster_sim, ClusterSimConfig};
use cluster::traces::TraceConfig;
use deflate_core::ResourceVector;
use simkit::{AdmissionOverflow, FaultPlan, ManagerPlan, PartitionPlan, SimDuration, SimTime};

fn base_cfg() -> ClusterSimConfig {
    ClusterSimConfig {
        sharding: Default::default(),
        manager: ClusterManagerConfig {
            n_servers: 20,
            ..ClusterManagerConfig::default()
        },
        trace: TraceConfig {
            arrivals_per_hour: 150.0,
            lifetime_median_mins: 120.0,
            ..TraceConfig::default()
        },
        horizon: SimDuration::from_hours(6),
    }
}

/// Loaded enough that launches deflate, reject, and preempt.
fn plain_cfg() -> ClusterSimConfig {
    base_cfg()
}

/// Server crashes, dead agents, message loss and hotplug stalls: the
/// fault-recovery reclamation paths. The random crash rate alone draws
/// no crash on this seed, so two crashes are scheduled.
fn chaos_cfg() -> ClusterSimConfig {
    let mut cfg = base_cfg();
    cfg.manager.faults = FaultPlan {
        scheduled_server_crashes: vec![
            SimTime::ZERO + SimDuration::from_hours(1),
            SimTime::ZERO + SimDuration::from_hours(3),
        ],
        ..FaultPlan::chaos(7).scaled(2.0)
    };
    cfg
}

/// Memory-bound guarded distress: emergency donor harvesting, guest OOM
/// kills with survivor reinflation, breakers and working-set floors.
fn distress_cfg() -> ClusterSimConfig {
    let mut cfg = base_cfg();
    cfg.manager.server_capacity = ResourceVector::new(16.0, 32_768.0, 400.0, 800.0);
    cfg.manager.distress = DistressConfig::guarded();
    cfg
}

/// The distress run with live migration on top: rescue migrations,
/// drain-before-crash plumbing (armed but idle without faults), and the
/// reserve–copy–commit accounting.
fn migration_cfg() -> ClusterSimConfig {
    let mut cfg = distress_cfg();
    cfg.manager.migration = cluster::MigrationPolicy::enabled();
    cfg
}

/// The migration run with the control plane as a fault domain:
/// manager↔server partitions and manager crashes (deferring overflowed
/// arrivals). Exits, distress samples and OOM kills land behind
/// partitions and during manager downtime, so the local controller's
/// divergence logs are replayed at heal and at the recovery scan.
fn partition_cfg() -> ClusterSimConfig {
    let mut cfg = migration_cfg();
    cfg.manager.faults = FaultPlan {
        partitions: PartitionPlan {
            prob: 0.1,
            ..PartitionPlan::none()
        },
        manager: ManagerPlan {
            prob: 0.1,
            overflow: AdmissionOverflow::Defer,
            ..ManagerPlan::none()
        },
        ..FaultPlan::none()
    };
    cfg
}

fn check(name: &str, cfg: &ClusterSimConfig, golden: &str) {
    check_summary(name, &run_cluster_sim(cfg).summary.to_pretty(), golden);
}

fn check_summary(name: &str, got: &str, golden: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = format!("{}/tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    assert_eq!(
        got.trim(),
        golden.trim(),
        "{name}: run summary diverged from tests/golden/{name}.json — \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn plain_summary_matches_golden() {
    check("plain", &plain_cfg(), include_str!("golden/plain.json"));
}

#[test]
fn chaos_summary_matches_golden() {
    let summary = run_cluster_sim(&chaos_cfg()).summary;
    let crashes = num(&summary, "counters", "cluster.server_crashes");
    assert_eq!(crashes, Some(2.0), "the chaos run must crash two servers");
    check_summary(
        "chaos",
        &summary.to_pretty(),
        include_str!("golden/chaos.json"),
    );
}

#[test]
fn distress_summary_matches_golden() {
    check(
        "distress",
        &distress_cfg(),
        include_str!("golden/distress.json"),
    );
}

#[test]
fn migration_summary_matches_golden() {
    check(
        "migration",
        &migration_cfg(),
        include_str!("golden/migration.json"),
    );
}

#[test]
fn partition_summary_matches_golden() {
    let summary = run_cluster_sim(&partition_cfg()).summary;
    // The run must actually exercise the control-plane fault paths, or
    // the golden would pin a vacuous summary.
    let counters = summary.get("counters").expect("counters");
    for key in [
        "cluster.partition_heals",
        "cluster.recovery_scans",
        "cluster.partition_divergence",
    ] {
        let n = counters.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
        assert!(n > 0.0, "{key} must be positive, got {n}");
    }
    check_summary(
        "partition",
        &summary.to_pretty(),
        include_str!("golden/partition.json"),
    );
}

/// `summary.<section>.<key>` as a number.
fn num(summary: &simkit::JsonValue, section: &str, key: &str) -> Option<f64> {
    summary.get(section)?.get(key)?.as_f64()
}

/// The lifecycle trace is one switch: turned off, a run journals
/// nothing, and its metrics are byte-identical to the traced run's.
#[test]
fn trace_off_records_nothing_and_changes_no_metric() {
    for (name, cfg) in [("chaos", chaos_cfg()), ("partition", partition_cfg())] {
        let on = run_cluster_sim(&cfg).summary;
        let mut off_cfg = cfg;
        off_cfg.manager.lifecycle_trace = false;
        let off = run_cluster_sim(&off_cfg).summary;
        assert_eq!(num(&off, "trace", "records"), Some(0.0), "{name}");
        assert!(num(&on, "trace", "records").unwrap() > 0.0, "{name}");
        for section in ["counters", "gauges", "histograms"] {
            assert_eq!(
                on.get(section).map(|s| s.to_pretty()),
                off.get(section).map(|s| s.to_pretty()),
                "{name}: {section} moved with the trace switch"
            );
        }
    }
}

/// Every reinflation the manager counts is journaled: natural exits, OOM
/// kills and migration landings alike.
#[test]
fn every_reinflation_is_journaled() {
    for (name, cfg) in [("distress", distress_cfg()), ("migration", migration_cfg())] {
        let summary = run_cluster_sim(&cfg).summary;
        let counted = num(&summary, "counters", "cluster.reinflations").unwrap();
        let spans = summary.get("trace").expect("trace section");
        let journaled = num(spans, "spans", "cluster.reinflate");
        assert!(counted > 0.0, "{name}");
        assert_eq!(journaled, Some(counted), "{name}");
    }
}
