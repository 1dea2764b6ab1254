//! Control-plane failover properties: a manager crash cuts every
//! reachable server loose into autonomy, and the restarted manager's
//! inventory-scan reconstruction must leave it indistinguishable from a
//! never-crashed oracle that observed the same physical events — same
//! aggregates, same lifecycle maps, same counters, same placement
//! decisions. Random walks that interleave manager crashes with server
//! crashes, reboots, exits and launches must keep every invariant
//! intact at each step (debug builds re-verify the totals, the
//! placement index and the reachability rules on every mutation).

use cluster::{
    ClusterManager, ClusterManagerConfig, LaunchOutcome, MigrationPolicy, Reachability, VmRequest,
};
use deflate_core::{ResourceVector, ServerId, VmId};
use proptest::prelude::*;
use simkit::{SimDuration, SimRng, SimTime};

fn request(id: u64, scale: f64, low: bool) -> VmRequest {
    let spec = ResourceVector::new(4.0, 16_384.0, 100.0, 200.0).scale(scale);
    VmRequest {
        id: VmId(id),
        arrival: SimTime::ZERO,
        lifetime: SimDuration::from_hours(1),
        spec,
        type_name: "failover",
        low_priority: low,
        min_size: if low {
            spec.scale(0.3)
        } else {
            ResourceVector::ZERO
        },
    }
}

fn small_cluster(n_servers: usize) -> ClusterManager {
    ClusterManager::new(ClusterManagerConfig {
        n_servers,
        server_capacity: ResourceVector::new(8.0, 32_768.0, 200.0, 400.0),
        ..ClusterManagerConfig::default()
    })
}

/// The counters a departure moves: survivor reinflations (stats and
/// metric) and the departed guest's hot-plug activity.
fn departure_counters(m: &ClusterManager) -> [u64; 5] {
    let count = |key| m.metrics().count(key);
    [
        m.stats().reinflations,
        count("cluster.reinflations"),
        count("vm.hotplug.unplug_attempts"),
        count("vm.hotplug.unplug_shortfalls"),
        count("vm.hotplug.plug_ops"),
    ]
}

/// Two twin one-server managers, each hosting two low-priority VMs
/// deflated by a high-priority launch (VM 2).
fn deflated_twins() -> (ClusterManager, ClusterManager) {
    let mut twins = (small_cluster(1), small_cluster(1));
    for m in [&mut twins.0, &mut twins.1] {
        for (id, scale, low) in [(0, 1.0, true), (1, 1.0, true), (2, 0.5, false)] {
            let out = m.launch(SimTime::ZERO, &request(id, scale, low));
            assert!(matches!(out, LaunchOutcome::Placed { .. }));
        }
        assert!(
            m.stats().deflations > 0,
            "the high-priority launch deflates"
        );
    }
    twins
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole property: launch the same VMs on twin managers,
    /// crash one manager while mirroring the physical events (exits,
    /// a server crash + reboot) — autonomous on the crashed twin,
    /// observed directly on the oracle — and after the inventory-scan
    /// recovery the reconstructed manager must be indistinguishable
    /// from the oracle: same lifecycle view, same per-server
    /// aggregates, same counters, and the same placement decision for
    /// the next arrival.
    #[test]
    fn recovery_reconstructs_a_never_crashed_oracle(
        seed in any::<u64>(),
        n_vms in 2usize..10,
        crash in any::<bool>(),
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut part = small_cluster(3);
        let mut oracle = small_cluster(3);

        // Identical launches → identical placements.
        let mut ids = Vec::new();
        for i in 0..n_vms as u64 {
            let scale = rng.uniform_range(0.25, 1.0);
            let low = rng.chance(0.7);
            let req = request(i, scale, low);
            let a = part.launch(SimTime::ZERO, &req);
            let b = oracle.launch(SimTime::ZERO, &req);
            match (&a, &b) {
                (
                    LaunchOutcome::Placed { server: sa, .. },
                    LaunchOutcome::Placed { server: sb, .. },
                ) => {
                    prop_assert_eq!(sa, sb);
                    ids.push(i);
                }
                (LaunchOutcome::Rejected, LaunchOutcome::Rejected) => {}
                _ => prop_assert!(false, "twin managers diverged on launch"),
            }
        }
        prop_assert!(!ids.is_empty());

        // The control plane dies: every server goes autonomous at once.
        prop_assert!(part.crash_manager(SimTime::from_secs(10)));
        prop_assert!(part.manager_down());
        for s in part.servers() {
            if s.is_up() {
                prop_assert_eq!(part.reachability(s.id()), Reachability::Partitioned);
            }
        }
        part.assert_consistent();

        // Exits during downtime: unobserved on part, observed on oracle.
        let mut t = 20u64;
        for id in ids.clone() {
            let vm = VmId(id);
            if part.partitioned_host(vm).is_some() && rng.chance(0.5) {
                let now = SimTime::from_secs(t);
                prop_assert!(part.exit(now, vm).is_some());
                prop_assert!(oracle.exit(now, vm).is_some());
                t += 7;
            }
        }

        // Optionally a whole server dies (and reboots) during downtime.
        if crash {
            let target = ServerId(rng.index(3) as u64);
            if part.servers()[target.0 as usize].is_up() {
                let now = SimTime::from_secs(t);
                let fp = part.fail_server(now, target).expect("part's server is up");
                let fo = oracle.fail_server(now, target).expect("oracle sees it up");
                prop_assert!(!fp.observed && fo.observed);
                prop_assert_eq!((fp.lost_high, fp.lost_low), (fo.lost_high, fo.lost_low));
                let later = SimTime::from_secs(t + 30);
                prop_assert!(part.recover_server(later, target));
                prop_assert!(oracle.recover_server(later, target));
            }
        }

        // Restart: one inventory scan rebuilds everything from scratch.
        let end = SimTime::from_secs(t + 60);
        part.recover_manager(end, &[]);
        prop_assert!(!part.manager_down());
        part.assert_consistent();
        oracle.assert_consistent();

        // Lifecycle maps, aggregates and reachability are byte-equal.
        prop_assert_eq!(part.running_vms(), oracle.running_vms());
        for id in &ids {
            prop_assert_eq!(part.is_running(VmId(*id)), oracle.is_running(VmId(*id)));
            prop_assert_eq!(part.server_of(VmId(*id)), oracle.server_of(VmId(*id)));
        }
        for (a, b) in part.servers().iter().zip(oracle.servers()) {
            prop_assert!(
                a.aggregates().approx_eq(&b.aggregates()),
                "server {:?} aggregates diverged after recovery",
                a.id()
            );
            prop_assert_eq!(a.is_up(), b.is_up());
            prop_assert_eq!(part.reachability(a.id()), oracle.reachability(a.id()));
        }
        prop_assert!((part.utilization() - oracle.utilization()).abs() < 1e-9);
        // Counters the recovery replayed match the live-observed ones.
        prop_assert_eq!(part.stats().preempted, oracle.stats().preempted);
        prop_assert_eq!(part.stats().server_crashes, oracle.stats().server_crashes);
        prop_assert_eq!(part.stats().manager_crashes, 1);
        prop_assert_eq!(oracle.stats().manager_crashes, 0);
        prop_assert_eq!(
            part.metrics().count("cluster.exits"),
            oracle.metrics().count("cluster.exits")
        );
        prop_assert_eq!(
            part.metrics().count("cluster.server_recoveries"),
            oracle.metrics().count("cluster.server_recoveries")
        );
        prop_assert_eq!(departure_counters(&part), departure_counters(&oracle));

        // And the reconstructed manager places the next arrival exactly
        // where the oracle does.
        let probe = request(n_vms as u64 + 100, 0.4, true);
        let pa = part.launch(end, &probe);
        let pb = oracle.launch(end, &probe);
        match (&pa, &pb) {
            (
                LaunchOutcome::Placed { server: sa, .. },
                LaunchOutcome::Placed { server: sb, .. },
            ) => prop_assert_eq!(sa, sb, "post-recovery placement diverged"),
            (LaunchOutcome::Rejected, LaunchOutcome::Rejected) => {}
            _ => prop_assert!(false, "post-recovery admission verdicts diverged"),
        }
    }

    /// Random walks interleaving manager crashes/recoveries with server
    /// crashes, autonomous reboots, exits and launches keep every
    /// aggregate, index and reachability invariant intact at each step,
    /// and after recovering everything the books agree with physical
    /// reality.
    #[test]
    fn invariants_survive_manager_crash_walks(seed in any::<u64>()) {
        let mut rng = SimRng::seed_from_u64(seed);
        let n_servers = 3usize;
        let mut m = small_cluster(n_servers);

        let mut live: Vec<u64> = Vec::new();
        let mut next_id = 0u64;
        for step in 0..80u64 {
            let now = SimTime::from_secs(step * 60);
            let sid = ServerId(rng.index(n_servers) as u64);
            match rng.index(10) {
                // Toggle the control plane.
                0 => {
                    if m.manager_down() {
                        m.recover_manager(now, &[]);
                        prop_assert!(!m.manager_down());
                    } else {
                        prop_assert!(m.crash_manager(now));
                    }
                }
                // A server crashes, observed or not.
                1 => {
                    if m.servers()[sid.0 as usize].is_up() {
                        let f = m.fail_server(now, sid).expect("server is up");
                        prop_assert_eq!(f.observed, !m.manager_down() && !m.is_partitioned(sid));
                        for vm in f.lost_high.iter().chain(&f.lost_low) {
                            live.retain(|id| VmId(*id) != *vm);
                        }
                    }
                }
                // A down server reboots, whatever the reachability and
                // the manager's own health.
                2 => {
                    if !m.servers()[sid.0 as usize].is_up() {
                        prop_assert!(m.recover_server(now, sid));
                    }
                }
                // A VM exits, observed or not.
                3 | 4 if !live.is_empty() => {
                    let pick = rng.index(live.len());
                    let id = VmId(live.swap_remove(pick));
                    prop_assert!(m.exit(now, id).is_some());
                }
                // A launch — only while the control plane is up (the
                // simulator parks arrivals in the admission queue).
                _ => {
                    if !m.manager_down() {
                        let scale = rng.uniform_range(0.25, 1.5);
                        let low = rng.chance(0.7);
                        match m.launch(now, &request(next_id, scale, low)) {
                            LaunchOutcome::Placed { .. } => {
                                live.push(next_id);
                                live.retain(|id| m.is_running(VmId(*id)));
                            }
                            LaunchOutcome::Rejected => {}
                        }
                        next_id += 1;
                    }
                }
            }
            m.assert_consistent();
        }

        // Close the books: recover the manager, then heal any leftover
        // partitions; the lifecycle view must agree with physical truth.
        let end = SimTime::from_secs(81 * 60);
        if m.manager_down() {
            m.recover_manager(end, &[]);
        }
        for sid in m.partitioned_servers() {
            m.heal_server(end, sid);
        }
        m.assert_consistent();
        prop_assert_eq!(m.running_vms(), live.len());
        for id in &live {
            prop_assert!(m.is_running(VmId(*id)));
        }
    }

    /// An empty downtime window — crash, nothing happens, recover — is
    /// state-neutral: zero divergence, nothing lost, every server's
    /// aggregates and the lifecycle view exactly as before, and
    /// placement resumes.
    #[test]
    fn empty_downtime_window_is_state_neutral(
        seed in any::<u64>(),
        n_vms in 1usize..6,
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut m = small_cluster(3);
        let mut placed = Vec::new();
        for i in 0..n_vms as u64 {
            let req = request(i, rng.uniform_range(0.25, 1.0), rng.chance(0.7));
            if let LaunchOutcome::Placed { .. } = m.launch(SimTime::ZERO, &req) {
                placed.push(VmId(i));
            }
        }
        prop_assert!(!placed.is_empty());
        let before: Vec<_> = m.servers().iter().map(|s| s.aggregates()).collect();
        let running = m.running_vms();
        let util = m.utilization();

        prop_assert!(m.crash_manager(SimTime::from_secs(10)));
        let outs = m.recover_manager(SimTime::from_secs(20), &[]);
        for out in &outs {
            prop_assert_eq!(out.divergence, 0);
            prop_assert!(out.exited.is_empty());
            prop_assert!(out.oom_killed.is_empty());
            prop_assert!(out.lost_high.is_empty());
            prop_assert!(out.lost_low.is_empty());
            prop_assert!(!out.crashed);
        }
        prop_assert_eq!(m.running_vms(), running);
        prop_assert!((m.utilization() - util).abs() < 1e-9);
        for (s, b) in m.servers().iter().zip(&before) {
            prop_assert!(
                s.aggregates().approx_eq(b),
                "empty downtime drifted server {:?}",
                s.id()
            );
            prop_assert_eq!(m.reachability(s.id()), Reachability::Up);
        }
        m.assert_consistent();
        // Placement resumes immediately.
        let probe = request(n_vms as u64 + 50, 0.3, true);
        prop_assert!(matches!(
            m.launch(SimTime::from_secs(30), &probe),
            LaunchOutcome::Placed { .. }
        ));
    }
}

/// Mid-migration manager crash: in-flight moves in both endpoint orders
/// (source isolated before destination and vice versa) are torn down
/// through the abort paths at crash time, the scheduled cut-overs are
/// no-ops, and after the inventory scan every VM still runs on its
/// original host with the reservation ledger clean (`assert_consistent`
/// verifies the ledger ↔ reservation invariants after reconstruction).
#[test]
fn manager_crash_aborts_inflight_migrations_through_recovery() {
    let mut m = ClusterManager::new(ClusterManagerConfig {
        n_servers: 3,
        server_capacity: ResourceVector::new(8.0, 32_768.0, 200.0, 400.0),
        migration: MigrationPolicy::enabled(),
        ..ClusterManagerConfig::default()
    });
    // Enough low-priority VMs that best-fit must spread them over
    // several servers.
    let mut hosted: Vec<(VmId, ServerId)> = Vec::new();
    for i in 0..6u64 {
        let req = request(i, 0.35, true);
        if let LaunchOutcome::Placed { server, .. } = m.launch(SimTime::ZERO, &req) {
            hosted.push((VmId(i), server));
        }
    }
    let lo = *hosted
        .iter()
        .min_by_key(|(_, s)| s.0)
        .map(|(vm, _)| vm)
        .expect("placed VMs");
    let hi = *hosted
        .iter()
        .max_by_key(|(_, s)| s.0)
        .map(|(vm, _)| vm)
        .expect("placed VMs");
    assert_ne!(
        m.server_of(lo),
        m.server_of(hi),
        "load must spread for both endpoint orders to occur"
    );
    let t = SimTime::from_secs(100);
    let mut started = 0u64;
    let mut moving = Vec::new();
    for vm in [lo, hi] {
        if m.begin_migration(t, vm).is_some() {
            started += 1;
            moving.push(vm);
        }
    }
    assert!(started > 0, "at least one migration must start");
    assert_eq!(m.metrics().count("cluster.migrations_started"), started);
    let origins: Vec<(VmId, Option<ServerId>)> =
        moving.iter().map(|vm| (*vm, m.server_of(*vm))).collect();

    // The manager dies mid-copy: every in-flight session is torn down
    // through the abort paths (source-side abort or destination-side
    // reservation clear, depending on which endpoint the isolation
    // sweep reaches first).
    let crash_at = SimTime::from_secs(150);
    assert!(m.crash_manager(crash_at));
    assert_eq!(m.metrics().count("cluster.migrations_aborted"), started);
    m.assert_consistent();

    // The scheduled cut-over fires into the void: no session, no-op.
    for vm in &moving {
        assert!(m.finish_migration(SimTime::from_secs(200), *vm).is_none());
    }

    // Recovery: the inventory scan finds every VM still on its original
    // host, no reservation leaks (assert_consistent checks the ledger),
    // and the books balance.
    m.recover_manager(SimTime::from_secs(300), &[]);
    m.assert_consistent();
    for (vm, origin) in origins {
        assert!(m.is_running(vm), "{vm:?} must survive the crash");
        assert_eq!(m.server_of(vm), origin, "{vm:?} must stay on its source");
    }
    assert_eq!(m.running_vms(), hosted.len());
    // Migration machinery works again after reconstruction.
    let again = m.begin_migration(SimTime::from_secs(400), lo);
    assert!(again.is_some(), "post-recovery migrations must start");
}

/// An exit while the manager is down reinflates the deflated survivors
/// locally; the recovery scan must replay those reinflations and the
/// guest's hot-plug counters so the books match a never-crashed oracle.
#[test]
fn exit_during_manager_downtime_replays_reinflations_at_recovery() {
    let (mut part, mut oracle) = deflated_twins();
    assert!(part.crash_manager(SimTime::from_secs(10)));
    let now = SimTime::from_secs(20);
    assert!(part.exit(now, VmId(2)).is_some());
    assert!(oracle.exit(now, VmId(2)).is_some());
    part.recover_manager(SimTime::from_secs(30), &[]);
    assert_eq!(oracle.stats().reinflations, 2, "both survivors reinflate");
    assert_eq!(departure_counters(&part), departure_counters(&oracle));
    part.assert_consistent();
}
