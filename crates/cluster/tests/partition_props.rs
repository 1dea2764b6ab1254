//! Partition-tolerance properties: random launch/exit/partition/heal/
//! crash interleavings must keep the manager's books exact at every
//! step, anti-entropy reconciliation must converge to the state a
//! never-partitioned oracle reaches from the same operations, and an
//! empty partition window must be state-neutral.
//!
//! Debug builds re-verify the incremental totals, the placement index,
//! and the reachability invariants on every `update_gauges`, so each
//! walk step is itself a full consistency check.

use cluster::{ClusterManager, ClusterManagerConfig, LaunchOutcome, Reachability, VmRequest};
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
        type_name: "part",
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

    /// Random walks over launch / exit / partition / heal / crash /
    /// restart — with crashes and exits landing behind open partitions
    /// and handled by the server's local controller — keep every aggregate
    /// invariant intact at every step, and after healing everything the
    /// manager's VM count agrees with physical reality.
    #[test]
    fn invariants_survive_partition_walks(seed in any::<u64>()) {
        let mut rng = SimRng::seed_from_u64(seed);
        let n_servers = 3usize;
        let mut m = small_cluster(n_servers);

        let mut live: Vec<u64> = Vec::new();
        let mut next_id = 0u64;
        for step in 0..80u64 {
            let now = SimTime::from_secs(step * 60);
            let sid = ServerId(rng.index(n_servers) as u64);
            match rng.index(12) {
                // Open a partition on a reachable, up server.
                0 | 1 => {
                    if m.reachability(sid) == Reachability::Up
                        && m.servers()[sid.0 as usize].is_up()
                    {
                        prop_assert!(m.partition_server(now, sid));
                        prop_assert!(m.is_partitioned(sid));
                    }
                }
                // Heal a random open partition.
                2 => {
                    let open = m.partitioned_servers();
                    if !open.is_empty() {
                        let pick = open[rng.index(open.len())];
                        let out = m.heal_server(now, pick).expect("was partitioned");
                        prop_assert!(!m.is_partitioned(pick));
                        // Crash losses discovered at heal are no longer
                        // running.
                        for vm in out.lost_high.iter().chain(&out.lost_low) {
                            prop_assert!(!m.is_running(*vm));
                        }
                    }
                }
                // Crash: behind a partition it goes unobserved; on a
                // reachable up server the manager handles it directly.
                3 => {
                    if m.servers()[sid.0 as usize].is_up() {
                        let f = m.fail_server(now, sid).expect("server is up");
                        prop_assert_eq!(f.observed, !m.is_partitioned(sid));
                        for vm in f.lost_high.iter().chain(&f.lost_low) {
                            live.retain(|id| VmId(*id) != *vm);
                            // Behind a partition the manager's frozen
                            // view still counts them.
                            prop_assert_eq!(m.is_running(*vm), !f.observed);
                        }
                    }
                }
                // Restart a down server (autonomously while partitioned).
                4 => {
                    if !m.servers()[sid.0 as usize].is_up() {
                        prop_assert!(m.recover_server(now, sid));
                    }
                }
                // Exit a random live VM, behind a partition or not.
                5 | 6 if !live.is_empty() => {
                    let pick = rng.index(live.len());
                    let id = VmId(live.swap_remove(pick));
                    let behind = m.partitioned_host(id).is_some();
                    prop_assert!(m.exit(now, id).is_some());
                    prop_assert_eq!(m.is_running(id), behind, "frozen view holds");
                }
                // Launch.
                _ => {
                    let scale = rng.uniform_range(0.25, 1.5);
                    let low = rng.chance(0.7);
                    match m.launch(now, &request(next_id, scale, low)) {
                        LaunchOutcome::Placed { server, .. } => {
                            prop_assert!(
                                m.servers()[server.0 as usize].placeable(),
                                "placed on an unreachable or down server"
                            );
                            live.push(next_id);
                            // The placement may have preempted low-pri
                            // VMs to make room.
                            live.retain(|id| m.is_running(VmId(*id)));
                        }
                        LaunchOutcome::Rejected => {}
                    }
                    next_id += 1;
                }
            }
            // The full oracle — totals, index, reachability — every step.
            m.assert_consistent();
        }

        // Heal everything: the books must now agree with physical truth.
        let end = SimTime::from_secs(81 * 60);
        for sid in m.partitioned_servers() {
            m.heal_server(end, sid);
        }
        m.assert_consistent();
        prop_assert_eq!(m.running_vms(), live.len());
        for id in &live {
            prop_assert!(m.is_running(VmId(*id)));
        }
        // A legal walk never trips the idempotence guards: every
        // partition targeted a reachable server and every heal a
        // partitioned one, so the release-mode no-op counter stays zero
        // (an illegal call would have debug-panicked above anyway).
        prop_assert_eq!(m.metrics().count("cluster.fault_noops"), 0);
    }

    /// Convergence: the same operations applied behind a partition (and
    /// reconciled at heal) leave the manager in the same state a
    /// never-partitioned oracle reaches by observing them directly —
    /// same per-server aggregates, same lifecycle view, same counters.
    #[test]
    fn reconciliation_converges_to_never_partitioned_oracle(
        seed in any::<u64>(),
        n_vms in 2usize..8,
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

        // Partition the server hosting the first placed VM.
        let target = part
            .server_of(VmId(ids[0]))
            .expect("first placed VM is running");
        prop_assert!(part.partition_server(SimTime::from_secs(10), target));

        // Exits: unobserved behind the partition, observed on the oracle.
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

        // Optionally the whole server dies (and reboots) unobserved.
        if crash {
            let now = SimTime::from_secs(t);
            let fp = part.fail_server(now, target).expect("part's server is up");
            let fo = oracle.fail_server(now, target).expect("oracle sees it up");
            prop_assert!(!fp.observed && fo.observed);
            prop_assert_eq!((fp.lost_high, fp.lost_low), (fo.lost_high, fo.lost_low));
            let later = SimTime::from_secs(t + 30);
            prop_assert!(part.recover_server(later, target));
            prop_assert!(oracle.recover_server(later, target));
        }

        // Heal: one anti-entropy pass must close the gap entirely.
        part.heal_server(SimTime::from_secs(t + 60), target)
            .expect("was partitioned");
        part.assert_consistent();
        oracle.assert_consistent();

        prop_assert_eq!(part.running_vms(), oracle.running_vms());
        for id in &ids {
            prop_assert_eq!(part.is_running(VmId(*id)), oracle.is_running(VmId(*id)));
        }
        for (a, b) in part.servers().iter().zip(oracle.servers()) {
            prop_assert!(
                a.aggregates().approx_eq(&b.aggregates()),
                "server {:?} aggregates diverged after reconcile",
                a.id()
            );
            prop_assert_eq!(a.is_up(), b.is_up());
        }
        prop_assert_eq!(part.reachability(target), oracle.reachability(target));
        prop_assert_eq!(part.stats().preempted, oracle.stats().preempted);
        prop_assert_eq!(part.stats().server_crashes, oracle.stats().server_crashes);
        prop_assert_eq!(
            part.metrics().count("cluster.exits"),
            oracle.metrics().count("cluster.exits")
        );
        prop_assert_eq!(departure_counters(&part), departure_counters(&oracle));
    }

    /// An empty partition window — open, nothing happens, heal — is
    /// state-neutral: zero divergence, nothing lost, and every server's
    /// aggregates and the lifecycle view exactly as before.
    #[test]
    fn empty_partition_window_is_state_neutral(
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
        // An empty cluster always admits the first request.
        prop_assert!(!placed.is_empty());
        let target = m.server_of(placed[0]).expect("placed VM runs");
        let before: Vec<_> = m.servers().iter().map(|s| s.aggregates()).collect();
        let running = m.running_vms();

        prop_assert!(m.partition_server(SimTime::from_secs(10), target));
        let out = m
            .heal_server(SimTime::from_secs(20), target)
            .expect("was partitioned");

        prop_assert_eq!(out.divergence, 0);
        prop_assert!(out.exited.is_empty());
        prop_assert!(out.oom_killed.is_empty());
        prop_assert!(out.lost_high.is_empty());
        prop_assert!(out.lost_low.is_empty());
        prop_assert!(!out.crashed);
        prop_assert_eq!(m.running_vms(), running);
        prop_assert_eq!(m.reachability(target), Reachability::Up);
        for (s, b) in m.servers().iter().zip(&before) {
            prop_assert!(
                s.aggregates().approx_eq(b),
                "empty window drifted server {:?}",
                s.id()
            );
        }
        m.assert_consistent();
    }
}

/// An exit behind a partition reinflates the deflated survivors
/// locally; the heal must replay those reinflations and the guest's
/// hot-plug counters so the books match an oracle that watched.
#[test]
fn exit_behind_partition_replays_reinflations_at_heal() {
    let (mut part, mut oracle) = deflated_twins();
    assert!(part.partition_server(SimTime::from_secs(10), ServerId(0)));
    let now = SimTime::from_secs(20);
    assert!(part.exit(now, VmId(2)).is_some());
    assert!(oracle.exit(now, VmId(2)).is_some());
    part.heal_server(SimTime::from_secs(30), ServerId(0))
        .expect("was partitioned");
    assert_eq!(oracle.stats().reinflations, 2, "both survivors reinflate");
    assert_eq!(departure_counters(&part), departure_counters(&oracle));
    part.assert_consistent();
}
