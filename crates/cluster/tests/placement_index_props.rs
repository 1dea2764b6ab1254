//! Property tests of the placement index: for *any* interleaving of the
//! mutation choke points — launch (`add_vm`), exit (`remove_vm`),
//! `deflate_vm`, `reinflate_vm`, crash (evacuate + `set_up(false)`) and
//! recover (`set_up(true)`) — the index must stay bit-consistent with
//! live server state and answer every placement query with the *same
//! server* as the naive full-scan oracle under all three policies and
//! both availability modes.
//!
//! The larger fleets below are built from the discrete instance types, so
//! many servers share a few free vectors and BestFit takes the
//! index's free-vector class path; a heterogeneous fleet whose capacities
//! are scalar multiples of one another forces that path's fallback.

use cluster::placement::choose_server_with;
use cluster::traces::default_instance_types;
use cluster::{
    AvailabilityMode, ClusterManagerConfig, PlacementIndex, PlacementPolicy, PlacementWork,
};
use deflate_core::{CascadeConfig, ResourceKind, ResourceVector, ServerId, VmId};
use hypervisor::{PhysicalServer, Vm, VmPriority};
use proptest::prelude::*;
use simkit::{SimRng, SimTime};

fn capacity() -> ResourceVector {
    ResourceVector::new(8.0, 32_768.0, 200.0, 400.0)
}

fn spec(scale: f64) -> ResourceVector {
    ResourceVector::new(4.0, 16_384.0, 100.0, 200.0).scale(scale)
}

/// Every policy × availability-mode query must agree with the oracle.
/// Twin RNGs seeded identically keep the random policies on the same
/// stream for both paths.
fn assert_queries_agree(
    index: &PlacementIndex,
    servers: &[PhysicalServer],
    demand: &ResourceVector,
    seed: u64,
) {
    for policy in PlacementPolicy::ALL {
        for mode in [
            AvailabilityMode::Deflation,
            AvailabilityMode::PreemptionOnly,
        ] {
            let mut naive_rng = SimRng::seed_from_u64(seed);
            let mut index_rng = SimRng::seed_from_u64(seed);
            let naive = choose_server_with(policy, servers, demand, mode, &mut naive_rng);
            let indexed = index.choose(policy, servers, demand, mode, &mut index_rng);
            prop_assert_eq!(
                indexed,
                naive,
                "policy {} diverged (indexed vs naive) for demand {:?}",
                policy.name(),
                demand
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random mutation interleavings keep the index consistent and its
    /// answers identical to the naive scan's.
    #[test]
    fn index_matches_naive_scan_under_any_interleaving(
        seed in any::<u64>(),
        n_servers in 1usize..7,
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut servers: Vec<PhysicalServer> = (0..n_servers)
            .map(|i| PhysicalServer::new(ServerId(i as u64), capacity()))
            .collect();
        let mut index = PlacementIndex::new(&servers);
        index.assert_consistent(&servers);
        let cascade = CascadeConfig::VM_LEVEL;
        // Live VMs as (server index, vm id).
        let mut hosted: Vec<(usize, u64)> = Vec::new();
        let mut next_id = 0u64;
        for step in 0..80u64 {
            let now = SimTime::from_secs(step);
            let si = rng.index(n_servers);
            match rng.index(6) {
                // Launch: place a VM directly (placement-independent so
                // down servers and overcommit states get exercised too).
                0 | 1 => {
                    let scale = rng.uniform_range(0.2, 1.2);
                    let low = rng.chance(0.6);
                    let pri = if low { VmPriority::Low } else { VmPriority::High };
                    let s = spec(scale);
                    let min = if low { s.scale(0.3) } else { ResourceVector::ZERO };
                    servers[si].add_vm(Vm::new(VmId(next_id), s, pri).with_min(min));
                    hosted.push((si, next_id));
                    next_id += 1;
                }
                // Exit: remove a random live VM.
                2 => {
                    if !hosted.is_empty() {
                        let k = rng.index(hosted.len());
                        let (owner, id) = hosted.swap_remove(k);
                        prop_assert!(servers[owner].remove_vm(VmId(id)).is_some());
                        index.refresh(owner, &servers[owner]);
                    }
                }
                // Deflate a random live VM toward a smaller target.
                3 => {
                    if !hosted.is_empty() {
                        let k = rng.index(hosted.len());
                        let (owner, id) = hosted[k];
                        let target = spec(rng.uniform_range(0.05, 0.8));
                        servers[owner].deflate_vm(now, VmId(id), &target, &cascade);
                        index.refresh(owner, &servers[owner]);
                    }
                }
                // Reinflate a random live VM.
                4 => {
                    if !hosted.is_empty() {
                        let k = rng.index(hosted.len());
                        let (owner, id) = hosted[k];
                        let amount = spec(rng.uniform_range(0.05, 0.5));
                        servers[owner].reinflate_vm(now, VmId(id), &amount);
                        index.refresh(owner, &servers[owner]);
                    }
                }
                // Crash (evacuate then down) or recover.
                _ => {
                    if servers[si].is_up() {
                        let ids: Vec<VmId> =
                            servers[si].vms().map(|vm| vm.id()).collect();
                        for id in ids {
                            servers[si].remove_vm(id);
                        }
                        hosted.retain(|(owner, _)| *owner != si);
                        servers[si].set_up(false);
                    } else {
                        servers[si].set_up(true);
                    }
                }
            }
            index.refresh(si, &servers[si]);
            index.assert_consistent(&servers);
            // Queries agree for a spread of demand shapes: tiny,
            // typical, near-capacity, unsatisfiable, and skewed.
            let skew = ResourceVector::new(
                rng.uniform_range(0.1, 8.0),
                rng.uniform_range(64.0, 32_768.0),
                rng.uniform_range(1.0, 200.0),
                rng.uniform_range(1.0, 400.0),
            );
            for demand in [spec(0.1), spec(rng.uniform_range(0.2, 1.0)), spec(1.9), spec(10.0), skew] {
                assert_queries_agree(&index, &servers, &demand, seed ^ step);
            }
        }
    }
}

/// One random walk over a 16–256-server fleet of discrete VM sizes:
/// launches of `default_instance_types()` onto servers with free room,
/// exits, occasional deflations, crashes, recoveries and partitions.
/// After every step the index must be consistent and agree with the
/// oracle on every policy, mode and instance-type demand. With
/// `multiples`, odd servers have twice the even servers' capacity, so
/// free vectors that are scalar multiples of one another tie on cosine.
/// Returns the index's work tallies.
fn discrete_fleet_walk(seed: u64, n_servers: usize, multiples: bool) -> PlacementWork {
    let mut rng = SimRng::seed_from_u64(seed);
    let base = ClusterManagerConfig::default().server_capacity;
    let types = default_instance_types();
    let mut servers: Vec<PhysicalServer> = (0..n_servers)
        .map(|i| {
            let scale = if multiples && i % 2 == 1 { 2.0 } else { 1.0 };
            PhysicalServer::new(ServerId(i as u64), base.scale(scale))
        })
        .collect();
    let mut hosted: Vec<(usize, u64)> = Vec::new();
    let mut next_id = 0u64;
    // About one VM per server keeps the free tier dense and the distinct
    // free vectors few.
    while hosted.len() < n_servers {
        let si = rng.index(n_servers);
        let spec = types[rng.index(types.len())].spec;
        if servers[si].free().dominates(&spec) {
            servers[si].add_vm(Vm::new(VmId(next_id), spec, VmPriority::High));
            hosted.push((si, next_id));
            next_id += 1;
        }
    }
    let mut index = PlacementIndex::new(&servers);
    let cascade = CascadeConfig::VM_LEVEL;
    for step in 0..40u64 {
        let si = rng.index(n_servers);
        match rng.index(10) {
            0..=3 => {
                let spec = types[rng.index(types.len())].spec;
                if servers[si].free().dominates(&spec) {
                    let low = rng.chance(0.5);
                    let (pri, min) = if low {
                        (VmPriority::Low, spec.scale(0.25))
                    } else {
                        (VmPriority::High, ResourceVector::ZERO)
                    };
                    servers[si].add_vm(Vm::new(VmId(next_id), spec, pri).with_min(min));
                    hosted.push((si, next_id));
                    next_id += 1;
                }
            }
            4..=6 => {
                if !hosted.is_empty() {
                    let (owner, id) = hosted.swap_remove(rng.index(hosted.len()));
                    servers[owner].remove_vm(VmId(id));
                    index.refresh(owner, &servers[owner]);
                }
            }
            // A deflation makes one free vector continuous.
            7 => {
                if !hosted.is_empty() {
                    let (owner, id) = hosted[rng.index(hosted.len())];
                    let target = servers[owner].vm(VmId(id)).unwrap().spec().scale(0.6);
                    let now = SimTime::from_secs(step);
                    servers[owner].deflate_vm(now, VmId(id), &target, &cascade);
                    index.refresh(owner, &servers[owner]);
                }
            }
            8 => {
                let up = servers[si].is_up();
                servers[si].set_up(!up);
            }
            _ => {
                let connected = servers[si].is_connected();
                servers[si].set_connected(!connected);
            }
        }
        index.refresh(si, &servers[si]);
        index.assert_consistent(&servers);
        for (k, t) in types.iter().enumerate() {
            assert_queries_agree(&index, &servers, &t.spec, seed ^ (step << 8) ^ k as u64);
        }
    }
    index.work()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fleets of discrete VM sizes, homogeneous or with capacities that
    /// are scalar multiples, answer exactly like the oracle.
    #[test]
    fn class_path_matches_naive_scan_on_discrete_fleets(
        seed in any::<u64>(),
        n_servers in 16usize..257,
        multiples in any::<bool>(),
    ) {
        discrete_fleet_walk(seed, n_servers, multiples);
    }
}

/// The walks above reach both outcomes of the class path: answers
/// decided by a clear cosine margin, and ties that fall back to the
/// sweep.
#[test]
fn class_path_and_its_fallback_both_run() {
    let homogeneous = discrete_fleet_walk(1, 128, false);
    assert!(
        homogeneous.class > 0,
        "class path never ran: {homogeneous:?}"
    );
    let multiples = discrete_fleet_walk(2, 256, true);
    assert!(multiples.fallback > 0, "fallback never ran: {multiples:?}");
}

/// BestFit on a light fleet (utilization below one half) of discrete
/// VM sizes scores each distinct free vector, not each server: fill to
/// about 30% with BestFit placements, then churn exits and arrivals.
/// Returns the mean number of vectors scored per BestFit query.
fn light_fleet_scored_per_query(n_servers: usize, seed: u64) -> f64 {
    let mut rng = SimRng::seed_from_u64(seed);
    let capacity = ClusterManagerConfig::default().server_capacity;
    let types = default_instance_types();
    let mut servers: Vec<PhysicalServer> = (0..n_servers)
        .map(|i| PhysicalServer::new(ServerId(i as u64), capacity))
        .collect();
    let mut index = PlacementIndex::new(&servers);
    let weights: Vec<f64> = types.iter().map(|t| t.weight).collect();
    let mode = AvailabilityMode::Deflation;
    let target_cpu = 0.3 * capacity.get(ResourceKind::Cpu) * n_servers as f64;
    let mut hosted: Vec<(usize, u64)> = Vec::new();
    let (mut used_cpu, mut next_id, mut exits) = (0.0, 0u64, 0usize);
    while used_cpu < target_cpu || exits < n_servers / 4 {
        if used_cpu >= target_cpu {
            let (owner, id) = hosted.swap_remove(rng.index(hosted.len()));
            let vm = servers[owner].remove_vm(VmId(id)).unwrap();
            used_cpu -= vm.spec().get(ResourceKind::Cpu);
            index.refresh(owner, &servers[owner]);
            exits += 1;
        }
        let spec = types[rng.weighted_index(&weights)].spec;
        // BestFit draws no randomness; the RNG only fills the signature.
        let mut r = SimRng::seed_from_u64(0);
        let si = index
            .choose(PlacementPolicy::BestFit, &servers, &spec, mode, &mut r)
            .expect("a light fleet always has room");
        if next_id % 97 == 0 {
            let naive = choose_server_with(PlacementPolicy::BestFit, &servers, &spec, mode, &mut r);
            assert_eq!(Some(si), naive, "class path diverged from the oracle");
        }
        servers[si].add_vm(Vm::new(VmId(next_id), spec, VmPriority::High));
        index.refresh(si, &servers[si]);
        hosted.push((si, next_id));
        next_id += 1;
        used_cpu += spec.get(ResourceKind::Cpu);
    }
    index.assert_consistent(&servers);
    let work = index.work();
    work.scored as f64 / work.best_fit as f64
}

/// The work bound on BestFit: at most 64 vectors scored per query on a
/// light fleet, at 1 000 and at 8 000 servers. A per-server scan scores
/// about the whole fleet.
#[test]
fn best_fit_scores_few_vectors_on_light_fleets() {
    for n in [1_000, 8_000] {
        let mean = light_fleet_scored_per_query(n, 42);
        assert!(
            mean <= 64.0,
            "{n} servers: {mean:.1} vectors scored per BestFit query"
        );
    }
}
