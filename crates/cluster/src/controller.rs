//! The server-local controller (paper §5, Fig. 2): the one
//! implementation of everything a server decides on its own.
//!
//! Each action — removing a VM and reinflating the survivors (natural
//! exit or guest OOM kill), a crash, a reboot, and one distress sample
//! (classify, emergency grant from donors, breaker step, grace-window
//! kill) — mutates exactly one [`PhysicalServer`] and returns a typed
//! [`Outcome`]. The controller neither knows nor cares whether the
//! manager is watching: the manager's single sink applies an outcome to
//! its books when the server is reachable, and appends the matching
//! [`DivergenceEvent`](crate::partition::DivergenceEvent) to the
//! server's log when it is partitioned or the manager is down.
//!
//! The per-VM distress/breaker state is server-local too, so it stays
//! put when a server is partitioned, healed, or outlives a manager
//! crash.

use std::collections::HashMap;

use deflate_core::{CascadeConfig, ResourceKind, ResourceVector, VmId};
use hypervisor::guest::HotplugStats;
use hypervisor::{LocalController, PhysicalServer, ReclaimSession, ServerAggregates, VmPriority};
use simkit::{SeqHash, SimTime};

use crate::distress::DistressConfig;

/// Per-VM distress tracking: the grace-window clock, the breaker's
/// consecutive-sample counters, and its exponential hold-off state.
#[derive(Debug, Default, Clone, Copy)]
struct VmDistress {
    /// When the current uninterrupted hard-distress episode began.
    hard_since: Option<SimTime>,
    /// Consecutive distressed (hard or soft) samples.
    consecutive: u32,
    /// Consecutive healthy samples while the breaker is open.
    healthy_streak: u32,
    /// Times the breaker has tripped (drives the exponential hold-off).
    trips: u32,
    /// Healthy samples required to close the breaker this time.
    hold: u32,
    /// Whether the breaker is open (VM exempt from memory deflation).
    open: bool,
}

/// Why a VM left its server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cause {
    /// Its lifetime ended.
    Exit,
    /// Hard distress outlived the grace window.
    OomKill,
}

/// What one server-local action did, for the manager's sink.
#[derive(Debug)]
pub(crate) enum Outcome {
    /// A VM left and its effective allocation (less any proactive hold)
    /// reinflated the deflated survivors.
    Departed {
        /// The departed VM.
        vm: VmId,
        /// Exit or OOM kill.
        cause: Cause,
        /// The departed VM's effective allocation.
        freed: ResourceVector,
        /// The departed guest's hot-plug counters.
        hotplug: HotplugStats,
        /// Server aggregates between removal and reinflation.
        mid: ServerAggregates,
        /// The survivors' reinflation grants.
        reinflated: Vec<(VmId, ResourceVector)>,
        /// Whether the VM left with its breaker open.
        breaker_open: bool,
    },
    /// The server crashed; every hosted VM died with it.
    Crashed {
        /// High-priority VMs lost, lowest id first.
        lost_high: Vec<VmId>,
        /// Low-priority VMs lost, lowest id first.
        lost_low: Vec<VmId>,
        /// Breakers that were open among the lost VMs.
        open_breakers: u64,
        /// Server aggregates before the crash.
        before: ServerAggregates,
    },
    /// The server rebooted, empty.
    Restarted,
    /// Emergency reinflation ran for a distressed VM.
    Rescued {
        /// The distressed VM.
        vm: VmId,
        /// Memory gap between its resident set and its allocation (MiB).
        needed: f64,
        /// Memory granted (MiB); zero when no pool or donor could help.
        granted: f64,
        /// Server aggregates before the rescue.
        before: ServerAggregates,
    },
    /// A VM's deflation circuit breaker tripped open.
    BreakerOpened {
        /// The shielded VM.
        vm: VmId,
        /// Lifetime trip count after this trip.
        trips: u32,
        /// Healthy samples required to close it again.
        hold: u32,
    },
    /// A VM's breaker closed after enough healthy samples.
    BreakerClosed {
        /// The VM whose breaker closed.
        vm: VmId,
    },
}

/// What one distress sample decided for one low-priority VM.
#[derive(Debug)]
pub(crate) struct Sample {
    /// Hard distress (guest OOM) after any rescue.
    pub(crate) hard: bool,
    /// Soft distress (thrashing) after any rescue.
    pub(crate) soft: bool,
    /// Swapped fraction of the resident set after any rescue.
    pub(crate) frac: f64,
    /// The emergency reinflation, when one ran.
    pub(crate) rescue: Option<Outcome>,
    /// The breaker transition, if any.
    pub(crate) breaker: Option<Outcome>,
    /// The grace window expired: the guest OOM killer fires.
    pub(crate) kill: bool,
}

/// The local controllers of a fleet: the cascade every server runs and
/// each server's per-VM distress/breaker state.
pub(crate) struct Controller {
    /// The hypervisor-level reclamation mechanism (make-room cascade,
    /// proportional reinflation).
    pub(crate) hv: LocalController,
    /// Per-server, per-VM distress state; empty (no servers at all)
    /// while the distress loop is disabled.
    distress: Vec<HashMap<VmId, VmDistress, SeqHash>>,
}

/// `(hard, swapped fraction)` for one hosted VM.
fn classify(server: &PhysicalServer, id: VmId) -> (bool, f64) {
    let vm = server.vm(id).expect("sampled VM is hosted");
    let state = vm.state();
    let st = state.borrow();
    let frac = if st.usage.memory_mb > 0.0 {
        ((st.swapped_mb + st.blind_swapped_mb) / st.usage.memory_mb).clamp(0.0, 1.0)
    } else {
        0.0
    };
    (st.is_oom(), frac)
}

impl Controller {
    /// Controllers for `n_servers` servers running `cascade`; distress
    /// state is only kept when `distress` is enabled.
    pub(crate) fn new(cascade: CascadeConfig, n_servers: usize, distress: &DistressConfig) -> Self {
        let n = if distress.is_none() { 0 } else { n_servers };
        Controller {
            hv: LocalController::new(cascade),
            distress: (0..n).map(|_| HashMap::default()).collect(),
        }
    }

    /// Whether `vm`'s breaker on server `si` is open.
    pub(crate) fn breaker_open(&self, si: usize, vm: VmId) -> bool {
        self.distress
            .get(si)
            .and_then(|m| m.get(&vm))
            .is_some_and(|s| s.open)
    }

    /// Open breakers on server `si`.
    pub(crate) fn open_breakers(&self, si: usize) -> u64 {
        self.distress
            .get(si)
            .map_or(0, |m| m.values().filter(|s| s.open).count() as u64)
    }

    /// Every tracked VM as `(server, vm)`.
    pub(crate) fn tracked(&self) -> impl Iterator<Item = (usize, VmId)> + '_ {
        self.distress
            .iter()
            .enumerate()
            .flat_map(|(si, m)| m.keys().map(move |id| (si, *id)))
    }

    /// Forgets a VM that left server `si`; returns whether its breaker
    /// was open.
    pub(crate) fn forget(&mut self, si: usize, vm: VmId) -> bool {
        self.distress
            .get_mut(si)
            .and_then(|m| m.remove(&vm))
            .is_some_and(|s| s.open)
    }

    /// Carries a migrated VM's distress state from server `from` to `to`.
    pub(crate) fn moved(&mut self, from: usize, to: usize, vm: VmId) {
        if let Some(st) = self.distress.get_mut(from).and_then(|m| m.remove(&vm)) {
            self.distress[to].insert(vm, st);
        }
    }

    /// Removes `id` from server `si` and hands what it freed back to the
    /// deflated survivors: `between(freed, before, server)` of it,
    /// called between the removal and the reinflation with the
    /// aggregates before the removal. `None` when the server does not
    /// host the VM.
    pub(crate) fn depart(
        &mut self,
        now: SimTime,
        si: usize,
        server: &mut PhysicalServer,
        id: VmId,
        cause: Cause,
        between: impl FnOnce(&ResourceVector, &ServerAggregates, &PhysicalServer) -> ResourceVector,
    ) -> Option<Outcome> {
        let before = server.aggregates();
        let vm = server.remove_vm(id)?;
        let breaker_open = self.forget(si, id);
        let freed = vm.effective();
        let amount = between(&freed, &before, server);
        let mid = server.aggregates();
        let mut session = ReclaimSession::begin(now, server);
        self.hv.reinflate(&mut session, &amount);
        Some(Outcome::Departed {
            vm: id,
            cause,
            freed,
            hotplug: vm.hotplug_stats(),
            mid,
            reinflated: session.commit().reinflated,
            breaker_open,
        })
    }

    /// Crashes server `si`: every hosted VM dies, and its capacity holds
    /// and distress state die with it. `None` when it is already down.
    pub(crate) fn crash(&mut self, si: usize, server: &mut PhysicalServer) -> Option<Outcome> {
        if !server.is_up() {
            return None;
        }
        let before = server.aggregates();
        let ids: Vec<VmId> = server.vms().map(|vm| vm.id()).collect();
        let (mut lost_high, mut lost_low) = (Vec::new(), Vec::new());
        let mut open_breakers = 0;
        for id in ids {
            let vm = server.remove_vm(id).expect("listed VM is hosted");
            open_breakers += u64::from(self.forget(si, id));
            match vm.priority() {
                VmPriority::High => lost_high.push(id),
                VmPriority::Low => lost_low.push(id),
            }
        }
        server.set_up(false);
        server.clear_reservations();
        Some(Outcome::Crashed {
            lost_high,
            lost_low,
            open_breakers,
            before,
        })
    }

    /// Reboots a down server, empty. `None` when it is already up.
    pub(crate) fn restart(server: &mut PhysicalServer) -> Option<Outcome> {
        if server.is_up() {
            return None;
        }
        server.set_up(true);
        Some(Outcome::Restarted)
    }

    /// One distress sample of low-priority VM `id` on server `si`:
    /// classify the guest, rescue it with an emergency grant when
    /// distressed (and enabled), advance its breaker, and run its grace
    /// clock. The kill itself is left to the caller
    /// ([`depart`](Self::depart) with [`Cause::OomKill`]).
    pub(crate) fn sample(
        &mut self,
        now: SimTime,
        si: usize,
        server: &mut PhysicalServer,
        id: VmId,
        d: &DistressConfig,
    ) -> Sample {
        let (mut hard, mut frac) = classify(server, id);
        let mut soft = !hard && frac > d.thrash_threshold;
        let mut st = self.distress[si].get(&id).copied().unwrap_or_default();

        // Mitigation first: emergency reinflation may clear the distress
        // this very sample, before consequences apply.
        let mut rescue = None;
        if (hard || soft) && d.emergency_reinflate {
            rescue = self.rescue(now, si, server, id);
            (hard, frac) = classify(server, id);
            soft = !hard && frac > d.thrash_threshold;
        }

        let mut breaker = None;
        if hard || soft {
            st.consecutive += 1;
            st.healthy_streak = 0;
            if !st.open && d.breaker_after > 0 && st.consecutive >= d.breaker_after {
                st.open = true;
                st.trips += 1;
                st.hold = d
                    .breaker_cooldown
                    .saturating_mul(1u32 << (st.trips - 1).min(6));
                breaker = Some(Outcome::BreakerOpened {
                    vm: id,
                    trips: st.trips,
                    hold: st.hold,
                });
            }
        } else {
            st.consecutive = 0;
            st.hard_since = None;
            if st.open {
                st.healthy_streak += 1;
                if st.healthy_streak >= st.hold {
                    st.open = false;
                    st.healthy_streak = 0;
                    breaker = Some(Outcome::BreakerClosed { vm: id });
                }
            }
        }

        let mut kill = false;
        if hard {
            let since = *st.hard_since.get_or_insert(now);
            kill = now >= since + d.grace_window;
        } else if soft {
            st.hard_since = None;
        }
        // Persisted even on a kill: the departure forgets it and reports
        // whether this very sample left the breaker open.
        self.distress[si].insert(id, st);
        Sample {
            hard,
            soft,
            frac,
            rescue,
            breaker,
            kill,
        }
    }

    /// Emergency reinflation for one distressed VM: grant it the memory
    /// gap between its resident set and its effective allocation, taking
    /// first from the server's free pool and then from healthy
    /// co-located low-priority donors (largest headroom first, never
    /// below a donor's own resident set, minimum size or working-set
    /// floor, never from a breaker-open VM). `None` when the gap is
    /// negligible.
    pub(crate) fn rescue(
        &self,
        now: SimTime,
        si: usize,
        server: &mut PhysicalServer,
        victim: VmId,
    ) -> Option<Outcome> {
        use ResourceKind::Memory;
        let vm = server.vm(victim)?;
        let usage = vm.state().borrow().usage.memory_mb;
        let eff = vm.effective().get(Memory);
        let spec = vm.spec().get(Memory);
        let needed = (usage - eff).max(0.0).min((spec - eff).max(0.0));
        if needed <= 1.0 {
            return None;
        }
        let before = server.aggregates();
        let mut session = ReclaimSession::begin(now, server);
        let free = session.server().free().get(Memory);
        let mut shortfall = (needed - free).max(0.0);
        if shortfall > 0.0 {
            let mut donors: Vec<(f64, VmId)> = session
                .server()
                .vms()
                .filter(|dv| {
                    dv.id() != victim && dv.priority() == VmPriority::Low && dv.deflatable()
                })
                .filter(|dv| !self.breaker_open(si, dv.id()))
                .filter_map(|dv| {
                    let state = dv.state();
                    let st = state.borrow();
                    if st.is_oom() {
                        return None;
                    }
                    let eff = dv.effective().get(Memory);
                    // Harvesting below the floor would push the donor
                    // into the same distress the grant is rescuing the
                    // victim from.
                    let give = (eff - st.usage.memory_mb)
                        .min(eff - dv.min_size().get(Memory))
                        .min(eff - dv.memory_floor_mb())
                        .min(shortfall);
                    (give > 1.0).then(|| (give, dv.id()))
                })
                .collect();
            donors.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1 .0.cmp(&b.1 .0)));
            for (give, did) in donors {
                if shortfall <= 0.0 {
                    break;
                }
                let ask = ResourceVector::memory(give.min(shortfall));
                if let Some(out) = session.deflate(did, &ask, &self.hv.cascade) {
                    shortfall -= out.total_reclaimed.get(Memory);
                }
            }
        }
        let granted = needed.min(session.server().free().get(Memory));
        if granted > 0.0 {
            session.reinflate(victim, &ResourceVector::memory(granted));
        }
        // Best-effort, never transactional: every donation already made
        // stands even when the grant came up short.
        session.commit();
        Some(Outcome::Rescued {
            vm: victim,
            needed,
            granted,
            before,
        })
    }
}
