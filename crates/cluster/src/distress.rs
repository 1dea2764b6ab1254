//! Guest-distress semantics for the cluster simulation: consequences
//! (guest OOM kills, thrash slowdown), mitigation (emergency
//! reinflation), and guardrails (a per-VM deflation circuit breaker and
//! the working-set floor).
//!
//! Deflating a low-priority VM below what its guest actually needs is
//! not free: once hot-unplug cuts visible memory below the resident set
//! the guest OOM-kills the workload, and host-swap pressure short of
//! that stalls it. The paper's cluster results (§6.3) assume deflation
//! targets stay above the working set; this module models what happens
//! when they do not — and the control-plane loop that keeps them above
//! it.
//!
//! Everything here is opt-in: the default [`DistressConfig::none`] keeps
//! the simulation byte-identical to a build without distress plumbing
//! (no extra events, no metric keys, no RNG draws).

use deflate_core::{ServerId, VmId};
use simkit::SimDuration;

/// Configuration of the distress loop. Disabled by default; see
/// [`DistressConfig::unguarded`] and [`DistressConfig::guarded`] for the
/// two arms the `fig_distress` experiment compares.
#[derive(Debug, Clone, Copy)]
pub struct DistressConfig {
    /// Master switch. When `false` nothing below matters and the
    /// simulation is byte-identical to one without distress plumbing.
    pub enabled: bool,
    /// How often guest state is sampled.
    pub sample_interval: SimDuration,
    /// How long a guest may stay in *hard* distress (RSS over visible
    /// memory, i.e. OOM) before its OOM killer fires. Mitigation gets
    /// this long to rescue the VM.
    pub grace_window: SimDuration,
    /// Swapped fraction of the resident set above which a guest counts
    /// as *soft*-distressed (thrashing).
    pub thrash_threshold: f64,
    /// Respond to distress with emergency reinflation: reclaim memory
    /// from healthy co-located donors and return it to the distressed VM
    /// before the grace window expires.
    pub emergency_reinflate: bool,
    /// Circuit breaker: this many *consecutive* distressed samples open
    /// the breaker, exempting the VM from further memory deflation until
    /// it stays healthy for the cool-down. 0 disables the breaker.
    pub breaker_after: u32,
    /// Consecutive healthy samples required to close the breaker. The
    /// hold-off doubles with every trip (capped at 64×), mirroring the
    /// manager's `unresponsive_after` escalation.
    pub breaker_cooldown: u32,
    /// Honor each VM's application-reported working-set floor in policy
    /// cascades (refuse to deflate memory below it).
    pub working_set_floor: bool,
    /// The floor as a fraction of the VM's resident set (only used when
    /// the simulation assigns floors at launch).
    pub floor_fraction: f64,
    /// Boot delay before an OOM-killed VM re-enters placement.
    pub restart_delay: SimDuration,
    /// Give guests force-unplug semantics: hot-unplug may cut below the
    /// free memory, which is what makes hard distress reachable at all.
    pub force_unplug: bool,
    /// Thrash-slowdown coefficient: a fully-swapped guest runs at
    /// `1 / (1 + swap_coef)` of its healthy rate.
    pub swap_coef: f64,
}

impl Default for DistressConfig {
    fn default() -> Self {
        DistressConfig {
            enabled: false,
            sample_interval: SimDuration::from_secs(60),
            grace_window: SimDuration::from_secs(180),
            thrash_threshold: 0.05,
            emergency_reinflate: false,
            breaker_after: 0,
            breaker_cooldown: 5,
            working_set_floor: false,
            floor_fraction: 0.9,
            restart_delay: SimDuration::from_secs(120),
            force_unplug: true,
            swap_coef: 8.0,
        }
    }
}

impl DistressConfig {
    /// The disabled configuration (the default).
    pub fn none() -> Self {
        DistressConfig::default()
    }

    /// Whether the distress loop is off.
    pub fn is_none(&self) -> bool {
        !self.enabled
    }

    /// Consequences only: guests OOM and thrash, but nothing mitigates —
    /// the baseline arm of the `fig_distress` experiment.
    pub fn unguarded() -> Self {
        DistressConfig {
            enabled: true,
            ..DistressConfig::default()
        }
    }

    /// The full guarded loop: emergency reinflation, circuit breaker,
    /// and the working-set floor.
    pub fn guarded() -> Self {
        DistressConfig {
            enabled: true,
            emergency_reinflate: true,
            breaker_after: 3,
            working_set_floor: true,
            ..DistressConfig::default()
        }
    }

    /// Normalized work-completion rate of a thrashing guest:
    /// `1 / (1 + swap_coef × swapped_frac)`, floored at 0.05 so a
    /// fully-swapped VM still makes (slow) progress rather than running
    /// forever. Deterministic — no RNG.
    pub fn thrash_perf(&self, swapped_frac: f64) -> f64 {
        (1.0 / (1.0 + self.swap_coef * swapped_frac.max(0.0))).max(0.05)
    }
}

/// What one distress sample decided for one VM. The simulator turns
/// these into relaunches (kills) and departure stretches (slowdowns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DistressEvent {
    /// The guest OOM killer fired: the VM died and must relaunch through
    /// the crash path. The server has already removed it.
    OomKill {
        /// The killed VM.
        vm: VmId,
        /// The server it ran on.
        server: ServerId,
        /// Whether the manager watched the kill. `false` behind a
        /// partition or while the manager is down: the relaunch waits
        /// for the heal or recovery that settles it.
        observed: bool,
    },
    /// The guest is thrashing: it completes work at `perf` (< 1) of its
    /// healthy rate for the past sample interval.
    Slowdown {
        /// The thrashing VM.
        vm: VmId,
        /// Normalized work-completion rate in (0, 1).
        perf: f64,
    },
    /// The manager escalated a still-distressed VM to live migration:
    /// a destination reservation is in flight and the simulator must
    /// call `finish_migration` once `total` elapses.
    Migration {
        /// The migrating VM (still running on its source).
        vm: VmId,
        /// Wall-clock span of the planned move (copy rounds + blackout).
        total: SimDuration,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        let d = DistressConfig::none();
        assert!(d.is_none());
        assert!(!DistressConfig::unguarded().is_none());
        assert!(!DistressConfig::guarded().is_none());
    }

    #[test]
    fn guarded_enables_every_mitigation() {
        let g = DistressConfig::guarded();
        assert!(g.emergency_reinflate);
        assert!(g.breaker_after > 0);
        assert!(g.working_set_floor);
        // The unguarded arm has the same consequences but no mitigation.
        let u = DistressConfig::unguarded();
        assert!(!u.emergency_reinflate);
        assert_eq!(u.breaker_after, 0);
        assert!(!u.working_set_floor);
        assert_eq!(u.sample_interval, g.sample_interval);
        assert_eq!(u.grace_window, g.grace_window);
    }

    #[test]
    fn thrash_perf_is_monotone_and_bounded() {
        let d = DistressConfig::guarded();
        assert!((d.thrash_perf(0.0) - 1.0).abs() < 1e-12);
        let mut prev = 1.0;
        for i in 1..=10 {
            let p = d.thrash_perf(i as f64 / 10.0);
            assert!(p < prev, "perf must fall with swap pressure");
            assert!(p >= 0.05, "floored at 5%");
            assert!(p > 0.0 && p <= 1.0);
            prev = p;
        }
        // Negative inputs (shouldn't happen) clamp to healthy.
        assert_eq!(d.thrash_perf(-1.0), 1.0);
    }
}
