//! The lifecycle journal: one typed record per lifecycle fact.
//!
//! The paper explains each reclamation as a per-layer cascade
//! (application → guest OS → hypervisor, Fig. 3). The manager records
//! that story, and every other lifecycle fact (launch, exit, crash,
//! migration, partition, ...), as one [`Record`] per fact. Records are
//! `Copy` values of ids, vectors and durations: nothing is formatted or
//! heap-allocated while the simulation runs. The [`Display`](fmt::Display)
//! impl renders a record as text, `kind field=value ...`, only when a
//! caller exports it.
//!
//! A committed `make_room` journals as a cascade:
//! [`Record::MakeRoom`], then each deflated VM's [`Record::Deflated`]
//! followed by one [`Record::LayerFreed`] per engaged layer, then one
//! [`Record::Preempted`] per preempted VM.

use std::collections::BTreeMap;
use std::fmt;

use deflate_core::{ResourceKind, ResourceVector, ServerId, VmId};
use hypervisor::ReclaimReport;
use simkit::{JsonValue, SimDuration, SimTime};

/// A cascade layer (paper Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The application relinquished resources voluntarily.
    App,
    /// The guest OS hot-unplugged them.
    Os,
    /// The hypervisor overcommitted them.
    Hypervisor,
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Layer::App => "app",
            Layer::Os => "os",
            Layer::Hypervisor => "hypervisor",
        })
    }
}

/// A resource vector held at `f32` precision. Records carry up to two
/// vectors; at `f32` a journal entry stays at 88 bytes, so a full
/// journal costs about as much memory as the text trace it replaced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactVector([f32; 4]);

impl CompactVector {
    /// The vector at `f64` precision.
    pub fn vector(self) -> ResourceVector {
        let [cpu, mem, disk, net] = self.0.map(f64::from);
        ResourceVector::new(cpu, mem, disk, net)
    }
}

impl From<ResourceVector> for CompactVector {
    fn from(v: ResourceVector) -> Self {
        CompactVector(ResourceKind::ALL.map(|k| v.get(k) as f32))
    }
}

impl fmt::Display for CompactVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.vector().fmt(f)
    }
}

/// Declares [`Record`] from one line per variant — its kind and its
/// fields — and derives [`Record::kind`] and the text rendering from the
/// same table.
macro_rules! records {
    ($($(#[$doc:meta])* $variant:ident = $kind:literal { $($field:ident: $ty:ty),* $(,)? })*) => {
        /// One lifecycle fact.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub enum Record {
            $($(#[$doc])* $variant { $($field: $ty),* },)*
        }

        impl Record {
            /// The record's kind: the key it is counted under in run
            /// summaries.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Record::$variant { .. } => $kind,)*
                }
            }
        }

        impl fmt::Display for Record {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self {
                    $(Record::$variant { $($field),* } => {
                        f.write_str($kind)?;
                        $(write!(f, concat!(" ", stringify!($field), "={}"), $field)?;)*
                    })*
                }
                Ok(())
            }
        }
    };
}

records! {
    /// A VM was placed.
    Launched = "cluster.launch" { vm: VmId, server: ServerId, type_name: &'static str }
    /// A launch request was finally refused.
    Rejected = "cluster.reject" { vm: VmId, why: &'static str }
    /// A server's local controller made room for `for_vm`'s launch.
    MakeRoom = "server.make_room" {
        server: ServerId, for_vm: VmId, satisfied: bool, deflated: u32, preempted: u32,
        freed: CompactVector, latency: SimDuration,
    }
    /// One VM's cascade deflation during a `make_room`.
    Deflated = "cascade.deflate" {
        vm: VmId, server: ServerId, for_vm: VmId, total: CompactVector,
        shortfall: CompactVector, latency: SimDuration, retries: u32, escalations: u32,
    }
    /// What one engaged layer of `vm`'s cascade reclaimed.
    LayerFreed = "cascade.layer" {
        vm: VmId, layer: Layer, requested: CompactVector, reclaimed: CompactVector,
        attempts: u32, latency: SimDuration,
    }
    /// A low-priority VM was preempted to make room for `for_vm`.
    Preempted = "server.preempt" { vm: VmId, server: ServerId, for_vm: VmId }
    /// A VM exited naturally.
    Exited = "cluster.exit" { vm: VmId, server: ServerId, freed: CompactVector }
    /// The guest OOM killer fired on a distressed VM.
    OomKilled = "cluster.guest_oom_kill" { vm: VmId, server: ServerId, freed: CompactVector }
    /// A deflated VM got resources back.
    Reinflated = "cluster.reinflate" { vm: VmId, server: ServerId, by: CompactVector }
    /// A VM's agent missed too many cascade deadlines in a row.
    AgentUnresponsive = "cluster.agent_unresponsive" { vm: VmId, missed_deadlines: u32 }
    /// A server crashed with the manager watching.
    ServerCrashed = "cluster.server_crash" { server: ServerId, lost_high: u32, lost_low: u32 }
    /// A crashed server came back; with the manager down it rejoins
    /// partitioned.
    ServerRestarted = "cluster.server_up" { server: ServerId, manager_down: bool }
    /// Emergency reinflation granted memory to a distressed VM.
    EmergencyGrant = "cluster.emergency_reinflate" {
        vm: VmId, server: ServerId, needed_mb: f64, granted_mb: f64,
    }
    /// A VM's deflation circuit breaker opened.
    BreakerOpened = "cluster.breaker_open" {
        vm: VmId, server: ServerId, trips: u32, hold_samples: u32,
    }
    /// A live migration reserved its destination and started copying.
    MigrationStarted = "cluster.migrate_start" {
        vm: VmId, src: ServerId, dst: ServerId, rounds: u32,
    }
    /// A live migration cut over to its destination.
    Migrated = "cluster.migration" {
        vm: VmId, src: ServerId, dst: ServerId, rounds: u32, copied_mb: f64,
    }
    /// A parked migration was abandoned and its hold released.
    MigrationAborted = "cluster.migrate_abort" { vm: VmId, dst: ServerId }
    /// A server was evacuated ahead of maintenance or a crash.
    Drained = "cluster.drain" { server: ServerId, hosted: u32, moves: u32 }
    /// A defragmentation pass emptied a server.
    Defragged = "cluster.defrag" { server: ServerId, moves: u32 }
    /// The manager lost contact with a server.
    Partitioned = "cluster.partition" { server: ServerId, hosted: u32 }
    /// A partition closed and the server's divergence log was replayed.
    Healed = "cluster.partition_heal" {
        server: ServerId, divergence: u32, exited: u32, oom_killed: u32, lost_high: u32,
        lost_low: u32,
    }
    /// The manager process crashed.
    ManagerCrashed = "cluster.manager_crash" { isolated: u32 }
    /// The manager rebuilt its state from an inventory scan.
    ManagerRecovered = "cluster.manager_recover" { scanned: u32, divergence: u32 }
}

// A full journal of 100 000 entries stays under 9 MB.
const _: () = assert!(std::mem::size_of::<(SimTime, Record)>() <= 88);

impl Record {
    /// Feeds `emit` the records of one committed `make_room` on `server`
    /// for `for_vm`'s launch, in cascade order (see the module docs).
    pub fn make_room(
        server: ServerId,
        for_vm: VmId,
        report: &ReclaimReport,
        mut emit: impl FnMut(Record),
    ) {
        emit(Record::MakeRoom {
            server,
            for_vm,
            satisfied: report.satisfied,
            deflated: report.outcomes.len() as u32,
            preempted: report.preempted.len() as u32,
            freed: report.freed.into(),
            latency: report.latency,
        });
        for &(vm, ref out) in &report.outcomes {
            emit(Record::Deflated {
                vm,
                server,
                for_vm,
                total: out.total_reclaimed.into(),
                shortfall: out.shortfall.into(),
                latency: out.latency,
                retries: out.retries,
                escalations: out.escalations,
            });
            let layers = [
                (Layer::App, &out.app),
                (Layer::Os, &out.os),
                (Layer::Hypervisor, &out.hypervisor),
            ];
            for (layer, r) in layers.into_iter().filter(|(_, r)| r.engaged()) {
                emit(Record::LayerFreed {
                    vm,
                    layer,
                    requested: r.requested.into(),
                    reclaimed: r.reclaimed.into(),
                    attempts: r.attempts,
                    latency: r.latency,
                });
            }
        }
        for &vm in &report.preempted {
            emit(Record::Preempted { vm, server, for_vm });
        }
    }
}

/// A bounded, in-order store of timestamped [`Record`]s: keeps the first
/// `capacity` entries and counts the rest as dropped.
#[derive(Debug)]
pub struct Journal {
    entries: Vec<(SimTime, Record)>,
    capacity: usize,
    dropped: u64,
}

impl Default for Journal {
    fn default() -> Self {
        Journal::with_capacity(100_000)
    }
}

impl Journal {
    /// A journal that keeps at most `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        Journal {
            // Reserved once so no push reallocates; the pages are only
            // committed as records are written to them.
            entries: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Appends a record, or counts it as dropped when full.
    pub fn push(&mut self, at: SimTime, record: Record) {
        if self.entries.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.entries.push((at, record));
    }

    /// The retained entries in order.
    pub fn entries(&self) -> &[(SimTime, Record)] {
        &self.entries
    }

    /// Number of retained entries of a kind.
    pub fn count(&self, kind: &str) -> usize {
        self.entries
            .iter()
            .filter(|(_, r)| r.kind() == kind)
            .count()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of records dropped at the capacity cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The run summary's `trace` section:
    /// `{records, dropped, spans: {kind: n}}`, kinds in name order.
    pub fn summary(&self) -> JsonValue {
        let mut kinds: BTreeMap<&str, usize> = BTreeMap::new();
        for (_, r) in &self.entries {
            *kinds.entry(r.kind()).or_default() += 1;
        }
        let mut spans = JsonValue::object();
        for (kind, n) in kinds {
            spans.set(kind, n);
        }
        JsonValue::object()
            .with("records", self.entries.len())
            .with("dropped", self.dropped)
            .with("spans", spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deflate_core::CascadeConfig;
    use hypervisor::{LocalController, PhysicalServer, Vm, VmPriority};

    fn rejected(vm: u64) -> Record {
        Record::Rejected {
            vm: VmId(vm),
            why: "no server fits",
        }
    }

    #[test]
    fn records_and_filters() {
        let mut j = Journal::default();
        j.push(SimTime::ZERO, rejected(1));
        j.push(
            SimTime::from_secs(1),
            Record::ManagerCrashed { isolated: 3 },
        );
        j.push(SimTime::from_secs(2), rejected(3));
        assert_eq!(j.len(), 3);
        assert_eq!(j.count("cluster.reject"), 2);
        assert_eq!(j.count("cluster.manager_crash"), 1);
        assert_eq!(j.count("missing"), 0);
        assert!(!j.is_empty());
    }

    #[test]
    fn capacity_cap_drops() {
        let mut j = Journal::with_capacity(2);
        for i in 0..5 {
            j.push(SimTime::from_secs(i), rejected(i));
        }
        assert_eq!(j.len(), 2);
        assert_eq!(j.dropped(), 3);
        assert_eq!(j.entries()[1].1, rejected(1), "keeps the first records");
    }

    #[test]
    fn display_format() {
        assert_eq!(
            rejected(1).to_string(),
            "cluster.reject vm=vm-1 why=no server fits"
        );
    }

    #[test]
    fn summary_counts_records_by_kind() {
        let mut j = Journal::with_capacity(3);
        j.push(SimTime::ZERO, Record::ManagerCrashed { isolated: 3 });
        for i in 0..3 {
            j.push(SimTime::ZERO, rejected(i));
        }
        let doc = j.summary();
        let num = |v: Option<&JsonValue>| v.and_then(JsonValue::as_f64);
        assert_eq!(num(doc.get("records")), Some(3.0));
        assert_eq!(num(doc.get("dropped")), Some(1.0));
        let spans = doc.get("spans").expect("per-kind counts");
        assert_eq!(num(spans.get("cluster.manager_crash")), Some(1.0));
        assert_eq!(num(spans.get("cluster.reject")), Some(2.0));
    }

    fn vm_spec() -> ResourceVector {
        ResourceVector::new(4.0, 16_384.0, 100.0, 100.0)
    }

    /// The records of one committed `make_room` for a `vm_spec()`-sized
    /// launch on a server of `capacity` hosting `vms`.
    fn make_room(capacity: ResourceVector, vms: Vec<Vm>, cascade: CascadeConfig) -> Vec<Record> {
        let mut s = PhysicalServer::new(ServerId(1), capacity);
        for vm in vms {
            s.add_vm(vm);
        }
        let ctl = LocalController::new(cascade);
        let report = ctl.make_room(SimTime::ZERO, &mut s, &vm_spec()).commit();
        let mut out = Vec::new();
        Record::make_room(ServerId(1), VmId(99), &report, |r| out.push(r));
        out
    }

    fn four_low_vms(cascade: CascadeConfig) -> Vec<Record> {
        let vms = (0..4).map(|i| Vm::new(VmId(i), vm_spec(), VmPriority::Low));
        make_room(vm_spec().scale(4.0), vms.collect(), cascade)
    }

    #[test]
    fn make_room_report_becomes_cascade_records() {
        let out = four_low_vms(CascadeConfig::VM_LEVEL);
        let Record::MakeRoom {
            server,
            for_vm,
            satisfied,
            deflated,
            preempted,
            freed,
            ..
        } = out[0]
        else {
            panic!("a make_room leads with MakeRoom, got {:?}", out[0]);
        };
        assert_eq!((server, for_vm, satisfied), (ServerId(1), VmId(99), true));
        assert_eq!((deflated, preempted), (4, 0));
        let cpu = vm_spec().get(ResourceKind::Cpu);
        assert!((freed.vector().get(ResourceKind::Cpu) - cpu).abs() < 1e-6);
        // One Deflated per deflated VM, each naming its VM and launch.
        let deflates: Vec<VmId> = out
            .iter()
            .filter_map(|r| match *r {
                Record::Deflated { vm, for_vm, .. } => Some(vm).filter(|_| for_vm == VmId(99)),
                _ => None,
            })
            .collect();
        assert_eq!(deflates, [VmId(0), VmId(1), VmId(2), VmId(3)]);
    }

    #[test]
    fn deflation_records_carry_layer_payloads() {
        let out = four_low_vms(CascadeConfig::VM_LEVEL);
        // VM-level deflation engages the OS and the hypervisor layers.
        let Record::Deflated { vm, total, .. } = out[1] else {
            panic!("expected a Deflated record, got {:?}", out[1]);
        };
        let mut sum = ResourceVector::ZERO;
        for (rec, want) in out[2..4].iter().zip([Layer::Os, Layer::Hypervisor]) {
            let Record::LayerFreed {
                vm: lvm,
                layer,
                requested,
                reclaimed,
                ..
            } = *rec
            else {
                panic!("expected a LayerFreed record, got {rec:?}");
            };
            assert_eq!((lvm, layer), (vm, want));
            assert!(!requested.vector().is_zero());
            sum += reclaimed.vector();
        }
        // Equal up to the journal's f32 rounding.
        assert!(
            sum.approx_eq(&total.vector(), 1e-2),
            "layers sum to {sum}, not {total}"
        );
    }

    #[test]
    fn deflation_records_skip_idle_layers() {
        let out = four_low_vms(CascadeConfig::HYPERVISOR_ONLY);
        assert!(out.iter().all(|r| !matches!(
            r,
            Record::LayerFreed {
                layer: Layer::App | Layer::Os,
                ..
            }
        )));
        let layers = out.iter().filter(|r| r.kind() == "cascade.layer").count();
        assert_eq!(layers, 4, "one hypervisor layer per deflated VM");
    }

    #[test]
    fn cascade_records_filter_by_kind_and_vm() {
        let mut j = Journal::default();
        for r in four_low_vms(CascadeConfig::VM_LEVEL) {
            j.push(SimTime::from_secs(1), r);
        }
        j.push(SimTime::from_secs(2), rejected(7));
        assert_eq!(j.count("server.make_room"), 1);
        assert_eq!(j.count("cascade.deflate"), 4);
        assert_eq!(j.count("cluster.reject"), 1);
        assert_eq!(j.count("missing"), 0);
        // "Why was vm-2 deflated?": its Deflated record names the launch,
        // and its LayerFreed records follow it.
        let at = j
            .entries()
            .iter()
            .position(|(_, r)| matches!(r, Record::Deflated { vm: VmId(2), .. }))
            .expect("vm-2 was deflated");
        let Record::Deflated { for_vm, .. } = j.entries()[at].1 else {
            unreachable!()
        };
        assert_eq!(for_vm, VmId(99));
        assert!(matches!(
            j.entries()[at + 1].1,
            Record::LayerFreed { vm: VmId(2), .. }
        ));
    }

    #[test]
    fn cascade_records_share_the_capacity_cap() {
        let mut j = Journal::with_capacity(2);
        j.push(SimTime::ZERO, rejected(1));
        let cascade = four_low_vms(CascadeConfig::VM_LEVEL);
        for &r in &cascade {
            j.push(SimTime::ZERO, r);
        }
        j.push(SimTime::ZERO, rejected(2));
        assert_eq!(j.len(), 2);
        assert_eq!(j.dropped(), cascade.len() as u64);
        assert_eq!(j.entries()[1].1, cascade[0], "keeps the MakeRoom head");
    }

    #[test]
    fn preemptions_follow_the_deflations() {
        let vms = (0..2)
            .map(|i| Vm::new(VmId(i), vm_spec(), VmPriority::Low).with_min(vm_spec().scale(0.9)));
        let out = make_room(vm_spec().scale(2.0), vms.collect(), CascadeConfig::VM_LEVEL);
        let Record::MakeRoom { preempted, .. } = out[0] else {
            panic!("a make_room leads with MakeRoom");
        };
        assert!(preempted > 0);
        let tail = &out[out.len() - preempted as usize..];
        assert!(tail.iter().all(|r| matches!(
            r,
            Record::Preempted {
                for_vm: VmId(99),
                ..
            }
        )));
    }
}
