//! End-to-end observability: drive the cluster manager until it must
//! deflate, then assert that the lifecycle journal records the full
//! cascade — each `MakeRoom` followed by its per-VM `Deflated` records and
//! their per-layer `LayerFreed` payloads — and that the run summary and
//! metrics CSV are machine-readable and mutually consistent.

use cluster::{
    run_cluster_sim, ClusterManager, ClusterManagerConfig, ClusterSimConfig, Record, TraceConfig,
    VmRequest,
};
use deflate_core::{CascadeConfig, ResourceVector, VmId};
use simkit::{JsonValue, SimDuration, SimTime};

fn req(id: u64) -> VmRequest {
    let spec = ResourceVector::new(4.0, 16_384.0, 100.0, 200.0);
    VmRequest {
        id: VmId(id),
        arrival: SimTime::ZERO,
        lifetime: SimDuration::from_hours(1),
        spec,
        type_name: "test",
        low_priority: true,
        min_size: spec.scale(0.3),
    }
}

fn overloaded_manager() -> ClusterManager {
    let mut m = ClusterManager::new(ClusterManagerConfig {
        n_servers: 2,
        server_capacity: ResourceVector::new(8.0, 32_768.0, 200.0, 400.0),
        cascade: CascadeConfig::FULL,
        ..ClusterManagerConfig::default()
    });
    // Four VMs fill both servers; the fifth forces cascade deflation.
    for i in 0..5 {
        m.launch(SimTime::ZERO, &req(i));
    }
    m
}

#[test]
fn cascade_span_carries_per_layer_payloads() {
    let m = overloaded_manager();
    let records: Vec<Record> = m.journal().entries().iter().map(|(_, r)| *r).collect();
    let rooms: Vec<usize> = (0..records.len())
        .filter(|&i| matches!(records[i], Record::MakeRoom { .. }))
        .collect();
    assert!(!rooms.is_empty(), "deflation records a make_room");
    for &i in &rooms {
        let Record::MakeRoom { deflated, .. } = records[i] else {
            unreachable!()
        };
        // Each MakeRoom is followed by its Deflated records, each of
        // which is followed by the layers that freed resources for it.
        let mut j = i + 1;
        for _ in 0..deflated {
            let Record::Deflated { vm, .. } = records[j] else {
                panic!(
                    "expected a Deflated record after the MakeRoom, got {:?}",
                    records[j]
                );
            };
            j += 1;
            let mut layers = 0;
            while let Some(Record::LayerFreed {
                vm: lvm,
                layer,
                requested,
                reclaimed,
                ..
            }) = records.get(j)
            {
                assert_eq!(*lvm, vm, "layer record names its VM");
                let name = layer.to_string();
                assert!(["app", "os", "hypervisor"].contains(&name.as_str()));
                assert!(!requested.vector().is_zero() || !reclaimed.vector().is_zero());
                layers += 1;
                j += 1;
            }
            assert!(layers >= 1, "engaged layers are reported for {vm}");
        }
    }
}

#[test]
fn run_summary_reflects_manager_state() {
    let mut m = overloaded_manager();
    let stats = m.stats();
    let doc = m.run_summary(SimTime::from_secs(60), "integration");
    assert_eq!(
        doc.get("counters")
            .and_then(|c| c.get("cluster.launched"))
            .and_then(|v| v.as_f64()),
        Some(stats.launched as f64)
    );
    assert_eq!(
        doc.get("counters")
            .and_then(|c| c.get("cluster.deflations"))
            .and_then(|v| v.as_f64()),
        Some(stats.deflations as f64)
    );
    let spans = doc
        .get("trace")
        .and_then(|t| t.get("spans"))
        .expect("span counts");
    assert!(spans
        .get("server.make_room")
        .and_then(|v| v.as_f64())
        .is_some_and(|n| n >= 1.0));
    // CSV export carries the same counter.
    let csv = m.metrics_mut().to_csv();
    assert!(csv
        .lines()
        .next()
        .is_some_and(|h| h == "kind,key,stat,value"));
    assert!(csv.contains(&format!(
        "counter,cluster.launched,value,{}",
        stats.launched
    )));
}

#[test]
fn full_sim_summary_is_machine_readable() {
    let r = run_cluster_sim(&ClusterSimConfig {
        sharding: Default::default(),
        manager: ClusterManagerConfig {
            n_servers: 10,
            ..ClusterManagerConfig::default()
        },
        trace: TraceConfig {
            arrivals_per_hour: 80.0,
            ..TraceConfig::default()
        },
        horizon: SimDuration::from_hours(4),
    });
    let text = r.summary.to_pretty();
    let parsed = JsonValue::parse(&text).expect("sim summary parses");
    assert_eq!(
        parsed.get("run").and_then(|v| v.as_str()),
        Some("cluster_sim")
    );
    assert!(parsed
        .get("gauges")
        .and_then(|g| g.get("cluster.utilization"))
        .is_some());
}
