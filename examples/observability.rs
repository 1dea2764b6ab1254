//! Tour of the observability surface: the typed lifecycle journal, the
//! metrics registry, and the machine-readable run summary.
//!
//! ```text
//! cargo run -p bench --example observability
//! ```
//!
//! Three views of the same small cluster run are printed:
//!
//! 1. the first `server.make_room` record and the cascade records that
//!    follow it (per-VM `cascade.deflate`, per-layer `cascade.layer`), as
//!    text;
//! 2. the metrics registry as CSV;
//! 3. the aggregate run summary as pretty JSON.

use cluster::{ClusterManager, ClusterManagerConfig, Record, VmRequest};
use deflate_core::{ResourceVector, VmId};
use simkit::{SimDuration, SimTime};

fn req(id: u64) -> VmRequest {
    let spec = ResourceVector::new(4.0, 16_384.0, 100.0, 200.0);
    VmRequest {
        id: VmId(id),
        arrival: SimTime::ZERO,
        lifetime: SimDuration::from_hours(1),
        spec,
        type_name: "demo",
        low_priority: true,
        min_size: spec.scale(0.3),
    }
}

fn main() {
    // Two 8-core servers; the 5th identical VM cannot fit without
    // deflating the incumbents.
    let mut m = ClusterManager::new(ClusterManagerConfig {
        n_servers: 2,
        server_capacity: ResourceVector::new(8.0, 32_768.0, 200.0, 400.0),
        ..ClusterManagerConfig::default()
    });
    for i in 0..5 {
        m.launch(SimTime::ZERO, &req(i));
    }
    m.exit(SimTime::from_secs(3_600), VmId(4));

    // Folds gauge history up to the end of the run.
    let summary = m.run_summary(SimTime::from_secs(3_600), "observability_example");

    println!("== cascade records (first server.make_room) ==\n");
    let entries = m.journal().entries();
    let first = entries
        .iter()
        .position(|(_, r)| matches!(r, Record::MakeRoom { .. }))
        .expect("the 5th launch forced deflation");
    let cascade = entries[first + 1..]
        .iter()
        .take_while(|(_, r)| !matches!(r, Record::MakeRoom { .. } | Record::Launched { .. }));
    for (at, record) in std::iter::once(&entries[first]).chain(cascade) {
        println!("[{at}] {record}");
    }

    println!("\n== metrics registry (CSV) ==\n");
    print!("{}", m.metrics_mut().to_csv());

    println!("\n== run summary (JSON) ==\n");
    println!("{}", summary.to_pretty());
}
