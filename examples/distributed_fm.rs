//! Distributed discovery and failover — the paper's future-work items,
//! live:
//!
//! 1. several fabric managers elect a primary over PI-9, partition an
//!    8×8 mesh with claim-and-hold ownership writes and stream their
//!    regions to the primary for merging;
//! 2. the election's runner-up watches the primary with keepalive reads
//!    and takes over when it dies.
//!
//! ```text
//! cargo run --release --example distributed_fm
//! ```

use advanced_switching::core::DiscoveryTrigger;
use advanced_switching::harness::{dev_of_dsn, sharded_discovery};
use advanced_switching::prelude::*;

fn main() {
    // --- Part 1: collaborative discovery -------------------------------
    let grid = mesh(8, 8).unwrap();
    println!(
        "fabric: {} ({} devices)\n",
        grid.topology.name,
        grid.topology.node_count()
    );

    let scenario = Scenario::new(Algorithm::Parallel);
    let single = Bench::start(&grid.topology, &scenario, &[])
        .last_run()
        .discovery_time();
    println!("single manager        : {single}");

    for fms in [2usize, 3, 4] {
        let (_, _, out) = sharded_discovery(&grid.topology, fms, &scenario);
        assert_eq!(out.devices, grid.topology.node_count());
        println!(
            "{fms} managers            : {}   (regions: {:?} devices)",
            out.merged_time, out.per_fm_devices
        );
    }

    // --- Part 2: failover ----------------------------------------------
    println!("\n--- failover ---");
    let g = mesh(4, 4).unwrap();
    let (mut fabric, primary, out) = sharded_discovery(&g.topology, 2, &scenario);
    let elected = fabric.agent_as::<FmAgent>(primary).unwrap().elected();
    let secondary = dev_of_dsn(elected.unwrap().secondary.unwrap().dsn);
    println!(
        "two managers elected and merged {} devices; the runner-up stands by (keepalives flowing)",
        out.devices
    );

    println!("killing the primary endpoint…");
    fabric.schedule_deactivate(primary, SimDuration::ZERO);
    fabric.run_until_idle();

    let s = fabric.agent_as::<FmAgent>(secondary).unwrap();
    assert!(s.promoted());
    let run = s.last_run().unwrap();
    assert_eq!(run.trigger, DiscoveryTrigger::Failover);
    assert_eq!(run.devices_found, g.topology.node_count() - 1);
    println!(
        "secondary promoted itself and re-discovered {} devices in {} (trigger {:?})",
        run.devices_found,
        run.discovery_time(),
        run.trigger
    );
}
