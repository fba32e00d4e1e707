//! Distributed discovery and failover — the paper's future-work items,
//! live:
//!
//! 1. several collaborative fabric managers partition an 8×8 mesh with
//!    claim-and-hold ownership writes and stream their regions to the
//!    primary for merging;
//! 2. a standby secondary watches the primary with keepalive reads and
//!    takes over when it dies.
//!
//! ```text
//! cargo run --release --example distributed_fm
//! ```

use advanced_switching::core::{fm::StandbyConfig, DiscoveryTrigger};
use advanced_switching::harness::scenario::distributed_discovery;
use advanced_switching::prelude::*;
use advanced_switching::topo::shortest_route;

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

    for collaborators in [1usize, 2, 3] {
        let (_, _, out) = distributed_discovery(&grid.topology, collaborators, &scenario);
        assert_eq!(out.devices, grid.topology.node_count());
        println!(
            "{} managers            : {}   (regions: {:?} devices)",
            collaborators + 1,
            out.merged_time,
            out.per_manager_devices
        );
    }

    // --- Part 2: failover ----------------------------------------------
    println!("\n--- failover ---");
    let g = mesh(4, 4).unwrap();
    let mut fabric = Fabric::new(&g.topology, FabricConfig::default());
    fabric.set_event_limit(100_000_000);
    fabric.activate_all(SimDuration::ZERO);
    fabric.run_until_idle();

    let primary = DevId(g.endpoint_at(0, 0).0);
    let secondary_node = g.endpoint_at(3, 3);
    let secondary = DevId(secondary_node.0);

    fabric.set_agent(
        primary,
        Box::new(FmAgent::new(FmConfig::new(Algorithm::Parallel))),
    );
    fabric.schedule_agent_timer(primary, SimDuration::ZERO, TOKEN_START_DISCOVERY);

    let watch = shortest_route(&g.topology, secondary_node, g.endpoint_at(0, 0)).unwrap();
    let pool = watch
        .encode(&g.topology, advanced_switching::proto::MAX_POOL_BITS)
        .unwrap();
    let mut cfg = FmConfig::new(Algorithm::Parallel);
    cfg.standby = Some(StandbyConfig::new(watch.source_port, pool));
    fabric.set_agent(secondary, Box::new(FmAgent::new(cfg)));
    fabric.schedule_agent_timer(
        secondary,
        SimDuration::from_us(5),
        advanced_switching::core::TOKEN_START_STANDBY,
    );

    fabric.run_until(SimTime::from_ms(5));
    println!(
        "primary discovered {} devices; secondary standing by (keepalives flowing)",
        fabric
            .agent_as::<FmAgent>(primary)
            .unwrap()
            .db()
            .unwrap()
            .device_count()
    );

    println!("killing the primary endpoint…");
    fabric.schedule_deactivate(primary, SimDuration::ZERO);
    fabric.run_until_idle();

    let s = fabric.agent_as::<FmAgent>(secondary).unwrap();
    assert!(s.promoted());
    let run = s.last_run().unwrap();
    assert_eq!(run.trigger, DiscoveryTrigger::Failover);
    println!(
        "secondary promoted itself and re-discovered {} devices in {} (trigger {:?})",
        run.devices_found,
        run.discovery_time(),
        run.trigger
    );
}
