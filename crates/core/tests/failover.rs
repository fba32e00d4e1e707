//! FM failover: a secondary manager watches the primary with keepalive
//! reads and takes over discovery when the primary endpoint dies — the
//! "fabric management failover" feature the ASI spec requires (paper §2).

use asi_core::{
    fm::StandbyConfig, Algorithm, DiscoveryTrigger, FmAgent, FmConfig, TOKEN_START_DISCOVERY,
    TOKEN_START_STANDBY,
};
use asi_fabric::{DevId, Fabric, FabricConfig, DSN_BASE};
use asi_sim::{SimDuration, SimTime};
use asi_topo::{mesh, shortest_route};
use std::collections::BTreeSet;

#[test]
fn secondary_takes_over_when_primary_dies() {
    let g = mesh(3, 3).unwrap();
    let topo = &g.topology;
    let mut fabric = Fabric::new(topo, FabricConfig::default());
    fabric.set_event_limit(50_000_000);
    fabric.activate_all(SimDuration::ZERO);
    fabric.run_until_idle();

    let primary_node = g.endpoint_at(0, 0);
    let secondary_node = g.endpoint_at(2, 2);
    let primary = DevId(primary_node.0);
    let secondary = DevId(secondary_node.0);

    // Primary runs a normal discovery.
    fabric.set_agent(
        primary,
        Box::new(FmAgent::new(FmConfig::new(Algorithm::Parallel))),
    );
    fabric.schedule_agent_timer(primary, SimDuration::ZERO, TOKEN_START_DISCOVERY);

    // Secondary watches the primary.
    let watch = shortest_route(topo, secondary_node, primary_node).unwrap();
    let pool = watch.encode(topo, asi_proto::MAX_POOL_BITS).unwrap();
    let mut cfg = FmConfig::new(Algorithm::Parallel);
    cfg.standby = Some(StandbyConfig::new(watch.source_port, pool));
    fabric.set_agent(secondary, Box::new(FmAgent::new(cfg)));
    fabric.schedule_agent_timer(secondary, SimDuration::from_us(5), TOKEN_START_STANDBY);

    // Let the primary finish and the secondary exchange some keepalives.
    fabric.run_until(SimTime::from_ms(5));
    {
        let p = fabric.agent_as::<FmAgent>(primary).unwrap();
        assert_eq!(p.runs().len(), 1);
        let s = fabric.agent_as::<FmAgent>(secondary).unwrap();
        assert!(!s.promoted(), "secondary promoted while primary alive");
        assert!(s.runs().is_empty());
    }

    // Kill the primary endpoint. Keepalives start missing; after the
    // threshold the secondary promotes and discovers the fabric itself.
    fabric.schedule_deactivate(primary, SimDuration::ZERO);
    fabric.run_until(SimTime::from_ms(30));
    // The keepalive loop keeps running (the promoted secondary stops
    // arming it, so the queue drains).
    fabric.run_until_idle();

    let s = fabric.agent_as::<FmAgent>(secondary).unwrap();
    assert!(s.promoted(), "secondary never took over");
    let run = s.last_run().expect("failover discovery ran");
    assert_eq!(run.trigger, DiscoveryTrigger::Failover);

    // The secondary's database covers exactly the surviving fabric (the
    // dead primary endpoint is absent).
    let expected: BTreeSet<u64> = fabric
        .active_reachable(secondary)
        .into_iter()
        .map(|d| DSN_BASE | u64::from(d.0))
        .collect();
    let found: BTreeSet<u64> = s.db().unwrap().devices().map(|d| d.info.dsn).collect();
    assert_eq!(found, expected);
    assert_eq!(found.len(), 17, "only the primary endpoint disappeared");
    assert!(!found.contains(&(DSN_BASE | u64::from(primary.0))));
}

#[test]
fn keepalives_do_not_disturb_a_healthy_primary() {
    let g = mesh(3, 3).unwrap();
    let topo = &g.topology;
    let mut fabric = Fabric::new(topo, FabricConfig::default());
    fabric.set_event_limit(50_000_000);
    fabric.activate_all(SimDuration::ZERO);
    fabric.run_until_idle();

    let primary_node = g.endpoint_at(0, 0);
    let secondary_node = g.endpoint_at(1, 1);
    let primary = DevId(primary_node.0);
    let secondary = DevId(secondary_node.0);

    fabric.set_agent(
        primary,
        Box::new(FmAgent::new(FmConfig::new(Algorithm::SerialDevice))),
    );
    fabric.schedule_agent_timer(primary, SimDuration::ZERO, TOKEN_START_DISCOVERY);

    let watch = shortest_route(topo, secondary_node, primary_node).unwrap();
    let pool = watch.encode(topo, asi_proto::MAX_POOL_BITS).unwrap();
    let mut cfg = FmConfig::new(Algorithm::Parallel);
    cfg.standby = Some(StandbyConfig::new(watch.source_port, pool));
    fabric.set_agent(secondary, Box::new(FmAgent::new(cfg)));
    fabric.schedule_agent_timer(secondary, SimDuration::ZERO, TOKEN_START_STANDBY);

    // Run a long stretch: keepalives flow the whole time.
    fabric.run_until(SimTime::from_ms(20));
    let s = fabric.agent_as::<FmAgent>(secondary).unwrap();
    assert!(!s.promoted(), "false takeover");
    assert!(s.runs().is_empty());
    let p = fabric.agent_as::<FmAgent>(primary).unwrap();
    assert_eq!(p.runs().len(), 1);
    assert_eq!(p.db().unwrap().device_count(), 18);
}
