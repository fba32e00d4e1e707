//! End-to-end discovery tests: the fabric manager runs each of the
//! paper's three algorithms over simulated fabrics and must reconstruct
//! the exact ground-truth topology.

use asi_core::{Algorithm, FmAgent, FmConfig, TOKEN_CONFIGURE_PI5, TOKEN_START_DISCOVERY};
use asi_fabric::{DevId, Fabric, FabricConfig, DSN_BASE};
use asi_sim::SimDuration;
use asi_topo::{mesh, torus, Table1, Topology};
use std::collections::BTreeSet;

/// Brings up a fabric with an FM on the first endpoint and runs the
/// initial discovery to completion.
fn discover(topo: &Topology, algorithm: Algorithm) -> (Fabric, DevId) {
    let mut fabric = Fabric::new(topo, FabricConfig::default());
    fabric.set_event_limit(20_000_000);
    fabric.activate_all(SimDuration::ZERO);
    fabric.run_until_idle();

    let fm_node = asi_topo::default_fm_endpoint(topo).expect("an endpoint exists");
    let fm = DevId(fm_node.0);
    fabric.set_agent(fm, Box::new(FmAgent::new(FmConfig::new(algorithm))));
    fabric.schedule_agent_timer(fm, SimDuration::ZERO, TOKEN_START_DISCOVERY);
    fabric.run_until_idle();
    (fabric, fm)
}

/// Ground-truth device DSNs and link set of a topology.
type LinkKey = (u64, u8, u64, u8);

fn ground_truth(topo: &Topology) -> (BTreeSet<u64>, BTreeSet<LinkKey>) {
    let devices: BTreeSet<u64> = topo
        .nodes()
        .map(|(id, _)| DSN_BASE | u64::from(id.0))
        .collect();
    let links: BTreeSet<(u64, u8, u64, u8)> = topo
        .links()
        .iter()
        .map(|l| {
            let a = (DSN_BASE | u64::from(l.a.node.0), l.a.port);
            let b = (DSN_BASE | u64::from(l.b.node.0), l.b.port);
            if a <= b {
                (a.0, a.1, b.0, b.1)
            } else {
                (b.0, b.1, a.0, a.1)
            }
        })
        .collect();
    (devices, links)
}

fn assert_db_matches(fabric: &Fabric, fm: DevId, topo: &Topology) {
    let agent = fabric.agent_as::<FmAgent>(fm).expect("FM installed");
    let db = agent.db().expect("discovery completed");
    let (devices, links) = ground_truth(topo);
    let found: BTreeSet<u64> = db.devices().map(|d| d.info.dsn).collect();
    assert_eq!(found, devices, "device sets differ");
    let found_links: BTreeSet<LinkKey> = db
        .links()
        .map(|((a, ap), (b, bp))| {
            if (a, ap) <= (b, bp) {
                (a, ap, b, bp)
            } else {
                (b, bp, a, ap)
            }
        })
        .collect();
    assert_eq!(found_links, links, "link sets differ");
    // Every discovered device's port map must be complete.
    for d in db.devices() {
        assert!(d.ports_complete(), "ports of {:x} incomplete", d.info.dsn);
    }
}

#[test]
fn all_algorithms_reconstruct_a_3x3_mesh() {
    let g = mesh(3, 3).unwrap();
    for alg in Algorithm::all() {
        let (fabric, fm) = discover(&g.topology, alg);
        assert_db_matches(&fabric, fm, &g.topology);
        let agent = fabric.agent_as::<FmAgent>(fm).unwrap();
        let run = agent.last_run().unwrap();
        assert_eq!(run.timeouts, 0, "{alg}: unexpected timeouts");
        assert!(run.requests_sent > 0);
        assert_eq!(run.requests_sent, run.responses_received, "{alg}");
    }
}

#[test]
fn all_algorithms_reconstruct_a_4x4_torus() {
    // Tori have wraparound links: plenty of alternate paths to dedup.
    let g = torus(4, 4).unwrap();
    for alg in Algorithm::all() {
        let (fabric, fm) = discover(&g.topology, alg);
        assert_db_matches(&fabric, fm, &g.topology);
    }
}

#[test]
fn all_algorithms_reconstruct_fat_trees() {
    for spec in [Table1::FatTree(4, 2), Table1::FatTree(8, 2)] {
        let topo = spec.build();
        for alg in Algorithm::all() {
            let (fabric, fm) = discover(&topo, alg);
            assert_db_matches(&fabric, fm, &topo);
        }
    }
}

#[test]
fn serial_packet_keeps_one_request_outstanding() {
    let g = mesh(3, 3).unwrap();
    let (fabric, fm) = discover(&g.topology, Algorithm::SerialPacket);
    // max_outstanding is internal to the engine; we verify through the
    // run's arithmetic instead: with one request in flight, responses can
    // never outpace requests, and the FM processed them strictly
    // alternately — so the mean gap between responses must be at least
    // the full round trip (FM time + transport + device time).
    let agent = fabric.agent_as::<FmAgent>(fm).unwrap();
    let run = agent.last_run().unwrap();
    let n = run.responses_received;
    assert!(n > 10);
    let mean_gap = run.discovery_time() / n;
    // Round trip: FM ~19us + device 4us + wire; gap must exceed 22us.
    assert!(
        mean_gap >= SimDuration::from_us(22),
        "serial gap too small: {mean_gap}"
    );
}

#[test]
fn parallel_overlaps_processing() {
    let g = mesh(3, 3).unwrap();
    let (fabric, fm) = discover(&g.topology, Algorithm::Parallel);
    let agent = fabric.agent_as::<FmAgent>(fm).unwrap();
    let run = agent.last_run().unwrap();
    // FM-bound: utilization near 1.
    assert!(
        run.fm_utilization() > 0.85,
        "parallel FM should be busy, utilization {}",
        run.fm_utilization()
    );
}

#[test]
fn discovery_time_ordering_matches_the_paper() {
    let g = mesh(4, 4).unwrap();
    let mut times = Vec::new();
    for alg in Algorithm::all() {
        let (fabric, fm) = discover(&g.topology, alg);
        let agent = fabric.agent_as::<FmAgent>(fm).unwrap();
        times.push((alg, agent.last_run().unwrap().discovery_time()));
    }
    let sp = times[0].1;
    let sd = times[1].1;
    let pa = times[2].1;
    assert!(
        sd < sp,
        "Serial Device ({sd}) must beat Serial Packet ({sp})"
    );
    assert!(pa < sd, "Parallel ({pa}) must beat Serial Device ({sd})");
}

#[test]
fn rediscovery_after_switch_removal() {
    let g = mesh(3, 3).unwrap();
    let topo = &g.topology;
    let (mut fabric, fm) = discover(topo, Algorithm::Parallel);

    // The FM writes every device's PI-5 reporting route.
    fabric.schedule_agent_timer(fm, SimDuration::ZERO, TOKEN_CONFIGURE_PI5);
    fabric.run_until_idle();

    // Remove a non-articulation switch (centre of the mesh).
    let victim = DevId(g.switch_at(1, 1).0);
    fabric.schedule_deactivate(victim, SimDuration::from_us(50));
    fabric.run_until_idle();

    let agent = fabric.agent_as::<FmAgent>(fm).unwrap();
    assert!(agent.pi5_events > 0, "no PI-5 reached the FM");
    assert!(
        agent.runs().len() >= 2,
        "change assimilation did not re-run discovery"
    );
    let db = agent.db().unwrap();
    // Ground truth after removal: reachable actives.
    let expected: BTreeSet<u64> = fabric
        .active_reachable(fm)
        .into_iter()
        .map(|d| DSN_BASE | u64::from(d.0))
        .collect();
    let found: BTreeSet<u64> = db.devices().map(|d| d.info.dsn).collect();
    assert_eq!(found, expected);
    // The victim's endpoint is stranded: 18 - 2 = 16 devices.
    assert_eq!(db.device_count(), 16);
}

#[test]
fn rediscovery_after_switch_addition() {
    let g = mesh(3, 3).unwrap();
    let topo = &g.topology;
    let newcomer = DevId(g.switch_at(2, 2).0);
    let stranded_ep = DevId(g.endpoint_at(2, 2).0);

    let mut fabric = Fabric::new(topo, FabricConfig::default());
    fabric.set_event_limit(20_000_000);
    for (id, _) in topo.nodes() {
        if DevId(id.0) != newcomer {
            fabric.schedule_activate(DevId(id.0), SimDuration::ZERO);
        }
    }
    fabric.run_until_idle();

    let fm = DevId(g.endpoint_at(0, 0).0);
    fabric.set_agent(
        fm,
        Box::new(FmAgent::new(FmConfig::new(Algorithm::Parallel))),
    );
    fabric.schedule_agent_timer(fm, SimDuration::ZERO, TOKEN_START_DISCOVERY);
    fabric.run_until_idle();

    // 18 - switch - its stranded endpoint = 16 found initially.
    {
        let agent = fabric.agent_as::<FmAgent>(fm).unwrap();
        assert_eq!(agent.db().unwrap().device_count(), 16);
    }

    // Configure PI-5 reporting, then hot-add the missing switch.
    fabric.schedule_agent_timer(fm, SimDuration::ZERO, TOKEN_CONFIGURE_PI5);
    fabric.run_until_idle();
    fabric.schedule_activate(newcomer, SimDuration::from_us(50));
    fabric.run_until_idle();

    let agent = fabric.agent_as::<FmAgent>(fm).unwrap();
    assert!(agent.runs().len() >= 2, "no assimilation run");
    let db = agent.db().unwrap();
    assert_eq!(db.device_count(), 18, "hot-added region not discovered");
    assert!(db.contains(DSN_BASE | u64::from(newcomer.0)));
    assert!(db.contains(DSN_BASE | u64::from(stranded_ep.0)));
}

#[test]
fn discovery_survives_mid_run_removal() {
    // Kill a switch while discovery is in flight: the run must still
    // terminate (via timeouts) rather than hang.
    let g = mesh(4, 4).unwrap();
    let mut fabric = Fabric::new(&g.topology, FabricConfig::default());
    fabric.set_event_limit(20_000_000);
    fabric.activate_all(SimDuration::ZERO);
    fabric.run_until_idle();

    let fm = DevId(g.endpoint_at(0, 0).0);
    fabric.set_agent(
        fm,
        Box::new(FmAgent::new(FmConfig::new(Algorithm::SerialPacket))),
    );
    fabric.schedule_agent_timer(fm, SimDuration::ZERO, TOKEN_START_DISCOVERY);
    // Serial discovery of 32 devices takes ~2+ ms; kill at 300us.
    let victim = DevId(g.switch_at(2, 2).0);
    fabric.schedule_deactivate(victim, SimDuration::from_us(300));
    fabric.run_until_idle();

    let agent = fabric.agent_as::<FmAgent>(fm).unwrap();
    let run = agent.last_run().expect("run must terminate");
    assert!(run.devices_found <= 32);
    // The victim must not be in the final database.
    assert!(
        !agent.db().unwrap().contains(DSN_BASE | u64::from(victim.0)),
        "dead switch lingers in the database"
    );
}

#[test]
fn partial_assimilation_is_cheaper_than_full() {
    let g = mesh(4, 4).unwrap();
    let topo = &g.topology;

    let run_change = |partial: bool| -> (u64, usize) {
        let mut fabric = Fabric::new(topo, FabricConfig::default());
        fabric.set_event_limit(20_000_000);
        fabric.activate_all(SimDuration::ZERO);
        fabric.run_until_idle();
        let fm = DevId(g.endpoint_at(0, 0).0);
        let cfg = FmConfig::new(Algorithm::Parallel).with_partial_assimilation(partial);
        fabric.set_agent(fm, Box::new(FmAgent::new(cfg)));
        fabric.schedule_agent_timer(fm, SimDuration::ZERO, TOKEN_START_DISCOVERY);
        fabric.run_until_idle();

        fabric.schedule_agent_timer(fm, SimDuration::ZERO, TOKEN_CONFIGURE_PI5);
        fabric.run_until_idle();
        let victim = DevId(g.switch_at(2, 2).0);
        fabric.schedule_deactivate(victim, SimDuration::from_us(50));
        fabric.run_until_idle();

        let agent = fabric.agent_as::<FmAgent>(fm).unwrap();
        let last = agent.last_run().unwrap();
        let expected: BTreeSet<u64> = fabric
            .active_reachable(fm)
            .into_iter()
            .map(|d| DSN_BASE | u64::from(d.0))
            .collect();
        let found: BTreeSet<u64> = agent.db().unwrap().devices().map(|d| d.info.dsn).collect();
        assert_eq!(found, expected, "partial={partial} database wrong");
        (last.requests_sent, agent.db().unwrap().device_count())
    };

    let (full_requests, full_devices) = run_change(false);
    let (partial_requests, partial_devices) = run_change(true);
    assert_eq!(full_devices, partial_devices);
    assert!(
        partial_requests * 3 < full_requests,
        "partial ({partial_requests} reqs) should be far cheaper than full ({full_requests})"
    );
}
