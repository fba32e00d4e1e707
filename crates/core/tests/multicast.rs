//! Multicast end to end: the FM discovers the fabric, computes a
//! distribution tree for a group, writes the switch multicast tables and
//! member flags over PI-4, and a member's single injected packet is then
//! replicated by the fabric to every other member exactly once.

use asi_core::{Algorithm, FmAgent, FmConfig, TOKEN_CONFIGURE_MCAST, TOKEN_START_DISCOVERY};
use asi_fabric::{AgentCtx, DevId, Fabric, FabricAgent, FabricConfig, DSN_BASE};
use asi_proto::{
    CapabilityAddr, Packet, Payload, ProtocolInterface, RouteHeader, TurnPool, CAP_MCAST_TABLE,
};
use asi_sim::{SimDuration, SimRng, SimTime};
use asi_topo::{default_fm_endpoint, dragonfly, mesh, NodeId, Topology};
use std::any::Any;
use std::collections::BTreeSet;

/// Counts multicast deliveries; can inject one multicast packet.
#[derive(Default)]
struct Member {
    received: Vec<(SimTime, u16)>,
    inject: Option<u16>,
}

impl FabricAgent for Member {
    fn processing_time(&mut self, _p: &Packet) -> SimDuration {
        SimDuration::from_ns(100)
    }
    fn on_packet(&mut self, ctx: &mut AgentCtx, packet: Packet) {
        if let Payload::Mcast { group, .. } = packet.payload {
            self.received.push((ctx.now, group));
        }
    }
    fn on_timer(&mut self, ctx: &mut AgentCtx, _token: u64) {
        if let Some(group) = self.inject.take() {
            let header =
                RouteHeader::forward(ProtocolInterface::Multicast, 0, TurnPool::new_spec());
            ctx.send(
                0,
                Packet::new(
                    header,
                    Payload::Mcast {
                        group,
                        len: 200,
                        hops: 32,
                    },
                ),
            );
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn dev(n: NodeId) -> DevId {
    DevId(n.0)
}

/// `dev`'s multicast table entry for `group`, read as the FM would.
fn mcast_entry(fabric: &Fabric, dev: DevId, group: u16) -> u32 {
    let addr = CapabilityAddr {
        capability: CAP_MCAST_TABLE,
        offset: group,
    };
    fabric.read_config(dev, addr, 1).expect("a table word")[0]
}

#[test]
fn multicast_group_configuration_and_delivery() {
    const GROUP: u16 = 7;
    let g = mesh(4, 4).unwrap();
    let mut fabric = Fabric::new(&g.topology, FabricConfig::default());
    fabric.set_event_limit(50_000_000);
    fabric.activate_all(SimDuration::ZERO);
    fabric.run_until_idle();

    // Discovery first.
    let fm = dev(g.endpoint_at(0, 0));
    fabric.set_agent(
        fm,
        Box::new(FmAgent::new(FmConfig::new(Algorithm::Parallel))),
    );
    fabric.schedule_agent_timer(fm, SimDuration::ZERO, TOKEN_START_DISCOVERY);
    fabric.run_until_idle();

    // Group members: three endpoints spread across the mesh.
    let members = [
        g.endpoint_at(1, 0),
        g.endpoint_at(3, 1),
        g.endpoint_at(0, 3),
    ];
    let member_dsns: Vec<u64> = members.iter().map(|m| DSN_BASE | u64::from(m.0)).collect();
    {
        let agent = fabric.agent_as_mut::<FmAgent>(fm).unwrap();
        agent.queue_multicast(GROUP, member_dsns.clone());
    }
    fabric.schedule_agent_timer(fm, SimDuration::from_us(1), TOKEN_CONFIGURE_MCAST);
    fabric.run_until_idle();
    {
        let agent = fabric.agent_as::<FmAgent>(fm).unwrap();
        assert!(agent.mcast_settled(), "table writes did not drain");
        assert_eq!(agent.mcast_failures, 0);
        assert_eq!(agent.mcast_configured, vec![GROUP]);
    }

    // Membership flags are in the endpoints' config spaces.
    for &m in &members {
        assert_eq!(mcast_entry(&fabric, dev(m), GROUP), 1);
    }
    // A non-member stays unflagged.
    assert_eq!(mcast_entry(&fabric, dev(g.endpoint_at(2, 2)), GROUP), 0);

    // Install member agents; the first member injects one packet.
    for (i, &m) in members.iter().enumerate() {
        let mut agent = Member::default();
        if i == 0 {
            agent.inject = Some(GROUP);
        }
        fabric.set_agent(dev(m), Box::new(agent));
    }
    // Non-member observer: must receive nothing.
    fabric.set_agent(dev(g.endpoint_at(2, 2)), Box::new(Member::default()));

    fabric.schedule_agent_timer(dev(members[0]), SimDuration::from_us(1), 0);
    fabric.run_until_idle();

    // Every *other* member got exactly one copy.
    for &m in &members[1..] {
        let agent = fabric.agent_as::<Member>(dev(m)).unwrap();
        assert_eq!(
            agent.received.len(),
            1,
            "member at {m} got {} copies",
            agent.received.len()
        );
        assert_eq!(agent.received[0].1, GROUP);
    }
    // The source did not hear its own packet (no reflection), and the
    // observer heard nothing.
    assert!(fabric
        .agent_as::<Member>(dev(members[0]))
        .unwrap()
        .received
        .is_empty());
    assert!(fabric
        .agent_as::<Member>(dev(g.endpoint_at(2, 2)))
        .unwrap()
        .received
        .is_empty());
    // The loop guard never tripped.
    assert_eq!(fabric.counters().dropped_bad_route, 0);
}

#[test]
fn any_member_can_be_the_source() {
    const GROUP: u16 = 3;
    let g = mesh(3, 3).unwrap();
    let mut fabric = Fabric::new(&g.topology, FabricConfig::default());
    fabric.set_event_limit(50_000_000);
    fabric.activate_all(SimDuration::ZERO);
    fabric.run_until_idle();

    let fm = dev(g.endpoint_at(0, 0));
    fabric.set_agent(
        fm,
        Box::new(FmAgent::new(FmConfig::new(Algorithm::Parallel))),
    );
    fabric.schedule_agent_timer(fm, SimDuration::ZERO, TOKEN_START_DISCOVERY);
    fabric.run_until_idle();

    let members = [
        g.endpoint_at(2, 0),
        g.endpoint_at(0, 2),
        g.endpoint_at(2, 2),
    ];
    let member_dsns: Vec<u64> = members.iter().map(|m| DSN_BASE | u64::from(m.0)).collect();
    fabric
        .agent_as_mut::<FmAgent>(fm)
        .unwrap()
        .queue_multicast(GROUP, member_dsns);
    fabric.schedule_agent_timer(fm, SimDuration::from_us(1), TOKEN_CONFIGURE_MCAST);
    fabric.run_until_idle();

    // Each member takes a turn as the source; the other two always
    // receive exactly one copy.
    for source in 0..members.len() {
        for (i, &m) in members.iter().enumerate() {
            let mut agent = Member::default();
            if i == source {
                agent.inject = Some(GROUP);
            }
            fabric.set_agent(dev(m), Box::new(agent));
        }
        fabric.schedule_agent_timer(dev(members[source]), SimDuration::from_us(1), 0);
        fabric.run_until_idle();
        for (i, &m) in members.iter().enumerate() {
            let got = fabric.agent_as::<Member>(dev(m)).unwrap().received.len();
            if i == source {
                assert_eq!(got, 0, "source {source} echoed to itself");
            } else {
                assert_eq!(got, 1, "source {source} → member {i}: {got} copies");
            }
        }
    }
}

/// Discovers `topo` from its default FM endpoint, has the FM write
/// `groups` groups over PI-4, each of three to five members drawn with
/// `seed` from `candidates`, then lets each group's first member inject
/// one packet while every candidate listens. Every other member hears it
/// exactly once, the source never does, and no one else hears anything.
/// Returns the member sets.
fn fm_groups_deliver_exactly_once(
    topo: &Topology,
    candidates: &[NodeId],
    groups: u16,
    seed: u64,
) -> Vec<Vec<NodeId>> {
    let mut fabric = Fabric::new(topo, FabricConfig::default());
    fabric.set_event_limit(50_000_000);
    fabric.activate_all(SimDuration::ZERO);
    fabric.run_until_idle();
    let fm = dev(default_fm_endpoint(topo).unwrap());
    // The harness's timeout rule: on a large fabric a read waits behind
    // many others at the FM, so the timeout grows with the device count.
    let devices = topo.node_count();
    let timeout = SimDuration::from_ms(5) * (devices as u64).div_ceil(128);
    let cfg = FmConfig::new(Algorithm::Parallel).with_request_timeout(timeout);
    fabric.set_agent(fm, Box::new(FmAgent::new(cfg)));
    fabric.schedule_agent_timer(fm, SimDuration::ZERO, TOKEN_START_DISCOVERY);
    fabric.run_until_idle();
    let db = fabric.agent_as::<FmAgent>(fm).unwrap().db().unwrap();
    assert_eq!(db.device_count(), devices, "discovery is complete");

    let candidates: Vec<NodeId> = (candidates.iter().copied())
        .filter(|&c| dev(c) != fm)
        .collect();
    let mut rng = SimRng::new(seed);
    let mut sets = Vec::new();
    for group in 0..groups {
        let want = 3 + rng.gen_index(3);
        let mut members: Vec<NodeId> = Vec::new();
        while members.len() < want {
            let pick = candidates[rng.gen_index(candidates.len())];
            if !members.contains(&pick) {
                members.push(pick);
            }
        }
        let dsns = members.iter().map(|m| DSN_BASE | u64::from(m.0)).collect();
        let agent = fabric.agent_as_mut::<FmAgent>(fm).unwrap();
        agent.queue_multicast(group, dsns);
        sets.push(members);
    }
    fabric.schedule_agent_timer(fm, SimDuration::from_us(1), TOKEN_CONFIGURE_MCAST);
    fabric.run_until_idle();
    let agent = fabric.agent_as::<FmAgent>(fm).unwrap();
    assert!(agent.mcast_settled(), "table writes did not drain");
    assert_eq!(agent.mcast_failures, 0);
    let mut configured = agent.mcast_configured.clone();
    configured.sort_unstable();
    assert_eq!(configured, (0..groups).collect::<Vec<_>>());

    for (group, members) in (0..).zip(&sets) {
        for &c in &candidates {
            fabric.set_agent(dev(c), Box::new(Member::default()));
        }
        let source = dev(members[0]);
        fabric.agent_as_mut::<Member>(source).unwrap().inject = Some(group);
        fabric.schedule_agent_timer(source, SimDuration::from_us(1), 0);
        fabric.run_until_idle();
        for &c in &candidates {
            let got = &fabric.agent_as::<Member>(dev(c)).unwrap().received;
            let want = usize::from(members[1..].contains(&c));
            assert_eq!(got.len(), want, "group {group} at {c}: {got:?}");
            assert!(got.iter().all(|&(_, g)| g == group));
        }
    }
    // No tree ran dry at a switch, and the loop guard never tripped.
    assert_eq!(fabric.counters().dropped_bad_route, 0);
    sets
}

/// FM-planned groups deliver exactly once through the fabric, on a mesh
/// and on switches wider than the 32 ports a table entry can name:
/// `dragonfly:4,20`'s routers have 35 ports, endpoints on 23..=34. There
/// members come only from ports a tree can reach (at most 31), and every
/// tree spans more than one router. A debug build makes a shift overflow
/// in replication on a wide switch a failure here.
#[test]
fn fm_groups_deliver_exactly_once_including_wide_switches() {
    let grid = mesh(4, 4).unwrap().topology;
    fm_groups_deliver_exactly_once(&grid, &grid.endpoints(), 4, 0x6D65);

    let wide = dragonfly(4, 20).unwrap().topology;
    let router = |e: NodeId| wide.peer(e, 0).unwrap();
    let reachable: Vec<NodeId> = (wide.endpoints().into_iter())
        .filter(|&e| router(e).port <= 31)
        .collect();
    assert!(wide.endpoints().iter().any(|&e| router(e).port > 31));
    for members in fm_groups_deliver_exactly_once(&wide, &reachable, 4, 0xD7A9) {
        let routers: BTreeSet<NodeId> = members.iter().map(|&m| router(m).node).collect();
        assert!(routers.len() > 1, "{members:?} hang off one router");
    }
}
