//! Multicast end to end: the FM discovers the fabric, computes a
//! distribution tree for a group, writes the switch multicast tables and
//! member flags over PI-4, and a member's single injected packet is then
//! replicated by the fabric to every other member exactly once.

use asi_core::{Algorithm, FmAgent, FmConfig, TOKEN_CONFIGURE_MCAST, TOKEN_START_DISCOVERY};
use asi_fabric::{AgentCtx, DevId, Fabric, FabricAgent, FabricConfig, DSN_BASE};
use asi_proto::{
    CapabilityAddr, Packet, Payload, ProtocolInterface, RouteHeader, TurnPool, CAP_MCAST_TABLE,
};
use asi_sim::{SimDuration, SimTime};
use asi_topo::{mesh, NodeId};
use std::any::Any;

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
