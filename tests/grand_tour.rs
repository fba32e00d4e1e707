//! The grand tour: one fabric lifetime exercising every subsystem in
//! sequence — bring-up, the PI-9 election and sharded discovery, PI-5
//! configuration, path distribution, data traffic over distributed
//! routes, multicast, the primary's death with failover to the runner-up
//! the election left watching, and re-discovery by the promoted
//! secondary.

use advanced_switching::core::{
    decode_route_table, plan_multicast, DiscoveryTrigger, TOKEN_CONFIGURE_MCAST,
    TOKEN_CONFIGURE_PI5,
};
use advanced_switching::harness::{dev_of_dsn, dsn_of_dev, sharded_discovery};
use advanced_switching::prelude::*;
use advanced_switching::proto::config::EVENT_ROUTE_VALID;
use advanced_switching::proto::{CapabilityAddr, CAP_EVENT_ROUTE, CAP_ROUTE_TABLE};
use advanced_switching::topo::torus;
use std::any::Any;

#[derive(Default)]
struct Counting {
    data: u32,
    mcast: u32,
    inject: Vec<(u8, Packet)>,
}

impl FabricAgent for Counting {
    fn processing_time(&mut self, _p: &Packet) -> SimDuration {
        SimDuration::from_ns(100)
    }
    fn on_packet(&mut self, _ctx: &mut AgentCtx, p: Packet) {
        match p.payload {
            Payload::Data { .. } => self.data += 1,
            Payload::Mcast { .. } => self.mcast += 1,
            _ => {}
        }
    }
    fn on_timer(&mut self, ctx: &mut AgentCtx, _t: u64) {
        for (port, pkt) in self.inject.drain(..) {
            ctx.send(port, pkt);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn full_lifecycle() {
    let g = torus(4, 4).unwrap();
    let topo = &g.topology;

    // ---- Phases 1-2: bring-up, then two managers elected over PI-9 ----
    // They shard the discovery; the runner-up keeps watching the primary.
    let scenario = Scenario::new(Algorithm::Parallel);
    let (mut fabric, primary, out) = sharded_discovery(topo, 2, &scenario);
    assert_eq!((out.devices, out.failovers), (32, 0));
    let elected = fabric.agent_as::<FmAgent>(primary).unwrap().elected();
    let secondary = dev_of_dsn(elected.unwrap().secondary.expect("a runner-up").dsn);

    // ---- Phase 3: the primary re-runs a clean full discovery with path
    // distribution; the runner-up's watch stays armed. ------------------
    let mut cfg = FmConfig::new(Algorithm::Parallel);
    cfg.distribute_paths = true;
    fabric.set_agent(primary, Box::new(FmAgent::new(cfg)));
    fabric.schedule_agent_timer(primary, SimDuration::from_us(1), TOKEN_START_DISCOVERY);
    // Bounded runs from here on: the secondary's keepalive loop keeps the
    // event queue alive forever, so run_until_idle would not return.
    let deadline = fabric.now() + SimDuration::from_ms(20);
    fabric.run_until(deadline);
    {
        let p = fabric.agent_as::<FmAgent>(primary).unwrap();
        assert_eq!(p.db().unwrap().device_count(), 32);
        assert_eq!(p.distributions.len(), 1);
        assert_eq!(p.distributions[0].failures, 0);
        assert!(!fabric.agent_as::<FmAgent>(secondary).unwrap().promoted());
    }

    // The primary writes every device's PI-5 reporting route.
    fabric.schedule_agent_timer(primary, SimDuration::from_us(1), TOKEN_CONFIGURE_PI5);
    let deadline = fabric.now() + SimDuration::from_ms(5);
    fabric.run_until(deadline);
    {
        let p = fabric.agent_as::<FmAgent>(primary).unwrap();
        assert!(p.pi5_routes_settled() && p.pi5_routes_configured_at().is_some());
        assert_eq!(p.pi5_route_failures(), 0);
    }
    // Every device but the primary's endpoint holds a valid route.
    let header = CapabilityAddr {
        capability: CAP_EVENT_ROUTE,
        offset: 0,
    };
    let holding = (0..fabric.device_count() as u32)
        .map(|d| fabric.read_config(DevId(d), header, 1).unwrap()[0])
        .filter(|&word| word & EVENT_ROUTE_VALID != 0)
        .count();
    assert_eq!(holding, 31);

    // ---- Phase 4: a user endpoint sends data over its distributed
    // route table. -------------------------------------------------------
    let user = DevId(g.endpoint_at(1, 1).0);
    let peer = DevId(g.endpoint_at(2, 2).0);
    assert!(
        ![user, peer].contains(&secondary),
        "the runner-up keeps its agent"
    );
    let entry = {
        let mut words = Vec::new();
        let mut offset = 0u16;
        while words.len() < 6 * 31 {
            words.extend(
                fabric
                    .read_config(
                        user,
                        CapabilityAddr {
                            capability: CAP_ROUTE_TABLE,
                            offset,
                        },
                        6,
                    )
                    .unwrap(),
            );
            offset += 6;
        }
        decode_route_table(&words)
            .into_iter()
            .find(|e| e.dest_dsn == dsn_of_dev(peer))
            .expect("distributed route present")
    };
    let hdr = advanced_switching::proto::RouteHeader::forward(
        advanced_switching::proto::ProtocolInterface::Data,
        0,
        entry.pool.clone(),
    );
    let mut sender = Counting::default();
    sender
        .inject
        .push((entry.egress, Packet::new(hdr, Payload::Data { len: 256 })));
    fabric.set_agent(user, Box::new(sender));
    fabric.set_agent(peer, Box::new(Counting::default()));
    fabric.schedule_agent_timer(user, SimDuration::from_us(1), 0);
    let deadline = fabric.now() + SimDuration::from_ms(1);
    fabric.run_until(deadline);
    assert_eq!(fabric.agent_as::<Counting>(peer).unwrap().data, 1);

    // ---- Phase 5: multicast group across three corners ----------------
    const GROUP: u16 = 11;
    let members = [
        g.endpoint_at(1, 1),
        g.endpoint_at(3, 0),
        g.endpoint_at(0, 3),
    ];
    let member_dsns: Vec<u64> = members.iter().map(|m| dsn_of_dev(DevId(m.0))).collect();
    {
        let agent = fabric.agent_as_mut::<FmAgent>(primary).unwrap();
        // The plan itself must be valid against the discovered database.
        assert!(plan_multicast(agent.db().unwrap(), GROUP, &member_dsns).is_ok());
        agent.queue_multicast(GROUP, member_dsns);
    }
    fabric.schedule_agent_timer(primary, SimDuration::from_us(1), TOKEN_CONFIGURE_MCAST);
    let deadline = fabric.now() + SimDuration::from_ms(5);
    fabric.run_until(deadline);
    assert!(fabric.agent_as::<FmAgent>(primary).unwrap().mcast_settled());
    let hdr = advanced_switching::proto::RouteHeader::forward(
        advanced_switching::proto::ProtocolInterface::Multicast,
        0,
        TurnPool::new_spec(),
    );
    let mut mc_sender = Counting::default();
    mc_sender.inject.push((
        0,
        Packet::new(
            hdr,
            Payload::Mcast {
                group: GROUP,
                len: 100,
                hops: 32,
            },
        ),
    ));
    fabric.set_agent(DevId(members[0].0), Box::new(mc_sender));
    for &m in &members[1..] {
        fabric.set_agent(DevId(m.0), Box::new(Counting::default()));
    }
    fabric.schedule_agent_timer(DevId(members[0].0), SimDuration::from_us(1), 0);
    let deadline = fabric.now() + SimDuration::from_ms(1);
    fabric.run_until(deadline);
    for &m in &members[1..] {
        assert_eq!(fabric.agent_as::<Counting>(DevId(m.0)).unwrap().mcast, 1);
    }

    // ---- Phase 6: the primary's endpoint dies; the secondary promotes
    // (and stops probing) and re-discovers the surviving fabric. --------
    fabric.schedule_deactivate(primary, SimDuration::from_us(10));
    fabric.run_until_idle();
    let s = fabric.agent_as::<FmAgent>(secondary).unwrap();
    assert!(s.promoted(), "secondary never took over");
    let run = s.last_run().unwrap();
    assert_eq!(run.trigger, DiscoveryTrigger::Failover);
    // 32 devices minus the dead primary endpoint.
    assert_eq!(run.devices_found, 31);
    assert!(!s.db().unwrap().contains(dsn_of_dev(primary)));
}
