//! Path distribution end to end: after discovery, the FM writes per-
//! endpoint route tables through PI-4; the distributed routes must be
//! present in the endpoints' configuration spaces and actually deliver
//! packets across the fabric.

use asi_core::{decode_route_table, Algorithm, FmAgent, FmConfig, TOKEN_START_DISCOVERY};
use asi_fabric::{AgentCtx, DevId, Fabric, FabricAgent, FabricConfig, DSN_BASE};
use asi_proto::{CapabilityAddr, Packet, Payload, ProtocolInterface, RouteHeader, CAP_ROUTE_TABLE};
use asi_sim::{SimDuration, SimTime};
use asi_topo::mesh;
use std::any::Any;

fn setup(distribute: bool) -> (Fabric, DevId) {
    let g = mesh(3, 3).unwrap();
    let mut fabric = Fabric::new(&g.topology, FabricConfig::default());
    fabric.set_event_limit(50_000_000);
    fabric.activate_all(SimDuration::ZERO);
    fabric.run_until_idle();
    let fm = DevId(g.endpoint_at(0, 0).0);
    let mut cfg = FmConfig::new(Algorithm::Parallel);
    cfg.distribute_paths = distribute;
    fabric.set_agent(fm, Box::new(FmAgent::new(cfg)));
    fabric.schedule_agent_timer(fm, SimDuration::ZERO, TOKEN_START_DISCOVERY);
    fabric.run_until_idle();
    (fabric, fm)
}

#[test]
fn distribution_phase_writes_every_endpoint_table() {
    let (fabric, fm) = setup(true);
    let agent = fabric.agent_as::<FmAgent>(fm).unwrap();
    assert_eq!(agent.distributions.len(), 1, "one distribution phase");
    let dist = &agent.distributions[0];
    // 8 non-host endpoints × 8 destinations each = 64 writes.
    assert_eq!(dist.writes, 64);
    assert_eq!(dist.failures, 0);
    assert_eq!(dist.unencodable, 0);
    assert!(dist.distribution_time() > SimDuration::ZERO);
    assert!(
        dist.distribution_time() < SimDuration::from_ms(10),
        "distribution too slow: {}",
        dist.distribution_time()
    );

    // Every endpoint's route table now holds 8 decodable entries whose
    // pools match the FM's database routes.
    let db = agent.db().unwrap();
    for ep_dsn in db.endpoints() {
        if ep_dsn == db.host_dsn() {
            continue;
        }
        let ep = DevId((ep_dsn & 0xFFFF_FFFF) as u32);
        let mut words = Vec::new();
        let mut offset = 0u16;
        // 8 entries × 6 words = 48 words, read 8 at a time.
        while words.len() < 48 {
            let chunk = fabric
                .read_config(
                    ep,
                    CapabilityAddr {
                        capability: CAP_ROUTE_TABLE,
                        offset,
                    },
                    8,
                )
                .expect("route table readable");
            words.extend(chunk);
            offset += 8;
        }
        let entries = decode_route_table(&words);
        assert_eq!(entries.len(), 8, "endpoint {ep_dsn:x}");
        for e in &entries {
            let expected = db.route_between(ep_dsn, e.dest_dsn, 96).unwrap().unwrap();
            assert_eq!(e.pool, expected.pool, "{ep_dsn:x} -> {:x}", e.dest_dsn);
            assert_eq!(e.egress, expected.egress);
        }
    }
}

#[test]
fn no_distribution_without_the_flag() {
    let (fabric, fm) = setup(false);
    let agent = fabric.agent_as::<FmAgent>(fm).unwrap();
    assert!(agent.distributions.is_empty());
    // Tables remain zeroed.
    let words = fabric
        .read_config(
            DevId(3),
            CapabilityAddr {
                capability: CAP_ROUTE_TABLE,
                offset: 0,
            },
            6,
        )
        .unwrap();
    assert!(words.iter().all(|&w| w == 0));
}

/// A probe agent that sends one data packet using a distributed route
/// table entry and counts what it receives.
#[derive(Default)]
struct TableUser {
    received: Vec<(SimTime, Packet)>,
    to_send: Option<(u8, Packet)>,
}

impl FabricAgent for TableUser {
    fn processing_time(&mut self, _p: &Packet) -> SimDuration {
        SimDuration::from_ns(100)
    }
    fn on_packet(&mut self, ctx: &mut AgentCtx, packet: Packet) {
        self.received.push((ctx.now, packet));
    }
    fn on_timer(&mut self, ctx: &mut AgentCtx, _token: u64) {
        if let Some((port, pkt)) = self.to_send.take() {
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
fn distributed_routes_actually_deliver_packets() {
    let (mut fabric, fm) = setup(true);

    // Pick endpoint (2,2): read its table from its own config space, use
    // the entry for endpoint (0,2)'s DSN, and send a data packet along it.
    let g = mesh(3, 3).unwrap();
    let src = DevId(g.endpoint_at(2, 2).0);
    let dst = DevId(g.endpoint_at(0, 2).0);
    let dst_dsn = DSN_BASE | u64::from(dst.0);

    let entry = {
        let mut words = Vec::new();
        let mut offset = 0u16;
        while words.len() < 48 {
            words.extend(
                fabric
                    .read_config(
                        src,
                        CapabilityAddr {
                            capability: CAP_ROUTE_TABLE,
                            offset,
                        },
                        8,
                    )
                    .unwrap(),
            );
            offset += 8;
        }
        decode_route_table(&words)
            .into_iter()
            .find(|e| e.dest_dsn == dst_dsn)
            .expect("route to destination present")
    };

    let header = RouteHeader::forward(ProtocolInterface::Data, 0, entry.pool.clone());
    let packet = Packet::new(header, Payload::Data { len: 128 });
    let sender = TableUser {
        to_send: Some((entry.egress, packet)),
        ..Default::default()
    };
    fabric.set_agent(src, Box::new(sender));
    fabric.set_agent(dst, Box::new(TableUser::default()));
    fabric.schedule_agent_timer(src, SimDuration::ZERO, 1);
    fabric.run_until_idle();

    let receiver = fabric.agent_as::<TableUser>(dst).unwrap();
    assert_eq!(receiver.received.len(), 1, "packet did not arrive");
    assert!(matches!(
        receiver.received[0].1.payload,
        Payload::Data { len: 128 }
    ));
    let _ = fm;
}
