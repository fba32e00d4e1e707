//! QoS feature tests: endpoint source injection rate limiting and BVC
//! bypass queues (two of the ASI congestion-management mechanisms the
//! paper lists in §2).

use asi_fabric::{AgentCtx, DevId, Fabric, FabricAgent, FabricConfig, TrafficPlan};
use asi_proto::{Packet, Payload, ProtocolInterface, RouteHeader};
use asi_sim::{SimDuration, SimTime};
use asi_topo::{mesh, shortest_route};
use std::any::Any;

#[test]
fn injection_rate_limit_throttles_data() {
    // A saturating flow on a 2 Gb/s lane, with and without a 50 MB/s
    // injection cap.
    let measure = |limit: Option<f64>| -> u64 {
        let g = mesh(3, 3).unwrap();
        let topo = &g.topology;
        let src = g.endpoint_at(0, 0);
        let dst = g.endpoint_at(2, 2);
        // Only `src` and `dst` carry traffic: one flow each way, in a
        // window that opens once the links have trained.
        let exempt = (0..topo.node_count() as u32)
            .filter(|&d| d != src.0 && d != dst.0)
            .collect();
        let start = SimDuration::from_us(100);
        let window = SimDuration::from_ms(10);
        let config = FabricConfig {
            injection_rate_limit: limit,
            traffic: TrafficPlan::none()
                .with_unicast(1.0, 1024) // far beyond the cap
                .with_window(start, window)
                .with_exempt(exempt),
            ..FabricConfig::default()
        };
        let mut fabric = Fabric::new(topo, config);
        fabric.set_event_limit(100_000_000);
        fabric.activate_all(SimDuration::ZERO);
        fabric.run_until(SimTime::ZERO + start + window);
        let flow = fabric
            .traffic_flows()
            .iter()
            .position(|f| f.src == src.0 && f.dst == dst.0)
            .expect("the plan sources one flow at each kept endpoint");
        fabric.flow_stats()[flow].delivered
    };

    let unlimited = measure(None);
    let limited = measure(Some(50e6));
    // 50 MB/s over 10 ms ≈ 500 KB injected; each packet is ~1.07 KB on
    // the wire, so roughly 470 arrive at the sink.
    assert!(
        (350..600).contains(&limited),
        "limited delivery {limited} packets outside the cap band"
    );
    assert!(
        unlimited > limited * 3,
        "cap not binding: unlimited {unlimited} vs limited {limited}"
    );
}

#[test]
fn rate_limit_never_slows_management() {
    // The FM-style PI-4 ping-pong is management class: the injection cap
    // must not apply.
    use asi_proto::{CapabilityAddr, Pi4, MANAGEMENT_TC};

    struct Pinger {
        egress: u8,
        pool: asi_proto::TurnPool,
        remaining: u32,
        last_rtt: Option<SimDuration>,
        sent_at: SimTime,
    }
    impl FabricAgent for Pinger {
        fn processing_time(&mut self, _p: &Packet) -> SimDuration {
            SimDuration::from_ns(100)
        }
        fn on_packet(&mut self, ctx: &mut AgentCtx, _p: Packet) {
            self.last_rtt = Some(ctx.now.saturating_since(self.sent_at));
            if self.remaining > 0 {
                self.remaining -= 1;
                self.send(ctx);
            }
        }
        fn on_timer(&mut self, ctx: &mut AgentCtx, _t: u64) {
            self.send(ctx);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    impl Pinger {
        fn send(&mut self, ctx: &mut AgentCtx) {
            let header = RouteHeader::forward(
                ProtocolInterface::DeviceManagement,
                MANAGEMENT_TC,
                self.pool.clone(),
            );
            self.sent_at = ctx.now;
            ctx.send(
                self.egress,
                Packet::new(
                    header,
                    Payload::Pi4(Pi4::ReadRequest {
                        req_id: self.remaining,
                        addr: CapabilityAddr::baseline(0),
                        dwords: 6,
                    }),
                ),
            );
        }
    }

    let rtt_with_limit = |limit: Option<f64>| -> SimDuration {
        let g = mesh(3, 3).unwrap();
        let topo = &g.topology;
        let config = FabricConfig {
            injection_rate_limit: limit,
            ..FabricConfig::default()
        };
        let mut fabric = Fabric::new(topo, config);
        fabric.set_event_limit(100_000_000);
        fabric.activate_all(SimDuration::ZERO);
        fabric.run_until_idle();
        let src = g.endpoint_at(0, 0);
        let dst = g.endpoint_at(2, 2);
        let route = shortest_route(topo, src, dst).unwrap();
        let pinger = Pinger {
            egress: route.source_port,
            pool: route.encode(topo, asi_proto::MAX_POOL_BITS).unwrap(),
            remaining: 20,
            last_rtt: None,
            sent_at: SimTime::ZERO,
        };
        fabric.set_agent(DevId(src.0), Box::new(pinger));
        fabric.schedule_agent_timer(DevId(src.0), SimDuration::ZERO, 0);
        fabric.run_until_idle();
        fabric
            .agent_as::<Pinger>(DevId(src.0))
            .unwrap()
            .last_rtt
            .expect("pings completed")
    };

    // Even an absurdly low data cap leaves PI-4 RTT identical.
    assert_eq!(rtt_with_limit(None), rtt_with_limit(Some(1000.0)));
}

/// Injects one large ordered data packet followed by one small OO-marked
/// packet toward the same destination; the bypass packet must arrive
/// first.
struct BypassProbe {
    egress: u8,
    pool: asi_proto::TurnPool,
}

impl FabricAgent for BypassProbe {
    fn processing_time(&mut self, _p: &Packet) -> SimDuration {
        SimDuration::from_ns(100)
    }
    fn on_packet(&mut self, _ctx: &mut AgentCtx, _p: Packet) {}
    fn on_timer(&mut self, ctx: &mut AgentCtx, _t: u64) {
        // Big ordered packet…
        let hdr = RouteHeader::forward(ProtocolInterface::Data, 0, self.pool.clone());
        ctx.send(
            self.egress,
            Packet::new(hdr.clone(), Payload::Data { len: 1500 }),
        );
        // …then nine more to keep the port busy…
        for _ in 0..9 {
            ctx.send(
                self.egress,
                Packet::new(hdr.clone(), Payload::Data { len: 1500 }),
            );
        }
        // …then a small bypassable one.
        let mut oo_hdr = hdr;
        oo_hdr.oo = true;
        ctx.send(self.egress, Packet::new(oo_hdr, Payload::Data { len: 32 }));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Records payload sizes in arrival order.
#[derive(Default)]
struct SizeRecorder {
    sizes: Vec<u16>,
}

impl FabricAgent for SizeRecorder {
    fn processing_time(&mut self, _p: &Packet) -> SimDuration {
        SimDuration::from_ns(100)
    }
    fn on_packet(&mut self, _ctx: &mut AgentCtx, p: Packet) {
        if let Payload::Data { len } = p.payload {
            self.sizes.push(len);
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
fn oo_marked_packets_bypass_the_ordered_queue() {
    let g = mesh(3, 3).unwrap();
    let topo = &g.topology;
    let mut fabric = Fabric::new(topo, FabricConfig::default());
    fabric.set_event_limit(100_000_000);
    fabric.activate_all(SimDuration::ZERO);
    fabric.run_until_idle();
    let src = g.endpoint_at(0, 0);
    let dst = g.endpoint_at(2, 2);
    let route = shortest_route(topo, src, dst).unwrap();
    fabric.set_agent(
        DevId(src.0),
        Box::new(BypassProbe {
            egress: route.source_port,
            pool: route.encode(topo, asi_proto::MAX_POOL_BITS).unwrap(),
        }),
    );
    fabric.set_agent(DevId(dst.0), Box::new(SizeRecorder::default()));
    fabric.schedule_agent_timer(DevId(src.0), SimDuration::ZERO, 0);
    fabric.run_until_idle();

    let recorder = fabric.agent_as::<SizeRecorder>(DevId(dst.0)).unwrap();
    assert_eq!(recorder.sizes.len(), 11, "all packets must arrive");
    let bypass_pos = recorder
        .sizes
        .iter()
        .position(|&s| s == 32)
        .expect("bypass packet arrived");
    assert!(
        bypass_pos < 10,
        "OO packet did not overtake the ordered queue (position {bypass_pos})"
    );
}
