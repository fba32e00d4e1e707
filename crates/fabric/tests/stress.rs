//! Fabric stress tests: churn, floods, and priority under load.

use asi_fabric::{AgentCtx, DevId, Fabric, FabricAgent, FabricConfig, TrafficPlan};
use asi_proto::{Packet, Payload, PortState, ProtocolInterface, RouteHeader, MANAGEMENT_TC};
use asi_sim::{SimDuration, SimTime};
use asi_topo::{mesh, shortest_route, torus, NodeId};
use std::any::Any;

fn dev(n: NodeId) -> DevId {
    DevId(n.0)
}

#[test]
fn repeated_activate_deactivate_cycles_are_stable() {
    let g = mesh(3, 3).unwrap();
    let mut fabric = Fabric::new(&g.topology, FabricConfig::default());
    fabric.set_event_limit(50_000_000);
    fabric.activate_all(SimDuration::ZERO);
    fabric.run_until_idle();

    let victim = dev(g.switch_at(1, 1));
    for cycle in 0..20 {
        fabric.schedule_deactivate(victim, SimDuration::from_us(1));
        fabric.run_until_idle();
        assert!(!fabric.is_active(victim));
        // Its endpoint is stranded.
        assert_eq!(
            fabric.active_reachable(dev(g.endpoint_at(0, 0))).len(),
            16,
            "cycle {cycle}"
        );
        fabric.schedule_activate(victim, SimDuration::from_us(1));
        fabric.run_until_idle();
        assert!(fabric.is_active(victim));
        assert_eq!(
            fabric.active_reachable(dev(g.endpoint_at(0, 0))).len(),
            18,
            "cycle {cycle}"
        );
        // All links around the victim retrain to Active.
        for (port, _) in g.topology.neighbors(g.switch_at(1, 1)) {
            assert_eq!(fabric.port_state(victim, port), PortState::Active);
        }
    }
}

#[test]
fn simultaneous_multi_switch_removal() {
    let g = torus(4, 4).unwrap();
    let mut fabric = Fabric::new(&g.topology, FabricConfig::default());
    fabric.set_event_limit(50_000_000);
    fabric.activate_all(SimDuration::ZERO);
    fabric.run_until_idle();

    // Kill three switches at the same instant.
    for (x, y) in [(1, 1), (2, 2), (3, 1)] {
        fabric.schedule_deactivate(dev(g.switch_at(x, y)), SimDuration::from_us(5));
    }
    fabric.run_until_idle();
    let reachable = fabric.active_reachable(dev(g.endpoint_at(0, 0)));
    // 32 - 3 switches - their 3 endpoints = 26 (torus stays connected).
    assert_eq!(reachable.len(), 26);
}

/// An agent that floods a single destination and records per-packet
/// latency of its own management probes.
struct LatencyProbe {
    egress: u8,
    pool: asi_proto::TurnPool,
    sent_at: Vec<SimTime>,
    latencies: Vec<SimDuration>,
    remaining: u32,
}

impl FabricAgent for LatencyProbe {
    fn processing_time(&mut self, _p: &Packet) -> SimDuration {
        SimDuration::from_ns(100)
    }
    fn on_packet(&mut self, ctx: &mut AgentCtx, packet: Packet) {
        if matches!(packet.payload, Payload::Pi4(_)) {
            if let Some(t0) = self.sent_at.pop() {
                self.latencies.push(ctx.now.saturating_since(t0));
            }
            if self.remaining > 0 {
                self.remaining -= 1;
                self.send_probe(ctx);
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut AgentCtx, _token: u64) {
        self.send_probe(ctx);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl LatencyProbe {
    fn send_probe(&mut self, ctx: &mut AgentCtx) {
        let header = RouteHeader::forward(
            ProtocolInterface::DeviceManagement,
            MANAGEMENT_TC,
            self.pool.clone(),
        );
        let pkt = Packet::new(
            header,
            Payload::Pi4(asi_proto::Pi4::ReadRequest {
                req_id: self.remaining,
                addr: asi_proto::CapabilityAddr::baseline(0),
                dwords: 6,
            }),
        );
        self.sent_at.push(ctx.now);
        ctx.send(self.egress, pkt);
    }
}

#[test]
fn management_latency_survives_data_floods() {
    // Measure PI-4 round-trip latency with and without saturating data
    // traffic crossing the same switches: priority arbitration must keep
    // the management latency within a small bound.
    let measure = |flood: bool| -> f64 {
        let g = mesh(3, 3).unwrap();
        let topo = &g.topology;
        let src = g.endpoint_at(0, 1);
        let dst = g.endpoint_at(2, 1);
        let mut config = FabricConfig::default();
        if flood {
            // The probe's two endpoints also blast each other with data
            // at ~85% of a 2 Gb/s lane, so every link of the probe path
            // carries a flood in its direction.
            let exempt = (0..topo.node_count() as u32)
                .filter(|&d| d != src.0 && d != dst.0)
                .collect();
            config.traffic = TrafficPlan::none()
                .with_unicast(0.85, 1024)
                .with_window(SimDuration::ZERO, SimDuration::from_ms(5))
                .with_exempt(exempt);
        }
        let mut fabric = Fabric::new(topo, config);
        fabric.set_event_limit(100_000_000);
        fabric.activate_all(SimDuration::ZERO);
        // Links train in 1 us; the flood's injections are pre-scheduled,
        // so running to idle here would play the whole window.
        fabric.run_until(SimTime::from_us(5));

        // Probe from (0,1) to the far endpoint (2,1): crosses (1,1).
        let route = shortest_route(topo, src, dst).unwrap();
        let probe = LatencyProbe {
            egress: route.source_port,
            pool: route.encode(topo, asi_proto::MAX_POOL_BITS).unwrap(),
            sent_at: Vec::new(),
            latencies: Vec::new(),
            remaining: 50,
        };
        fabric.set_agent(dev(src), Box::new(probe));
        fabric.schedule_agent_timer(dev(src), SimDuration::from_us(10), 0);
        fabric.run_until(SimTime::from_ms(5));

        let probe = fabric.agent_as::<LatencyProbe>(dev(src)).unwrap();
        assert!(probe.latencies.len() >= 20, "not enough samples");
        probe.latencies.iter().map(|l| l.as_secs_f64()).sum::<f64>() / probe.latencies.len() as f64
    };

    let quiet = measure(false);
    let loaded = measure(true);
    // A 1 KiB data frame occupies the wire ~4.3 us; a management packet
    // can wait at most one in-flight frame per hop. Allow 4x headroom.
    assert!(
        loaded < quiet + 4.0 * 4.3e-6,
        "management latency exploded under load: quiet {quiet:.2e}s loaded {loaded:.2e}s"
    );
    assert!(loaded >= quiet, "load cannot make things faster");
}

#[test]
fn event_counts_stay_bounded_per_packet() {
    // Sanity guard against event storms: a full bring-up plus one
    // request exchange on a 6x6 mesh stays within a sane event budget.
    let g = mesh(6, 6).unwrap();
    let mut fabric = Fabric::new(&g.topology, FabricConfig::default());
    fabric.set_event_limit(2_000_000);
    fabric.activate_all(SimDuration::ZERO);
    fabric.run_until_idle();
    // Bring-up of 72 devices with 132 links: training events only.
    let c = fabric.counters();
    assert_eq!(c.total_dropped(), 0);
    assert_eq!(c.injected, 0, "nothing injected during bring-up");
}

#[test]
fn deactivating_fm_host_breaks_cleanly() {
    // Packets in flight toward a dying endpoint are dropped, never
    // delivered, and never panic the fabric.
    let g = mesh(3, 3).unwrap();
    let topo = &g.topology;
    let mut fabric = Fabric::new(topo, FabricConfig::default());
    fabric.set_event_limit(50_000_000);
    fabric.activate_all(SimDuration::ZERO);
    fabric.run_until_idle();

    let src = g.endpoint_at(0, 0);
    let dst = g.endpoint_at(2, 2);
    let route = shortest_route(topo, src, dst).unwrap();
    let probe = LatencyProbe {
        egress: route.source_port,
        pool: route.encode(topo, asi_proto::MAX_POOL_BITS).unwrap(),
        sent_at: Vec::new(),
        latencies: Vec::new(),
        remaining: 1000,
    };
    fabric.set_agent(dev(src), Box::new(probe));
    fabric.schedule_agent_timer(dev(src), SimDuration::ZERO, 0);
    // Let the ping-pong run, then yank the destination.
    fabric.run_until(SimTime::from_us(200));
    fabric.schedule_deactivate(dev(dst), SimDuration::ZERO);
    fabric.run_until_idle();
    let c = fabric.counters();
    assert!(c.total_dropped() >= 1, "in-flight packet should drop");
    let probe = fabric.agent_as::<LatencyProbe>(dev(src)).unwrap();
    assert!(!probe.latencies.is_empty());
    assert_eq!(fabric.packet_arena_live(), 0);
    assert_eq!(fabric.queued_packets(), 0);
}

#[test]
fn deactivation_under_deep_queues_counts_every_entry_and_leaves_nothing_queued() {
    // Saturating data load on a 3x3 mesh: by 1 ms the centre switch has
    // deep output queues, and so have the ports that face it.
    let g = mesh(3, 3).unwrap();
    let config = FabricConfig {
        traffic: TrafficPlan::none()
            .with_unicast(0.9, 1024)
            .with_window(SimDuration::ZERO, SimDuration::from_ms(2)),
        ..FabricConfig::default()
    };
    let mut fabric = Fabric::new(&g.topology, config);
    fabric.set_event_limit(100_000_000);
    fabric.activate_all(SimDuration::ZERO);
    fabric.run_until(SimTime::from_ms(1));
    let victim = dev(g.switch_at(1, 1));
    fabric.schedule_deactivate(victim, SimDuration::ZERO);
    // Step to the deactivation itself: what it takes off the queues — its
    // own ports' and those of the ports facing it — is what it counts as
    // lost with the links, entry for entry.
    loop {
        let queued = fabric.queued_packets();
        let dropped = fabric.counters().dropped_link_down;
        assert!(fabric.step());
        if !fabric.is_active(victim) {
            let gone = queued - fabric.queued_packets();
            assert!(gone >= 50, "the queues were deep: {gone}");
            assert_eq!(fabric.counters().dropped_link_down - dropped, gone as u64);
            break;
        }
    }
    // The rest of the window plays out around the hole; every queue set
    // comes home (`queued_packets` checks that none is held empty).
    fabric.run_until_idle();
    assert_eq!(fabric.queued_packets(), 0);
    assert_eq!(fabric.packet_arena_live(), 0);
}
