//! End-to-end fabric tests: packets crossing real multi-hop topologies,
//! device PI-4 responders, PI-5 change notification, drops and credits.

use asi_fabric::{
    AgentCtx, DevId, Fabric, FabricAgent, FabricConfig, FaultPlan, TrafficPlan, DSN_BASE,
};
use asi_proto::config::event_route_writes;
use asi_proto::{
    CapabilityAddr, DeviceInfo, Packet, Payload, Pi4, Pi4Status, PortEvent, PortState,
    ProtocolInterface, RouteHeader, MANAGEMENT_TC,
};
use asi_sim::{SimDuration, SimTime, TraceEvent, TraceHandle, TraceRecord, TraceSink};
use asi_topo::{mesh, shortest_route, NodeId, Topology};
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

/// Test agent: fires queued packets on its first timer, records everything
/// it receives with timestamps.
#[derive(Default)]
struct Prober {
    outbox: Vec<(u8, Packet)>,
    received: Vec<(SimTime, Packet)>,
    processing: SimDuration,
}

impl FabricAgent for Prober {
    fn processing_time(&mut self, _p: &Packet) -> SimDuration {
        self.processing
    }
    fn on_packet(&mut self, ctx: &mut AgentCtx, packet: Packet) {
        self.received.push((ctx.now, packet));
    }
    fn on_timer(&mut self, ctx: &mut AgentCtx, _token: u64) {
        for (port, pkt) in self.outbox.drain(..) {
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

fn dev(n: NodeId) -> DevId {
    DevId(n.0)
}

/// Builds the fabric and brings every device up.
fn up(topo: &Topology) -> Fabric {
    let mut fabric = Fabric::new(topo, FabricConfig::default());
    fabric.set_event_limit(5_000_000);
    fabric.activate_all(SimDuration::ZERO);
    fabric.run_until_idle();
    fabric
}

/// A PI-4 request packet along a ground-truth route.
fn pi4_request(topo: &Topology, src: NodeId, dst: NodeId, request: Pi4) -> (u8, Packet) {
    let route = shortest_route(topo, src, dst).expect("route exists");
    let pool = route
        .encode(topo, asi_proto::MAX_POOL_BITS)
        .expect("pool fits");
    let header = RouteHeader::forward(ProtocolInterface::DeviceManagement, MANAGEMENT_TC, pool);
    (
        route.source_port,
        Packet::new(header, Payload::Pi4(request)),
    )
}

/// A PI-4 read-request packet along a ground-truth route.
fn read_request(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    req_id: u32,
    addr: CapabilityAddr,
    dwords: u8,
) -> (u8, Packet) {
    let read = Pi4::ReadRequest {
        req_id,
        addr,
        dwords,
    };
    pi4_request(topo, src, dst, read)
}

/// The PI-4 writes from `fm` that set the PI-5 reporting route of every
/// device but `fm` and `skip` to its ground-truth route toward `fm`: the
/// configuration step a fabric manager performs, with no manager.
fn reporting_route_writes(topo: &Topology, fm: NodeId, skip: &[NodeId]) -> Vec<(u8, Packet)> {
    let mut writes = Vec::new();
    for (id, _) in topo.nodes() {
        if id == fm || skip.contains(&id) {
            continue;
        }
        let route = shortest_route(topo, id, fm).expect("route exists");
        let pool = route.encode(topo, asi_proto::MAX_POOL_BITS).unwrap();
        for (addr, data) in event_route_writes(route.source_port, &pool) {
            let req_id = writes.len() as u32 + 1;
            let write = Pi4::WriteRequest { req_id, addr, data };
            writes.push(pi4_request(topo, fm, id, write));
        }
    }
    writes
}

/// Installs a [`Prober`] on `fm` that sends `writes`, and runs until
/// every one is acknowledged; the prober's record starts empty after.
fn configure_reporting(fabric: &mut Fabric, fm: NodeId, writes: Vec<(u8, Packet)>) {
    let count = writes.len();
    let prober = Prober {
        outbox: writes,
        ..Prober::default()
    };
    fabric.set_agent(dev(fm), Box::new(prober));
    fabric.schedule_agent_timer(dev(fm), SimDuration::ZERO, 0);
    fabric.run_until_idle();
    let prober = fabric.agent_as_mut::<Prober>(dev(fm)).unwrap();
    let acks = std::mem::take(&mut prober.received);
    let acked =
        |(_, p): &(SimTime, Packet)| matches!(p.payload, Payload::Pi4(Pi4::WriteCompletion { .. }));
    assert_eq!(acks.iter().filter(|r| acked(r)).count(), count);
}

#[test]
fn bring_up_activates_all_links() {
    let g = mesh(3, 3).unwrap();
    let fabric = up(&g.topology);
    for (id, _) in g.topology.nodes() {
        assert!(fabric.is_active(dev(id)));
        for (port, _) in g.topology.neighbors(id) {
            assert_eq!(
                fabric.port_state(dev(id), port),
                PortState::Active,
                "{} port {port}",
                g.topology.label(id)
            );
        }
    }
    // Unwired ports stay down.
    assert_eq!(
        fabric.port_state(dev(g.switch_at(0, 0)), 9),
        PortState::Down
    );
}

#[test]
fn pi4_read_round_trip_to_far_endpoint() {
    let g = mesh(3, 3).unwrap();
    let mut fabric = up(&g.topology);
    let src = g.endpoint_at(0, 0);
    let dst = g.endpoint_at(2, 2);
    let (port, pkt) = read_request(
        &g.topology,
        src,
        dst,
        42,
        CapabilityAddr::baseline(0),
        asi_proto::GENERAL_INFO_WORDS as u8,
    );
    let mut prober = Prober::default();
    prober.outbox.push((port, pkt));
    fabric.set_agent(dev(src), Box::new(prober));
    fabric.schedule_agent_timer(dev(src), SimDuration::ZERO, 0);
    fabric.run_until_idle();

    let prober = fabric.agent_as::<Prober>(dev(src)).unwrap();
    assert_eq!(prober.received.len(), 1, "exactly one completion");
    let (t, completion) = &prober.received[0];
    let Payload::Pi4(Pi4::ReadCompletion { req_id, data }) = &completion.payload else {
        panic!("expected completion, got {:?}", completion.payload);
    };
    assert_eq!(*req_id, 42);
    let info = DeviceInfo::from_words(data).expect("decodable general info");
    assert_eq!(info.dsn, DSN_BASE | u64::from(dst.0));
    assert_eq!(info.device_type, asi_proto::DeviceType::Endpoint);

    // Timing sanity: 5 switches each way, device time 4us; round trip must
    // exceed the device time but stay well under a millisecond.
    assert!(*t > SimTime::from_us(4), "implausibly fast: {t}");
    assert!(*t < SimTime::from_ms(1), "implausibly slow: {t}");
}

#[test]
fn pi4_read_terminates_at_switches_too() {
    let g = mesh(3, 3).unwrap();
    let mut fabric = up(&g.topology);
    let src = g.endpoint_at(0, 0);
    let target = g.switch_at(1, 1);
    let (port, pkt) = read_request(
        &g.topology,
        src,
        target,
        7,
        CapabilityAddr::baseline(0),
        asi_proto::GENERAL_INFO_WORDS as u8,
    );
    let mut prober = Prober::default();
    prober.outbox.push((port, pkt));
    fabric.set_agent(dev(src), Box::new(prober));
    fabric.schedule_agent_timer(dev(src), SimDuration::ZERO, 0);
    fabric.run_until_idle();

    let prober = fabric.agent_as::<Prober>(dev(src)).unwrap();
    assert_eq!(prober.received.len(), 1);
    let Payload::Pi4(Pi4::ReadCompletion { data, .. }) = &prober.received[0].1.payload else {
        panic!("expected completion");
    };
    let info = DeviceInfo::from_words(data).unwrap();
    assert_eq!(info.device_type, asi_proto::DeviceType::Switch);
    assert_eq!(info.port_count, 16);
}

#[test]
fn out_of_range_read_yields_error_completion() {
    let g = mesh(3, 3).unwrap();
    let mut fabric = up(&g.topology);
    let src = g.endpoint_at(0, 0);
    let dst = g.endpoint_at(1, 0);
    let (port, pkt) = read_request(&g.topology, src, dst, 9, CapabilityAddr::baseline(5000), 4);
    let mut prober = Prober::default();
    prober.outbox.push((port, pkt));
    fabric.set_agent(dev(src), Box::new(prober));
    fabric.schedule_agent_timer(dev(src), SimDuration::ZERO, 0);
    fabric.run_until_idle();

    let prober = fabric.agent_as::<Prober>(dev(src)).unwrap();
    assert_eq!(prober.received.len(), 1);
    match &prober.received[0].1.payload {
        Payload::Pi4(Pi4::ReadError { req_id, status }) => {
            assert_eq!(*req_id, 9);
            assert_eq!(*status, Pi4Status::UnsupportedRequest);
        }
        other => panic!("expected error completion, got {other:?}"),
    }
}

#[test]
fn write_to_endpoint_route_table_acks() {
    let g = mesh(3, 3).unwrap();
    let mut fabric = up(&g.topology);
    let src = g.endpoint_at(0, 0);
    let dst = g.endpoint_at(2, 0);
    let route = shortest_route(&g.topology, src, dst).unwrap();
    let pool = route.encode(&g.topology, asi_proto::MAX_POOL_BITS).unwrap();
    let header = RouteHeader::forward(ProtocolInterface::DeviceManagement, MANAGEMENT_TC, pool);
    let pkt = Packet::new(
        header,
        Payload::Pi4(Pi4::WriteRequest {
            req_id: 77,
            addr: CapabilityAddr {
                capability: asi_proto::CAP_ROUTE_TABLE,
                offset: 0,
            },
            data: vec![0xAB, 0xCD],
        }),
    );
    let mut prober = Prober::default();
    prober.outbox.push((route.source_port, pkt));
    fabric.set_agent(dev(src), Box::new(prober));
    fabric.schedule_agent_timer(dev(src), SimDuration::ZERO, 0);
    fabric.run_until_idle();

    let prober = fabric.agent_as::<Prober>(dev(src)).unwrap();
    assert!(matches!(
        prober.received[0].1.payload,
        Payload::Pi4(Pi4::WriteCompletion { req_id: 77 })
    ));
    // The write landed in the destination's config space.
    let words = fabric
        .read_config(
            dev(dst),
            CapabilityAddr {
                capability: asi_proto::CAP_ROUTE_TABLE,
                offset: 0,
            },
            2,
        )
        .unwrap();
    assert_eq!(words, vec![0xAB, 0xCD]);
}

#[test]
fn request_to_dead_device_gets_no_answer() {
    let g = mesh(3, 3).unwrap();
    let mut fabric = up(&g.topology);
    let src = g.endpoint_at(0, 0);
    let dst = g.endpoint_at(2, 2);
    let (port, pkt) = read_request(&g.topology, src, dst, 1, CapabilityAddr::baseline(0), 1);
    // Kill the destination before probing.
    fabric.schedule_deactivate(dev(dst), SimDuration::ZERO);
    fabric.run_until_idle();

    let mut prober = Prober::default();
    prober.outbox.push((port, pkt));
    fabric.set_agent(dev(src), Box::new(prober));
    fabric.schedule_agent_timer(dev(src), SimDuration::ZERO, 0);
    fabric.run_until_idle();

    let drops = fabric.counters().total_dropped();
    let prober = fabric.agent_as::<Prober>(dev(src)).unwrap();
    assert!(prober.received.is_empty(), "dead device answered");
    assert!(drops >= 1, "drop not accounted");
}

#[test]
fn removal_triggers_pi5_from_neighbors() {
    let g = mesh(3, 3).unwrap();
    let mut fabric = up(&g.topology);
    let fm = g.endpoint_at(0, 0);

    // Configure every device's PI-5 route toward the FM endpoint.
    let writes = reporting_route_writes(&g.topology, fm, &[]);
    configure_reporting(&mut fabric, fm, writes);

    // Remove the centre switch: its 5 neighbours (4 switches + 1 endpoint)
    // lose a port.
    let victim = g.switch_at(1, 1);
    fabric.schedule_deactivate(dev(victim), SimDuration::from_us(10));
    fabric.run_until_idle();

    // Some neighbours' FM routes ran through the victim itself (their
    // reports are suppressed/lost — exactly the failure mode the paper's
    // event mechanism tolerates), but several must get through.
    let emitted = fabric.counters().pi5_emitted;
    assert!(
        emitted >= 3,
        "expected PI-5 reports from neighbours, got {emitted}"
    );

    let prober = fabric.agent_as::<Prober>(dev(fm)).unwrap();
    let pi5s: Vec<_> = prober
        .received
        .iter()
        .filter_map(|(_, p)| match &p.payload {
            Payload::Pi5(e) => Some(*e),
            _ => None,
        })
        .collect();
    assert!(
        !pi5s.is_empty(),
        "FM received no PI-5 despite configured routes"
    );
    for e in &pi5s {
        assert_eq!(e.event, PortEvent::PortDown);
    }
    // Reporters are actual neighbours of the victim.
    let neighbor_dsns: Vec<u64> = g
        .topology
        .neighbors(victim)
        .map(|(_, at)| DSN_BASE | u64::from(at.node.0))
        .collect();
    for e in &pi5s {
        assert!(neighbor_dsns.contains(&e.reporter_dsn));
    }
}

#[test]
fn hot_addition_triggers_pi5_port_up() {
    let g = mesh(3, 3).unwrap();
    let mut topo_fabric = Fabric::new(&g.topology, FabricConfig::default());
    let fm = g.endpoint_at(0, 0);
    let newcomer = g.switch_at(2, 2);

    // Bring everything up except the newcomer.
    for (id, _) in g.topology.nodes() {
        if id != newcomer {
            topo_fabric.schedule_activate(dev(id), SimDuration::ZERO);
        }
    }
    topo_fabric.run_until_idle();
    // Routes computed on the full ground truth still work because the
    // newcomer is on the fabric edge; only its endpoint, stranded behind
    // it, cannot be written.
    let stranded = g.endpoint_at(2, 2);
    let writes = reporting_route_writes(&g.topology, fm, &[newcomer, stranded]);
    configure_reporting(&mut topo_fabric, fm, writes);

    topo_fabric.schedule_activate(dev(newcomer), SimDuration::from_us(5));
    topo_fabric.run_until_idle();

    let prober = topo_fabric.agent_as::<Prober>(dev(fm)).unwrap();
    let ups: Vec<_> = prober
        .received
        .iter()
        .filter_map(|(_, p)| match &p.payload {
            Payload::Pi5(e) if e.event == PortEvent::PortUp => Some(e.reporter_dsn),
            _ => None,
        })
        .collect();
    assert!(!ups.is_empty(), "no PortUp events reached the FM");
}

/// The `pi5-emitted` records of a run, as `(time, dsn, port, up)`.
#[derive(Default)]
struct Pi5Log(Vec<(SimTime, u64, u16, bool)>);

impl TraceSink for Pi5Log {
    fn record(&mut self, record: TraceRecord) {
        if let TraceEvent::Pi5Emitted { dsn, port, up } = record.event {
            self.0.push((record.time, dsn, port, up));
        }
    }
}

/// A flap's up edge spends one training event on the link: the dispatch
/// after `FaultLinkUp` brings both ends `Active`, and the two PI-5
/// `PortUp`s leave in the order two events used to send them, the
/// flapped end first, and reach the manager in that order.
#[test]
fn a_flap_up_edge_trains_both_ends_in_one_dispatch() {
    let g = mesh(3, 3).unwrap();
    let fm = g.endpoint_at(0, 0);
    let (a, b) = (g.switch_at(1, 1), g.switch_at(2, 1));
    let (a_port, b_at) = (g.topology.neighbors(a))
        .find(|(_, at)| at.node == b)
        .expect("neighbours");
    let (down_at, up_at) = (SimDuration::from_ms(2), SimDuration::from_ms(3));
    let faults = FaultPlan::none().with_link_flap(down_at, a.0, a_port, up_at - down_at);
    let config = FabricConfig {
        faults,
        ..FabricConfig::default()
    };
    let mut fabric = Fabric::new(&g.topology, config);
    let log = Rc::new(RefCell::new(Pi5Log::default()));
    fabric.set_trace(TraceHandle::to(log.clone()), SimDuration::ZERO);
    fabric.activate_all(SimDuration::ZERO);
    // Every reporting route written before the flap.
    let writes = reporting_route_writes(&g.topology, fm, &[]);
    let count = writes.len();
    let prober = Prober {
        outbox: writes,
        ..Prober::default()
    };
    fabric.set_agent(dev(fm), Box::new(prober));
    fabric.schedule_agent_timer(dev(fm), SimDuration::from_us(10), 0);
    fabric.run_until(SimTime::ZERO + SimDuration::from_ms(1));
    let prober = fabric.agent_as_mut::<Prober>(dev(fm)).unwrap();
    assert_eq!(std::mem::take(&mut prober.received).len(), count);
    // The up edge: both ends start training.
    fabric.run_until(SimTime::ZERO + up_at);
    let ends = [(dev(a), a_port), (dev(b), b_at.port)];
    for (d, p) in ends {
        assert_eq!(fabric.port_state(d, p), PortState::Training);
    }
    let trained = |fabric: &Fabric| {
        let mut counts = fabric.dispatch_counts();
        counts.find(|&(kind, _)| kind == "port_trained").unwrap().1
    };
    let (before, events) = (trained(&fabric), fabric.events_processed());
    log.borrow_mut().0.clear();
    // One dispatch brings both ends up.
    assert!(fabric.step());
    assert_eq!(trained(&fabric), before + 1);
    assert_eq!(fabric.events_processed(), events + 1);
    for (d, p) in ends {
        assert_eq!(fabric.port_state(d, p), PortState::Active);
    }
    let at = SimTime::ZERO + up_at + FabricConfig::default().train_time;
    let dsn = |n: NodeId| DSN_BASE | u64::from(n.0);
    let ups = [
        (at, dsn(a), u16::from(a_port), true),
        (at, dsn(b), u16::from(b_at.port), true),
    ];
    assert_eq!(log.borrow().0, ups);
    fabric.run_until_idle();
    let prober = fabric.agent_as::<Prober>(dev(fm)).unwrap();
    let reports: Vec<_> = (prober.received.iter())
        .filter_map(|(_, p)| match &p.payload {
            Payload::Pi5(e) if e.event == PortEvent::PortUp => Some((e.reporter_dsn, e.port)),
            _ => None,
        })
        .collect();
    assert_eq!(reports, [(dsn(a), a_port), (dsn(b), b_at.port)]);
}

#[test]
fn background_traffic_flows_between_endpoints() {
    let g = mesh(3, 3).unwrap();
    let a = g.endpoint_at(0, 0);
    let b = g.endpoint_at(2, 2);
    // Only `a` and `b` carry traffic: one ~6% flow each way, from the
    // moment the links have trained.
    let exempt = (0..g.topology.node_count() as u32)
        .filter(|&d| d != a.0 && d != b.0)
        .collect();
    let config = FabricConfig {
        traffic: TrafficPlan::none()
            .with_unicast(0.06, 256)
            .with_window(SimDuration::from_us(100), SimDuration::from_ms(2))
            .with_exempt(exempt),
        ..FabricConfig::default()
    };
    let mut fabric = Fabric::new(&g.topology, config);
    fabric.set_event_limit(5_000_000);
    fabric.activate_all(SimDuration::ZERO);
    fabric.run_until(SimTime::from_ms(2));

    let flows = fabric.traffic_flows();
    assert_eq!(flows.len(), 2);
    assert!(flows.iter().any(|f| f.src == a.0 && f.dst == b.0));
    let c = fabric.counters();
    assert!(
        c.flow_injected >= 100,
        "generator too slow: {}",
        c.flow_injected
    );
    assert!(c.flow_delivered > 0, "sink got nothing");
    assert!(c.flow_delivered <= c.flow_injected);
    assert!(fabric.flow_stats().iter().all(|f| f.delivered > 0));
    assert!(c.data_bytes > 0);
}

#[test]
fn active_reachability_tracks_removals() {
    let g = mesh(3, 3).unwrap();
    let mut fabric = up(&g.topology);
    let fm = g.endpoint_at(0, 0);
    assert_eq!(fabric.active_reachable(dev(fm)).len(), 18);

    // Cutting the corner switch strands its endpoint.
    fabric.schedule_deactivate(dev(g.switch_at(2, 2)), SimDuration::ZERO);
    fabric.run_until_idle();
    // 18 - switch - its endpoint.
    assert_eq!(fabric.active_reachable(dev(fm)).len(), 16);
}

#[test]
fn completions_retrace_the_request_path_credits_balance() {
    // After a full exchange, every credit consumed must have been
    // returned: a second identical exchange must not stall.
    let g = mesh(3, 3).unwrap();
    let mut fabric = up(&g.topology);
    let src = g.endpoint_at(0, 0);
    let dst = g.endpoint_at(2, 2);

    for round in 0..2 {
        let (port, pkt) =
            read_request(&g.topology, src, dst, round, CapabilityAddr::baseline(0), 1);
        if round == 0 {
            let mut prober = Prober::default();
            prober.outbox.push((port, pkt));
            fabric.set_agent(dev(src), Box::new(prober));
        } else {
            let prober = fabric.agent_as_mut::<Prober>(dev(src)).unwrap();
            prober.outbox.push((port, pkt));
        }
        fabric.schedule_agent_timer(dev(src), SimDuration::ZERO, 0);
        fabric.run_until_idle();
    }
    let prober = fabric.agent_as::<Prober>(dev(src)).unwrap();
    assert_eq!(prober.received.len(), 2);
    assert_eq!(fabric.counters().total_dropped(), 0);
}

/// A `*Done` armed for a request that died with its device must not
/// serve the request that reaches the device after it powers back up:
/// the second read takes the full device time, power cycle or not.
#[test]
fn a_power_cycle_does_not_shorten_the_next_requests_service() {
    let g = mesh(3, 3).unwrap();
    let (src, target) = (g.endpoint_at(0, 0), g.switch_at(1, 1));
    let send = |fabric: &mut Fabric, req_id: u32| {
        let addr = CapabilityAddr::baseline(0);
        let request = read_request(&g.topology, src, target, req_id, addr, 1);
        let prober = fabric.agent_as_mut::<Prober>(dev(src)).unwrap();
        prober.outbox.push(request);
        fabric.schedule_agent_timer(dev(src), SimDuration::ZERO, 0);
    };
    let second_read_latency = |power_cycle: bool| {
        let mut fabric = up(&g.topology);
        fabric.set_agent(dev(src), Box::new(Prober::default()));
        let sent = fabric.now() + SimDuration::from_ns(2_500);
        if power_cycle {
            // The first read is in service when its device dies.
            send(&mut fabric, 1);
            fabric.schedule_deactivate(dev(target), SimDuration::from_ns(1_000));
            fabric.schedule_activate(dev(target), SimDuration::from_ns(1_100));
        }
        fabric.run_until(sent);
        send(&mut fabric, 2);
        fabric.run_until_idle();
        let prober = fabric.agent_as::<Prober>(dev(src)).unwrap();
        assert_eq!(prober.received.len(), 1, "only the second read completes");
        prober.received[0].0 - sent
    };
    assert_eq!(second_read_latency(true), second_read_latency(false));
}
