//! The fabric engine: devices, ports, links, forwarding, flow control,
//! activation/deactivation and PI-5 event generation, all driven by the
//! `asi-sim` discrete-event kernel.
//!
//! ## Model summary (paper §4.1)
//!
//! - **Links**: x1, 2.0 Gb/s effective, fixed propagation delay.
//! - **Switches**: virtual cut-through — forwarding begins once the
//!   routing header has been received; a per-output-port serializer
//!   transmits one packet at a time with management-class priority.
//! - **Flow control**: credit-based per VC class (64-byte units); a hop's
//!   input-buffer credits return to the upstream transmitter when the
//!   packet departs the hop.
//! - **Devices**: every device services PI-4 requests serially, taking
//!   `device_time / device_factor` per request before the completion is
//!   injected back along the reversed path.
//! - **Agents**: endpoint-resident management software (the FM, traffic
//!   generators) receives completions/PI-5/data one packet at a time with
//!   a per-packet processing occupancy.
//!
//! ## Events per switch hop: the cut-through commit
//!
//! A forwarded packet leaves a switch `switch_latency` after its header
//! arrived. The general path spends three kernel events on that hop:
//!
//! ```text
//! Arrive ──queue an OutEntry, arm a wake-up──▶ TryTx(ready) ──transmit──▶ Arrive (downstream)
//!                                                                  └────▶ CreditReturn (upstream)
//! ```
//!
//! When the transmission at `ready = now + switch_latency` is already
//! *determined* at header arrival, `on_arrive` commits it on the spot:
//! the same [`Fabric::transmit`] routine `pump` uses runs with start time
//! `ready` instead of `now`, so the downstream `Arrive` and the upstream
//! `CreditReturn` carry the timestamps the queue path would have
//! produced, and the `TryTx` never exists — two events per hop:
//!
//! ```text
//! Arrive ──commit at `ready`──▶ Arrive (downstream)
//!                       └─────▶ CreditReturn (upstream)
//! ```
//!
//! "Determined" is a guard ([`Fabric::cut_through_peer`]), not a knob.
//! Every condition is there because without it the queue path could
//! have done something else between `now` and `ready`:
//!
//! | guard | why |
//! |---|---|
//! | management class only | nothing outranks it and its queue is FIFO; a data packet can be overtaken by management arriving inside the window (`pump` serves the management head first, ready or not) |
//! | egress port active, with a peer | a dead or dangling port drops the packet instead (the device itself is active: it has just accepted the header) |
//! | all three egress queues empty | anything queued is ahead of it (management) or shares the serializer |
//! | `busy_until <= ready` | otherwise the start time is the serializer's, not `ready` |
//! | `cut_until <= now` | an earlier commitment that has not started yet is ahead of it |
//! | credits in hand (or flow control off) | credits only grow until `ready` (nothing else can transmit on the port), so in hand now means in hand then; short now means a stall the counters must see |
//! | a loss model that can never lose | a lossy model draws from the device's RNG per transmission, in transmission order |
//! | no control event pending | activation, training, link faults and churn change port state; with none pending nothing can take the link down before `ready` (worker dispatches cannot schedule control events) |
//!
//! Two more pieces keep the commit unobservable. The committed packet
//! still counts as queued for `mgmt_queue_peak` until `ready`; and a
//! control event scheduled from *outside* a dispatch
//! ([`Fabric::schedule_activate`] / [`Fabric::schedule_deactivate`])
//! fires no earlier than the latest outstanding `ready`, so no link goes
//! down under a packet the queue path would still have been holding.
//! What does change: `sim_events`, the kernel's `queue-sample` records,
//! and the schedule order (not the time) of events one switch emits — two
//! same-origin events with equal timestamps may swap, which only parallel
//! links between one switch pair could turn into a reordering.
//!
//! Fusing the `CreditReturn` as well would need a write to the upstream
//! device's port from the downstream device's dispatch — a cross-rank
//! write, which the parallel kernel's contract forbids (docs/PARALLEL.md).

use crate::agent::{AgentCommand, AgentCtx, DevId, FabricAgent};
use crate::churn::ChurnAction;
use crate::config::FabricConfig;
use crate::counters::FabricCounters;
use crate::faults::{FaultKind, LossModel};
use crate::traffic::{build_flow_packet, FlowKind, FlowSpec};
use asi_proto::{
    apply_backward, apply_forward, turn_width, DeviceInfo, DeviceType, Packet, Payload, Pi4, Pi5,
    PortEvent, PortInfo, PortState, ProtocolInterface, RouteHeader, TurnCursor, TurnPool,
    MANAGEMENT_TC,
};
use asi_sim::{
    AnyKernel, Arena, KernelSpec, ParallelStats, SimDuration, SimRng, SimTime, Simulator, Target,
    TraceEvent, TraceHandle, PICOSECOND,
};
use asi_topo::Topology;
use std::collections::{BTreeMap, VecDeque};

/// Credit / arbitration class of a packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CreditClass {
    /// Management plane (PI-4/PI-5): highest priority.
    Mgmt,
    /// Application data.
    Data,
}

impl CreditClass {
    fn of(packet: &Packet) -> CreditClass {
        if packet.is_management() {
            CreditClass::Mgmt
        } else {
            CreditClass::Data
        }
    }

    fn idx(self) -> usize {
        match self {
            CreditClass::Mgmt => 0,
            CreditClass::Data => 1,
        }
    }
}

/// Where a queued packet's input-buffer credits must be released.
#[derive(Clone, Copy, Debug)]
struct CreditOrigin {
    dev: DevId,
    port: u8,
    class: CreditClass,
    amount: u32,
}

/// A packet waiting on an output port.
///
/// The packet body lives in the fabric's payload [`Arena`]: entries move
/// through per-port `VecDeque`s and the scheduling kernel, and a [`Packet`]
/// is ~136 bytes inline — carrying a 4-byte handle keeps those moves cheap
/// and recycles payload memory through the arena's free list.
struct OutEntry {
    ready: SimTime,
    packet: PacketRef,
    origin: Option<CreditOrigin>,
}

/// One port of a device.
struct Port {
    peer: Option<(DevId, u8)>,
    state: PortState,
    mgmt_q: VecDeque<OutEntry>,
    /// BVC bypass queue: data packets with the `OO` header bit may jump
    /// ahead of the ordered data queue (paper §2's bypassable VCs).
    bypass_q: VecDeque<OutEntry>,
    data_q: VecDeque<OutEntry>,
    busy_until: SimTime,
    /// Earliest pending [`Event::TryTx`] wakeup for this port
    /// ([`NO_WAKEUP`] when none; a sentinel rather than an `Option` so
    /// that `cut_until` fits in the space and `Port` does not grow).
    /// At most one wakeup is kept armed: without this guard every packet
    /// enqueued behind a busy serializer schedules its own retry, and a
    /// K-deep queue burns O(K²) events leapfrogging `busy_until`.
    try_tx_at: SimTime,
    /// Start time of the latest cut-through commitment on this port.
    /// While `now < cut_until` a packet is committed but has not started
    /// serializing: it blocks a second commitment and still counts as
    /// queued for `mgmt_queue_peak`.
    cut_until: SimTime,
    /// Source-injection rate limiter: next instant a data-class packet
    /// may start serializing (endpoints only).
    rate_next: SimTime,
    /// Credits available at the peer's input buffer, per class.
    peer_credits: [u32; 2],
    /// Gilbert–Elliott loss state of the outgoing link: true while the
    /// link is in its bad (bursty-loss) state.
    ge_bad: bool,
}

/// [`Port::try_tx_at`] when no wakeup is armed.
const NO_WAKEUP: SimTime = SimTime::MAX;

impl Port {
    fn queued(&self) -> usize {
        self.mgmt_q.len() + self.bypass_q.len() + self.data_q.len()
    }

    /// Pops the head `pump` just inspected for `class`: the management
    /// queue, or the bypass queue ahead of ordered data.
    fn pop_head(&mut self, class: CreditClass) -> OutEntry {
        match class {
            CreditClass::Mgmt => self.mgmt_q.pop_front(),
            CreditClass::Data => self
                .bypass_q
                .pop_front()
                .or_else(|| self.data_q.pop_front()),
        }
        .expect("head inspected above")
    }
}

/// PI-4 responder state (every device).
#[derive(Default)]
struct Responder {
    queue: VecDeque<(u8, PacketRef)>,
    busy: bool,
}

/// Endpoint agent hosting state.
struct AgentSlot {
    agent: Box<dyn FabricAgent>,
    queue: VecDeque<PacketRef>,
    busy: bool,
}

/// The route a device uses to report PI-5 events to the FM.
#[derive(Clone, Debug)]
pub struct FmRoute {
    /// Egress port at the reporting device.
    pub egress: u8,
    /// Turns for the switches along the way.
    pub pool: TurnPool,
}

struct Device {
    info: DeviceInfo,
    config: asi_proto::ConfigSpace,
    ports: Vec<Port>,
    active: bool,
    responder: Responder,
    /// Inbound management pipe in front of the agent: the endpoint's PI-4
    /// engine handles each received management packet for the device
    /// processing time before the agent software sees it. This stage is
    /// what makes a very slow device family (factor < ~T_dev/T_FM ≈ 1/3)
    /// finally pace even the Parallel discovery (paper Fig. 8b).
    ingress: IngressPipe,
    agent: Option<AgentSlot>,
    fm_route: Option<FmRoute>,
    pi5_seq: u32,
    /// While `now < hang_until` the PI-4 responder is frozen: requests
    /// queue but no completion leaves (injected fault).
    hang_until: SimTime,
    /// While `now < slow_until` the responder's servicing time is
    /// multiplied by `slow_factor` (injected fault).
    slow_until: SimTime,
    slow_factor: f64,
    /// Per-device random stream for loss/corruption/duplication draws,
    /// derived from the fabric seed. Device-local draws depend only on
    /// that device's own dispatch order — which every kernel preserves —
    /// so faulted runs stay byte-identical across kernels.
    rng: SimRng,
}

/// Serialized delivery stage in front of an endpoint agent.
#[derive(Default)]
struct IngressPipe {
    queue: VecDeque<PacketRef>,
    busy: bool,
}

/// Fabric events.
#[derive(Debug)]
enum Event {
    /// Routing header fully received at `(dev, port)`.
    Arrive {
        dev: DevId,
        port: u8,
        packet: PacketRef,
    },
    /// Entire packet received; hand to the local consumer.
    Deliver {
        dev: DevId,
        port: u8,
        packet: PacketRef,
    },
    /// Output serializer / queue retry.
    TryTx { dev: DevId, port: u8 },
    /// Flow-control credits coming back from the downstream input buffer.
    CreditReturn {
        dev: DevId,
        port: u8,
        class: CreditClass,
        amount: u32,
    },
    /// The endpoint agent finished its per-packet occupancy.
    AgentDone { dev: DevId },
    /// The endpoint's inbound PI-4 engine finished handling a packet.
    IngressDone { dev: DevId },
    /// The device PI-4 responder finished servicing a request.
    ResponderDone { dev: DevId },
    /// Agent timer.
    Timer { dev: DevId, token: u64 },
    /// Link training completed on `(dev, port)`.
    PortTrained { dev: DevId, port: u8 },
    /// Device power-up.
    Activate { dev: DevId },
    /// Device removal / failure.
    Deactivate { dev: DevId },
    /// Scheduled fault: take a link down, retrain after `down_for`.
    FaultLinkDown {
        dev: DevId,
        port: u8,
        down_for: SimDuration,
    },
    /// Scheduled fault: a flapped link comes back and retrains.
    FaultLinkUp { dev: DevId, port: u8 },
    /// Scheduled fault: freeze a device's PI-4 responder.
    FaultDeviceHang { dev: DevId, duration: SimDuration },
    /// Scheduled fault: slow a device's PI-4 responder.
    FaultDeviceSlow {
        dev: DevId,
        factor: f64,
        duration: SimDuration,
    },
    /// Churn-plan event: flap a link (down now, retrain after `down_for`).
    ChurnFlap {
        dev: DevId,
        port: u8,
        down_for: SimDuration,
    },
    /// Churn-plan event: hot-remove a device.
    ChurnRemove { dev: DevId },
    /// Churn-plan event: re-add a previously hot-removed device.
    ChurnAdd { dev: DevId },
    /// Traffic-plan event: inject one packet of a materialized flow.
    TrafficInject { dev: DevId, flow: u32, seq: u32 },
}

impl Event {
    /// Variant names, indexed by [`Event::kind`].
    const KINDS: [&'static str; 19] = [
        "arrive",
        "deliver",
        "try_tx",
        "credit_return",
        "agent_done",
        "ingress_done",
        "responder_done",
        "timer",
        "port_trained",
        "activate",
        "deactivate",
        "fault_link_down",
        "fault_link_up",
        "fault_device_hang",
        "fault_device_slow",
        "churn_flap",
        "churn_remove",
        "churn_add",
        "traffic_inject",
    ];

    /// Index of this event's variant, in declaration order.
    fn kind(&self) -> usize {
        match self {
            Event::Arrive { .. } => 0,
            Event::Deliver { .. } => 1,
            Event::TryTx { .. } => 2,
            Event::CreditReturn { .. } => 3,
            Event::AgentDone { .. } => 4,
            Event::IngressDone { .. } => 5,
            Event::ResponderDone { .. } => 6,
            Event::Timer { .. } => 7,
            Event::PortTrained { .. } => 8,
            Event::Activate { .. } => 9,
            Event::Deactivate { .. } => 10,
            Event::FaultLinkDown { .. } => 11,
            Event::FaultLinkUp { .. } => 12,
            Event::FaultDeviceHang { .. } => 13,
            Event::FaultDeviceSlow { .. } => 14,
            Event::ChurnFlap { .. } => 15,
            Event::ChurnRemove { .. } => 16,
            Event::ChurnAdd { .. } => 17,
            Event::TrafficInject { .. } => 18,
        }
    }
}

/// Handle to a packet body in the fabric's payload arena.
#[derive(Clone, Copy, Debug)]
struct PacketRef(u32);

/// Shard-routing target of a fabric event.
///
/// Events that touch a single device route to that device's rank, so the
/// parallel kernel can dispatch them inside a shard's lookahead window.
/// Events that read or mutate *other* devices' state (activation, training
/// completion, link faults, churn) are control events: the parallel kernel
/// executes them alone at a global barrier between windows, where every
/// shard view is consistent.
fn target_of(event: &Event) -> Target {
    match event {
        Event::Arrive { dev, .. }
        | Event::Deliver { dev, .. }
        | Event::TryTx { dev, .. }
        | Event::CreditReturn { dev, .. }
        | Event::AgentDone { dev }
        | Event::IngressDone { dev }
        | Event::ResponderDone { dev }
        | Event::Timer { dev, .. }
        | Event::FaultDeviceHang { dev, .. }
        | Event::FaultDeviceSlow { dev, .. }
        | Event::TrafficInject { dev, .. } => Target::Rank(dev.0),
        Event::PortTrained { .. }
        | Event::Activate { .. }
        | Event::Deactivate { .. }
        | Event::FaultLinkDown { .. }
        | Event::FaultLinkUp { .. }
        | Event::ChurnFlap { .. }
        | Event::ChurnRemove { .. }
        | Event::ChurnAdd { .. } => Target::Control,
    }
}

/// The simulated ASI fabric.
pub struct Fabric {
    sim: Simulator<Event, AnyKernel<Event>>,
    devices: Vec<Device>,
    config: FabricConfig,
    counters: FabricCounters,
    trace: TraceHandle,
    /// In-flight packet bodies; events and port queues carry [`PacketRef`]
    /// handles. Every packet is freed at its single consumption or drop
    /// point, so [`Fabric::packet_arena_live`] returns to 0 once a run
    /// drains.
    packets: Arena<Packet>,
    /// Recycled [`AgentCtx`] port-snapshot buffer: agent callbacks fire on
    /// every delivered management packet, so allocating a fresh `Vec` per
    /// callback shows up in discovery profiles.
    scratch_ports: Vec<PortInfo>,
    /// Recycled agent command buffer (same rationale).
    scratch_commands: Vec<AgentCommand>,
    /// Flows materialized from the traffic plan, indexed by flow id.
    traffic_flows: Vec<FlowSpec>,
    /// Per-flow delivery statistics (parallel to `traffic_flows`).
    flow_stats: Vec<FlowStats>,
    /// Plan-driven multicast deliveries per `(group, member device)`.
    mcast_deliveries: BTreeMap<(u16, u32), u64>,
    /// Dispatches per [`Event`] variant, indexed by [`Event::kind`].
    dispatched: [u64; Event::KINDS.len()],
    /// [`Target::Control`] events scheduled and not yet dispatched. Only
    /// control dispatches, the constructor and the harness schedule them
    /// (a worker dispatch doing so is a protocol violation), so the count
    /// is the same under every kernel.
    control_pending: u32,
    /// Latest start time of any cut-through commitment: externally
    /// scheduled control events fire no earlier.
    cut_latest: SimTime,
}

/// Per-flow delivery statistics accumulated by the fabric for
/// traffic-plan flows (see [`crate::TrafficPlan`]).
#[derive(Clone, Debug, Default)]
pub struct FlowStats {
    /// Packets delivered end-to-end.
    pub delivered: u64,
    /// Payload bytes delivered end-to-end.
    pub bytes: u64,
    /// Per-packet injection-to-delivery latencies in picoseconds, in
    /// delivery order.
    pub latency_ps: Vec<u64>,
}

/// Base used to derive device serial numbers from indices.
pub const DSN_BASE: u64 = 0xA51_0000_0000;

impl Fabric {
    /// Instantiates a fabric from a ground-truth topology. All devices
    /// start powered off; use [`Fabric::schedule_activate`] /
    /// [`Fabric::activate_all`].
    pub fn new(topo: &Topology, config: FabricConfig) -> Fabric {
        let mut devices = Vec::with_capacity(topo.node_count());
        for (id, node) in topo.nodes() {
            let info = DeviceInfo {
                device_type: node.device_type,
                dsn: DSN_BASE | u64::from(id.0),
                port_count: u16::from(node.ports),
                max_packet_size: 2048,
                fm_capable: node.device_type == DeviceType::Endpoint,
                fm_priority: 0,
            };
            let ports = (0..node.ports)
                .map(|p| Port {
                    peer: topo.peer(id, p).map(|at| (DevId(at.node.0), at.port)),
                    state: PortState::Down,
                    mgmt_q: VecDeque::new(),
                    bypass_q: VecDeque::new(),
                    data_q: VecDeque::new(),
                    busy_until: SimTime::ZERO,
                    try_tx_at: NO_WAKEUP,
                    cut_until: SimTime::ZERO,
                    rate_next: SimTime::ZERO,
                    peer_credits: [config.mgmt_credits, config.data_credits],
                    ge_bad: false,
                })
                .collect();
            devices.push(Device {
                config: asi_proto::ConfigSpace::new(info),
                info,
                ports,
                active: false,
                responder: Responder::default(),
                ingress: IngressPipe::default(),
                agent: None,
                fm_route: None,
                pi5_seq: 0,
                hang_until: SimTime::ZERO,
                slow_until: SimTime::ZERO,
                slow_factor: 1.0,
                rng: SimRng::new(
                    config.seed ^ (u64::from(id.0) + 1).wrapping_mul(0xA24B_AED4_963E_E407),
                ),
            });
        }
        // The conservative lookahead is the link propagation delay: no
        // device can affect another sooner than one wire flight, so the
        // parallel kernel may dispatch a full propagation window per shard
        // between barriers (docs/PARALLEL.md).
        if matches!(config.kernel, KernelSpec::Parallel { .. }) {
            assert!(
                config.propagation > SimDuration::ZERO,
                "the parallel kernel needs a nonzero link propagation delay \
                 (it is the conservative-sync lookahead)"
            );
        }
        let lookahead = config.propagation.max(PICOSECOND);
        let kernel = AnyKernel::from_spec(config.kernel, devices.len() as u32, lookahead);
        let mut fabric = Fabric {
            sim: Simulator::with_kernel(kernel),
            devices,
            config,
            counters: FabricCounters::default(),
            trace: TraceHandle::disabled(),
            packets: Arena::new(),
            scratch_ports: Vec::new(),
            scratch_commands: Vec::new(),
            traffic_flows: Vec::new(),
            flow_stats: Vec::new(),
            mcast_deliveries: BTreeMap::new(),
            dispatched: [0; Event::KINDS.len()],
            control_pending: 0,
            cut_latest: SimTime::ZERO,
        };
        // Scheduled faults go on the clock up front; the plan is pure
        // data, so replaying the same (seed, plan) replays these too.
        for fault in fabric.config.faults.events.clone() {
            let event = match fault.kind {
                FaultKind::LinkFlap {
                    device,
                    port,
                    down_for,
                } => Event::FaultLinkDown {
                    dev: DevId(device),
                    port,
                    down_for,
                },
                FaultKind::DeviceHang { device, duration } => Event::FaultDeviceHang {
                    dev: DevId(device),
                    duration,
                },
                FaultKind::DeviceSlow {
                    device,
                    factor,
                    duration,
                } => Event::FaultDeviceSlow {
                    dev: DevId(device),
                    factor,
                    duration,
                },
            };
            fabric.sched_at(SimTime::ZERO + fault.at, event);
        }
        // Churn events likewise: an inert plan materializes to nothing
        // (and seeds no RNG), so zero-rate runs replay churn-free runs
        // byte-for-byte.
        if !fabric.config.churn.is_inert() {
            for churn in fabric.config.churn.materialize(topo) {
                let event = match churn.action {
                    ChurnAction::LinkFlap {
                        device,
                        port,
                        down_for,
                    } => Event::ChurnFlap {
                        dev: DevId(device),
                        port,
                        down_for,
                    },
                    ChurnAction::DeviceRemove { device } => {
                        Event::ChurnRemove { dev: DevId(device) }
                    }
                    ChurnAction::DeviceAdd { device } => Event::ChurnAdd { dev: DevId(device) },
                };
                fabric.sched_at(SimTime::ZERO + churn.at, event);
            }
        }
        // Traffic likewise: an inert plan materializes to nothing (no RNG
        // seeded, no table written, no event scheduled), so zero-load
        // runs replay traffic-free runs byte-for-byte.
        if !fabric.config.traffic.is_inert() {
            let schedule = fabric
                .config
                .traffic
                .materialize(topo, fabric.config.byte_time);
            for w in &schedule.writes {
                fabric.devices[w.device as usize]
                    .config
                    .set_mcast_entry(w.group, w.mask);
            }
            for shot in &schedule.shots {
                let dev = DevId(schedule.flows[shot.flow as usize].src);
                let event = Event::TrafficInject {
                    dev,
                    flow: shot.flow,
                    seq: shot.seq,
                };
                fabric.sched_at(SimTime::ZERO + shot.at, event);
            }
            fabric.flow_stats = vec![FlowStats::default(); schedule.flows.len()];
            fabric.traffic_flows = schedule.flows;
        }
        fabric
    }

    /// Installs a trace sink on the fabric model and the simulator kernel.
    /// The fabric emits [`TraceEvent::Pi5Emitted`],
    /// [`TraceEvent::DeviceActivated`] and [`TraceEvent::DeviceDeactivated`];
    /// the kernel emits a [`TraceEvent::QueueSample`] on the first event at
    /// or past each multiple of `sample_period` of simulated time (zero
    /// disables sampling). Sampling on a simulated-time grid — instead of
    /// every N processed events — makes the samples land on identical cuts
    /// under every kernel. Pass the same handle to `FmConfig::trace` so
    /// manager-side events land in the same stream.
    pub fn set_trace(&mut self, trace: TraceHandle, sample_period: SimDuration) {
        self.sim.set_kernel_sampling(trace.clone(), sample_period);
        self.trace = trace;
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Model parameters.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Packet accounting.
    pub fn counters(&self) -> &FabricCounters {
        &self.counters
    }

    /// Live packet bodies in the payload arena. Every in-flight packet is
    /// freed at its single consumption or drop point, so this returns to 0
    /// after a drained run (the leak test checks exactly that).
    pub fn packet_arena_live(&self) -> usize {
        self.packets.live()
    }

    /// The flows materialized from the traffic plan (empty without one).
    pub fn traffic_flows(&self) -> &[FlowSpec] {
        &self.traffic_flows
    }

    /// Per-flow delivery statistics, parallel to
    /// [`Fabric::traffic_flows`].
    pub fn flow_stats(&self) -> &[FlowStats] {
        &self.flow_stats
    }

    /// Plan-driven multicast deliveries per `(group, member device)`.
    pub fn mcast_deliveries(&self) -> &BTreeMap<(u16, u32), u64> {
        &self.mcast_deliveries
    }

    /// Conservative-sync window statistics when running on the parallel
    /// kernel; `None` on the serial kernel.
    pub fn parallel_stats(&self) -> Option<ParallelStats> {
        self.sim.kernel().parallel_stats()
    }

    /// Total simulator events processed so far (arrivals, deliveries,
    /// serializer retries, credit returns, timers, …). The `stress` CLI
    /// mode divides this by wall time for an events/sec throughput
    /// figure.
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }

    /// Events dispatched so far per event kind (`"arrive"`, `"try_tx"`,
    /// `"credit_return"`, …), in a fixed order; the counts sum to
    /// [`Fabric::events_processed`].
    pub fn dispatch_counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Event::KINDS.iter().copied().zip(self.dispatched)
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// General information of a device.
    pub fn device_info(&self, dev: DevId) -> &DeviceInfo {
        &self.devices[dev.idx()].info
    }

    /// The live configuration space of a device (harness/bootstrap use;
    /// the FM reads it over the wire).
    pub fn config_space(&self, dev: DevId) -> &asi_proto::ConfigSpace {
        &self.devices[dev.idx()].config
    }

    /// Whether a device is powered.
    pub fn is_active(&self, dev: DevId) -> bool {
        self.devices[dev.idx()].active
    }

    /// State of `(dev, port)`.
    pub fn port_state(&self, dev: DevId, port: u8) -> PortState {
        self.devices[dev.idx()].ports[usize::from(port)].state
    }

    /// The device ids of all active devices reachable from `start` over
    /// active links (ground truth used to validate discovery results).
    pub fn active_reachable(&self, start: DevId) -> Vec<DevId> {
        let mut seen = vec![false; self.devices.len()];
        let mut out = Vec::new();
        if !self.devices[start.idx()].active {
            return out;
        }
        let mut queue = VecDeque::new();
        seen[start.idx()] = true;
        queue.push_back(start);
        while let Some(d) = queue.pop_front() {
            out.push(d);
            for port in &self.devices[d.idx()].ports {
                if port.state != PortState::Active {
                    continue;
                }
                if let Some((pd, _)) = port.peer {
                    if self.devices[pd.idx()].active && !seen[pd.idx()] {
                        seen[pd.idx()] = true;
                        queue.push_back(pd);
                    }
                }
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Wiring & control
    // ------------------------------------------------------------------

    /// Sets the FM-election priority advertised by an endpoint.
    pub fn set_fm_priority(&mut self, dev: DevId, priority: u8) {
        let d = &mut self.devices[dev.idx()];
        d.info.fm_priority = priority;
        d.config = asi_proto::ConfigSpace::new(d.info);
    }

    /// Installs a management agent on an endpoint.
    ///
    /// # Panics
    /// Panics if `dev` is a switch.
    pub fn set_agent(&mut self, dev: DevId, agent: Box<dyn FabricAgent>) {
        let d = &mut self.devices[dev.idx()];
        assert_eq!(
            d.info.device_type,
            DeviceType::Endpoint,
            "agents attach to endpoints"
        );
        d.agent = Some(AgentSlot {
            agent,
            queue: VecDeque::new(),
            busy: false,
        });
    }

    /// Borrow an installed agent downcast to its concrete type.
    pub fn agent_as<T: 'static>(&self, dev: DevId) -> Option<&T> {
        self.devices[dev.idx()]
            .agent
            .as_ref()
            .and_then(|s| s.agent.as_any().downcast_ref())
    }

    /// Mutably borrow an installed agent downcast to its concrete type.
    pub fn agent_as_mut<T: 'static>(&mut self, dev: DevId) -> Option<&mut T> {
        self.devices[dev.idx()]
            .agent
            .as_mut()
            .and_then(|s| s.agent.as_any_mut().downcast_mut())
    }

    /// Arms an agent timer from outside (e.g. the harness kicking off
    /// discovery at t=0).
    pub fn schedule_agent_timer(&mut self, dev: DevId, delay: SimDuration, token: u64) {
        self.sched_after(delay, Event::Timer { dev, token });
    }

    /// Configures the PI-5 reporting route of a device.
    pub fn set_fm_route(&mut self, dev: DevId, route: FmRoute) {
        self.devices[dev.idx()].fm_route = Some(route);
    }

    /// Removes all PI-5 reporting routes (e.g. before re-configuration).
    pub fn clear_fm_routes(&mut self) {
        for d in &mut self.devices {
            d.fm_route = None;
        }
    }

    /// Schedules a device power-up.
    pub fn schedule_activate(&mut self, dev: DevId, after: SimDuration) {
        self.sched_control_from_outside(after, Event::Activate { dev });
    }

    /// Schedules a device removal.
    pub fn schedule_deactivate(&mut self, dev: DevId, after: SimDuration) {
        self.sched_control_from_outside(after, Event::Deactivate { dev });
    }

    /// A control event from outside a dispatch is the one kind the
    /// no-control-event-pending guard of the cut-through commit could not
    /// have seen coming, so it fires no earlier than the latest
    /// outstanding commitment's start: no link goes down under a packet
    /// the queue path would still have been holding.
    fn sched_control_from_outside(&mut self, after: SimDuration, event: Event) {
        let at = (self.sim.now() + after).max(self.cut_latest);
        self.sched_at(at, event);
    }

    /// Activates every device `stagger` apart (transient bring-up).
    pub fn activate_all(&mut self, stagger: SimDuration) {
        for i in 0..self.devices.len() {
            self.schedule_activate(DevId(i as u32), stagger * i as u64);
        }
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Schedules a fabric event, routed to its device shard (or the
    /// control barrier) under the parallel kernel.
    fn sched_at(&mut self, at: SimTime, event: Event) {
        let target = target_of(&event);
        self.control_pending += u32::from(target == Target::Control);
        self.sim.schedule_event(at, target, event);
    }

    fn sched_after(&mut self, after: SimDuration, event: Event) {
        let at = self.sim.now() + after;
        self.sched_at(at, event);
    }

    /// Processes a single event. Returns `false` when idle.
    pub fn step(&mut self) -> bool {
        match self.sim.next_event() {
            Some(fired) => {
                self.dispatch(fired.event);
                self.sim.finish_dispatch();
                true
            }
            None => false,
        }
    }

    /// Runs until the event queue drains.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    /// Runs until `deadline` (events after it remain pending).
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(fired) = self.sim.next_event_until(deadline) {
            self.dispatch(fired.event);
            self.sim.finish_dispatch();
        }
    }

    /// Caps total processed events (test guard against feedback storms).
    pub fn set_event_limit(&mut self, limit: u64) {
        self.sim.set_event_limit(limit);
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn dispatch(&mut self, event: Event) {
        self.dispatched[event.kind()] += 1;
        self.control_pending -= u32::from(target_of(&event) == Target::Control);
        match event {
            Event::Arrive { dev, port, packet } => self.on_arrive(dev, port, packet),
            Event::Deliver { dev, port, packet } => self.on_deliver(dev, port, packet),
            Event::TryTx { dev, port } => self.on_try_tx(dev, port),
            Event::CreditReturn {
                dev,
                port,
                class,
                amount,
            } => {
                let p = &mut self.devices[dev.idx()].ports[usize::from(port)];
                p.peer_credits[class.idx()] += amount;
                self.pump(dev, port);
            }
            Event::AgentDone { dev } => self.on_agent_done(dev),
            Event::IngressDone { dev } => self.on_ingress_done(dev),
            Event::ResponderDone { dev } => self.on_responder_done(dev),
            Event::Timer { dev, token } => self.on_timer(dev, token),
            Event::PortTrained { dev, port } => self.on_port_trained(dev, port),
            Event::Activate { dev } => self.on_activate(dev),
            Event::Deactivate { dev } => self.on_deactivate(dev),
            Event::FaultLinkDown {
                dev,
                port,
                down_for,
            } => self.on_fault_link_down(dev, port, down_for),
            Event::FaultLinkUp { dev, port } => self.on_fault_link_up(dev, port),
            Event::FaultDeviceHang { dev, duration } => self.on_fault_device_hang(dev, duration),
            Event::FaultDeviceSlow {
                dev,
                factor,
                duration,
            } => self.on_fault_device_slow(dev, factor, duration),
            Event::ChurnFlap {
                dev,
                port,
                down_for,
            } => self.on_churn_flap(dev, port, down_for),
            Event::ChurnRemove { dev } => self.on_churn_remove(dev),
            Event::ChurnAdd { dev } => self.on_churn_add(dev),
            Event::TrafficInject { dev, flow, seq } => self.on_traffic_inject(dev, flow, seq),
        }
    }

    /// A traffic-plan shot fired: build the flow's packet and put it on
    /// the source's egress queue (stamped with the injection time for
    /// latency measurement). Shots at sources that are inactive or whose
    /// egress link is down are dropped, like any other arrival there.
    fn on_traffic_inject(&mut self, dev: DevId, flow: u32, seq: u32) {
        let now = self.sim.now();
        let spec = &self.traffic_flows[flow as usize];
        let egress = spec.egress;
        let d = &self.devices[dev.idx()];
        if !d.active || d.ports[usize::from(egress)].state != PortState::Active {
            self.counters.dropped_inactive += 1;
            return;
        }
        let packet = build_flow_packet(spec, flow, seq, now.as_ps());
        if matches!(spec.kind, FlowKind::Mcast { .. }) {
            self.counters.mcast_injected += 1;
        } else {
            self.counters.flow_injected += 1;
        }
        self.counters.injected += 1;
        self.trace.emit(now, || TraceEvent::FlowInjected { flow });
        let packet = PacketRef(self.packets.alloc(packet));
        self.enqueue_out(
            dev,
            egress,
            OutEntry {
                ready: now,
                packet,
                origin: None,
            },
        );
    }

    fn on_arrive(&mut self, dev: DevId, port: u8, packet: PacketRef) {
        let now = self.sim.now();
        let d = &self.devices[dev.idx()];
        if !d.active || d.ports[usize::from(port)].state != PortState::Active {
            self.counters.dropped_inactive += 1;
            self.packets.free(packet.0);
            return;
        }
        if matches!(self.packets.get(packet.0).payload, Payload::Mcast { .. }) {
            self.on_arrive_mcast(dev, port, packet);
            return;
        }
        let header = &self.packets.get(packet.0).header;
        let cursor = TurnCursor {
            pointer: header.turn_pointer,
            direction: header.direction,
        };
        if cursor.exhausted(&header.pool) {
            // This device is the destination: wait for the tail.
            let body = self.packets.get(packet.0);
            let remaining = body.wire_size().saturating_sub(body.header.wire_size() + 4);
            let at = now + self.config.tx_time(remaining);
            self.sched_at(at, Event::Deliver { dev, port, packet });
            return;
        }
        if d.info.device_type != DeviceType::Switch {
            // Turns left but nowhere to go.
            self.counters.dropped_bad_route += 1;
            self.release_origin_now(dev, port, packet);
            self.packets.free(packet.0);
            return;
        }
        let ports = d.info.port_count as u8;
        let width = turn_width(ports);
        let header = &mut self.packets.get_mut(packet.0).header;
        let egress = match cursor.take_turn(&header.pool, width) {
            Ok((turn, next)) => {
                header.turn_pointer = next.pointer;
                match header.direction {
                    asi_proto::Direction::Forward => apply_forward(port, turn, ports),
                    asi_proto::Direction::Backward => apply_backward(port, turn, ports),
                }
            }
            Err(_) => {
                self.counters.dropped_bad_route += 1;
                self.release_origin_now(dev, port, packet);
                self.packets.free(packet.0);
                return;
            }
        };
        if egress == port {
            self.counters.dropped_bad_route += 1;
            self.release_origin_now(dev, port, packet);
            self.packets.free(packet.0);
            return;
        }
        self.counters.forwarded += 1;
        let origin = self.origin_of(dev, port, packet);
        let ready = now + self.config.switch_latency;
        let entry = OutEntry {
            ready,
            packet,
            origin,
        };
        match self.cut_through_peer(dev, egress, &entry) {
            Some(peer) => {
                // Commit now what `pump` would do at `ready` (see the
                // module header).
                self.devices[dev.idx()].ports[usize::from(egress)].cut_until = ready;
                self.cut_latest = self.cut_latest.max(ready);
                self.counters.mgmt_queue_peak = self.counters.mgmt_queue_peak.max(1);
                self.transmit(dev, egress, CreditClass::Mgmt, entry, peer, ready);
            }
            None => self.enqueue_out(dev, egress, entry),
        }
    }

    /// The cut-through guard: the egress peer if `entry`'s transmission
    /// on `(dev, port)` at `entry.ready` is already determined now, at
    /// header arrival — nothing that can happen before `entry.ready`
    /// would make `pump` do anything but transmit it then. The module
    /// header gives the reason for each condition.
    fn cut_through_peer(&self, dev: DevId, port: u8, entry: &OutEntry) -> Option<(DevId, u8)> {
        if self.control_pending != 0 || !self.config.faults.loss.is_lossless() {
            return None;
        }
        let body = self.packets.get(entry.packet.0);
        if CreditClass::of(body) != CreditClass::Mgmt {
            return None;
        }
        let p = &self.devices[dev.idx()].ports[usize::from(port)];
        if p.state != PortState::Active
            || p.queued() != 0
            || p.busy_until > entry.ready
            || p.cut_until > self.sim.now()
        {
            return None;
        }
        if self.config.flow_control {
            let cost = self.config.credits_for(body.wire_size());
            if cost > self.config.mgmt_credits || p.peer_credits[CreditClass::Mgmt.idx()] < cost {
                return None;
            }
        }
        p.peer
    }

    /// Multicast forwarding: switches replicate along their configured
    /// group mask (a spanning tree installed by the FM's multicast group
    /// management); member endpoints consume.
    fn on_arrive_mcast(&mut self, dev: DevId, port: u8, packet: PacketRef) {
        let now = self.sim.now();
        let Payload::Mcast { group, len, hops } = self.packets.get(packet.0).payload else {
            unreachable!("caller checked");
        };
        let d = &self.devices[dev.idx()];
        match d.info.device_type {
            DeviceType::Switch => {
                // The input buffer is freed as soon as the replicas are
                // copied to the output queues.
                self.release_origin_now(dev, port, packet);
                if hops == 0 {
                    // Loop guard tripped: a misconfigured (cyclic) tree.
                    self.counters.dropped_bad_route += 1;
                    self.packets.free(packet.0);
                    return;
                }
                let mask = self.devices[dev.idx()].config.mcast_entry(group);
                let nports = self.devices[dev.idx()].ports.len() as u8;
                let mut replicated = false;
                for p in 0..nports.min(32) {
                    if p == port || (mask >> p) & 1 == 0 {
                        continue;
                    }
                    replicated = true;
                    self.counters.forwarded += 1;
                    let header = self.packets.get(packet.0).header.clone();
                    let replica = self.packets.alloc(Packet::new(
                        header,
                        Payload::Mcast {
                            group,
                            len,
                            hops: hops - 1,
                        },
                    ));
                    self.enqueue_out(
                        dev,
                        p,
                        OutEntry {
                            ready: now + self.config.switch_latency,
                            packet: PacketRef(replica),
                            origin: None,
                        },
                    );
                }
                if !replicated {
                    // Arrived at a switch with no onward branches: the
                    // tree does not point anywhere from here.
                    self.counters.dropped_bad_route += 1;
                }
                // The inbound copy is consumed here either way.
                self.packets.free(packet.0);
            }
            DeviceType::Endpoint => {
                if self.devices[dev.idx()].config.mcast_entry(group) != 0 {
                    let body = self.packets.get(packet.0);
                    let remaining = body.wire_size().saturating_sub(body.header.wire_size() + 4);
                    let at = now + self.config.tx_time(remaining);
                    self.sched_at(at, Event::Deliver { dev, port, packet });
                } else {
                    // Not a member: the NIC filter discards it.
                    self.release_origin_now(dev, port, packet);
                    self.packets.free(packet.0);
                }
            }
        }
    }

    /// Input-buffer release record for a packet that arrived at
    /// `(dev, port)` from a live upstream hop.
    fn origin_of(&self, dev: DevId, port: u8, packet: PacketRef) -> Option<CreditOrigin> {
        if !self.config.flow_control {
            return None;
        }
        let peer = self.devices[dev.idx()].ports[usize::from(port)].peer?;
        let body = self.packets.get(packet.0);
        Some(CreditOrigin {
            dev: peer.0,
            port: peer.1,
            class: CreditClass::of(body),
            amount: self.config.credits_for(body.wire_size()),
        })
    }

    fn release_origin_now(&mut self, dev: DevId, port: u8, packet: PacketRef) {
        if let Some(origin) = self.origin_of(dev, port, packet) {
            self.schedule_credit_return(origin, self.sim.now());
        }
    }

    /// Returns the credits of an input buffer freed at `freed_at`.
    fn schedule_credit_return(&mut self, origin: CreditOrigin, freed_at: SimTime) {
        // Only credit live upstream transmitters.
        let up = &self.devices[origin.dev.idx()];
        if !up.active {
            return;
        }
        self.sched_at(
            freed_at + self.config.propagation,
            Event::CreditReturn {
                dev: origin.dev,
                port: origin.port,
                class: origin.class,
                amount: origin.amount,
            },
        );
    }

    fn enqueue_out(&mut self, dev: DevId, port: u8, entry: OutEntry) {
        {
            let body = self.packets.get(entry.packet.0);
            let class = CreditClass::of(body);
            let bypass = body.header.oo;
            let p = &mut self.devices[dev.idx()].ports[usize::from(port)];
            match class {
                CreditClass::Mgmt => p.mgmt_q.push_back(entry),
                CreditClass::Data if bypass => p.bypass_q.push_back(entry),
                CreditClass::Data => p.data_q.push_back(entry),
            }
            // Occupancy high-water marks per VC class. Queue depths are
            // device-local, so under the kernel-identity contract the
            // peaks are identical across kernels and shard counts. A
            // cut-through commitment that has not started serializing
            // would still be in the management queue.
            let committed = usize::from(p.cut_until > self.sim.now());
            self.counters.mgmt_queue_peak = self
                .counters
                .mgmt_queue_peak
                .max((p.mgmt_q.len() + committed) as u64);
            self.counters.data_queue_peak = self
                .counters
                .data_queue_peak
                .max((p.bypass_q.len() + p.data_q.len()) as u64);
        }
        self.pump(dev, port);
    }

    /// A [`Event::TryTx`] wakeup fired. Only the wakeup recorded in
    /// `try_tx_at` pumps; earlier-armed duplicates that were superseded
    /// by a sooner wakeup are dropped here.
    fn on_try_tx(&mut self, dev: DevId, port: u8) {
        let now = self.sim.now();
        let p = &mut self.devices[dev.idx()].ports[usize::from(port)];
        if p.try_tx_at != now {
            return;
        }
        p.try_tx_at = NO_WAKEUP;
        self.pump(dev, port);
    }

    /// Attempts to start transmissions on `(dev, port)`.
    fn pump(&mut self, dev: DevId, port: u8) {
        let now = self.sim.now();
        // Drop everything if the port is unusable.
        let usable = {
            let d = &self.devices[dev.idx()];
            d.active && d.ports[usize::from(port)].state == PortState::Active
        };
        if !usable {
            self.drain_port(dev, port);
            return;
        }

        enum Action {
            Idle,
            Wait(SimTime),
            Stall,
            Oversized(CreditClass),
            Tx(CreditClass),
        }
        loop {
            let action = {
                let p = &self.devices[dev.idx()].ports[usize::from(port)];
                if p.queued() == 0 {
                    Action::Idle
                } else if p.busy_until > now {
                    Action::Wait(p.busy_until)
                } else {
                    // Management first, then the BVC bypass queue, then
                    // ordered data.
                    let (class, entry) = match (p.mgmt_q.front(), p.bypass_q.front()) {
                        (Some(e), _) => (CreditClass::Mgmt, e),
                        (None, Some(e)) => (CreditClass::Data, e),
                        (None, None) => (CreditClass::Data, p.data_q.front().expect("queued > 0")),
                    };
                    // Source injection rate limiting applies to data
                    // leaving an endpoint.
                    let is_endpoint =
                        self.devices[dev.idx()].info.device_type == DeviceType::Endpoint;
                    let rate_gate = if class == CreditClass::Data
                        && is_endpoint
                        && self.config.injection_rate_limit.is_some()
                        && p.rate_next > now
                    {
                        Some(p.rate_next)
                    } else {
                        None
                    };
                    if let Some(at) = rate_gate {
                        Action::Wait(at)
                    } else if entry.ready > now {
                        Action::Wait(entry.ready)
                    } else {
                        let cost = self
                            .config
                            .credits_for(self.packets.get(entry.packet.0).wire_size());
                        let capacity = match class {
                            CreditClass::Mgmt => self.config.mgmt_credits,
                            CreditClass::Data => self.config.data_credits,
                        };
                        if self.config.flow_control && cost > capacity {
                            // The packet can never fit the downstream
                            // buffer: drop instead of stalling forever.
                            Action::Oversized(class)
                        } else if self.config.flow_control && p.peer_credits[class.idx()] < cost {
                            Action::Stall
                        } else {
                            Action::Tx(class)
                        }
                    }
                }
            };
            match action {
                Action::Idle => return,
                Action::Wait(at) => {
                    let p = &mut self.devices[dev.idx()].ports[usize::from(port)];
                    if p.try_tx_at > at {
                        p.try_tx_at = at;
                        self.sched_at(at, Event::TryTx { dev, port });
                    }
                    return;
                }
                Action::Stall => {
                    // A CreditReturn will re-pump this port.
                    self.counters.credit_stalls += 1;
                    return;
                }
                Action::Oversized(class) => {
                    let entry = self.devices[dev.idx()].ports[usize::from(port)].pop_head(class);
                    self.counters.dropped_bad_route += 1;
                    if let Some(origin) = entry.origin {
                        self.schedule_credit_return(origin, now);
                    }
                    self.packets.free(entry.packet.0);
                }
                Action::Tx(class) => {
                    let p = &mut self.devices[dev.idx()].ports[usize::from(port)];
                    let (entry, peer) = (p.pop_head(class), p.peer);
                    let Some(peer) = peer else {
                        // Dangling port: count as link-down drop.
                        self.counters.dropped_link_down += 1;
                        if let Some(origin) = entry.origin {
                            self.schedule_credit_return(origin, now);
                        }
                        self.packets.free(entry.packet.0);
                        continue;
                    };
                    self.transmit(dev, port, class, entry, peer, now);
                }
            }
        }
    }

    /// Puts `entry` on the wire of `(dev, port)` toward `peer`, the
    /// serializer starting at `start`: `now` from `pump`, or the future
    /// `ready` of a cut-through commitment, whose guard has established
    /// that nothing else can claim the port or the credits before then.
    /// Everything downstream of the transmission is scheduled relative to
    /// `start`.
    fn transmit(
        &mut self,
        dev: DevId,
        port: u8,
        class: CreditClass,
        entry: OutEntry,
        (peer_dev, peer_port): (DevId, u8),
        start: SimTime,
    ) {
        let size = self.packets.get(entry.packet.0).wire_size();
        let cost = self.config.credits_for(size);
        let tx = self.config.tx_time(size);
        {
            let is_endpoint = self.devices[dev.idx()].info.device_type == DeviceType::Endpoint;
            let rate_debit = match (class, self.config.injection_rate_limit) {
                (CreditClass::Data, Some(rate)) if is_endpoint => {
                    Some(SimDuration::from_secs_f64(size as f64 / rate.max(1.0)))
                }
                _ => None,
            };
            let p = &mut self.devices[dev.idx()].ports[usize::from(port)];
            if self.config.flow_control {
                p.peer_credits[class.idx()] -= cost;
            }
            p.busy_until = start + tx;
            if let Some(debit) = rate_debit {
                p.rate_next = p.rate_next.max(start) + debit;
            }
        }
        match class {
            CreditClass::Mgmt => self.counters.mgmt_bytes += size as u64,
            CreditClass::Data => self.counters.data_bytes += size as u64,
        }
        // Injected loss: the receiver's CRC discards the packet. Its
        // input buffer is freed immediately, so the consumed credits
        // bounce straight back.
        let lost = self.draw_loss(dev, port);
        if lost {
            self.counters.dropped_corrupted += 1;
            self.trace.emit(start, || TraceEvent::FaultPacketLost {
                device: dev.0,
                port: u16::from(port),
            });
            if self.config.flow_control {
                self.sched_at(
                    start + self.config.propagation * 2,
                    Event::CreditReturn {
                        dev,
                        port,
                        class,
                        amount: cost,
                    },
                );
            }
            self.packets.free(entry.packet.0);
        } else {
            // Header arrival downstream (virtual cut-through).
            let header_bytes = self.packets.get(entry.packet.0).header.wire_size() + 4;
            let arrive_at = start + self.config.tx_time(header_bytes) + self.config.propagation;
            self.sched_at(
                arrive_at,
                Event::Arrive {
                    dev: peer_dev,
                    port: peer_port,
                    packet: entry.packet,
                },
            );
        }
        // The packet has left this device: release the input buffer it
        // occupied upstream.
        if let Some(origin) = entry.origin {
            self.schedule_credit_return(origin, start);
        }
    }

    /// Draws the loss decision for one transmission on `(dev, port)`,
    /// advancing the link's Gilbert–Elliott state if the model is
    /// bursty. Draws come from the *transmitting device's* own stream,
    /// so they depend only on that device's dispatch order — identical
    /// under every kernel. Zero probabilities short-circuit before
    /// consuming a random draw where the decision is already known, and
    /// a draw never changes scheduling — so a lossless model replays the
    /// loss-free run byte-for-byte.
    fn draw_loss(&mut self, dev: DevId, port: u8) -> bool {
        match self.config.faults.loss {
            LossModel::None => false,
            LossModel::Uniform { p } => p > 0.0 && self.devices[dev.idx()].rng.gen_bool(p),
            LossModel::GilbertElliott {
                p_enter_bad,
                p_exit_bad,
                loss_good,
                loss_bad,
            } => {
                let d = &mut self.devices[dev.idx()];
                let was_bad = d.ports[usize::from(port)].ge_bad;
                let flip_p = if was_bad { p_exit_bad } else { p_enter_bad };
                let now_bad = if flip_p > 0.0 && d.rng.gen_bool(flip_p) {
                    !was_bad
                } else {
                    was_bad
                };
                d.ports[usize::from(port)].ge_bad = now_bad;
                let p = if now_bad { loss_bad } else { loss_good };
                p > 0.0 && d.rng.gen_bool(p)
            }
        }
    }

    fn drain_port(&mut self, dev: DevId, port: u8) {
        // Pop one entry at a time instead of collecting into an interim
        // Vec: this runs on every pump() of a downed port.
        loop {
            let entry = {
                let p = &mut self.devices[dev.idx()].ports[usize::from(port)];
                p.mgmt_q
                    .pop_front()
                    .or_else(|| p.bypass_q.pop_front())
                    .or_else(|| p.data_q.pop_front())
            };
            let Some(e) = entry else { break };
            self.counters.dropped_link_down += 1;
            if let Some(origin) = e.origin {
                self.schedule_credit_return(origin, self.sim.now());
            }
            self.packets.free(e.packet.0);
        }
    }

    fn on_deliver(&mut self, dev: DevId, port: u8, packet: PacketRef) {
        let d = &self.devices[dev.idx()];
        if !d.active {
            self.counters.dropped_inactive += 1;
            self.packets.free(packet.0);
            return;
        }
        // The packet has been copied out of the input buffer: release it.
        self.release_origin_now(dev, port, packet);

        // Traffic-plan deliveries are consumed by the fabric itself: flow
        // packets always, multicast packets when the member endpoint runs
        // no agent (agent-driven multicast keeps its delivery path).
        match self.packets.get(packet.0).payload {
            Payload::Flow {
                flow, sent_ps, len, ..
            } => {
                let now = self.sim.now();
                let latency = now.as_ps().saturating_sub(sent_ps);
                self.counters.delivered += 1;
                self.counters.flow_delivered += 1;
                self.counters.flow_bytes += u64::from(len);
                if let Some(stats) = self.flow_stats.get_mut(flow as usize) {
                    stats.delivered += 1;
                    stats.bytes += u64::from(len);
                    stats.latency_ps.push(latency);
                }
                self.trace.emit(now, || TraceEvent::FlowDelivered {
                    flow,
                    latency_ps: latency,
                });
                self.packets.free(packet.0);
                return;
            }
            Payload::Mcast { group, .. } if self.devices[dev.idx()].agent.is_none() => {
                self.counters.delivered += 1;
                self.counters.mcast_delivered += 1;
                *self.mcast_deliveries.entry((group, dev.0)).or_insert(0) += 1;
                self.trace
                    .emit(self.sim.now(), || TraceEvent::McastDelivered {
                        group,
                        device: dev.0,
                    });
                self.packets.free(packet.0);
                return;
            }
            _ => {}
        }

        let (is_request, is_completion) = {
            let body = self.packets.get(packet.0);
            let is_request = matches!(&body.payload, Payload::Pi4(p) if p.is_request());
            let is_completion = !is_request && matches!(body.payload, Payload::Pi4(_));
            (is_request, is_completion)
        };
        if is_completion {
            // Injected completion corruption: the end-to-end CRC catches
            // the mangled payload at delivery, so the completion is
            // discarded whole and the requester times out (a silently
            // garbled completion would leave a permanent hole instead).
            // Corruption and duplication are drawn from the *receiving*
            // device's stream (kernel-order independent).
            let p_corrupt = self.config.faults.corrupt_completions;
            if p_corrupt > 0.0 && self.devices[dev.idx()].rng.gen_bool(p_corrupt) {
                self.counters.dropped_corrupted += 1;
                self.counters.completions_corrupted += 1;
                self.trace
                    .emit(self.sim.now(), || TraceEvent::FaultCompletionCorrupted {
                        device: dev.0,
                    });
                self.packets.free(packet.0);
                return;
            }
        }
        self.counters.delivered += 1;
        if is_request {
            self.responder_enqueue(dev, port, packet);
        } else {
            if is_completion {
                // Injected duplication: the requester sees the completion
                // twice; the second copy carries a since-retired req_id
                // and must be ignored upstream.
                let p_dup = self.config.faults.duplicate_completions;
                if p_dup > 0.0 && self.devices[dev.idx()].rng.gen_bool(p_dup) {
                    self.counters.completions_duplicated += 1;
                    self.trace
                        .emit(self.sim.now(), || TraceEvent::FaultCompletionDuplicated {
                            device: dev.0,
                        });
                    let dup = self.packets.get(packet.0).clone();
                    let dup = PacketRef(self.packets.alloc(dup));
                    self.ingress_enqueue(dev, dup);
                }
            }
            self.ingress_enqueue(dev, packet);
        }
    }

    /// Inbound management pipe: one device-time per received packet, then
    /// the agent queue.
    fn ingress_enqueue(&mut self, dev: DevId, packet: PacketRef) {
        let busy = {
            let pipe = &mut self.devices[dev.idx()].ingress;
            pipe.queue.push_back(packet);
            pipe.busy
        };
        if !busy {
            self.devices[dev.idx()].ingress.busy = true;
            let t = self.config.effective_device_time();
            self.sched_after(t, Event::IngressDone { dev });
        }
    }

    fn on_ingress_done(&mut self, dev: DevId) {
        if !self.devices[dev.idx()].active {
            return;
        }
        let packet = self.devices[dev.idx()].ingress.queue.pop_front();
        let Some(packet) = packet else {
            self.devices[dev.idx()].ingress.busy = false;
            return;
        };
        self.agent_enqueue(dev, packet);
        if self.devices[dev.idx()].ingress.queue.is_empty() {
            self.devices[dev.idx()].ingress.busy = false;
        } else {
            let t = self.config.effective_device_time();
            self.sched_after(t, Event::IngressDone { dev });
        }
    }

    // ---------------- PI-4 responder ----------------

    /// Per-request responder servicing time, including any active
    /// slow-device fault.
    fn responder_service_time(&self, dev: DevId) -> SimDuration {
        let base = self.config.effective_device_time();
        let d = &self.devices[dev.idx()];
        if self.sim.now() < d.slow_until {
            base.scaled(d.slow_factor)
        } else {
            base
        }
    }

    fn responder_enqueue(&mut self, dev: DevId, port: u8, packet: PacketRef) {
        let busy = {
            let r = &mut self.devices[dev.idx()].responder;
            r.queue.push_back((port, packet));
            r.busy
        };
        if !busy {
            self.devices[dev.idx()].responder.busy = true;
            let t = self.responder_service_time(dev);
            self.sched_after(t, Event::ResponderDone { dev });
        }
    }

    fn on_responder_done(&mut self, dev: DevId) {
        if !self.devices[dev.idx()].active {
            return;
        }
        // A hung responder holds every serviced request until the hang
        // ends; the pending completion (and the rest of the queue) is
        // deferred, not lost.
        let hang_until = self.devices[dev.idx()].hang_until;
        if self.sim.now() < hang_until {
            self.sched_at(hang_until, Event::ResponderDone { dev });
            return;
        }
        let item = self.devices[dev.idx()].responder.queue.pop_front();
        let Some((port, packet)) = item else {
            self.devices[dev.idx()].responder.busy = false;
            return;
        };
        // The request is consumed by servicing; the reply is a fresh body.
        let request = self.packets.take(packet.0);
        let reply = self.service_pi4(dev, &request);
        if let Some(reply) = reply {
            self.counters.injected += 1;
            let reply = PacketRef(self.packets.alloc(reply));
            self.enqueue_out(
                dev,
                port,
                OutEntry {
                    ready: self.sim.now(),
                    packet: reply,
                    origin: None,
                },
            );
        }
        // Continue with the next request, if any.
        let more = !self.devices[dev.idx()].responder.queue.is_empty();
        if more {
            let t = self.responder_service_time(dev);
            self.sched_after(t, Event::ResponderDone { dev });
        } else {
            self.devices[dev.idx()].responder.busy = false;
        }
    }

    fn service_pi4(&mut self, dev: DevId, request: &Packet) -> Option<Packet> {
        let Payload::Pi4(pi4) = &request.payload else {
            return None;
        };
        let d = &mut self.devices[dev.idx()];
        let reply_payload = match pi4 {
            Pi4::ReadRequest {
                req_id,
                addr,
                dwords,
            } => match d.config.read(*addr, *dwords) {
                Ok(data) => Pi4::ReadCompletion {
                    req_id: *req_id,
                    data,
                },
                Err(status) => Pi4::ReadError {
                    req_id: *req_id,
                    status,
                },
            },
            Pi4::WriteRequest { req_id, addr, data } => match d.config.write(*addr, data) {
                Ok(()) => Pi4::WriteCompletion { req_id: *req_id },
                Err(status) => Pi4::ReadError {
                    req_id: *req_id,
                    status,
                },
            },
            _ => return None,
        };
        let header = request.header.reply(ProtocolInterface::DeviceManagement);
        Some(Packet::new(header, Payload::Pi4(reply_payload)))
    }

    // ---------------- endpoint agents ----------------

    fn agent_enqueue(&mut self, dev: DevId, packet: PacketRef) {
        let d = &mut self.devices[dev.idx()];
        let Some(slot) = d.agent.as_mut() else {
            // No consumer: a completion for a dead manager, or data to a
            // plain endpoint. Count as a bad route so tests notice.
            self.counters.dropped_bad_route += 1;
            self.packets.free(packet.0);
            return;
        };
        slot.queue.push_back(packet);
        if !slot.busy {
            slot.busy = true;
            let head = *slot.queue.front().expect("just pushed");
            let t = slot.agent.processing_time(self.packets.get(head.0));
            self.sched_after(t, Event::AgentDone { dev });
        }
    }

    fn on_agent_done(&mut self, dev: DevId) {
        if !self.devices[dev.idx()].active {
            return;
        }
        let mut ctx = self.make_ctx(dev);
        let next_delay = {
            let d = &mut self.devices[dev.idx()];
            let Some(slot) = d.agent.as_mut() else { return };
            let Some(packet) = slot.queue.pop_front() else {
                slot.busy = false;
                return;
            };
            // The agent consumes the packet: move it out of the arena.
            let packet = self.packets.take(packet.0);
            slot.agent.on_packet(&mut ctx, packet);
            match slot.queue.front() {
                Some(next) => {
                    let t = slot.agent.processing_time(self.packets.get(next.0));
                    Some(t)
                }
                None => {
                    slot.busy = false;
                    None
                }
            }
        };
        if let Some(t) = next_delay {
            self.sched_after(t, Event::AgentDone { dev });
        }
        self.finish_ctx(dev, ctx);
    }

    fn on_timer(&mut self, dev: DevId, token: u64) {
        if !self.devices[dev.idx()].active {
            return;
        }
        let mut ctx = self.make_ctx(dev);
        {
            let d = &mut self.devices[dev.idx()];
            let Some(slot) = d.agent.as_mut() else { return };
            slot.agent.on_timer(&mut ctx, token);
        }
        self.finish_ctx(dev, ctx);
    }

    /// Executes the commands an agent queued on `ctx`, then reclaims the
    /// context's buffers for the next callback.
    fn finish_ctx(&mut self, dev: DevId, mut ctx: AgentCtx) {
        let mut commands = ctx.take_commands();
        self.scratch_ports = std::mem::take(&mut ctx.host_ports);
        for cmd in commands.drain(..) {
            match cmd {
                AgentCommand::Send { port, packet } => {
                    self.counters.injected += 1;
                    let packet = PacketRef(self.packets.alloc(packet));
                    self.enqueue_out(
                        dev,
                        port,
                        OutEntry {
                            ready: self.sim.now(),
                            packet,
                            origin: None,
                        },
                    );
                }
                AgentCommand::Timer { delay, token } => {
                    self.sched_after(delay, Event::Timer { dev, token });
                }
            }
        }
        self.scratch_commands = commands;
    }

    /// Builds an agent callback context with a snapshot of the host
    /// endpoint's own configuration, reusing the fabric's scratch buffers
    /// (returned by [`Fabric::finish_ctx`]) to avoid per-callback
    /// allocation.
    fn make_ctx(&mut self, dev: DevId) -> AgentCtx {
        let mut ports = std::mem::take(&mut self.scratch_ports);
        ports.clear();
        let d = &self.devices[dev.idx()];
        for p in 0..d.info.port_count {
            ports.push(*d.config.port(p).expect("port in range"));
        }
        let mut ctx = AgentCtx::new(self.sim.now(), dev, d.info, ports);
        ctx.recycle_commands(std::mem::take(&mut self.scratch_commands));
        ctx
    }

    // ---------------- activation & port state ----------------

    fn on_activate(&mut self, dev: DevId) {
        if self.devices[dev.idx()].active {
            return;
        }
        self.devices[dev.idx()].active = true;
        self.trace
            .emit(self.sim.now(), || TraceEvent::DeviceActivated {
                device: dev.0,
            });
        // Train every link whose peer is already active.
        let nports = self.devices[dev.idx()].ports.len() as u8;
        for port in 0..nports {
            let Some((peer_dev, peer_port)) = self.devices[dev.idx()].ports[usize::from(port)].peer
            else {
                continue;
            };
            if !self.devices[peer_dev.idx()].active {
                continue;
            }
            self.begin_training(dev, port);
            self.begin_training(peer_dev, peer_port);
        }
    }

    fn begin_training(&mut self, dev: DevId, port: u8) {
        let p = &mut self.devices[dev.idx()].ports[usize::from(port)];
        if p.state != PortState::Down {
            return;
        }
        p.state = PortState::Training;
        self.sync_port_config(dev, port);
        self.sched_after(self.config.train_time, Event::PortTrained { dev, port });
    }

    fn on_port_trained(&mut self, dev: DevId, port: u8) {
        {
            let d = &mut self.devices[dev.idx()];
            if !d.active {
                return;
            }
            let p = &mut d.ports[usize::from(port)];
            if p.state != PortState::Training {
                return;
            }
            // The peer may have been deactivated mid-training.
            if let Some((peer_dev, _)) = p.peer {
                if !self.devices[peer_dev.idx()].active {
                    self.devices[dev.idx()].ports[usize::from(port)].state = PortState::Down;
                    self.sync_port_config(dev, port);
                    return;
                }
            }
            let p = &mut self.devices[dev.idx()].ports[usize::from(port)];
            p.state = PortState::Active;
            // Fresh link: peer buffers are empty.
            p.peer_credits = [self.config.mgmt_credits, self.config.data_credits];
            p.busy_until = self.sim.now();
        }
        self.sync_port_config(dev, port);
        self.notify_port_change(dev, port, PortEvent::PortUp);
        self.pump(dev, port);
    }

    fn on_deactivate(&mut self, dev: DevId) {
        if !self.devices[dev.idx()].active {
            return;
        }
        self.devices[dev.idx()].active = false;
        self.trace
            .emit(self.sim.now(), || TraceEvent::DeviceDeactivated {
                device: dev.0,
            });
        let nports = self.devices[dev.idx()].ports.len() as u8;
        for port in 0..nports {
            // Own side: silent death.
            {
                let p = &mut self.devices[dev.idx()].ports[usize::from(port)];
                p.state = PortState::Down;
            }
            self.sync_port_config(dev, port);
            self.drain_port(dev, port);
            // Peer side: carrier loss.
            let peer = self.devices[dev.idx()].ports[usize::from(port)].peer;
            if let Some((peer_dev, peer_port)) = peer {
                let peer_active = self.devices[peer_dev.idx()].active;
                let peer_state = self.devices[peer_dev.idx()].ports[usize::from(peer_port)].state;
                if peer_active && peer_state != PortState::Down {
                    self.devices[peer_dev.idx()].ports[usize::from(peer_port)].state =
                        PortState::Down;
                    self.sync_port_config(peer_dev, peer_port);
                    self.drain_port(peer_dev, peer_port);
                    self.notify_port_change(peer_dev, peer_port, PortEvent::PortDown);
                }
            }
        }
        // Clear local consumers; queued packets are lost with the device.
        let d = &mut self.devices[dev.idx()];
        let mut lost = d.responder.queue.len() + d.ingress.queue.len();
        for (_, packet) in d.responder.queue.drain(..) {
            self.packets.free(packet.0);
        }
        d.responder.busy = false;
        for packet in d.ingress.queue.drain(..) {
            self.packets.free(packet.0);
        }
        d.ingress.busy = false;
        if let Some(slot) = d.agent.as_mut() {
            lost += slot.queue.len();
            for packet in slot.queue.drain(..) {
                self.packets.free(packet.0);
            }
            slot.busy = false;
        }
        self.counters.dropped_inactive += lost as u64;
    }

    fn sync_port_config(&mut self, dev: DevId, port: u8) {
        let d = &mut self.devices[dev.idx()];
        let p = &d.ports[usize::from(port)];
        let state = p.state;
        // The partner's port number is exchanged during link training.
        let peer_port = match (state, p.peer) {
            (PortState::Active, Some((_, pp))) => pp,
            _ => 0,
        };
        d.config.set_port(
            u16::from(port),
            PortInfo {
                state,
                link_width: 1,
                link_speed: 10,
                peer_port,
            },
        );
    }

    /// Fires the local agent's port-event hook and emits PI-5 toward the
    /// FM if a reporting route is configured.
    fn notify_port_change(&mut self, dev: DevId, port: u8, event: PortEvent) {
        // Local agent callback (e.g. the FM watching its own link).
        let has_agent = self.devices[dev.idx()].agent.is_some();
        if has_agent {
            let mut ctx = self.make_ctx(dev);
            {
                let d = &mut self.devices[dev.idx()];
                let slot = d.agent.as_mut().expect("checked");
                slot.agent.on_port_event(&mut ctx, port, event);
            }
            self.finish_ctx(dev, ctx);
        }
        // PI-5 report.
        let (route, dsn, seq) = {
            let d = &mut self.devices[dev.idx()];
            let Some(route) = d.fm_route.clone() else {
                return;
            };
            // Sequences are modular (RFC-1982 comparison at the FM), so
            // a long-lived reporter wraps rather than overflowing.
            d.pi5_seq = d.pi5_seq.wrapping_add(1);
            (route, d.info.dsn, d.pi5_seq)
        };
        // Don't report through the port that just died.
        if route.egress == port && event == PortEvent::PortDown {
            return;
        }
        let header =
            RouteHeader::forward(ProtocolInterface::EventReporting, MANAGEMENT_TC, route.pool);
        let packet = Packet::new(
            header,
            Payload::Pi5(Pi5 {
                reporter_dsn: dsn,
                port,
                event,
                sequence: seq,
            }),
        );
        self.counters.pi5_emitted += 1;
        self.counters.injected += 1;
        let up = event == PortEvent::PortUp;
        self.trace.emit(self.sim.now(), || TraceEvent::Pi5Emitted {
            dsn,
            port: u16::from(port),
            up,
        });
        let packet = PacketRef(self.packets.alloc(packet));
        self.enqueue_out(
            dev,
            route.egress,
            OutEntry {
                ready: self.sim.now(),
                packet,
                origin: None,
            },
        );
    }

    // ---------------- injected faults ----------------

    /// True when a scheduled fault names a `(dev, port)` that exists.
    /// Plans are user data, so out-of-range targets are ignored rather
    /// than crashing the run.
    fn fault_link_exists(&self, dev: DevId, port: u8) -> bool {
        dev.idx() < self.devices.len() && usize::from(port) < self.devices[dev.idx()].ports.len()
    }

    /// A link flap's down edge: both ends lose carrier and drain their
    /// queues, and — unlike [`Fabric::on_deactivate`], where the dying
    /// device is silent — *both* sides report a PI-5 `PortDown`, since
    /// both devices stay alive. The up edge is scheduled `down_for`
    /// later.
    fn on_fault_link_down(&mut self, dev: DevId, port: u8, down_for: SimDuration) {
        if !self.fault_link_exists(dev, port) {
            return;
        }
        let Some((peer_dev, peer_port)) = self.devices[dev.idx()].ports[usize::from(port)].peer
        else {
            return;
        };
        self.counters.link_flaps += 1;
        self.trace
            .emit(self.sim.now(), || TraceEvent::FaultLinkDown {
                device: dev.0,
                port: u16::from(port),
            });
        for (d, p) in [(dev, port), (peer_dev, peer_port)] {
            let alive = self.devices[d.idx()].active;
            let state = self.devices[d.idx()].ports[usize::from(p)].state;
            if state != PortState::Down {
                self.devices[d.idx()].ports[usize::from(p)].state = PortState::Down;
                self.sync_port_config(d, p);
                self.drain_port(d, p);
                if alive {
                    self.notify_port_change(d, p, PortEvent::PortDown);
                }
            }
        }
        self.sched_after(down_for, Event::FaultLinkUp { dev, port });
    }

    /// A link flap's up edge: retrain both ends (training only starts
    /// from `Down`, so a link that was re-activated meanwhile is left
    /// alone). The resulting `PortTrained` → PI-5 `PortUp` path is the
    /// same one device activation uses.
    fn on_fault_link_up(&mut self, dev: DevId, port: u8) {
        if !self.fault_link_exists(dev, port) {
            return;
        }
        let Some((peer_dev, peer_port)) = self.devices[dev.idx()].ports[usize::from(port)].peer
        else {
            return;
        };
        if !self.devices[dev.idx()].active || !self.devices[peer_dev.idx()].active {
            return;
        }
        self.trace.emit(self.sim.now(), || TraceEvent::FaultLinkUp {
            device: dev.0,
            port: u16::from(port),
        });
        self.begin_training(dev, port);
        self.begin_training(peer_dev, peer_port);
    }

    fn on_fault_device_hang(&mut self, dev: DevId, duration: SimDuration) {
        if dev.idx() >= self.devices.len() {
            return;
        }
        let until = self.sim.now() + duration;
        let d = &mut self.devices[dev.idx()];
        if until > d.hang_until {
            d.hang_until = until;
        }
        self.trace
            .emit(self.sim.now(), || TraceEvent::FaultDeviceHang {
                device: dev.0,
            });
    }

    fn on_fault_device_slow(&mut self, dev: DevId, factor: f64, duration: SimDuration) {
        if dev.idx() >= self.devices.len() {
            return;
        }
        let until = self.sim.now() + duration;
        let d = &mut self.devices[dev.idx()];
        d.slow_until = until;
        d.slow_factor = factor;
        self.trace
            .emit(self.sim.now(), || TraceEvent::FaultDeviceSlow {
                device: dev.0,
            });
    }

    // ------------------------------------------------------------------
    // Churn-plan events: thin provenance wrappers over the shared
    // link-down / activate / deactivate machinery, so churned runs
    // exercise exactly the hot-plug paths manual experiments use.
    // ------------------------------------------------------------------

    fn on_churn_flap(&mut self, dev: DevId, port: u8, down_for: SimDuration) {
        if !self.fault_link_exists(dev, port) {
            return;
        }
        self.counters.churn_events += 1;
        self.trace
            .emit(self.sim.now(), || TraceEvent::ChurnLinkFlap {
                device: dev.0,
                port: u16::from(port),
            });
        self.on_fault_link_down(dev, port, down_for);
    }

    fn on_churn_remove(&mut self, dev: DevId) {
        if dev.idx() >= self.devices.len() {
            return;
        }
        self.counters.churn_events += 1;
        self.trace
            .emit(self.sim.now(), || TraceEvent::ChurnDeviceRemoved {
                device: dev.0,
            });
        self.on_deactivate(dev);
    }

    fn on_churn_add(&mut self, dev: DevId) {
        if dev.idx() >= self.devices.len() {
            return;
        }
        self.counters.churn_events += 1;
        self.trace
            .emit(self.sim.now(), || TraceEvent::ChurnDeviceReadded {
                device: dev.0,
            });
        self.on_activate(dev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fabric holds one `Port` per switch port whether wired or not
    /// (131,072 on `mesh:64x64`), so a word more here is a percent more
    /// set-up memory there. `cut_until` took the word `try_tx_at` gave
    /// up by becoming a sentinel instead of an `Option`.
    #[test]
    fn port_is_no_larger_than_before_the_cut_through_commit() {
        assert_eq!(std::mem::size_of::<Port>(), 152);
    }

    #[test]
    fn every_event_kind_has_a_name() {
        let topo = asi_topo::mesh(2, 2).unwrap().topology;
        let mut fabric = Fabric::new(&topo, FabricConfig::default());
        fabric.activate_all(SimDuration::ZERO);
        fabric.run_until_idle();
        let counts: Vec<_> = fabric.dispatch_counts().collect();
        assert_eq!(counts.len(), Event::KINDS.len());
        // Bring-up is activations and link training and nothing else.
        for (kind, n) in counts {
            let expected = match kind {
                "activate" => 8,
                "port_trained" => 16,
                _ => 0,
            };
            assert_eq!(n, expected, "{kind}");
        }
        assert_eq!(fabric.events_processed(), 24);
    }
}
