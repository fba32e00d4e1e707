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
//! ## Layout
//!
//! This file keeps [`Fabric`] itself: construction, accessors, the
//! control API, the run loop and the event table. Each handler lives
//! with the state machine it drives (drawn in docs/ARCHITECTURE.md):
//!
//! | file | state machine |
//! |---|---|
//! | `fabric/port.rs` | a port: training and carrier, borrowed output queues → `pump` → `transmit`, credits and their ledger, loss |
//! | `fabric/switch.rs` | a header arriving: route step, commit or queue, multicast replication |
//! | `fabric/endpoint.rs` | a packet delivered: the serial stages (ingress, PI-4 responder, agent), agent callbacks, traffic arrivals |
//! | `fabric/inject.rs` | the outside world: activation, scheduled faults, churn |
//!
//! `fabric/packets.rs` holds the packet bodies at rest — whole packets in
//! one slab, the traffic plan's unicast packets as 16-byte flow bodies in
//! another — and the accessors every handler reads them through.
//!
//! The cut-through commit and the credit ledger (an uncontended
//! management packet crosses a switch in one kernel event, not three),
//! with the guard list and the rule list that make them unobservable,
//! are documented in the module header of `port.rs`; so is what a port
//! holds (one cache line) and what it borrows from the fabric-wide
//! queue pool while it has something queued. The serial stages borrow
//! their FIFOs the same way, from a pool of the same kind
//! (`endpoint.rs`). And a device's configuration space stores only its
//! writable registers: a PI-4 read of the baseline capability encodes
//! the device's own [`DeviceInfo`] and live ports ([`Device`]).

use crate::agent::{AgentCommand, AgentCtx, DevId, FabricAgent};
use crate::churn::ChurnAction;
use crate::config::FabricConfig;
use crate::counters::FabricCounters;
use crate::faults::{FaultKind, LossModel};
use crate::traffic::{build_flow_packet, FlowClock, FlowSpec};
use asi_proto::{
    apply_backward, apply_forward, turn_width, CapabilityAddr, ConfigSpace, DeviceInfo, DeviceType,
    Direction, Dwords, Packet, Payload, Pi4, Pi4Status, Pi5, PortEvent, PortInfo, PortState,
    ProtocolInterface, RouteHeader, TurnCursor, TurnPool, MANAGEMENT_TC,
};
use asi_sim::{
    AnyKernel, Arena, EventKey, KernelSpec, ParallelStats, SimDuration, SimRng, SimTime, Simulator,
    Target, TraceEvent, TraceHandle, EXTERNAL_RANK, PICOSECOND,
};
use asi_topo::Topology;
use std::collections::{HashMap, VecDeque};

mod endpoint;
mod inject;
mod packets;
mod port;
mod switch;

use endpoint::{AgentSlot, Fifos, Held, Responder, Stage, Traffic};
use packets::{FlowBody, PacketRef, Packets};
use port::{CreditClass, Ledger, OutEntry, Pool, Port, QueueSet, Queues, Spill, Training, NIL};

/// One device. `repr(C)`: the declaration order is the memory order, and
/// what a switch hop reads of the two devices it touches — whether the
/// device is up, its port array, its type and port count, its ledger —
/// comes first, in one cache line (pinned by a test below); what only
/// a delivery, an agent callback or the control path reads follows.
///
/// A fabric holds one per device, tens of thousands on the large ones,
/// so a device holds only what nothing else holds, and what few devices
/// use is a word each, out of line: the agent (on the endpoints that
/// host one), the responder's hang and slow faults (from the first such
/// fault) and the configuration space's writable registers (from their
/// first write; the PI-5 reporting route is one of them, written by the
/// FM after discovery). The configuration space stores no copy of the baseline
/// capability: a read encodes `info` and the ports as they are
/// ([`Device::read_config`]). A serial stage is a handle and an instant;
/// its FIFO is on loan from [`Fabric::fifos`] only while it holds
/// something. The loss, corruption and duplication stream is not here at
/// all: it is in [`DeviceRngs`], from the device's first draw; nor are
/// the credit returns owed beyond the ledger's first, which few devices
/// are ever owed at once: they are in [`Fabric::spill`], and a device
/// holds a flag.
#[repr(C)]
struct Device {
    info: DeviceInfo,
    ports: Box<[Port]>,
    /// The first credit return owed to `ports` that spent no event
    /// (`port.rs`); the rest spill to [`Fabric::spill`].
    ledger: Ledger,
    pi5_seq: u32,
    active: bool,
    /// True while [`Fabric::spill`] holds returns owed to `ports`.
    spilled: bool,
    // ---- cold from here on ----
    /// The writable registers; the baseline capability is `info` and
    /// `ports`.
    config: ConfigSpace,
    responder: Responder,
    /// Inbound management pipe in front of the agent: the endpoint's PI-4
    /// engine handles each received management packet for the device
    /// processing time before the agent software sees it. This stage is
    /// what makes a very slow device family (factor < ~T_dev/T_FM ≈ 1/3)
    /// finally pace even the Parallel discovery (paper Fig. 8b).
    ingress: Stage,
    agent: Option<Box<AgentSlot>>,
}

/// Each device's random stream for loss, corruption and duplication
/// draws, derived from the fabric seed and the device id and created at
/// the device's first draw, so a fault-free run holds none. Device-local
/// draws depend only on that device's own dispatch order — which every
/// kernel preserves — so faulted runs stay byte-identical across kernels.
struct DeviceRngs {
    seed: u64,
    streams: HashMap<u32, SimRng>,
}

impl DeviceRngs {
    /// `dev`'s stream, created at its first draw.
    fn of(&mut self, dev: DevId) -> &mut SimRng {
        let seed = self.seed ^ (u64::from(dev.0) + 1).wrapping_mul(0xA24B_AED4_963E_E407);
        self.streams
            .entry(dev.0)
            .or_insert_with(|| SimRng::new(seed))
    }
}

impl Device {
    fn is_endpoint(&self) -> bool {
        self.info.device_type == DeviceType::Endpoint
    }

    /// A PI-4 read of this device's configuration space: the baseline
    /// capability from `info` and the live ports, the rest from the
    /// registers.
    fn read_config(&self, addr: CapabilityAddr, dwords: u8) -> Result<Dwords, Pi4Status> {
        let port = |p: u16| self.ports[usize::from(p)].info();
        self.config.read(&self.info, port, addr, dwords)
    }
}

/// Declares every fabric event once. A row reads
/// `Variant { fields } "kind tag" Rank|Control => handler;` and generates
/// the [`Event`] variant (which also carries the `dev` it fires at), its
/// entry in [`Event::KINDS`], its shard-routing [`Target`] and its
/// `dispatch` arm, `self.handler(dev, fields…)`.
///
/// `Rank`: the event touches one device and routes to its rank, so the
/// parallel kernel can dispatch it inside a shard's lookahead window.
/// `Control`: the event reads or mutates *other* devices' state; the
/// parallel kernel executes it alone at a barrier between windows.
macro_rules! events {
    ($($(#[$doc:meta])* $name:ident { $($field:ident: $ty:ty),* } $tag:literal $target:ident => $handler:ident;)*) => {
        /// Fabric events.
        #[derive(Debug)]
        enum Event {
            $($(#[$doc])* $name { dev: DevId $(, $field: $ty)* },)*
        }

        /// [`Event`]'s variants without their fields, for their indices.
        enum Kind { $($name),* }

        impl Event {
            /// Variant names, indexed by [`Event::kind`].
            const KINDS: &'static [&'static str] = &[$($tag),*];

            /// Index of this event's variant, in declaration order.
            fn kind(&self) -> usize {
                match self {
                    $(Event::$name { .. } => Kind::$name as usize,)*
                }
            }

            fn target(&self) -> Target {
                match self {
                    $(Event::$name { dev, .. } => events!(@$target dev),)*
                }
            }
        }

        impl Fabric {
            fn dispatch(&mut self, event: Event) {
                self.dispatched[event.kind()] += 1;
                self.control_pending -= u32::from(event.target() == Target::Control);
                match event {
                    $(Event::$name { dev $(, $field)* } => self.$handler(dev $(, $field)*),)*
                }
            }
        }
    };
    (@Rank $dev:ident) => { Target::Rank($dev.0) };
    (@Control $dev:ident) => {{ let _ = $dev; Target::Control }};
}

// The tags and their order are in a golden file (`events_by_kind`), and
// the wheel stores `Event` inline: 24 bytes, pinned by a test below.
events! {
    /// Routing header fully received at `(dev, port)`.
    Arrive { port: u8, packet: PacketRef } "arrive" Rank => on_arrive;
    /// Entire packet received; hand to the local consumer.
    Deliver { port: u8, packet: PacketRef } "deliver" Rank => on_deliver;
    /// Output serializer / queue retry.
    TryTx { port: u8 } "try_tx" Rank => on_try_tx;
    /// Flow-control credits coming back from the downstream input buffer.
    CreditReturn { port: u8, class: CreditClass, amount: u16 } "credit_return" Rank => on_credit_return;
    /// The endpoint agent finished its per-packet occupancy.
    AgentDone {} "agent_done" Rank => on_agent_done;
    /// The endpoint's inbound PI-4 engine finished handling a packet.
    IngressDone {} "ingress_done" Rank => on_ingress_done;
    /// The device PI-4 responder finished servicing a request.
    ResponderDone {} "responder_done" Rank => on_responder_done;
    /// Agent timer.
    Timer { token: u64 } "timer" Rank => on_timer;
    /// Link training completed on every link of the batch at the head of
    /// [`Fabric::training`], in the order the links began (`port.rs`);
    /// `dev` is the first link's device. One event per batch: the links
    /// that began under consecutive keys, as every link one dispatch
    /// starts does.
    PortTrained {} "port_trained" Control => on_links_trained;
    /// Power-up of devices `dev..dev + count`, in id order: one event for
    /// a run of devices (`inject.rs`).
    Activate { count: u32 } "activate" Control => on_activate;
    /// Device removal / failure.
    Deactivate {} "deactivate" Control => on_deactivate;
    /// Scheduled fault: take a link down, retrain after `down_for`.
    FaultLinkDown { port: u8, down_for: SimDuration } "fault_link_down" Control => on_fault_link_down;
    /// Scheduled fault: a flapped link comes back and retrains.
    FaultLinkUp { port: u8 } "fault_link_up" Control => on_fault_link_up;
    /// Scheduled fault: freeze a device's PI-4 responder.
    FaultDeviceHang { duration: SimDuration } "fault_device_hang" Rank => on_fault_device_hang;
    /// Scheduled fault: slow a device's PI-4 responder.
    FaultDeviceSlow { factor: f64, duration: SimDuration } "fault_device_slow" Rank => on_fault_device_slow;
    /// Churn-plan event: flap a link (down now, retrain after `down_for`).
    ChurnFlap { port: u8, down_for: SimDuration } "churn_flap" Control => on_churn_flap;
    /// Churn-plan event: hot-remove a device.
    ChurnRemove {} "churn_remove" Control => on_churn_remove;
    /// Churn-plan event: re-add a previously hot-removed device.
    ChurnAdd {} "churn_add" Control => on_churn_add;
    /// Traffic-plan event: inject one packet of a materialized flow.
    TrafficInject { flow: u32 } "traffic_inject" Rank => on_traffic_inject;
}

/// The simulated ASI fabric.
pub struct Fabric {
    sim: Simulator<Event, AnyKernel<Event>>,
    devices: Vec<Device>,
    config: FabricConfig,
    counters: FabricCounters,
    trace: TraceHandle,
    /// In-flight packet bodies, whole or as flow bodies (`packets.rs`);
    /// events and port queues carry [`PacketRef`] handles. Every body is
    /// freed at its single consumption or drop point, so
    /// [`Fabric::packet_arena_live`] returns to 0 once a run drains.
    packets: Packets,
    /// The output queues of the ports that have something queued right
    /// now: a port borrows a set at its first `enqueue_out` and returns it
    /// when it drains (`port.rs`).
    queues: Queues,
    /// The FIFOs of the serial stages that hold something right now: a
    /// stage borrows one at its first `push` and returns it with its last
    /// item (`endpoint.rs`).
    fifos: Fifos,
    /// The credit returns owed beyond each device's inline first
    /// (`port.rs`): one list per device that was ever owed two at once.
    spill: Spill,
    /// The links in training, in the order their trainings end, a
    /// `PortTrained` event per batch (`port.rs`). Boxed: inline, rustc
    /// lays this cold field out first, ahead of `sim`, which the run
    /// loop reads on every event (pinned by a test below).
    training: Box<Training>,
    /// Recycled [`AgentCtx`] port-snapshot buffer: agent callbacks fire on
    /// every delivered management packet, so allocating a fresh `Vec` per
    /// callback shows up in discovery profiles.
    scratch_ports: Vec<PortInfo>,
    /// Recycled agent command buffer (same rationale), up to a bound: a
    /// burst's is given back (`endpoint.rs`).
    scratch_commands: Vec<AgentCommand>,
    traffic: Traffic,
    /// Each device's fault stream, from its first draw.
    rngs: DeviceRngs,
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
    /// Agent callbacks so far, of every kind (`with_agent`).
    agent_calls: u64,
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
    ///
    /// # Panics
    ///
    /// If a configured credit count is above `u16::MAX` (a port holds
    /// its credits in hand as a `u16` per class).
    pub fn new(topo: &Topology, config: FabricConfig) -> Fabric {
        for credits in [config.mgmt_credits, config.data_credits] {
            assert!(
                u16::try_from(credits).is_ok(),
                "a port holds at most {} credits per class, not {credits}",
                u16::MAX
            );
        }
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
                .map(|p| {
                    let peer = topo.peer(id, p).map(|at| (DevId(at.node.0), at.port));
                    Port::new(peer, &config)
                })
                .collect();
            devices.push(Device {
                info,
                ports,
                ledger: Ledger::default(),
                pi5_seq: 0,
                active: false,
                spilled: false,
                config: ConfigSpace::default(),
                responder: Responder::default(),
                ingress: Stage::default(),
                agent: None,
            });
        }
        // The conservative lookahead is the link propagation delay: no
        // device can affect another sooner than one wire flight, so the
        // parallel kernel may dispatch a full propagation window per shard
        // between barriers (`asi_sim::kernel`).
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
            rngs: DeviceRngs {
                seed: config.seed,
                streams: HashMap::new(),
            },
            config,
            counters: FabricCounters::default(),
            trace: TraceHandle::disabled(),
            packets: Packets::default(),
            queues: Queues::default(),
            fifos: Fifos::default(),
            spill: Spill::default(),
            training: Box::default(),
            scratch_ports: Vec::new(),
            scratch_commands: Vec::new(),
            traffic: Traffic::default(),
            dispatched: [0; Event::KINDS.len()],
            control_pending: 0,
            cut_latest: SimTime::ZERO,
            agent_calls: 0,
        };
        // The plans are pure data: faults and churn go on the clock up
        // front, traffic one arrival per flow at a time, drawn from the
        // flow's own stream; replaying the same (seed, plans) replays
        // their events too.
        fabric.schedule_faults_and_churn(topo);
        fabric.schedule_traffic(topo);
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

    /// Live packet bodies, whole packets and flow bodies together. Every
    /// in-flight packet is freed at its single consumption or drop point,
    /// so this returns to 0 after a drained run (the leak test checks
    /// exactly that).
    pub fn packet_arena_live(&self) -> usize {
        self.packets.live()
    }

    /// Packets waiting on output queues, over every port that holds a
    /// queue set. A port returns its set with its last entry, so 0 here
    /// also says no set is out on loan; like
    /// [`Fabric::packet_arena_live`] it returns to 0 after a drained run.
    pub fn queued_packets(&self) -> usize {
        let queued = self.queues.iter().map(QueueSet::len);
        let in_use = queued.clone().filter(|&n| n > 0).count();
        debug_assert_eq!(in_use, self.queues.lent(), "a set is out iff non-empty");
        queued.sum()
    }

    /// Flow-control credits that are neither in a transmitter's hand nor
    /// on their way back to it, over every active port: the credits of the
    /// packets in flight. Like [`Fabric::packet_arena_live`] it returns to
    /// 0 after a drained run, if no device or link went down under a
    /// packet.
    pub fn credits_outstanding(&self) -> u64 {
        (self.devices.iter().zip(0..))
            .map(|(d, i)| d.credits_away(&self.config, &self.spill, DevId(i)))
            .sum()
    }

    /// The flows materialized from the traffic plan (empty without one).
    pub fn traffic_flows(&self) -> &[FlowSpec] {
        &self.traffic.flows
    }

    /// Per-flow delivery statistics, parallel to
    /// [`Fabric::traffic_flows`].
    pub fn flow_stats(&self) -> &[FlowStats] {
        &self.traffic.stats
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

    /// Devices whose loss, corruption and duplication random stream
    /// exists: a stream is created at its device's first draw, so this is
    /// 0 after a fault-free run.
    pub fn rng_streams(&self) -> usize {
        self.rngs.streams.len()
    }

    /// What a PI-4 read of `dwords` words at `addr` of a device's
    /// configuration space returns right now (harness and test use; the
    /// FM reads it over the wire).
    pub fn read_config(
        &self,
        dev: DevId,
        addr: CapabilityAddr,
        dwords: u8,
    ) -> Result<Dwords, Pi4Status> {
        self.devices[dev.idx()].read_config(addr, dwords)
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
                if let Some((pd, _)) = port.peer() {
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

    /// Installs a management agent on an endpoint.
    ///
    /// # Panics
    /// Panics if `dev` is a switch.
    pub fn set_agent(&mut self, dev: DevId, agent: Box<dyn FabricAgent>) {
        let d = &mut self.devices[dev.idx()];
        assert!(d.is_endpoint(), "agents attach to endpoints");
        // A replaced agent's pending timers go to its successor, as their
        // events would; the packets waiting for it go with it.
        let timers = match d.agent.take() {
            Some(mut slot) => {
                let free = |(_, packet): Held| self.packets.free(packet);
                slot.inbox.clear(&mut self.fifos, free);
                slot.timers
            }
            None => Default::default(),
        };
        d.agent = Some(Box::new(AgentSlot {
            agent,
            inbox: Stage::default(),
            timers,
        }));
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
        self.arm_agent_timer(dev, delay, token);
    }

    /// Timers the agent on `dev` has pending: armed, and neither fired
    /// nor cancelled (0 without an agent).
    pub fn agent_timers(&self, dev: DevId) -> usize {
        let slot = self.devices[dev.idx()].agent.as_ref();
        slot.map_or(0, |slot| slot.timers.len())
    }

    /// Schedules a device power-up.
    pub fn schedule_activate(&mut self, dev: DevId, after: SimDuration) {
        self.schedule_activate_run(dev, 1, after);
    }

    /// Schedules the power-up of devices `first..first + count`, in id
    /// order, as one event: the same as a `schedule_activate` for each in
    /// turn, whose events would have fired under consecutive keys with
    /// nothing able to sort between them (`inject.rs`).
    pub fn schedule_activate_run(&mut self, first: DevId, count: u32, after: SimDuration) {
        if count > 0 {
            let event = Event::Activate { dev: first, count };
            self.sched_control_from_outside(after, event);
        }
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

    /// Activates every device `stagger` apart (transient bring-up); with
    /// no stagger, in one event.
    pub fn activate_all(&mut self, stagger: SimDuration) {
        let count = self.devices.len() as u32;
        if stagger == SimDuration::ZERO {
            return self.schedule_activate_run(DevId(0), count, stagger);
        }
        for i in 0..count {
            self.schedule_activate(DevId(i), stagger * u64::from(i));
        }
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Schedules a fabric event, routed to its device shard (or the
    /// control barrier) under the parallel kernel. The order of calls
    /// inside one handler is behaviour: it breaks same-timestamp ties.
    fn sched_at(&mut self, at: SimTime, event: Event) {
        let key = self.sim.reserve_key(at);
        self.sched_keyed(key, event);
    }

    /// The second half of [`Fabric::sched_at`], for a key that was
    /// reserved earlier and has not come up yet (a credit return that
    /// turns out to need its event, `port.rs`).
    fn sched_keyed(&mut self, key: EventKey, event: Event) {
        let target = event.target();
        self.control_pending += u32::from(target == Target::Control);
        self.sim.schedule_keyed(key, target, event);
    }

    fn sched_after(&mut self, after: SimDuration, event: Event) {
        let at = self.sim.now() + after;
        self.sched_at(at, event);
    }

    /// Processes a single event. Returns `false` when idle.
    pub fn step(&mut self) -> bool {
        // Two return paths, not one computed from the popped `Option`:
        // merged (a `let … else`), LLVM keeps the event's tag in a register
        // across the call and copies its payload unaligned — 5% of `mesh64`.
        match self.sim.next_event() {
            Some(fired) => {
                self.dispatch(fired.event);
                self.sim.finish_dispatch();
                true
            }
            None => false,
        }
    }

    /// Dispatches events until one has called an agent, or one dated at
    /// or after `deadline` has been dispatched; `false` if the queue runs
    /// dry first. A loop that waits on agent state, which only an agent
    /// callback changes, need look at it only when this returns.
    pub fn run_until_agent_call(&mut self, deadline: SimTime) -> bool {
        let calls = self.agent_calls;
        loop {
            match self.sim.next_event() {
                Some(fired) => {
                    self.dispatch(fired.event);
                    self.sim.finish_dispatch();
                    if self.agent_calls != calls || self.sim.now() >= deadline {
                        return true;
                    }
                }
                None => return false,
            }
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fabric holds one `Port` per switch port whether wired or not:
    /// 69,632 on `mesh:64x64` (45,312 of them dangling), 242,688 on
    /// `dragonfly:8,48`, 1,302,528 on `dragonfly:8,128` — where the 96
    /// bytes of inline queue headers `Port` used to carry were 119 MiB,
    /// and a word more is 10 MiB. Five words (`u16` credits, three flags
    /// in one byte), so that the cut-through guard reads one line of the
    /// egress port; the queues are on loan from `Fabric::queues`, two
    /// `VecDeque`s a set, only while something is queued.
    #[test]
    fn port_and_hot_device_prefix_fit_a_cache_line() {
        use std::mem::{offset_of, size_of};
        assert!(size_of::<Port>() <= 40, "{}", size_of::<Port>());
        assert!(size_of::<QueueSet>() <= 64, "{}", size_of::<QueueSet>());
        // What `on_arrive`, the guard, `transmit` and `return_credits`
        // read of a device: two devices per hop, one line each.
        assert!(offset_of!(Device, info) + size_of::<DeviceInfo>() <= 64);
        assert!(offset_of!(Device, ports) + size_of::<Box<[Port]>>() <= 64);
        assert!(offset_of!(Device, ledger) + size_of::<Ledger>() <= 64);
        assert!(offset_of!(Device, pi5_seq) < 64);
        assert!(offset_of!(Device, active) < 64);
        assert!(offset_of!(Device, spilled) < 64);
        // The whole record: what few devices use is a word each, a
        // serial stage is a FIFO handle and an instant, and the credit
        // returns owed beyond the inline one spill to the fabric's
        // table, a flag here.
        assert!(size_of::<Device>() <= 136, "{}", size_of::<Device>());
        assert!(size_of::<Stage>() <= 16, "{}", size_of::<Stage>());
        // The kernel, which the run loop reads on every event, leads the
        // fabric.
        assert_eq!(offset_of!(Fabric, sim), 0);
        // `Event` moves by value through the wheel's slab nodes: three
        // words. `OutEntry` moves through the queues: two, the port a
        // packet came in on standing for where its credits go back to.
        assert_eq!(size_of::<Event>(), 24);
        assert_eq!(size_of::<OutEntry>(), 16);
        // A queued data packet of a traffic flow: one slot of the flow
        // slab, 16 bytes where a whole `Packet` is 136, and neither slab's
        // free list adds to its slot (the arena's slot is private to
        // `asi-sim`, mirrored here).
        #[allow(dead_code)]
        enum Slot<T> {
            Live(T),
            Free(u32),
        }
        assert!(size_of::<Slot<FlowBody>>() <= 16);
        assert!(size_of::<Slot<Packet>>() <= 136);
    }

    /// The wheel's slab node (private to `asi-sim`, mirrored here) for
    /// the kernel's `(target rank, Event)` payload: under a cache line,
    /// so a word more in `Event` is a line more per pending event.
    #[test]
    fn wheel_node_of_an_event_is_at_most_seven_words() {
        #[allow(dead_code)]
        struct Node {
            key: asi_sim::EventKey,
            next: u32,
            val: Option<(u32, Event)>,
        }
        assert!(std::mem::size_of::<Node>() <= 56);
    }

    /// A traffic window costs the kernel one pending arrival per flow,
    /// however many shots it holds: the benchmark's loaded 16x16 mesh
    /// (255 sources at 0.4 load for 8 ms) is 383,847 shots at the plan's
    /// default seed, and construction leaves 255 events pending.
    #[test]
    fn a_traffic_plan_holds_one_pending_arrival_per_flow() {
        let topo = asi_topo::mesh(16, 16).unwrap().topology;
        let fm = asi_topo::default_fm_endpoint(&topo).unwrap();
        let traffic = crate::TrafficPlan::none()
            .with_unicast(0.4, 512)
            .with_window(SimDuration::ZERO, SimDuration::from_ms(8))
            .with_exempt(vec![fm.0]);
        let config = FabricConfig {
            traffic,
            ..FabricConfig::default()
        };
        let shots = (config.traffic.materialize(&topo, config.byte_time))
            .shots()
            .len();
        let fabric = Fabric::new(&topo, config);
        let flows = fabric.traffic_flows().len();
        assert_eq!(flows, 255);
        assert_eq!(shots, 383_847);
        assert!(fabric.sim.pending() <= flows, "{}", fabric.sim.pending());
    }

    #[test]
    fn every_event_kind_has_a_name() {
        let topo = asi_topo::mesh(2, 2).unwrap().topology;
        let mut fabric = Fabric::new(&topo, FabricConfig::default());
        fabric.activate_all(SimDuration::ZERO);
        fabric.run_until_idle();
        // Bring-up is activations and link training and nothing else: one
        // event powers up the run of eight devices, one ends the training
        // of the eight links it started.
        for (kind, n) in fabric.dispatch_counts() {
            let expected = match kind {
                "activate" => 1,
                "port_trained" => 1,
                _ => 0,
            };
            assert_eq!(n, expected, "{kind}");
        }
        assert_eq!(fabric.events_processed(), 2);
    }
}
