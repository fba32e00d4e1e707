//! A packet delivered to a device, and what consumes it: the serial
//! stages — the PI-4 responder every device has, and on endpoints the
//! ingress pipe and the agent behind it — agent callbacks and timers,
//! and the traffic plan's arrivals and flow accounting.
//!
//! ## The serial stages borrow their FIFOs
//!
//! A [`Stage`] is a FIFO handle and an instant, 16 bytes. Every device
//! has a responder stage, and every endpoint an ingress stage, but at
//! any moment few of them hold anything: a device is read a handful of
//! times per discovery, and a request waits behind another only at a
//! switch whose port reads are in flight. So a stage owns no FIFO. It
//! borrows one from [`Fabric::fifos`] at the `push` that finds it empty
//! and hands it back, buffer and all, at the `finish` or `clear` that
//! takes its last item; the item in service stays at the head until its
//! `*Done`, so a stage in service always holds one. The pool is the
//! [`Pool`] that lends ports their output queues, and it holds as many
//! FIFOs as stages ever held something at once (8 for the whole
//! discovery of `dragonfly:8,48`). An item is a [`Held`], the packet and
//! the port it came in on, so that one pool serves the responder, which
//! replies through that port, and the ingress pipe and the agent, which
//! carry it along.
//!
//! ## Agent timers: a ledger per agent, one event for the earliest
//!
//! An agent arms a timer for every request it sends (the FM's PI-4
//! timeouts), and most are answered long before they are due. So a timer
//! is not a kernel event of its own: it is an entry `(key, token)` on its
//! agent's [`Timers`] ledger, and the kernel holds a `Timer` event for
//! the earliest entry only. An answered request's timer is cancelled
//! ([`AgentCtx::cancel_timer`]): its entry leaves the ledger, and no event
//! is ever spent on it. The rules, each there because without it
//! something observable would move:
//!
//! | rule | because otherwise |
//! |---|---|
//! | the key is reserved when the timer is armed (`reserve_key`: same origin, same per-origin sequence number as its event would have had) | every later event of that origin would shift its `seq`, and same-instant ties would break differently: a live timer fires under exactly the key it always had |
//! | an entry gets its event (`sched_keyed` under its own key) only if it is due before every `Timer` event the agent already has in the kernel | an event per entry is what the ledger is there to save |
//! | when one of those events fires, the entry under `current_key()` goes to the agent if it is still there (not cancelled); then the earliest entry left is armed, unless an event already in the kernel comes before it | a live entry would never fire, or an event would be spent where one due earlier will look again |
//! | the wheel never cancels: a cancelled entry's event, if it had one, fires and finds nothing | the kernel's order would need a second mechanism |
//!
//! The credit ledger (`port.rs`) keeps keys the same way. A timer armed
//! on a device with no agent is a plain `Timer` event, carrying its token.

use super::*;
use std::hash::{BuildHasherDefault, Hasher};

/// [`Stage::done_at`] of an idle stage.
const IDLE: SimTime = SimTime::MAX;

/// The largest agent command buffer [`Fabric::with_agent`] keeps for the
/// next callback: what one completion's exploration queues at most, a
/// send and a timer for each port-block read of a 255-port switch (128
/// reads) and the answered request's cancel, 257 commands in a buffer
/// grown to 512. A burst past it — a request window's first pump, a
/// manager's configuration writes — is given back once executed.
const KEPT_COMMANDS: usize = 512;

/// What waits in a serial stage: a delivered packet and the port it came
/// in on. The responder replies through that port; the ingress pipe and
/// the agent carry it along, so that one kind of FIFO serves all three.
pub(super) type Held = (u8, PacketRef);

/// The FIFOs of the serial stages that hold something right now: a
/// stage borrows one at the `push` that finds it empty and hands it
/// back, buffer and all, at the `finish` or `clear` that empties it.
pub(super) type Fifos = Pool<VecDeque<Held>>;

/// One server behind a FIFO: the serial-stage mechanism of the ingress
/// pipe, the PI-4 responder and the agent.
///
/// The stage is *idle* or *in service until `done_at`*, the instant its
/// `*Done` event was scheduled for. Only that event takes the head
/// ([`Stage::finish`]): a device that powers down clears its stages, and
/// a `*Done` that outlives the power cycle finds a stage armed for
/// another instant, or not at all, and does nothing.
///
/// The FIFO is on loan from [`Fabric::fifos`] while the stage holds
/// something, the item in service included, and `q` is [`NIL`] while it
/// holds nothing (module header).
pub(super) struct Stage {
    /// The FIFO this stage has borrowed, or [`NIL`].
    q: u32,
    /// When the current service ends ([`IDLE`] when idle: a sentinel, like
    /// `Port::try_tx_at`).
    done_at: SimTime,
}

impl Default for Stage {
    fn default() -> Self {
        Stage {
            q: NIL,
            done_at: IDLE,
        }
    }
}

impl Stage {
    fn push(&mut self, fifos: &mut Fifos, item: Held) {
        if self.q == NIL {
            self.q = fifos.lend();
        }
        fifos[self.q].push_back(item);
    }

    /// If the stage is idle with something queued, begins serving the
    /// head and returns the instant, `service(head)` from `now`, at which
    /// the caller must fire the stage's `*Done`. Called after every `push`
    /// and every `finish`, so in between idle means empty.
    fn start(
        &mut self,
        fifos: &Fifos,
        now: SimTime,
        service: impl FnOnce(&Held) -> SimDuration,
    ) -> Option<SimTime> {
        if self.done_at != IDLE || self.q == NIL {
            return None;
        }
        self.done_at = now + service(fifos[self.q].front()?);
        Some(self.done_at)
    }

    /// A `*Done` fired at `now`: yields the item whose service ends now,
    /// leaving the stage idle — or nothing, and no change, if this is not
    /// the event the stage is armed for. The FIFO goes home with its last
    /// item.
    fn finish(&mut self, fifos: &mut Fifos, now: SimTime) -> Option<Held> {
        if self.done_at != now {
            return None;
        }
        self.done_at = IDLE;
        // Armed means serving a head, so a FIFO is on loan.
        let fifo = &mut fifos[self.q];
        let head = fifo.pop_front();
        if fifo.is_empty() {
            fifos.take_back(std::mem::replace(&mut self.q, NIL));
        }
        head
    }

    /// Holds the service that would end at `now` until `until` instead.
    /// True if there is one, and the caller must fire `*Done` again then.
    fn defer(&mut self, now: SimTime, until: SimTime) -> bool {
        let armed = self.done_at == now;
        if armed {
            self.done_at = until;
        }
        armed
    }

    /// Empties and disarms the stage, handing each queued item to `lose`
    /// and the FIFO back to `fifos`. Returns how many items there were.
    pub(super) fn clear(&mut self, fifos: &mut Fifos, lose: impl FnMut(Held)) -> usize {
        self.done_at = IDLE;
        let q = std::mem::replace(&mut self.q, NIL);
        if q == NIL {
            return 0;
        }
        let lost = fifos[q].len();
        fifos[q].drain(..).for_each(lose);
        fifos.take_back(q);
        lost
    }
}

/// The PI-4 responder of a device: requests wait with their ingress port.
#[derive(Default)]
pub(super) struct Responder {
    pub(super) stage: Stage,
    /// The injected faults, from the first hang or slow fault at the
    /// device on.
    pub(super) faults: Option<Box<ResponderFaults>>,
}

/// A responder's injected hang and slow faults.
#[derive(Default)]
pub(super) struct ResponderFaults {
    /// While `now < hang_until` the responder is frozen: requests queue
    /// but no completion leaves.
    pub(super) hang_until: SimTime,
    /// While `now < slow_until` the servicing time is multiplied by
    /// `slow_factor`.
    pub(super) slow_until: SimTime,
    pub(super) slow_factor: f64,
}

/// Endpoint agent hosting state: the agent, the packets waiting for it
/// and its timers.
pub(super) struct AgentSlot {
    pub(super) agent: Box<dyn FabricAgent>,
    pub(super) inbox: Stage,
    pub(super) timers: Timers,
}

/// A multiplicative hasher for timer tokens: an agent picks its own
/// tokens, and the ledger looks one up on every arm, move and cancel.
#[derive(Default)]
struct TokenHasher(u64);

impl Hasher for TokenHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// [`Slot::at`] when the token's one pending timer has not moved since a
/// second timer with its token left the ledger.
const LOST: u32 = u32::MAX;

/// A token's pending timers: how many, and — while there is exactly one
/// — its heap index.
#[derive(Clone, Copy)]
struct Slot {
    at: u32,
    arms: u32,
}

/// One agent's pending timers (module header): an indexed binary
/// min-heap on the key, and the keys of the agent's `Timer` events in
/// the kernel. Nothing is allocated per timer once the buffers have
/// grown to the most timers pending at once.
#[derive(Default)]
pub(super) struct Timers {
    /// `(key, token)`, a min-heap on the key.
    heap: Vec<(EventKey, u64)>,
    /// Each pending token's [`Slot`].
    slots: HashMap<u64, Slot, BuildHasherDefault<TokenHasher>>,
    /// The keys of this agent's `Timer` events in the kernel that have
    /// not fired, live or cancelled. Each was pushed below every key
    /// already here, so the last is the earliest: the next to fire.
    armed: Vec<EventKey>,
}

impl Timers {
    /// Timers pending: armed, and neither fired nor cancelled.
    pub(super) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Enters a timer due at `key`, a key reserved now.
    fn arm(&mut self, key: EventKey, token: u64) {
        let slot = (self.slots.entry(token)).or_insert(Slot { at: LOST, arms: 0 });
        slot.arms += 1;
        self.heap.push((key, token));
        let at = self.heap.len() - 1;
        self.moved(at);
        self.sift_up(at);
    }

    /// Takes the pending timer armed with `token` off the ledger, if
    /// there is one.
    fn cancel(&mut self, token: u64) {
        let Some(&Slot { at, arms }) = self.slots.get(&token) else {
            return;
        };
        debug_assert_eq!(arms, 1, "a cancelled token {token:#x} is not unique");
        let at = match at {
            LOST => (self.heap.iter())
                .position(|&(_, t)| t == token)
                .expect("a slot's timer is on the heap"),
            at => at as usize,
        };
        self.remove(at);
    }

    /// True if the `Timer` event under `key` is one of this ledger's: the
    /// earliest in the kernel. (Keys are unique; an event armed before
    /// the agent was installed is not.)
    fn fires(&self, key: EventKey) -> bool {
        self.armed.last() == Some(&key)
    }

    /// The ledger's event under `key` fired: the token of the timer due
    /// now, or `None` if it was cancelled.
    fn take_due(&mut self, key: EventKey) -> Option<u64> {
        debug_assert!(self.fires(key));
        self.armed.pop();
        let due = self.heap.first().is_some_and(|&(head, _)| head == key);
        due.then(|| self.remove(0).1)
    }

    /// The earliest timer, if it needs its event: no event in the kernel
    /// comes before it. Its key counts as armed from here on.
    fn next_event(&mut self) -> Option<(EventKey, u64)> {
        let &(key, token) = self.heap.first()?;
        if self.armed.last().is_some_and(|&first| first <= key) {
            return None;
        }
        self.armed.push(key);
        Some((key, token))
    }

    fn remove(&mut self, at: usize) -> (EventKey, u64) {
        let taken = self.heap.swap_remove(at);
        let slot = self.slots.get_mut(&taken.1).expect("a pending token");
        slot.arms -= 1;
        match slot.arms {
            0 => drop(self.slots.remove(&taken.1)),
            // The survivor's index is known again at its next move.
            _ => slot.at = LOST,
        }
        if at < self.heap.len() {
            self.moved(at);
            self.sift_down(at);
            self.sift_up(at);
        }
        taken
    }

    fn sift_up(&mut self, mut at: usize) {
        while at > 0 {
            let parent = (at - 1) / 2;
            if self.heap[parent].0 <= self.heap[at].0 {
                break;
            }
            self.swap(at, parent);
            at = parent;
        }
    }

    fn sift_down(&mut self, mut at: usize) {
        loop {
            let (l, r) = (2 * at + 1, 2 * at + 2);
            let mut min = at;
            for child in [l, r] {
                if child < self.heap.len() && self.heap[child].0 < self.heap[min].0 {
                    min = child;
                }
            }
            if min == at {
                break;
            }
            self.swap(at, min);
            at = min;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.moved(a);
        self.moved(b);
    }

    /// The timer at `at` has just been put there: a token with one
    /// pending timer records where it is.
    fn moved(&mut self, at: usize) {
        let slot = self
            .slots
            .get_mut(&self.heap[at].1)
            .expect("a pending token");
        if slot.arms == 1 {
            slot.at = at as u32;
        }
    }
}

/// The materialized traffic plan and what the fabric has delivered of it.
#[derive(Default)]
pub(super) struct Traffic {
    /// Flows materialized from the plan, indexed by flow id.
    pub(super) flows: Vec<FlowSpec>,
    /// Each flow's arrival clock (parallel to `flows`): it has drawn the
    /// arrival pending on the kernel, and draws the next when that fires.
    clocks: Vec<FlowClock>,
    /// Each flow's key lane (parallel to `flows`): one external key,
    /// reserved at construction, that every arrival of the flow is
    /// scheduled under with its own time.
    lanes: Vec<EventKey>,
    /// Per-flow delivery statistics (parallel to `flows`).
    pub(super) stats: Vec<FlowStats>,
}

/// Services one PI-4 request against a device's configuration space: the
/// writable registers it stores, and its own info and ports for the
/// baseline capability. The reply retraces the request's path.
fn service_pi4(d: &mut Device, request: &Packet) -> Option<Packet> {
    let (req_id, result) = match &request.payload {
        Payload::Pi4(Pi4::ReadRequest {
            req_id,
            addr,
            dwords,
        }) => {
            let req_id = *req_id;
            let read = d.read_config(*addr, *dwords);
            let done = read.map(|data| Pi4::ReadCompletion { req_id, data });
            (req_id, done)
        }
        Payload::Pi4(Pi4::WriteRequest { req_id, addr, data }) => {
            let req_id = *req_id;
            let done = d.config.write(&d.info, *addr, data);
            (req_id, done.map(|()| Pi4::WriteCompletion { req_id }))
        }
        _ => return None,
    };
    let reply = result.unwrap_or_else(|status| Pi4::ReadError { req_id, status });
    let header = request.header.reply(ProtocolInterface::DeviceManagement);
    Some(Packet::new(header, Payload::Pi4(reply)))
}

impl Fabric {
    // ---------------- the traffic plan ----------------

    /// Materializes the traffic plan: each flow's first arrival on the
    /// clock. An inert plan materializes to nothing (no RNG seeded, no
    /// event scheduled), so zero-load runs replay traffic-free runs
    /// byte-for-byte.
    ///
    /// Every arrival of flow `f` is keyed `(at, EXTERNAL_RANK, b + f)`,
    /// `b + f` its lane, which orders the arrivals exactly as one external
    /// key per shot of the whole window, reserved here in `(at, flow,
    /// seq)` order, would: two arrivals at one instant belong to different
    /// flows and order by flow; keys reserved before sit below every lane;
    /// an external key reserved after sorts after every arrival at its
    /// instant, its sequence number lower by shots minus flows, the same
    /// for every such key.
    pub(super) fn schedule_traffic(&mut self, topo: &Topology) {
        let schedule = self.config.traffic.materialize(topo, self.config.byte_time);
        let flows = schedule.flows.len();
        self.traffic.stats = vec![FlowStats::default(); flows];
        self.packets.set_flows(&schedule.flows);
        self.traffic.flows = schedule.flows;
        self.traffic.clocks = schedule.clocks;
        self.traffic.lanes = (0..flows)
            .map(|_| self.sim.reserve_key(SimTime::ZERO))
            .collect();
        for flow in 0..flows as u32 {
            self.next_arrival(flow);
        }
    }

    /// Draws the flow's next arrival, if its window holds one, and puts it
    /// on the clock under the flow's lane. Scheduled keyed, it takes no
    /// origin's sequence number, so the keys every device reserves later
    /// are what they would be had the arrival been pending all along.
    fn next_arrival(&mut self, flow: u32) {
        let f = flow as usize;
        let Some((at, _)) = self.traffic.clocks[f].next_shot() else {
            return;
        };
        let key = EventKey {
            time: SimTime::ZERO + at,
            ..self.traffic.lanes[f]
        };
        let dev = DevId(self.traffic.flows[f].src);
        self.sched_keyed(key, Event::TrafficInject { dev, flow });
    }

    /// A traffic-plan shot fired: draw the flow's next one, then put the
    /// flow's packet on the source's egress queue as a flow body stamped
    /// with the injection time for latency measurement. Shots at sources
    /// that are inactive or whose egress link is down are dropped, like
    /// any other arrival there, and the flow goes on.
    pub(super) fn on_traffic_inject(&mut self, dev: DevId, flow: u32) {
        self.next_arrival(flow);
        let now = self.sim.now();
        let spec = &self.traffic.flows[flow as usize];
        let d = &self.devices[dev.idx()];
        if !d.active || d.ports[usize::from(spec.egress)].state != PortState::Active {
            self.counters.dropped_inactive += 1;
            return;
        }
        self.counters.injected += 1;
        self.counters.flow_injected += 1;
        self.trace.emit(now, || TraceEvent::FlowInjected { flow });
        let packet = self.packets.alloc_flow(FlowBody {
            sent_ps: now.as_ps(),
            flow,
            turn_pointer: spec.pool.len_bits(),
        });
        let entry = OutEntry {
            ready: now,
            packet,
            origin: None,
        };
        self.enqueue_out(dev, spec.egress, entry);
    }

    // ---------------- delivery ----------------

    pub(super) fn on_deliver(&mut self, dev: DevId, port: u8, packet: PacketRef) {
        if !self.devices[dev.idx()].active {
            self.counters.dropped_inactive += 1;
            self.packets.free(packet);
            return;
        }
        // The packet has been copied out of the input buffer: release it.
        self.release_origin_now(dev, port, packet);
        // Flow bodies are the traffic plan's, consumed by the fabric itself.
        let Some(whole) = self.packets.whole(packet) else {
            return self.deliver_flow(packet);
        };
        match whole.payload {
            Payload::Pi4(ref pi4) if pi4.is_request() => {
                self.counters.delivered += 1;
                let stage = &mut self.devices[dev.idx()].responder.stage;
                stage.push(&mut self.fifos, (port, packet));
                self.responder_start(dev);
            }
            Payload::Pi4(_) => self.deliver_completion(dev, port, packet),
            _ => {
                self.counters.delivered += 1;
                self.ingress_enqueue(dev, (port, packet));
            }
        }
    }

    /// A flow body reached its destination: its latency and its flow's
    /// payload go to the flow's statistics.
    fn deliver_flow(&mut self, packet: PacketRef) {
        let now = self.sim.now();
        let FlowBody { sent_ps, flow, .. } = self.packets.take_flow(packet);
        let len = u64::from(self.traffic.flows[flow as usize].payload);
        let latency_ps = now.as_ps().saturating_sub(sent_ps);
        self.counters.delivered += 1;
        self.counters.flow_delivered += 1;
        self.counters.flow_bytes += len;
        let stats = &mut self.traffic.stats[flow as usize];
        stats.delivered += 1;
        stats.bytes += len;
        stats.latency_ps.push(latency_ps);
        self.trace
            .emit(now, || TraceEvent::FlowDelivered { flow, latency_ps });
    }

    /// A PI-4 completion reached its requester, subject to the injected
    /// completion faults. Corruption and duplication are drawn from the
    /// *receiving* device's stream (kernel-order independent).
    fn deliver_completion(&mut self, dev: DevId, port: u8, packet: PacketRef) {
        let now = self.sim.now();
        let device = dev.0;
        let faults = &self.config.faults;
        // Injected corruption: the end-to-end CRC catches the mangled
        // payload at delivery, so the completion is discarded whole and
        // the requester times out (a silently garbled completion would
        // leave a permanent hole instead).
        let corrupt = faults.corrupt_completions;
        if corrupt > 0.0 && self.rngs.of(dev).gen_bool(corrupt) {
            self.counters.dropped_corrupted += 1;
            self.counters.completions_corrupted += 1;
            self.trace
                .emit(now, || TraceEvent::FaultCompletionCorrupted { device });
            self.packets.free(packet);
            return;
        }
        self.counters.delivered += 1;
        // Injected duplication: the requester sees the completion twice;
        // the second copy carries a since-retired req_id and must be
        // ignored upstream.
        let duplicate = faults.duplicate_completions;
        if duplicate > 0.0 && self.rngs.of(dev).gen_bool(duplicate) {
            self.counters.completions_duplicated += 1;
            self.trace
                .emit(now, || TraceEvent::FaultCompletionDuplicated { device });
            let dup = self.packets.packet(packet).clone();
            let dup = self.packets.alloc(dup);
            self.ingress_enqueue(dev, (port, dup));
        }
        self.ingress_enqueue(dev, (port, packet));
    }

    // ---------------- the three stages ----------------
    // Each keeps what differs: its service time, what a finished item does.

    /// Inbound management pipe: one device-time per received packet, then
    /// the agent queue.
    fn ingress_enqueue(&mut self, dev: DevId, item: Held) {
        let stage = &mut self.devices[dev.idx()].ingress;
        stage.push(&mut self.fifos, item);
        self.ingress_start(dev);
    }

    fn ingress_start(&mut self, dev: DevId) {
        let service = |_: &Held| self.config.effective_device_time();
        let stage = &mut self.devices[dev.idx()].ingress;
        if let Some(at) = stage.start(&self.fifos, self.sim.now(), service) {
            self.sched_at(at, Event::IngressDone { dev });
        }
    }

    pub(super) fn on_ingress_done(&mut self, dev: DevId) {
        let stage = &mut self.devices[dev.idx()].ingress;
        let Some(item) = stage.finish(&mut self.fifos, self.sim.now()) else {
            return;
        };
        self.agent_enqueue(dev, item);
        self.ingress_start(dev);
    }

    /// PI-4 responder: one device-time per request, stretched by an
    /// active slow-device fault.
    fn responder_start(&mut self, dev: DevId) {
        let now = self.sim.now();
        let r = &mut self.devices[dev.idx()].responder;
        let service = |_: &Held| {
            let base = self.config.effective_device_time();
            match &r.faults {
                Some(f) if now < f.slow_until => base.scaled(f.slow_factor),
                _ => base,
            }
        };
        if let Some(at) = r.stage.start(&self.fifos, now, service) {
            self.sched_at(at, Event::ResponderDone { dev });
        }
    }

    pub(super) fn on_responder_done(&mut self, dev: DevId) {
        let now = self.sim.now();
        let d = &mut self.devices[dev.idx()];
        // A hung responder holds every serviced request until the hang
        // ends; the pending completion (and the rest of the queue) is
        // deferred, not lost.
        let faults = d.responder.faults.as_ref();
        let hang_until = faults.map_or(SimTime::ZERO, |f| f.hang_until);
        if now < hang_until {
            if d.responder.stage.defer(now, hang_until) {
                self.sched_at(hang_until, Event::ResponderDone { dev });
            }
            return;
        }
        let Some((port, packet)) = d.responder.stage.finish(&mut self.fifos, now) else {
            return;
        };
        // The request is consumed by servicing; the reply is a fresh body.
        let request = self.packets.take(packet);
        if let Some(reply) = service_pi4(d, &request) {
            self.counters.injected += 1;
            self.inject(dev, port, now, reply);
        }
        self.responder_start(dev);
    }

    /// The agent: each packet occupies it for the time it asks for.
    fn agent_enqueue(&mut self, dev: DevId, item: Held) {
        let Some(slot) = self.devices[dev.idx()].agent.as_mut() else {
            // No consumer: a completion for a dead manager, or data to a
            // plain endpoint. Count as a bad route so tests notice.
            self.counters.dropped_bad_route += 1;
            self.packets.free(item.1);
            return;
        };
        slot.inbox.push(&mut self.fifos, item);
        self.agent_start(dev);
    }

    fn agent_start(&mut self, dev: DevId) {
        let Some(slot) = self.devices[dev.idx()].agent.as_mut() else {
            return;
        };
        let service = |&(_, head): &Held| slot.agent.processing_time(self.packets.packet(head));
        if let Some(at) = slot.inbox.start(&self.fifos, self.sim.now(), service) {
            self.sched_at(at, Event::AgentDone { dev });
        }
    }

    pub(super) fn on_agent_done(&mut self, dev: DevId) {
        let now = self.sim.now();
        let slot = self.devices[dev.idx()].agent.as_mut();
        let Some((_, packet)) = slot.and_then(|slot| slot.inbox.finish(&mut self.fifos, now))
        else {
            return;
        };
        // The agent consumes the packet: move it out of the arena.
        let packet = self.packets.take(packet);
        self.with_agent(dev, |agent, ctx| agent.on_packet(ctx, packet));
    }

    // ---------------- agent callbacks ----------------

    /// A `Timer` event fired: the agent gets the timer due now, if any
    /// and if the device is up, and its ledger's next event is armed.
    pub(super) fn on_timer(&mut self, dev: DevId, token: u64) {
        let key = self.sim.current_key();
        let d = &mut self.devices[dev.idx()];
        let active = d.active;
        let due = match d.agent.as_mut() {
            Some(slot) if slot.timers.fires(key) => slot.timers.take_due(key),
            _ => Some(token),
        };
        if let Some(token) = due.filter(|_| active) {
            self.with_agent(dev, |agent, ctx| agent.on_timer(ctx, token));
        }
        self.arm_next_timer(dev);
    }

    /// Arms a timer on `dev` due `delay` from now: an entry on its agent's
    /// ledger, or a plain event where no agent is installed.
    pub(super) fn arm_agent_timer(&mut self, dev: DevId, delay: SimDuration, token: u64) {
        let key = self.sim.reserve_key(self.sim.now() + delay);
        let Some(slot) = self.devices[dev.idx()].agent.as_mut() else {
            return self.sched_keyed(key, Event::Timer { dev, token });
        };
        slot.timers.arm(key, token);
        self.arm_next_timer(dev);
    }

    /// Puts the earliest timer of `dev`'s agent on the kernel, if it
    /// needs its event.
    fn arm_next_timer(&mut self, dev: DevId) {
        let slot = self.devices[dev.idx()].agent.as_mut();
        if let Some((key, token)) = slot.and_then(|slot| slot.timers.next_event()) {
            self.sched_keyed(key, Event::Timer { dev, token });
        }
    }

    /// The one way the fabric calls an agent, if `dev` hosts one: build
    /// the context (a snapshot of the host's own configuration, in the
    /// fabric's recycled buffers), run `call`, let the next queued packet
    /// begin its occupancy, then execute the commands the agent queued —
    /// in that order: it breaks same-timestamp ties between the two.
    pub(super) fn with_agent(
        &mut self,
        dev: DevId,
        call: impl FnOnce(&mut dyn FabricAgent, &mut AgentCtx),
    ) {
        let now = self.sim.now();
        let d = &mut self.devices[dev.idx()];
        let Some(slot) = d.agent.as_mut() else { return };
        let mut ports = std::mem::take(&mut self.scratch_ports);
        ports.clear();
        ports.extend(d.ports.iter().map(Port::info));
        let mut ctx = AgentCtx::new(now, dev, d.info, ports);
        ctx.recycle_commands(std::mem::take(&mut self.scratch_commands));
        call(slot.agent.as_mut(), &mut ctx);
        self.agent_start(dev);
        let mut commands = ctx.take_commands();
        self.scratch_ports = ctx.host_ports;
        for command in commands.drain(..) {
            match command {
                AgentCommand::Send { port, packet } => {
                    self.counters.injected += 1;
                    self.inject(dev, port, now, packet);
                }
                AgentCommand::Timer { delay, token } => self.arm_agent_timer(dev, delay, token),
                AgentCommand::CancelTimer { token } => {
                    let slot = self.devices[dev.idx()].agent.as_mut();
                    slot.expect("a command comes from an agent")
                        .timers
                        .cancel(token);
                }
            }
        }
        // A burst gives its buffer back instead of holding it all run.
        if commands.capacity() <= KEPT_COMMANDS {
            self.scratch_commands = commands;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::Shot;
    use crate::{FaultPlan, LossModel};
    use asi_proto::config::{general_info_read, port_info_read, port_info_reads};
    use asi_proto::CapabilityAddr;
    use asi_sim::{TraceRecord, TraceSink, EXTERNAL_RANK};
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::rc::Rc;

    /// A 3x3 mesh under unicast (two flows per source) and switch-sourced
    /// flows in a window that opens at 1 ms, long after bring-up, with
    /// links that lose packets by `loss`; every device activated at 0. Returns the fabric and the plan's
    /// arrivals expanded eagerly.
    fn loaded_mesh(loss: LossModel) -> (Fabric, Vec<Shot>) {
        let topo = asi_topo::mesh(3, 3).unwrap().topology;
        let traffic = crate::TrafficPlan::none()
            .with_unicast(0.3, 256)
            .with_flows(2)
            .with_switch_sourced(0.1)
            .with_window(SimDuration::from_ms(1), SimDuration::from_ms(1))
            .with_seed(7);
        let config = FabricConfig {
            traffic,
            faults: FaultPlan::none().with_loss(loss),
            ..FabricConfig::default()
        };
        let shots = (config.traffic.materialize(&topo, config.byte_time)).shots();
        let mut fabric = Fabric::new(&topo, config);
        fabric.activate_all(SimDuration::ZERO);
        (fabric, shots)
    }

    /// `flow-injected` records as `(time, flow)`.
    #[derive(Default)]
    struct Injections(Vec<(SimTime, u32)>);

    impl TraceSink for Injections {
        fn record(&mut self, record: TraceRecord) {
            if let TraceEvent::FlowInjected { flow } = record.event {
                self.0.push((record.time, flow));
            }
        }
    }

    /// With every source up, the flows inject exactly the eagerly
    /// expanded schedule, in its `(at, flow)` order.
    #[test]
    fn arrivals_fire_in_the_order_of_the_eager_schedule() {
        let (mut fabric, shots) = loaded_mesh(LossModel::None);
        let sink = Rc::new(RefCell::new(Injections::default()));
        fabric.set_trace(TraceHandle::to(sink.clone()), SimDuration::ZERO);
        fabric.run_until_idle();
        let want: Vec<_> = (shots.iter())
            .map(|s| (SimTime::ZERO + s.at, s.flow))
            .collect();
        assert!(want.len() > 1000, "{}", want.len());
        assert_eq!(sink.borrow().0, want);
        assert_eq!(fabric.counters().dropped_inactive, 0);
        assert_eq!(fabric.sim.pending(), 0);
    }

    /// FNV-1a over `words`, little-endian.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        let step = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        (words.into_iter())
            .flat_map(u64::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325, step)
    }

    /// The data path with flow bodies in a slab of their own delivers
    /// what it did when every queued data packet was a whole `Packet`
    /// carrying a copy of its route. The counters and, per flow, the
    /// deliveries, the bytes and an FNV digest of every latency were
    /// recorded then (and again when the plan's multicast flows went):
    /// loss-free, where management-free data takes the queue path, and
    /// under uniform loss, where lost packets bounce their credits. Both
    /// slabs drain.
    #[test]
    fn flow_bodies_deliver_what_whole_packets_did() {
        let lossless = FabricCounters {
            injected: 3381,
            delivered: 3381,
            forwarded: 9117,
            credit_stalls: 39,
            data_bytes: 3_399_456,
            flow_injected: 3381,
            flow_delivered: 3381,
            flow_bytes: 865_536,
            data_queue_peak: 13,
            ..FabricCounters::default()
        };
        let lossy = FabricCounters {
            injected: 3381,
            delivered: 3150,
            forwarded: 8773,
            dropped_corrupted: 231,
            credit_stalls: 10,
            data_bytes: 3_305_888,
            flow_injected: 3381,
            flow_delivered: 3150,
            flow_bytes: 806_400,
            data_queue_peak: 12,
            ..FabricCounters::default()
        };
        for (loss, counters, flows) in [
            (LossModel::None, lossless, 0xb167_c5cb_3505_c562),
            (LossModel::uniform(0.02), lossy, 0x9dbc_bad7_c933_ce5e),
        ] {
            let (mut fabric, _) = loaded_mesh(loss);
            fabric.run_until_idle();
            assert_eq!(*fabric.counters(), counters, "{loss:?}");
            let latencies = |s: &FlowStats| fnv(s.latency_ps.iter().copied());
            let stats = fabric.flow_stats().iter();
            let per_flow = stats.flat_map(|s| [s.delivered, s.bytes, latencies(s)]);
            assert_eq!(fnv(per_flow), flows, "{loss:?}");
            // Live bodies summed over both slabs: 0 means both are empty.
            assert_eq!(fabric.packet_arena_live(), 0, "{loss:?}");
        }
    }

    /// A source that goes down for part of the window drops the arrivals
    /// that fire meanwhile, and its flows go on once it is back: per flow,
    /// injections plus drops are the eager schedule's shots. Every
    /// arrival, injected or dropped, fires under its flow's lane — the
    /// external key reserved for the flow, in flow order, with the
    /// arrival's time — and never under a key of its source's.
    #[test]
    fn a_flow_whose_source_goes_down_drops_its_arrivals_and_goes_on() {
        let (mut fabric, shots) = loaded_mesh(LossModel::None);
        let src = DevId(fabric.traffic.flows[0].src);
        let back = SimTime::from_us(1500);
        fabric.schedule_deactivate(src, SimDuration::from_us(1200));
        fabric.schedule_activate(src, back - SimTime::ZERO);
        let lanes = fabric.traffic.lanes.clone();
        for (flow, lane) in lanes.iter().enumerate() {
            assert_eq!(lane.origin, EXTERNAL_RANK);
            assert_eq!(lane.seq, lanes[0].seq + flow as u32);
        }
        // Per flow: (injected, dropped, last injection).
        let mut tally = vec![(0, 0, SimTime::ZERO); fabric.traffic.flows.len()];
        while let Some(fired) = fabric.sim.next_event() {
            let before = *fabric.counters();
            let flow = match fired.event {
                Event::TrafficInject { flow, .. } => Some(flow as usize),
                _ => None,
            };
            if let Some(flow) = flow {
                let time = fabric.now();
                let lane = EventKey {
                    time,
                    ..lanes[flow]
                };
                assert_eq!(fabric.sim.current_key(), lane, "flow {flow}");
            }
            fabric.dispatch(fired.event);
            fabric.sim.finish_dispatch();
            let Some(flow) = flow else { continue };
            let c = fabric.counters();
            let injected = c.injected - before.injected;
            let dropped = c.dropped_inactive - before.dropped_inactive;
            assert_eq!(injected + dropped, 1, "an arrival injects or drops");
            let t = &mut tally[flow];
            t.0 += injected;
            t.1 += dropped;
            if injected == 1 {
                t.2 = fabric.now();
            }
        }
        // Every body queued at the source's port went with the link, from
        // whichever slab it was in.
        assert_eq!(fabric.packet_arena_live(), 0);
        for (flow, &(injected, dropped, last)) in tally.iter().enumerate() {
            let want = shots.iter().filter(|s| s.flow == flow as u32).count();
            assert_eq!((injected + dropped) as usize, want, "flow {flow}");
            let from_src = fabric.traffic.flows[flow].src == src.0;
            assert_eq!(dropped > 0, from_src, "flow {flow}");
            if from_src {
                assert!(last > back, "flow {flow} stopped at {last:?}");
            }
        }
    }

    /// `fault-packet-lost` records' devices.
    #[derive(Default)]
    struct Losses(Vec<u32>);

    impl TraceSink for Losses {
        fn record(&mut self, record: TraceRecord) {
            if let TraceEvent::FaultPacketLost { device, .. } = record.event {
                self.0.push(device);
            }
        }
    }

    /// Under uniform loss a device's random stream comes into being at
    /// its first transmission: the devices that never transmit — here the
    /// two endpoints the plan exempts, among others — hold none. Every
    /// stream is the one each device carried from the start before streams
    /// were created lazily, `SimRng::new(seed ^ (id + 1)·0xA24B_AED4_963E_E407)`,
    /// one draw per transmission in.
    #[test]
    fn a_lossy_run_creates_streams_for_the_devices_that_transmitted() {
        let topo = asi_topo::mesh(3, 3).unwrap().topology;
        let exempt = [1, 17];
        let config = FabricConfig {
            traffic: crate::TrafficPlan::none()
                .with_unicast(0.3, 256)
                .with_window(SimDuration::from_ms(1), SimDuration::from_ms(1))
                .with_exempt(exempt.to_vec()),
            faults: FaultPlan::none().with_loss(LossModel::uniform(0.02)),
            ..FabricConfig::default()
        };
        let seed = config.seed;
        let mut fabric = Fabric::new(&topo, config);
        fabric.activate_all(SimDuration::ZERO);
        let lost = Rc::new(RefCell::new(Losses::default()));
        fabric.set_trace(TraceHandle::to(lost.clone()), SimDuration::ZERO);
        // Transmissions per device: the far end of every arrival's port,
        // and the device of every lost packet.
        let mut sent = vec![0; fabric.device_count()];
        while let Some(fired) = fabric.sim.next_event() {
            if let Event::Arrive { dev, port, .. } = fired.event {
                let port = &fabric.devices[dev.idx()].ports[usize::from(port)];
                sent[port.peer().expect("a wired port").0.idx()] += 1;
            }
            fabric.dispatch(fired.event);
            fabric.sim.finish_dispatch();
        }
        assert!(!lost.borrow().0.is_empty());
        for &device in &lost.borrow().0 {
            sent[device as usize] += 1;
        }
        for (d, &n) in sent.iter().enumerate() {
            let stream = fabric.rngs.streams.get(&(d as u32));
            assert_eq!(stream.is_some(), n > 0, "device {d}: {n} transmissions");
            let Some(stream) = stream else { continue };
            let derived = seed ^ (d as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407);
            let mut want = SimRng::new(derived);
            for _ in 0..n {
                want.next_u64();
            }
            let draws = |r: &mut SimRng| [r.next_u64(), r.next_u64()];
            assert_eq!(draws(&mut stream.clone()), draws(&mut want), "device {d}");
        }
        for d in exempt {
            assert_eq!(sent[d as usize], 0, "exempt device {d}");
        }
        let transmitted = sent.iter().filter(|&&n| n > 0).count();
        assert_eq!(fabric.rng_streams(), transmitted);
        assert!(transmitted < fabric.device_count());
    }

    /// A token armed again and again and never cancelled, like a
    /// keepalive's.
    const REPEAT: u64 = u64::MAX;

    /// An agent that follows a script from its timer callbacks: each
    /// callback takes the next three steps, arming a timer (0–3 ns out,
    /// so that instants tie) under a fresh token or under [`REPEAT`], or
    /// cancelling the earliest pending timer (the one whose event is in
    /// the kernel) or another one. A fresh token is the arm order.
    #[derive(Default)]
    struct Scripted {
        steps: Vec<(u8, u8)>,
        next: usize,
        arms: u64,
        /// `(due, arm order) → token` of every timer armed and not
        /// cancelled.
        armed: BTreeMap<(SimTime, u64), u64>,
        /// Of those, the ones that have not fired.
        pending: BTreeMap<(SimTime, u64), u64>,
        /// `(now, token)` per callback.
        fired: Vec<(SimTime, u64)>,
    }

    impl FabricAgent for Scripted {
        fn processing_time(&mut self, _: &Packet) -> SimDuration {
            SimDuration::ZERO
        }

        fn on_packet(&mut self, _: &mut AgentCtx, _: Packet) {}

        fn on_timer(&mut self, ctx: &mut AgentCtx, token: u64) {
            let now = ctx.now;
            self.fired.push((now, token));
            let mut due = self.pending.iter();
            if let Some((&key, _)) = due.find(|&(&(at, _), &t)| at == now && t == token) {
                self.pending.remove(&key);
            }
            for _ in 0..3 {
                let Some(&(op, r)) = self.steps.get(self.next) else {
                    return;
                };
                self.next += 1;
                if op % 5 < 3 {
                    // Not at the kick-off's own instant: armed from an
                    // external event, that key would sort before it.
                    let delay = SimDuration::from_ns(u64::from(r % 4) + u64::from(token == 0));
                    let order = self.arms;
                    let token = if op % 5 == 2 { REPEAT } else { order };
                    self.arms += 1;
                    ctx.set_timer(delay, token);
                    self.armed.insert((now + delay, order), token);
                    self.pending.insert((now + delay, order), token);
                    continue;
                }
                let mut cancellable = self.pending.iter().filter(|&(_, &t)| t != REPEAT);
                let pick = match op % 5 {
                    3 => cancellable.next(),
                    _ => cancellable.nth(usize::from(r) % 8),
                };
                if let Some((&key, &token)) = pick {
                    self.pending.remove(&key);
                    self.armed.remove(&key);
                    ctx.cancel_timer(token);
                }
            }
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Whatever an agent arms and cancels, it receives exactly the
        /// timers it did not cancel, each at the instant it was armed
        /// for, in (instant, arm order) — the order of the keys reserved
        /// at arm time — and no more `Timer` events than it armed timers.
        #[test]
        fn an_agent_receives_exactly_its_uncancelled_timers_in_key_order(
            steps in prop::collection::vec((any::<u8>(), any::<u8>()), 1..200),
        ) {
            let topo = asi_topo::mesh(2, 2).unwrap().topology;
            let mut fabric = Fabric::new(&topo, FabricConfig::default());
            fabric.activate_all(SimDuration::ZERO);
            fabric.run_until_idle();
            let dev = DevId(asi_topo::default_fm_endpoint(&topo).unwrap().0);
            let scripted = Scripted { steps, arms: 1, ..Scripted::default() };
            fabric.set_agent(dev, Box::new(scripted));
            // The kick-off, from outside, under token 0.
            let kick = fabric.now() + SimDuration::from_ns(1);
            fabric.schedule_agent_timer(dev, SimDuration::from_ns(1), 0);
            fabric.run_until_idle();
            let agent = fabric.agent_as::<Scripted>(dev).unwrap();
            let armed = agent.armed.iter().map(|(&(at, _), &token)| (at, token));
            let want: Vec<_> = std::iter::once((kick, 0)).chain(armed).collect();
            prop_assert_eq!(&agent.fired, &want);
            prop_assert_eq!(fabric.agent_timers(dev), 0);
            let (_, timers) = fabric.dispatch_counts().find(|&(kind, _)| kind == "timer").unwrap();
            prop_assert!(timers <= agent.arms, "{} events for {} timers", timers, agent.arms);
        }
    }

    /// What a PI-4 read of `(addr, dwords)` at `dev` returns through the
    /// responder's own servicing, `service_pi4`.
    fn serviced_read(
        fabric: &mut Fabric,
        dev: DevId,
        (addr, dwords): (CapabilityAddr, u8),
    ) -> Vec<u32> {
        let header = RouteHeader::forward(
            ProtocolInterface::DeviceManagement,
            MANAGEMENT_TC,
            TurnPool::new_spec(),
        );
        let request = Packet::new(
            header,
            Payload::Pi4(Pi4::ReadRequest {
                req_id: 1,
                addr,
                dwords,
            }),
        );
        let reply = service_pi4(&mut fabric.devices[dev.idx()], &request);
        match reply.map(|reply| reply.payload) {
            Some(Payload::Pi4(Pi4::ReadCompletion { data, .. })) => data,
            other => panic!("{dev:?}: {other:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The baseline capability is encoded from the device's own state
        /// at every read, and what goes on the wire is what the device
        /// is: after each activation, deactivation or flap, every
        /// general-information and port-block read equals words built
        /// from the topology, `Fabric::port_state` and the device's
        /// `DeviceInfo` — an x1 link at 2.5 Gb/s, the partner's port while
        /// the link is up, and all zero on a port that has never been up
        /// on a device that has never been powered down.
        #[test]
        fn a_baseline_read_is_the_device_as_it_is(
            dragonfly in any::<bool>(),
            ops in prop::collection::vec((0u8..3, any::<u16>(), any::<u8>()), 1..24),
        ) {
            let topo = match dragonfly {
                false => asi_topo::mesh(3, 3).unwrap().topology,
                true => asi_topo::dragonfly(2, 3).unwrap().topology,
            };
            let mut fabric = Fabric::new(&topo, FabricConfig::default());
            fabric.activate_all(SimDuration::ZERO);
            fabric.run_until_idle();
            let n = topo.node_count();
            // Per device and port: whether a link width and speed have
            // been negotiated there.
            let mut negotiated: Vec<Vec<bool>> =
                topo.nodes().map(|(_, node)| vec![false; usize::from(node.ports)]).collect();
            // Step 0 is the bring-up itself.
            let steps = std::iter::once(None).chain(ops.into_iter().map(Some));
            for (step, op) in steps.enumerate() {
                if let Some((op, at, port)) = op {
                    let dev = DevId(u32::from(at) % n as u32);
                    match op {
                        0 => fabric.schedule_activate(dev, SimDuration::ZERO),
                        1 => {
                            if fabric.is_active(dev) {
                                negotiated[dev.idx()].fill(true);
                            }
                            fabric.schedule_deactivate(dev, SimDuration::ZERO);
                        }
                        _ => {
                            let port = port % topo.node(asi_topo::NodeId(dev.0)).unwrap().ports;
                            let down_for = SimDuration::from_us(2);
                            let flap = Event::FaultLinkDown { dev, port, down_for };
                            fabric.sched_at(fabric.now(), flap);
                        }
                    }
                    fabric.run_until_idle();
                }
                for (id, node) in topo.nodes() {
                    let dev = DevId(id.0);
                    let info = DeviceInfo {
                        device_type: node.device_type,
                        dsn: DSN_BASE | u64::from(id.0),
                        port_count: u16::from(node.ports),
                        max_packet_size: 2048,
                        fm_capable: node.device_type == DeviceType::Endpoint,
                        fm_priority: 0,
                    };
                    let general = serviced_read(&mut fabric, dev, general_info_read());
                    prop_assert_eq!(&general[..], &info.to_words()[..], "step {} {:?}", step, dev);
                    let mut want = Vec::new();
                    for p in 0..node.ports {
                        let state = fabric.port_state(dev, p);
                        let seen = &mut negotiated[dev.idx()][usize::from(p)];
                        *seen |= state != PortState::Down;
                        let peer_port = match (state, topo.peer(id, p)) {
                            (PortState::Active, Some(peer)) => peer.port,
                            _ => 0,
                        };
                        let block = PortInfo {
                            state,
                            link_width: if *seen { 1 } else { 0 },
                            link_speed: if *seen { 10 } else { 0 },
                            peer_port,
                        };
                        want.extend(block.to_words());
                    }
                    let mut got = Vec::new();
                    for first in port_info_reads(info.port_count) {
                        let read = port_info_read(first, info.port_count).unwrap();
                        got.extend(serviced_read(&mut fabric, dev, read));
                    }
                    prop_assert_eq!(got, want, "step {} {:?}", step, dev);
                }
            }
        }
    }

    impl Fabric {
        /// The stage pool's conservation law: the FIFOs on loan are
        /// exactly the FIFOs of the stages that hold something — each lent
        /// to one stage, none of them empty — every stage in service holds
        /// one, and every FIFO at home is empty. Returns the items held.
        fn stage_items(&self) -> usize {
            let stages = (self.devices.iter()).flat_map(|d| {
                let inbox = d.agent.as_ref().map(|slot| &slot.inbox);
                [Some(&d.ingress), Some(&d.responder.stage), inbox]
            });
            let stages: Vec<&Stage> = stages.flatten().collect();
            for stage in &stages {
                assert!(
                    stage.done_at == IDLE || stage.q != NIL,
                    "in service, holding nothing"
                );
            }
            let mut held: Vec<u32> = (stages.iter())
                .filter(|s| s.q != NIL)
                .map(|s| s.q)
                .collect();
            held.sort_unstable();
            assert!(held.windows(2).all(|w| w[0] != w[1]), "a FIFO lent twice");
            assert_eq!(held.len(), self.fifos.lent(), "a FIFO on loan to no stage");
            let on_loan: Vec<usize> = held.iter().map(|&q| self.fifos[q].len()).collect();
            assert!(on_loan.iter().all(|&n| n > 0), "an empty FIFO on loan");
            let items: usize = self.fifos.iter().map(VecDeque::len).sum();
            assert_eq!(
                items,
                on_loan.iter().sum::<usize>(),
                "items in a FIFO at home"
            );
            items
        }
    }

    /// An agent that reads every device's configuration space at its
    /// first timer, general information and every port block, and takes
    /// 1 µs per packet it receives, so that completions queue in its
    /// inbox and requests in the switches' responders.
    struct Reader {
        reads: Vec<(u8, Packet)>,
    }

    impl FabricAgent for Reader {
        fn processing_time(&mut self, _: &Packet) -> SimDuration {
            SimDuration::from_us(1)
        }

        fn on_packet(&mut self, _: &mut AgentCtx, _: Packet) {}

        fn on_timer(&mut self, ctx: &mut AgentCtx, _: u64) {
            for (port, packet) in self.reads.drain(..) {
                ctx.send(port, packet);
            }
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// The conservation law holds after every event of a lossy 4x4 mesh
    /// under data load, with a manager reading every device, a link flap,
    /// and a switch that goes down while its responder has requests in
    /// service and waiting; once the fabric drains, no FIFO is on loan.
    #[test]
    fn the_fifos_on_loan_are_the_stages_that_hold_something() {
        let g = asi_topo::mesh(4, 4).unwrap();
        let topo = &g.topology;
        let host = g.endpoint_at(0, 0);
        let traffic = crate::TrafficPlan::none()
            .with_unicast(0.2, 256)
            .with_window(SimDuration::from_us(20), SimDuration::from_us(200))
            .with_exempt(vec![host.0]);
        let config = FabricConfig {
            traffic,
            faults: FaultPlan::none().with_loss(LossModel::uniform(0.02)),
            ..FabricConfig::default()
        };
        let mut fabric = Fabric::new(topo, config);
        fabric.activate_all(SimDuration::ZERO);
        fabric.run_until(SimTime::from_us(10));
        let mut reads = Vec::new();
        for (id, node) in topo.nodes().filter(|&(id, _)| id != host) {
            let route = asi_topo::shortest_route(topo, host, id).unwrap();
            let pool = route.encode(topo, asi_proto::MAX_POOL_BITS).unwrap();
            let port_count = u16::from(node.ports);
            let blocks =
                port_info_reads(port_count).map(|first| port_info_read(first, port_count).unwrap());
            for (addr, dwords) in std::iter::once(general_info_read()).chain(blocks) {
                let header = RouteHeader::forward(
                    ProtocolInterface::DeviceManagement,
                    MANAGEMENT_TC,
                    pool.clone(),
                );
                let req_id = reads.len() as u32;
                let read = Pi4::ReadRequest {
                    req_id,
                    addr,
                    dwords,
                };
                reads.push((route.source_port, Packet::new(header, Payload::Pi4(read))));
            }
        }
        let host = DevId(host.0);
        fabric.set_agent(host, Box::new(Reader { reads }));
        fabric.schedule_agent_timer(host, SimDuration::ZERO, 0);
        // The far corner switch goes down mid-service; a link between two
        // other switches flaps.
        let victim = DevId(g.switch_at(3, 3).0);
        let flapped = DevId(g.switch_at(1, 1).0);
        let (mut deep, mut most_lent, mut deactivated) = (0, 0, false);
        while fabric.step() {
            fabric.stage_items();
            most_lent = most_lent.max(fabric.fifos.lent());
            let responder = &fabric.devices[victim.idx()].responder.stage;
            let waiting = match responder.q {
                NIL => 0,
                q => fabric.fifos[q].len(),
            };
            deep = deep.max(waiting);
            if !deactivated && waiting >= 2 {
                deactivated = true;
                let now = fabric.now();
                fabric.schedule_deactivate(victim, SimDuration::ZERO);
                let down_for = SimDuration::from_us(5);
                fabric.sched_at(
                    now,
                    Event::FaultLinkDown {
                        dev: flapped,
                        port: 0,
                        down_for,
                    },
                );
            }
        }
        assert!(deactivated, "the corner switch never held two requests");
        assert!(most_lent > 2, "{most_lent} FIFOs on loan at most");
        assert!(fabric.counters().dropped_inactive > 0);
        assert!(fabric.counters().dropped_corrupted > 0);
        assert_eq!(fabric.counters().link_flaps, 1);
        assert_eq!(fabric.stage_items(), 0);
        assert_eq!(fabric.fifos.lent(), 0);
        assert_eq!(fabric.packet_arena_live(), 0);
    }

    #[test]
    fn stage_serves_one_item_at_a_time_and_only_for_its_own_done() {
        enum Op {
            Push(u8),
            Finish,
            Defer(u64),
            Clear,
        }
        use Op::*;
        // (now, operation, its result, `done_at` afterwards, items held
        // afterwards); times in ps, every service takes 10.
        let steps = [
            (0, Push(1), Some(10), Some(10), 1),    // push on idle arms
            (3, Push(2), None, Some(10), 2),        // push on busy does not
            (7, Finish, None, Some(10), 2),         // not the armed instant: nothing
            (10, Finish, Some(1), Some(20), 1),     // the armed `Done`: head, re-armed
            (20, Defer(50), Some(50), Some(50), 1), // a hang re-arms at its end
            (20, Finish, None, Some(50), 1),
            (30, Defer(60), None, Some(50), 1), // a stale `Done` cannot defer
            (50, Finish, Some(2), None, 0),     // nothing more queued: idle
            (60, Push(3), Some(70), Some(70), 1),
            (61, Clear, Some(1), None, 0), // one item lost, disarmed
            (70, Finish, None, None, 0),   // the `Done` armed before the clear
        ];
        let service = |_: &Held| SimDuration::from_ps(10);
        let mut packets = Packets::default();
        let mut fifos = Fifos::default();
        let mut stage = Stage::default();
        for (i, (now, op, result, done_at, held)) in steps.into_iter().enumerate() {
            let now = SimTime::from_ps(now);
            // A push or a finished item is followed by `start`, as in
            // every `*_enqueue` and `on_*_done`. The port is the tag.
            let got = match op {
                Push(tag) => {
                    let header =
                        RouteHeader::forward(ProtocolInterface::Data, 0, TurnPool::new_spec());
                    let body = packets.alloc(Packet::new(header, Payload::Data { len: 0 }));
                    stage.push(&mut fifos, (tag, body));
                    stage.start(&fifos, now, service).map(SimTime::as_ps)
                }
                Finish => stage.finish(&mut fifos, now).map(|(tag, body)| {
                    packets.free(body);
                    stage.start(&fifos, now, service);
                    u64::from(tag)
                }),
                Defer(until) => stage.defer(now, SimTime::from_ps(until)).then_some(until),
                Clear => Some(stage.clear(&mut fifos, |(_, body)| packets.free(body)) as u64),
            };
            let armed = (stage.done_at != IDLE).then_some(stage.done_at.as_ps());
            assert_eq!((got, armed), (result, done_at), "step {i}");
            // A FIFO is on loan exactly while the stage holds something,
            // the item in service included; one FIFO serves every loan.
            let fifo = (stage.q != NIL).then(|| fifos[stage.q].len());
            assert_eq!(fifo.unwrap_or(0), held, "step {i}");
            assert_eq!(fifos.lent(), usize::from(held > 0), "step {i}");
            assert_eq!(fifos.iter().len(), 1, "step {i}");
        }
        assert_eq!(packets.live(), 0);
    }
}
