//! A packet delivered to a device, and what consumes it: the serial
//! stages — the PI-4 responder every device has, and on endpoints the
//! ingress pipe and the agent behind it — agent callbacks and timers,
//! and the traffic plan's arrivals and flow accounting.
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

/// One server behind a FIFO: the serial-stage mechanism of the ingress
/// pipe, the PI-4 responder and the agent.
///
/// The stage is *idle* or *in service until `done_at`*, the instant its
/// `*Done` event was scheduled for. Only that event takes the head
/// ([`Stage::finish`]): a device that powers down clears its stages, and
/// a `*Done` that outlives the power cycle finds a stage armed for
/// another instant, or not at all, and does nothing.
pub(super) struct Stage<T> {
    queue: VecDeque<T>,
    /// When the current service ends ([`IDLE`] when idle: a sentinel, like
    /// `Port::try_tx_at`).
    done_at: SimTime,
}

impl<T> Default for Stage<T> {
    fn default() -> Self {
        Stage {
            queue: VecDeque::new(),
            done_at: IDLE,
        }
    }
}

impl<T> Stage<T> {
    fn push(&mut self, item: T) {
        self.queue.push_back(item);
    }

    /// If the stage is idle with something queued, begins serving the
    /// head and returns the instant, `service(head)` from `now`, at which
    /// the caller must fire the stage's `*Done`. Called after every `push`
    /// and every `finish`, so in between idle means empty.
    fn start(&mut self, now: SimTime, service: impl FnOnce(&T) -> SimDuration) -> Option<SimTime> {
        if self.done_at != IDLE {
            return None;
        }
        self.done_at = now + service(self.queue.front()?);
        Some(self.done_at)
    }

    /// A `*Done` fired at `now`: yields the item whose service ends now,
    /// leaving the stage idle — or nothing, and no change, if this is not
    /// the event the stage is armed for.
    fn finish(&mut self, now: SimTime) -> Option<T> {
        if self.done_at != now {
            return None;
        }
        self.done_at = IDLE;
        self.queue.pop_front()
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

    /// Empties and disarms the stage, handing each queued item to `lose`.
    /// Returns how many there were.
    pub(super) fn clear(&mut self, lose: impl FnMut(T)) -> usize {
        self.done_at = IDLE;
        let lost = self.queue.len();
        self.queue.drain(..).for_each(lose);
        lost
    }
}

/// The PI-4 responder of a device: requests wait with their ingress port.
#[derive(Default)]
pub(super) struct Responder {
    pub(super) stage: Stage<(u8, PacketRef)>,
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
    pub(super) inbox: Stage<PacketRef>,
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
    /// Plan-driven multicast deliveries per `(group, member device)`.
    pub(super) mcast_deliveries: BTreeMap<(u16, u32), u64>,
}

/// Services one PI-4 request against a device's configuration space.
/// The reply retraces the request's path.
fn service_pi4(config: &mut ConfigSpace, request: &Packet) -> Option<Packet> {
    let (req_id, result) = match &request.payload {
        Payload::Pi4(Pi4::ReadRequest {
            req_id,
            addr,
            dwords,
        }) => {
            let req_id = *req_id;
            let read = config.read(*addr, *dwords);
            let done = read.map(|data| Pi4::ReadCompletion { req_id, data });
            (req_id, done)
        }
        Payload::Pi4(Pi4::WriteRequest { req_id, addr, data }) => {
            let req_id = *req_id;
            let done = config.write(*addr, data);
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

    /// Materializes the traffic plan: group tables written, each flow's
    /// first arrival on the clock. An inert plan materializes to nothing
    /// (no RNG seeded, no table written, no event scheduled), so zero-load
    /// runs replay traffic-free runs byte-for-byte.
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
        for w in &schedule.writes {
            let config = &mut self.devices[w.device as usize].config;
            config.set_mcast_entry(w.group, w.mask);
        }
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
    /// flow's packet on the source's egress queue — a multicast packet
    /// whole, any other as a flow body stamped with the injection time for
    /// latency measurement. Shots at sources that are inactive or whose
    /// egress link is down are dropped, like any other arrival there, and
    /// the flow goes on.
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
        self.trace.emit(now, || TraceEvent::FlowInjected { flow });
        let packet = if let FlowKind::Mcast { .. } = spec.kind {
            self.counters.mcast_injected += 1;
            self.packets.alloc(build_flow_packet(spec))
        } else {
            self.counters.flow_injected += 1;
            self.packets.alloc_flow(FlowBody {
                sent_ps: now.as_ps(),
                flow,
                turn_pointer: spec.pool.len_bits(),
            })
        };
        let entry = OutEntry {
            ready: now,
            packet,
            origin: None,
        };
        self.enqueue_out(dev, spec.egress, entry);
    }

    // ---------------- delivery ----------------

    pub(super) fn on_deliver(&mut self, dev: DevId, port: u8, packet: PacketRef) {
        let now = self.sim.now();
        if !self.devices[dev.idx()].active {
            self.counters.dropped_inactive += 1;
            self.packets.free(packet);
            return;
        }
        // The packet has been copied out of the input buffer: release it.
        self.release_origin_now(dev, port, packet);
        // Traffic-plan deliveries are consumed by the fabric itself: flow
        // bodies always, multicast packets when the member endpoint runs
        // no agent (agent-driven multicast keeps its delivery path).
        let Some(whole) = self.packets.whole(packet) else {
            return self.deliver_flow(packet);
        };
        match whole.payload {
            Payload::Mcast { group, .. } if self.devices[dev.idx()].agent.is_none() => {
                self.counters.delivered += 1;
                self.counters.mcast_delivered += 1;
                let device = dev.0;
                let deliveries = &mut self.traffic.mcast_deliveries;
                *deliveries.entry((group, device)).or_insert(0) += 1;
                self.trace
                    .emit(now, || TraceEvent::McastDelivered { group, device });
                self.packets.free(packet);
            }
            Payload::Pi4(ref pi4) if pi4.is_request() => {
                self.counters.delivered += 1;
                self.devices[dev.idx()].responder.stage.push((port, packet));
                self.responder_start(dev);
            }
            Payload::Pi4(_) => self.deliver_completion(dev, packet),
            _ => {
                self.counters.delivered += 1;
                self.ingress_enqueue(dev, packet);
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
    fn deliver_completion(&mut self, dev: DevId, packet: PacketRef) {
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
            self.ingress_enqueue(dev, dup);
        }
        self.ingress_enqueue(dev, packet);
    }

    // ---------------- the three stages ----------------
    // Each keeps what differs: its service time, what a finished item does.

    /// Inbound management pipe: one device-time per received packet, then
    /// the agent queue.
    fn ingress_enqueue(&mut self, dev: DevId, packet: PacketRef) {
        self.devices[dev.idx()].ingress.push(packet);
        self.ingress_start(dev);
    }

    fn ingress_start(&mut self, dev: DevId) {
        let service = |_: &PacketRef| self.config.effective_device_time();
        if let Some(at) = self.devices[dev.idx()]
            .ingress
            .start(self.sim.now(), service)
        {
            self.sched_at(at, Event::IngressDone { dev });
        }
    }

    pub(super) fn on_ingress_done(&mut self, dev: DevId) {
        let Some(packet) = self.devices[dev.idx()].ingress.finish(self.sim.now()) else {
            return;
        };
        self.agent_enqueue(dev, packet);
        self.ingress_start(dev);
    }

    /// PI-4 responder: one device-time per request, stretched by an
    /// active slow-device fault.
    fn responder_start(&mut self, dev: DevId) {
        let now = self.sim.now();
        let r = &mut self.devices[dev.idx()].responder;
        let service = |_: &(u8, PacketRef)| {
            let base = self.config.effective_device_time();
            match &r.faults {
                Some(f) if now < f.slow_until => base.scaled(f.slow_factor),
                _ => base,
            }
        };
        if let Some(at) = r.stage.start(now, service) {
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
        let Some((port, packet)) = d.responder.stage.finish(now) else {
            return;
        };
        // The request is consumed by servicing; the reply is a fresh body.
        let request = self.packets.take(packet);
        if let Some(reply) = service_pi4(&mut d.config, &request) {
            self.counters.injected += 1;
            self.inject(dev, port, now, reply);
        }
        self.responder_start(dev);
    }

    /// The agent: each packet occupies it for the time it asks for.
    fn agent_enqueue(&mut self, dev: DevId, packet: PacketRef) {
        let Some(slot) = self.devices[dev.idx()].agent.as_mut() else {
            // No consumer: a completion for a dead manager, or data to a
            // plain endpoint. Count as a bad route so tests notice.
            self.counters.dropped_bad_route += 1;
            self.packets.free(packet);
            return;
        };
        slot.inbox.push(packet);
        self.agent_start(dev);
    }

    fn agent_start(&mut self, dev: DevId) {
        let Some(slot) = self.devices[dev.idx()].agent.as_mut() else {
            return;
        };
        let service = |head: &PacketRef| slot.agent.processing_time(self.packets.packet(*head));
        if let Some(at) = slot.inbox.start(self.sim.now(), service) {
            self.sched_at(at, Event::AgentDone { dev });
        }
    }

    pub(super) fn on_agent_done(&mut self, dev: DevId) {
        let now = self.sim.now();
        let slot = self.devices[dev.idx()].agent.as_mut();
        let Some(packet) = slot.and_then(|slot| slot.inbox.finish(now)) else {
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
        ports.extend((0..d.info.port_count).map(|p| *d.config.port(p).expect("port in range")));
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
        self.scratch_commands = commands;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::Shot;
    use crate::{FaultPlan, LossModel};
    use asi_sim::{TraceRecord, TraceSink, EXTERNAL_RANK};
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A 3x3 mesh under every flow kind — unicast (two flows per
    /// source), switch-sourced and multicast — in a window that opens at
    /// 1 ms, long after bring-up, with links that lose packets by `loss`;
    /// every device activated at 0. Returns the fabric and the plan's
    /// arrivals expanded eagerly.
    fn loaded_mesh(loss: LossModel) -> (Fabric, Vec<Shot>) {
        let topo = asi_topo::mesh(3, 3).unwrap().topology;
        let traffic = crate::TrafficPlan::none()
            .with_unicast(0.3, 256)
            .with_flows(2)
            .with_switch_sourced(0.1)
            .with_multicast(2, 0.05)
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
    /// recorded then: loss-free, where management-free data takes the
    /// queue path and multicast replicates, and under uniform loss, where
    /// lost packets bounce their credits. Both slabs drain.
    #[test]
    fn flow_bodies_deliver_what_whole_packets_did() {
        let lossless = FabricCounters {
            injected: 3465,
            delivered: 3633,
            forwarded: 9825,
            credit_stalls: 38,
            data_bytes: 3_618_840,
            flow_injected: 3381,
            flow_delivered: 3381,
            flow_bytes: 865_536,
            mcast_injected: 84,
            mcast_delivered: 252,
            data_queue_peak: 13,
            ..FabricCounters::default()
        };
        let lossy = FabricCounters {
            injected: 3465,
            delivered: 3383,
            forwarded: 9453,
            dropped_corrupted: 243,
            credit_stalls: 14,
            data_bytes: 3_517_471,
            flow_injected: 3381,
            flow_delivered: 3152,
            flow_bytes: 806_912,
            mcast_injected: 84,
            mcast_delivered: 231,
            data_queue_peak: 12,
            ..FabricCounters::default()
        };
        for (loss, counters, flows) in [
            (LossModel::None, lossless, 0x9ed4_df60_3f49_a14d),
            (LossModel::uniform(0.02), lossy, 0x3a5d_d7e9_a5a7_0187),
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

    #[test]
    fn stage_serves_one_item_at_a_time_and_only_for_its_own_done() {
        enum Op {
            Push(u32),
            Finish,
            Defer(u64),
            Clear,
        }
        use Op::*;
        // (now, operation, its result, `done_at` afterwards); times in ps,
        // every service takes 10.
        let steps = [
            (0, Push(1), Some(10), Some(10)),    // push on idle arms
            (3, Push(2), None, Some(10)),        // push on busy does not
            (7, Finish, None, Some(10)),         // not the armed instant: nothing
            (10, Finish, Some(1), Some(20)),     // the armed `Done`: head, re-armed
            (20, Defer(50), Some(50), Some(50)), // a hang re-arms at its end
            (20, Finish, None, Some(50)),
            (30, Defer(60), None, Some(50)), // a stale `Done` cannot defer
            (50, Finish, Some(2), None),     // nothing more queued: idle
            (60, Push(3), Some(70), Some(70)),
            (61, Clear, Some(1), None), // one item lost, disarmed
            (70, Finish, None, None),   // the `Done` armed before the clear
        ];
        let service = |_: &u32| SimDuration::from_ps(10);
        let mut stage = Stage::default();
        for (i, (now, op, result, done_at)) in steps.into_iter().enumerate() {
            let now = SimTime::from_ps(now);
            // A push or a finished item is followed by `start`, as in
            // every `*_enqueue` and `on_*_done`.
            let got = match op {
                Push(item) => {
                    stage.push(item);
                    stage.start(now, service).map(SimTime::as_ps)
                }
                Finish => stage.finish(now).map(|item| {
                    stage.start(now, service);
                    u64::from(item)
                }),
                Defer(until) => stage.defer(now, SimTime::from_ps(until)).then_some(until),
                Clear => Some(stage.clear(drop) as u64),
            };
            let armed = (stage.done_at != IDLE).then_some(stage.done_at.as_ps());
            assert_eq!((got, armed), (result, done_at), "step {i}");
        }
    }
}
