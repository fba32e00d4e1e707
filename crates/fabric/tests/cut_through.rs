//! One test per guard of the cut-through commit and one per rule of the
//! credit ledger (both tables are in the module header of
//! `fabric/port.rs`): each scenario is built so that ignoring the guard
//! or the rule changes a counter or a receive time. Every expected time
//! and counter was first recorded where the mechanism did not exist —
//! the guards' on commit 00614c1, where every hop took the queue path,
//! the ledger's on aeb6e1d, where every credit came back as a
//! `CreditReturn` event. Only the event counts (`try_tx`,
//! `credit_return`) describe the mechanism itself.
//!
//! All scenarios run on one switch `S` with endpoints on ports 0, 1, 2,
//! hand-driven: an endpoint's timer `k` sends its `k`-th scripted packet.
//! Times are ns after bring-up, with the default link and switch
//! timing: a 12-byte header takes 48 ns to serialize and 5 ns to
//! propagate, so a packet sent at `t` reaches `S` at `t + 53` and is
//! ready to leave at `t + 193`. Devices and agents take 10 ns per packet
//! instead of microseconds, so that a receive time shows when the packet
//! left `S` and not when the receiver got round to it.

use asi_fabric::{
    AgentCtx, DevId, Fabric, FabricAgent, FabricConfig, FabricCounters, FaultPlan, LossModel,
};
use asi_proto::{
    CapabilityAddr, Packet, Payload, Pi4, ProtocolInterface, RouteHeader, MANAGEMENT_TC,
};
use asi_sim::{SimDuration, SimTime};
use asi_topo::{shortest_route, NodeId, Topology};
use std::any::Any;

/// Sends its `k`-th scripted packet on timer `k`; records what arrives.
#[derive(Default)]
struct Script {
    sends: Vec<(u8, Packet)>,
    received: Vec<(SimTime, Packet)>,
}

impl FabricAgent for Script {
    fn processing_time(&mut self, _p: &Packet) -> SimDuration {
        SimDuration::from_ns(10)
    }
    fn on_packet(&mut self, ctx: &mut AgentCtx, packet: Packet) {
        self.received.push((ctx.now, packet));
    }
    fn on_timer(&mut self, ctx: &mut AgentCtx, token: u64) {
        let (port, packet) = self.sends[token as usize].clone();
        ctx.send(port, packet);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The switch and its three endpoints.
struct Star {
    topo: Topology,
    switch: NodeId,
    ends: [NodeId; 3],
}

/// Default timing, but a 10 ns PI-4 engine in every device.
fn fast_devices() -> FabricConfig {
    FabricConfig {
        device_time: SimDuration::from_ns(10),
        ..FabricConfig::default()
    }
}

fn star() -> Star {
    let mut topo = Topology::new("star");
    let switch = topo.add_switch(16, "S");
    let ends = [0u8, 1, 2].map(|port| {
        let end = topo.add_endpoint(format!("E{port}"));
        topo.connect(switch, port, end, 0).unwrap();
        end
    });
    Star { topo, switch, ends }
}

impl Star {
    /// Brings the fabric up with a scripted agent on every endpoint and
    /// returns it with the bring-up end time (the scenarios' t = 0).
    fn up(&self, config: FabricConfig, scripts: [Vec<(u8, Packet)>; 3]) -> (Fabric, SimTime) {
        let mut fabric = Fabric::new(&self.topo, config);
        fabric.set_event_limit(100_000);
        fabric.activate_all(SimDuration::ZERO);
        // Training takes 1 µs; stop short of any scheduled fault.
        fabric.run_until(SimTime::from_us(5));
        for (end, sends) in self.ends.iter().zip(scripts) {
            let agent = Script {
                sends,
                received: Vec::new(),
            };
            fabric.set_agent(DevId(end.0), Box::new(agent));
        }
        let t0 = fabric.now();
        (fabric, t0)
    }

    /// Endpoint `from` sends its script entry `token` at `at_ns`.
    fn fire(&self, fabric: &mut Fabric, from: usize, token: u64, at_ns: u64) {
        fabric.schedule_agent_timer(DevId(self.ends[from].0), SimDuration::from_ns(at_ns), token);
    }

    /// A header routed from endpoint `from` to `to`.
    fn header(&self, from: usize, to: NodeId, pi: ProtocolInterface, tc: u8) -> (u8, RouteHeader) {
        let route = shortest_route(&self.topo, self.ends[from], to).unwrap();
        let pool = route.encode(&self.topo, asi_proto::MAX_POOL_BITS).unwrap();
        (route.source_port, RouteHeader::forward(pi, tc, pool))
    }

    /// A management packet of `22 + 4 * dwords` bytes from `from` to `to`
    /// that the receiving agent gets to see (a read completion).
    fn mgmt(&self, from: usize, to: usize, req_id: u32, dwords: usize) -> (u8, Packet) {
        let (port, header) = self.header(
            from,
            self.ends[to],
            ProtocolInterface::DeviceManagement,
            MANAGEMENT_TC,
        );
        let data = std::iter::repeat_n(0, dwords).collect();
        let payload = Payload::Pi4(Pi4::ReadCompletion { req_id, data });
        (port, Packet::new(header, payload))
    }

    /// What endpoint `at` received: `(ns after t0, req_id or data length)`.
    fn received(&self, fabric: &Fabric, at: usize, t0: SimTime) -> Vec<(u64, u32)> {
        let agent = fabric.agent_as::<Script>(DevId(self.ends[at].0)).unwrap();
        agent
            .received
            .iter()
            .map(|(t, p)| {
                let what = match &p.payload {
                    Payload::Pi4(Pi4::ReadCompletion { req_id, .. }) => *req_id,
                    Payload::Data { len } => u32::from(*len),
                    other => panic!("unexpected {other:?}"),
                };
                (t.saturating_since(t0).as_ps() / 1000, what)
            })
            .collect()
    }
}

fn dispatched(fabric: &Fabric, kind: &str) -> u64 {
    let (_, n) = fabric.dispatch_counts().find(|(k, _)| *k == kind).unwrap();
    n
}

fn try_tx(fabric: &Fabric) -> u64 {
    dispatched(fabric, "try_tx")
}

fn credit_returns(fabric: &Fabric) -> u64 {
    dispatched(fabric, "credit_return")
}

/// The packet's receive time at an endpoint's agent, given the time its
/// header reached the endpoint: the tail, the inbound PI-4 engine's 10 ns,
/// the agent's 10 ns.
fn agent_sees(header_at_ns: u64, wire_bytes: u64) -> u64 {
    header_at_ns + (wire_bytes - 12) * 4 + 10 + 10
}

#[test]
fn uncontended_hop_commits_and_keeps_its_timestamps() {
    let s = star();
    let (mut fabric, t0) = s.up(fast_devices(), [vec![s.mgmt(0, 2, 7, 0)], vec![], vec![]]);
    s.fire(&mut fabric, 0, 0, 0);
    fabric.run_until_idle();
    // Ready at 193, header at E2 at 246.
    assert_eq!(s.received(&fabric, 2, t0), [(agent_sees(246, 22), 7)]);
    assert_eq!(try_tx(&fabric), 0, "the hop must not arm a wake-up");
    assert_eq!(fabric.counters().mgmt_queue_peak, 1);
    assert_eq!(fabric.packet_arena_live(), 0);
    assert_eq!(fabric.queued_packets(), 0);
    assert_eq!(fabric.credits_outstanding(), 0);
}

#[test]
fn reply_enqueued_inside_the_window_leaves_after_the_committed_packet() {
    let s = star();
    // E0 reads S's own configuration: header at S at 53, whole request
    // (26 bytes) at 109, responder done — and the completion enqueued on
    // port 0 — at 119.
    let (port, header) = s.header(
        0,
        s.switch,
        ProtocolInterface::DeviceManagement,
        MANAGEMENT_TC,
    );
    let read = Pi4::ReadRequest {
        req_id: 1,
        addr: CapabilityAddr::baseline(0),
        dwords: 6,
    };
    let request = (port, Packet::new(header, Payload::Pi4(read)));
    // E1's packet to E0 reaches S at 53 too and is committed on port 0
    // for 193: the completion lands inside (53, 193).
    let (mut fabric, t0) = s.up(
        fast_devices(),
        [vec![request], vec![s.mgmt(1, 0, 2, 0)], vec![]],
    );
    s.fire(&mut fabric, 0, 0, 0);
    s.fire(&mut fabric, 1, 0, 0);
    fabric.run_until_idle();
    // The committed packet (22 bytes, 88 ns) leaves at 193, the 46-byte
    // completion behind it at 281.
    assert_eq!(
        s.received(&fabric, 0, t0),
        [(agent_sees(193 + 53, 22), 2), (agent_sees(281 + 53, 46), 1)],
        "FIFO behind the commitment"
    );
    assert_eq!(
        fabric.counters().mgmt_queue_peak,
        2,
        "the committed packet still counts as queued until it starts"
    );
    // Only the completion waits for the serializer.
    assert_eq!(try_tx(&fabric), 1);
}

#[test]
fn a_second_arrival_inside_the_window_queues_behind_the_commitment() {
    let s = star();
    // Headers at S at 53 (committed for 193, serializer busy to 281) and
    // at 153: the second could start on time at 293, but a port tracks
    // one commitment, and the first has not started.
    let (mut fabric, t0) = s.up(
        fast_devices(),
        [vec![s.mgmt(0, 2, 1, 0)], vec![s.mgmt(1, 2, 2, 0)], vec![]],
    );
    s.fire(&mut fabric, 0, 0, 0);
    s.fire(&mut fabric, 1, 0, 100);
    fabric.run_until_idle();
    assert_eq!(
        s.received(&fabric, 2, t0),
        [(agent_sees(193 + 53, 22), 1), (agent_sees(293 + 53, 22), 2)]
    );
    assert_eq!(fabric.counters().mgmt_queue_peak, 2);
    // The second wakes up for the serializer (281), then for itself.
    assert_eq!(try_tx(&fabric), 2);
}

#[test]
fn a_busy_serializer_sets_the_start_time() {
    let s = star();
    // A 54-byte packet committed for 193 keeps port 2 busy to 409. The
    // next header reaches S at 200, after that commitment started, and
    // would be ready at 340 — but the serializer decides, so no commit.
    let (mut fabric, t0) = s.up(
        fast_devices(),
        [vec![s.mgmt(0, 2, 1, 8)], vec![s.mgmt(1, 2, 2, 0)], vec![]],
    );
    s.fire(&mut fabric, 0, 0, 0);
    s.fire(&mut fabric, 1, 0, 147);
    fabric.run_until_idle();
    assert_eq!(
        s.received(&fabric, 2, t0),
        [(agent_sees(193 + 53, 54), 1), (agent_sees(409 + 53, 22), 2)]
    );
    assert_eq!(try_tx(&fabric), 1);
}

#[test]
fn a_dead_egress_port_drops_at_the_switch() {
    let s = star();
    let (mut fabric, t0) = s.up(fast_devices(), [vec![s.mgmt(0, 2, 1, 0)], vec![], vec![]]);
    // E2 is gone and nothing is pending: S's port 2 is simply down.
    fabric.schedule_deactivate(DevId(s.ends[2].0), SimDuration::ZERO);
    fabric.run_until_idle();
    s.fire(&mut fabric, 0, 0, 0);
    fabric.run_until_idle();
    assert_eq!(s.received(&fabric, 2, t0), []);
    assert_eq!(fabric.counters().dropped_link_down, 1);
    assert_eq!(fabric.counters().dropped_inactive, 0);
    assert_eq!(fabric.counters().mgmt_bytes, 22, "never put on S's wire");
}

#[test]
fn data_is_never_committed_because_management_overtakes_it() {
    let s = star();
    let (port, header) = s.header(0, s.ends[2], ProtocolInterface::Data, 0);
    let data = (port, Packet::new(header, Payload::Data { len: 64 }));
    // Data reaches S at 53 (ready 193); management at 113 (ready 253),
    // inside the data packet's window. `pump` serves the management head
    // first even while it is not ready, so the data waits for it.
    let (mut fabric, t0) = s.up(
        fast_devices(),
        [vec![data], vec![s.mgmt(1, 2, 9, 0)], vec![]],
    );
    s.fire(&mut fabric, 0, 0, 0);
    s.fire(&mut fabric, 1, 0, 60);
    fabric.run_until_idle();
    // Management leaves at 253, the 80-byte data packet at 341. Had the
    // data been committed at 53 it would have left at 193, ahead.
    assert_eq!(
        s.received(&fabric, 2, t0),
        [
            (agent_sees(253 + 53, 22), 9),
            (agent_sees(341 + 53, 80), 64)
        ],
        "management first"
    );
    assert_eq!(try_tx(&fabric), 3, "both packets took the queue path");
}

#[test]
fn a_hop_one_credit_short_falls_back_and_stalls_as_before() {
    let s = star();
    let config = FabricConfig {
        mgmt_credits: 1,
        ..fast_devices()
    };
    // The first packet (54 bytes, 216 ns) is committed for 193 and takes
    // port 2's only credit; it comes back at 193 + 53 + 168 + 5 = 419.
    // The second reaches S at 273 — queues empty, serializer free (409)
    // by its ready time 413, no commitment waiting — but with no credit.
    let (mut fabric, t0) = s.up(
        config,
        [vec![s.mgmt(0, 2, 1, 8)], vec![s.mgmt(1, 2, 2, 0)], vec![]],
    );
    s.fire(&mut fabric, 0, 0, 0);
    s.fire(&mut fabric, 1, 0, 220);
    fabric.run_until_idle();
    // It stalls at 413 and leaves when the credit lands at 419.
    assert_eq!(
        s.received(&fabric, 2, t0),
        [(agent_sees(193 + 53, 54), 1), (agent_sees(419 + 53, 22), 2)]
    );
    assert_eq!(fabric.counters().credit_stalls, 1);
    // Only the second hop wakes up: for the serializer (409), then for
    // its own ready time.
    assert_eq!(try_tx(&fabric), 2);
    // The stall turned port 2's ledger entry — the first packet's credit,
    // keyed 419 — into the event that wakes the head. Landing, it
    // brought every credit home, so the port went back to the ledger
    // before the head took the credit away again: the second packet's
    // credit spent no event, nor does a third packet's long afterwards,
    // which commits. Ports that never ran short (E0's, E1's, one credit
    // each) dispatched none at all.
    assert_eq!(credit_returns(&fabric), 1);
    let later = fabric.now().saturating_since(t0).as_ps() / 1000 + 2000;
    s.fire(&mut fabric, 1, 0, 2000);
    fabric.run_until_idle();
    assert_eq!(
        s.received(&fabric, 2, t0)[2],
        (agent_sees(later + 193 + 53, 22), 2)
    );
    assert_eq!(fabric.counters().credit_stalls, 1);
    assert_eq!(try_tx(&fabric), 2);
    assert_eq!(credit_returns(&fabric), 1);
    assert_eq!(fabric.packet_arena_live(), 0);
    assert_eq!(fabric.queued_packets(), 0);
    assert_eq!(fabric.credits_outstanding(), 0);
}

#[test]
fn packets_in_a_row_through_one_port_commit_without_a_credit_event() {
    let s = star();
    let sends = (0..4).map(|i| s.mgmt(0, 2, i, 0)).collect();
    let (mut fabric, t0) = s.up(fast_devices(), [sends, vec![], vec![]]);
    // 150 ns apart: each header reaches S after the previous commitment
    // has started and is ready after the serializer (88 ns) has let go.
    for i in 0..4 {
        s.fire(&mut fabric, 0, i, 150 * i);
    }
    fabric.run_until_idle();
    let expected: Vec<(u64, u32)> = (0..4)
        .map(|i| (agent_sees(150 * i + 193 + 53, 22), i as u32))
        .collect();
    assert_eq!(s.received(&fabric, 2, t0), expected);
    assert_eq!(fabric.counters().credit_stalls, 0);
    assert_eq!(try_tx(&fabric), 0);
    // Eight hops, eight credits handed back, none through the kernel.
    assert_eq!(credit_returns(&fabric), 0);
    assert_eq!(fabric.packet_arena_live(), 0);
    assert_eq!(fabric.queued_packets(), 0);
    assert_eq!(fabric.credits_outstanding(), 0);
}

#[test]
fn a_ledgered_credit_counts_from_its_key_on_and_not_before() {
    // One credit per port. A 54-byte packet E`a` → E`b` is committed at S
    // for 193 and its credit is due back at S at 419 (header at E`b` at
    // 246, tail 168 ns later, 5 ns of wire), under a key whose origin is
    // E`b`. A second packet E`c` → E`b` reaches S at `at`; returns what
    // E`b` saw of it, the wake-ups and the stalls.
    let second = |a: usize, b: usize, c: usize, at: u64| {
        let s = star();
        let config = FabricConfig {
            mgmt_credits: 1,
            ..fast_devices()
        };
        let mut scripts = [vec![], vec![], vec![]];
        scripts[a] = vec![s.mgmt(a, b, 1, 8)];
        scripts[c] = vec![s.mgmt(c, b, 2, 0)];
        let (mut fabric, t0) = s.up(config, scripts);
        s.fire(&mut fabric, a, 0, 0);
        s.fire(&mut fabric, c, 0, at - 53);
        fabric.run_until_idle();
        assert_eq!(fabric.packet_arena_live(), 0);
        assert_eq!(fabric.queued_packets(), 0);
        assert_eq!(fabric.credits_outstanding(), 0);
        let stalls = fabric.counters().credit_stalls;
        (s.received(&fabric, b, t0)[1], try_tx(&fabric), stalls)
    };
    let committed = |at: u64| ((agent_sees(at + 140 + 53, 22), 2), 0, 0);
    // After the key: the credit is in hand, the hop commits.
    assert_eq!(second(0, 2, 1, 420), committed(420));
    // At the key's own instant the origins break the tie, as they did
    // between the two events. E1's credit (origin 2) is ahead of a header
    // E2 sent (origin 3): in hand, committed.
    assert_eq!(second(0, 1, 2, 419), committed(419));
    // E2's credit (origin 3) is behind a header E1 sent (origin 2): not
    // yet in hand, so the packet queues — and leaves on time all the
    // same, the credit being home long before its ready time, 559.
    assert_eq!(second(0, 2, 1, 419), ((agent_sees(559 + 53, 22), 2), 1, 0));
    // Before the key: no credit, and none by the time the packet is
    // ready either — `a_hop_one_credit_short_falls_back_and_stalls_as_before`.
}

#[test]
fn a_retrain_between_a_credit_s_return_and_its_key_resets_as_before() {
    // A 3 µs wire and one credit. E0's packet leaves S at 3188 (queued:
    // the pending flap forbids a commit) and E0's credit is on its way
    // back, keyed 6188. The E0–S link flaps at 3300 and is trained again
    // at 4800: E0's port starts over with its one credit — and at 6188
    // the old one lands on top, as it always has.
    let s = star();
    let flap = SimDuration::from_us(5) + SimDuration::from_ns(3300);
    let config = FabricConfig {
        propagation: SimDuration::from_us(3),
        mgmt_credits: 1,
        faults: FaultPlan::none().with_link_flap(flap, s.ends[0].0, 0, SimDuration::from_ns(500)),
        ..fast_devices()
    };
    // The third packet goes to E1: S has one credit per egress port too.
    let sends = vec![s.mgmt(0, 2, 0, 0), s.mgmt(0, 2, 1, 0), s.mgmt(0, 1, 2, 0)];
    let (mut fabric, t0) = s.up(config, [sends, vec![], vec![]]);
    s.fire(&mut fabric, 0, 0, 0);
    // With two credits in hand E0 sends two packets back to back
    // (88 ns apart); with one, the second would wait 6 µs for the first
    // one's credit.
    s.fire(&mut fabric, 0, 1, 7000);
    s.fire(&mut fabric, 0, 2, 7000);
    fabric.run_until_idle();
    let seen = seen_over_3us_wires;
    assert_eq!(s.received(&fabric, 2, t0), [(seen(0), 0), (seen(7000), 1)]);
    assert_eq!(s.received(&fabric, 1, t0), [(seen(7088), 2)]);
    assert_eq!(fabric.counters().credit_stalls, 0);
    assert_eq!(fabric.counters().link_flaps, 1);
    assert_eq!(fabric.packet_arena_live(), 0);
    assert_eq!(fabric.queued_packets(), 0);
}

/// When a 22-byte packet an endpoint sent at `sent` is seen by the agent
/// two 3 µs wires and one uncontended switch away.
fn seen_over_3us_wires(sent: u64) -> u64 {
    agent_sees(sent + 2 * (48 + 3000) + 140, 22)
}

#[test]
fn a_stalling_port_s_ledger_entries_fire_under_the_keys_they_hold() {
    // 3 µs wires and two credits. E0's first two packets reach S at 3048
    // and 3248 and are committed there, which puts both of E0's credits
    // on E0's ledger, keyed 6188 and 6388. The third packet, at 3300,
    // finds none in hand: the port stalls and both entries become the
    // events they stood for — the first wakes the head at 6188, the
    // second changes nothing, and the third packet's own credit (still
    // an event: not everything was home in between) brings the port
    // back to the ledger.
    let s = star();
    let config = FabricConfig {
        propagation: SimDuration::from_us(3),
        mgmt_credits: 2,
        ..fast_devices()
    };
    let sends = (0..3).map(|i| s.mgmt(0, 2, i, 0)).collect();
    let (mut fabric, t0) = s.up(config, [sends, vec![], vec![]]);
    for (token, at) in [(0, 0), (1, 200), (2, 3300)] {
        s.fire(&mut fabric, 0, token, at);
    }
    fabric.run_until_idle();
    let seen = seen_over_3us_wires;
    assert_eq!(
        s.received(&fabric, 2, t0),
        [(seen(0), 0), (seen(200), 1), (seen(6188), 2)]
    );
    assert_eq!(fabric.counters().credit_stalls, 1);
    // S's own two credits for E2 are on their way back when the third
    // header arrives (9236): it queues until it is ready, 9376, by
    // when the first (keyed 9276) is in hand. No stall, no event.
    assert_eq!(try_tx(&fabric), 1);
    assert_eq!(credit_returns(&fabric), 3);
    assert_eq!(fabric.packet_arena_live(), 0);
    assert_eq!(fabric.queued_packets(), 0);
    assert_eq!(fabric.credits_outstanding(), 0);
}

#[test]
fn a_pending_link_fault_disables_the_commit() {
    let s = star();
    // The packet reaches S at 53; S's port 2 goes down at 100, inside
    // the window, while the packet is still queued behind its wake-up.
    let flap = SimDuration::from_us(5) + SimDuration::from_ns(100);
    let config = FabricConfig {
        faults: FaultPlan::none().with_link_flap(flap, s.switch.0, 2, SimDuration::from_us(50)),
        ..fast_devices()
    };
    let (mut fabric, t0) = s.up(config, [vec![s.mgmt(0, 2, 1, 0)], vec![], vec![]]);
    s.fire(&mut fabric, 0, 0, 0);
    fabric.run_until_idle();
    assert_eq!(s.received(&fabric, 2, t0), []);
    let expected = FabricCounters {
        injected: 1,
        forwarded: 1,
        dropped_link_down: 1,
        mgmt_bytes: 22,
        link_flaps: 1,
        mgmt_queue_peak: 1,
        ..FabricCounters::default()
    };
    assert_eq!(*fabric.counters(), expected);
    assert_eq!(fabric.packet_arena_live(), 0);
    assert_eq!(fabric.queued_packets(), 0);
}

#[test]
fn a_deactivation_from_outside_waits_for_the_commitment_to_start() {
    let s = star();
    let (mut fabric, t0) = s.up(fast_devices(), [vec![s.mgmt(0, 2, 1, 0)], vec![], vec![]]);
    s.fire(&mut fabric, 0, 0, 0);
    // Step to the header arrival at S (53), which commits for 193.
    while fabric.counters().forwarded == 0 {
        assert!(fabric.step());
    }
    let ready = t0 + SimDuration::from_ns(193);
    let e2 = DevId(s.ends[2].0);
    fabric.schedule_deactivate(e2, SimDuration::ZERO);
    fabric.run_until(ready - asi_sim::PICOSECOND);
    assert!(fabric.is_active(e2), "not inside the commitment");
    fabric.run_until(ready);
    assert!(!fabric.is_active(e2), "at its start");
    fabric.run_until_idle();
    // The packet was on the wire when its receiver died.
    assert_eq!(fabric.counters().dropped_inactive, 1);
    assert_eq!(fabric.counters().dropped_link_down, 0);
    assert_eq!(fabric.packet_arena_live(), 0);
    assert_eq!(fabric.queued_packets(), 0);
}

#[test]
fn only_a_loss_model_that_cannot_lose_commits() {
    let hops = |loss: LossModel| {
        let s = star();
        let config = FabricConfig {
            faults: FaultPlan::none().with_loss(loss),
            ..FabricConfig::default()
        };
        let sends = (0..50).map(|i| s.mgmt(0, 2, i, 0)).collect();
        let (mut fabric, _) = s.up(config, [sends, vec![], vec![]]);
        for i in 0..50 {
            s.fire(&mut fabric, 0, i, 1000 * i);
        }
        fabric.run_until_idle();
        (fabric.counters().forwarded, try_tx(&fabric))
    };
    // Every packet that reaches S arms its wake-up under a lossy model,
    // so S draws from its RNG in transmission order, as before.
    for loss in [LossModel::uniform(0.2), LossModel::bursty(0.2)] {
        let (forwarded, wakeups) = hops(loss);
        assert!(forwarded > 0 && forwarded < 50, "{loss:?}: {forwarded}");
        assert_eq!(wakeups, forwarded, "{loss:?}");
    }
    for loss in [
        LossModel::None,
        LossModel::uniform(0.0),
        LossModel::bursty(0.0),
    ] {
        assert_eq!(hops(loss), (50, 0), "{loss:?}");
    }
}

#[test]
fn oversized_bypass_packet_is_dropped_from_the_queue_it_sits_in() {
    // 4 data credits = 256 bytes: a 512-byte OO packet can never fit and
    // is dropped at its source port — from the ordered data queue, where
    // the fabric keeps it (the bit is carried, not acted on).
    let s = star();
    let config = FabricConfig {
        data_credits: 4,
        ..fast_devices()
    };
    let (port, header) = s.header(0, s.ends[2], ProtocolInterface::Data, 0);
    let mut oo = header.clone();
    oo.oo = true;
    let (mut fabric, t0) = s.up(
        config,
        [
            vec![
                (port, Packet::new(oo, Payload::Data { len: 512 })),
                (port, Packet::new(header, Payload::Data { len: 64 })),
            ],
            vec![],
            vec![],
        ],
    );
    // Alone.
    s.fire(&mut fabric, 0, 0, 0);
    fabric.run_until_idle();
    assert_eq!(fabric.counters().dropped_bad_route, 1);
    assert_eq!(fabric.packet_arena_live(), 0);
    assert_eq!(fabric.queued_packets(), 0);
    // Behind a busy serializer, between two packets that fit: the head
    // that can never fit goes, the one behind it is sent.
    for (token, at) in [(1, 1000), (0, 1000), (1, 1000)] {
        s.fire(&mut fabric, 0, token, at);
    }
    fabric.run_until_idle();
    assert_eq!(fabric.counters().dropped_bad_route, 2);
    let lens: Vec<u32> = s.received(&fabric, 2, t0).iter().map(|r| r.1).collect();
    assert_eq!(lens, [64, 64], "both ordered packets arrive");
    assert_eq!(fabric.packet_arena_live(), 0);
    assert_eq!(fabric.queued_packets(), 0);
    assert_eq!(fabric.credits_outstanding(), 0);
}
