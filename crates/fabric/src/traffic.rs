//! Data-plane traffic engine: deterministic offered-load plans.
//!
//! The paper reports results "without considering application traffic",
//! noting that traffic scarcely influences discovery time because
//! management packets have the highest priority. A [`TrafficPlan`]
//! stress-tests that claim at scale: it describes a whole fabric's data
//! plane as pure data — endpoint-to-endpoint unicast flows with Poisson
//! or CBR arrivals at a configurable offered load (a fraction of link
//! capacity), multicast flows replicated through the switches' per-group
//! forwarding masks, and optional switch-sourced flows (in-switch
//! processing, ACiS-style).
//!
//! Determinism guarantees (the same contract as
//! [`ChurnPlan`](crate::ChurnPlan) and [`FaultPlan`](crate::FaultPlan)):
//!
//! - [`TrafficPlan::materialize`] is a pure function of `(plan,
//!   topology, byte_time)`: the same plan over the same fabric always
//!   yields the same flow set, group tables, and arrival clocks — hence
//!   the same injection schedule, [`TrafficSchedule::shots`].
//! - An inert plan (zero load everywhere — see [`TrafficPlan::is_inert`])
//!   never touches an RNG, installs nothing, and schedules nothing, so a
//!   zero-load run is byte-identical to a traffic-free run.
//! - Each flow's arrival process draws from its own forked RNG stream
//!   (its [`FlowClock`]), so the schedule of one flow never depends on
//!   another's draws, nor on when the fabric asks for them.
//!
//! **Offered load** is defined on wire bytes: a flow at load `l` keeps
//! its source link `l`-occupied by its own packets (mean inter-arrival
//! gap = `wire_size × byte_time / l`), so `l = 1.0` saturates the link
//! before management traffic is even accounted for.

use asi_proto::{
    Packet, Payload, ProtocolInterface, RouteHeader, TurnPool, MAX_POOL_BITS, MCAST_GROUPS,
};
use asi_sim::{SimDuration, SimRng};
use asi_topo::{shortest_route, NodeId, Topology};
use std::collections::VecDeque;

/// Arrival process of a flow's packets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arrivals {
    /// Poisson arrivals: exponentially distributed inter-packet gaps.
    Poisson,
    /// Constant bit rate: a fixed inter-packet gap, with a small
    /// deterministic per-flow phase stagger so flows don't all fire on
    /// the same instant.
    Cbr,
}

/// What kind of traffic a materialized flow carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowKind {
    /// Endpoint-to-endpoint source-routed data.
    Unicast,
    /// Switch-sourced data toward an endpoint (in-switch processing).
    SwitchSourced,
    /// Group-addressed data replicated by the switches' multicast masks.
    Mcast {
        /// The multicast group the flow feeds.
        group: u16,
    },
}

/// One materialized flow: a fixed source, route, and payload size.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// Source device.
    pub src: u32,
    /// Egress port at the source.
    pub egress: u8,
    /// Turn pool toward the destination (empty for multicast).
    pub pool: TurnPool,
    /// Destination device (the root member for multicast flows).
    pub dst: u32,
    /// Unicast, switch-sourced, or multicast.
    pub kind: FlowKind,
    /// Payload bytes per packet.
    pub payload: u16,
}

/// One packet injection of a flow ([`TrafficSchedule::shots`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shot {
    /// Offset from fabric construction.
    pub at: SimDuration,
    /// Index into [`TrafficSchedule::flows`].
    pub flow: u32,
    /// Sequence number within the flow.
    pub seq: u32,
}

/// A multicast forwarding-table entry to pre-provision: an output-port
/// bitmask on a switch, or a membership flag on an endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct McastTableWrite {
    /// Device whose table is written.
    pub device: u32,
    /// Group index.
    pub group: u16,
    /// Mask value (see [`asi_proto::ConfigSpace::mcast_entry`]).
    pub mask: u32,
}

/// One flow's arrival process, drawn one arrival at a time: the flow's
/// forked RNG stream and where in its window it stands. A fabric holds
/// one per flow and asks for the next arrival when the last one fires,
/// so a window of any length costs one pending event per flow.
#[derive(Clone, Debug)]
pub struct FlowClock {
    rng: SimRng,
    arrivals: Arrivals,
    /// The last arrival drawn; before the first, the window start (plus
    /// the CBR phase).
    at: SimDuration,
    /// Sequence number of the next arrival.
    seq: u32,
    /// Mean (Poisson) or fixed (CBR) inter-arrival gap.
    gap_ps: f64,
    /// Window end: no arrival at or after it, and a clock that reached it
    /// is spent.
    end: SimDuration,
}

impl FlowClock {
    /// The flow's next arrival, as its offset from fabric construction
    /// and its sequence number; `None` once the window has closed.
    pub fn next_shot(&mut self) -> Option<(SimDuration, u32)> {
        if self.at >= self.end {
            return None;
        }
        match self.arrivals {
            Arrivals::Poisson => {
                self.at += SimDuration::from_ps(self.rng.gen_exp(self.gap_ps).max(1.0) as u64);
            }
            Arrivals::Cbr => {
                if self.seq > 0 {
                    self.at += SimDuration::from_ps(self.gap_ps.max(1.0) as u64);
                }
            }
        }
        if self.at >= self.end {
            return None;
        }
        let seq = self.seq;
        self.seq += 1;
        Some((self.at, seq))
    }
}

/// A [`TrafficPlan`] expanded over a concrete topology: the flow set,
/// the multicast tables to install, and each flow's arrival clock.
#[derive(Clone, Debug, Default)]
pub struct TrafficSchedule {
    /// All flows, indexed by [`Shot::flow`].
    pub flows: Vec<FlowSpec>,
    /// Multicast table entries to install before time zero.
    pub writes: Vec<McastTableWrite>,
    /// Each flow's arrival clock, parallel to `flows`.
    pub clocks: Vec<FlowClock>,
}

impl TrafficSchedule {
    /// Every injection of the window at once, sorted by `(at, flow,
    /// seq)`: the clocks run to the window end on clones, so the schedule
    /// itself is untouched. The fabric never holds this; it is the eager
    /// form of the same arrivals, for checking them.
    pub fn shots(&self) -> Vec<Shot> {
        let mut shots = Vec::new();
        for (flow, clock) in (0..).zip(&self.clocks) {
            let mut clock = clock.clone();
            while let Some((at, seq)) = clock.next_shot() {
                shots.push(Shot { at, flow, seq });
            }
        }
        shots.sort_by_key(|s| (s.at, s.flow, s.seq));
        shots
    }
}

fn check_load(name: &str, load: f64) {
    assert!(
        load.is_finite() && (0.0..=1.0).contains(&load),
        "{name} must be a finite fraction in [0, 1], got {load}"
    );
}

/// A deterministic data-plane traffic workload.
///
/// Construct with [`TrafficPlan::none`] and refine with the `with_*`
/// builders; loads are offered-load fractions of one link's capacity:
///
/// ```
/// use asi_fabric::TrafficPlan;
/// use asi_sim::SimDuration;
///
/// let plan = TrafficPlan::none()
///     .with_unicast(0.4, 512)
///     .with_multicast(2, 0.05)
///     .with_window(SimDuration::ZERO, SimDuration::from_ms(2));
/// assert!(!plan.is_inert());
/// assert!(TrafficPlan::none().is_inert());
/// ```
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub struct TrafficPlan {
    /// Offered unicast load per source endpoint (fraction of its link).
    pub load: f64,
    /// Payload bytes per data packet.
    pub payload: u16,
    /// Arrival process shared by all flows.
    pub arrivals: Arrivals,
    /// Unicast flows sourced by each endpoint (the per-endpoint load is
    /// split evenly across them).
    pub flows_per_source: u32,
    /// Number of multicast groups to provision and feed.
    pub mcast_groups: u16,
    /// Offered load of each multicast group's source flow.
    pub mcast_load: f64,
    /// Offered load sourced by each switch (in-switch processing).
    pub switch_load: f64,
    /// Offset of the injection window from fabric construction.
    pub start: SimDuration,
    /// Length of the injection window; arrivals stop at
    /// `start + duration` (in-flight packets may land later).
    pub duration: SimDuration,
    /// Seed of the dedicated traffic RNG.
    pub seed: u64,
    /// Devices that never source traffic and are never picked as
    /// destinations or group members (e.g. the FM's endpoint, so data
    /// never contends on the manager's own ingress pipe).
    pub exempt: Vec<u32>,
}

impl TrafficPlan {
    /// A plan that injects nothing.
    pub fn none() -> TrafficPlan {
        TrafficPlan {
            load: 0.0,
            payload: 512,
            arrivals: Arrivals::Poisson,
            flows_per_source: 1,
            mcast_groups: 0,
            mcast_load: 0.0,
            switch_load: 0.0,
            start: SimDuration::ZERO,
            duration: SimDuration::ZERO,
            seed: 0x7AF1C,
            exempt: Vec::new(),
        }
    }

    /// Sets the per-endpoint unicast offered load and the payload size.
    pub fn with_unicast(mut self, load: f64, payload: u16) -> TrafficPlan {
        check_load("load", load);
        assert!(payload > 0, "payload must be non-zero");
        self.load = load;
        self.payload = payload;
        self
    }

    /// Sets the arrival process (Poisson by default).
    pub fn with_arrivals(mut self, arrivals: Arrivals) -> TrafficPlan {
        self.arrivals = arrivals;
        self
    }

    /// Sets how many unicast flows each endpoint sources.
    pub fn with_flows(mut self, flows_per_source: u32) -> TrafficPlan {
        assert!(flows_per_source >= 1, "flows_per_source must be at least 1");
        self.flows_per_source = flows_per_source;
        self
    }

    /// Provisions `groups` multicast groups, each fed by one member at
    /// the given offered load.
    pub fn with_multicast(mut self, groups: u16, load: f64) -> TrafficPlan {
        check_load("mcast_load", load);
        assert!(
            groups <= MCAST_GROUPS,
            "mcast_groups must be at most {MCAST_GROUPS}, got {groups}"
        );
        self.mcast_groups = groups;
        self.mcast_load = load;
        self
    }

    /// Makes every switch source a unicast flow at the given load.
    pub fn with_switch_sourced(mut self, load: f64) -> TrafficPlan {
        check_load("switch_load", load);
        self.switch_load = load;
        self
    }

    /// Sets the injection window: arrivals occur in
    /// `[start, start + duration)`.
    pub fn with_window(mut self, start: SimDuration, duration: SimDuration) -> TrafficPlan {
        self.start = start;
        self.duration = duration;
        self
    }

    /// Sets the dedicated traffic RNG seed.
    pub fn with_seed(mut self, seed: u64) -> TrafficPlan {
        self.seed = seed;
        self
    }

    /// Excludes devices from the traffic plan entirely.
    pub fn with_exempt(mut self, exempt: Vec<u32>) -> TrafficPlan {
        self.exempt = exempt;
        self
    }

    /// True when the plan injects nothing: every load zero or an empty
    /// window. Inert plans are skipped entirely — no RNG is seeded, no
    /// table is written — which is what makes zero-load runs
    /// byte-identical to traffic-free runs.
    pub fn is_inert(&self) -> bool {
        let loaded = self.load > 0.0
            || self.switch_load > 0.0
            || (self.mcast_load > 0.0 && self.mcast_groups > 0);
        !loaded || self.duration.is_zero()
    }

    /// Expands the plan over a topology into flows, multicast table
    /// writes, and one arrival clock per flow. Pure: depends only on the
    /// plan, the topology, and the link byte time.
    ///
    /// `byte_time` converts offered load into inter-arrival gaps: a flow
    /// at load `l` sends one `wire_size`-byte packet every
    /// `wire_size × byte_time / l` on average.
    pub fn materialize(&self, topo: &Topology, byte_time: SimDuration) -> TrafficSchedule {
        if self.is_inert() {
            return TrafficSchedule::default();
        }
        assert!(
            !byte_time.is_zero(),
            "traffic needs a non-zero link byte time"
        );
        let exempt = |d: u32| self.exempt.contains(&d);
        let mut rng = SimRng::new(self.seed);
        let mut pick_rng = rng.fork(1);

        let endpoints: Vec<NodeId> = topo
            .endpoints()
            .into_iter()
            .filter(|n| !exempt(n.0))
            .collect();
        let mut schedule = TrafficSchedule::default();

        if self.load > 0.0 && endpoints.len() >= 2 {
            let per_flow = self.load / f64::from(self.flows_per_source);
            for &src in &endpoints {
                for _ in 0..self.flows_per_source {
                    let others: Vec<NodeId> =
                        endpoints.iter().copied().filter(|&d| d != src).collect();
                    let dst = others[pick_rng.gen_index(others.len())];
                    let route = shortest_route(topo, src, dst)
                        .expect("endpoints in one fabric are mutually reachable");
                    let pool = route
                        .encode(topo, MAX_POOL_BITS)
                        .expect("shortest route fits the turn pool");
                    schedule.flows.push(FlowSpec {
                        src: src.0,
                        egress: route.source_port,
                        pool,
                        dst: dst.0,
                        kind: FlowKind::Unicast,
                        payload: self.payload,
                    });
                }
            }
            let n = schedule.flows.len();
            self.start_clocks(&mut schedule, &mut rng, 0..n, per_flow, byte_time);
        }

        if self.switch_load > 0.0 && !endpoints.is_empty() {
            let first = schedule.flows.len();
            for src in topo.switches().into_iter().filter(|s| !exempt(s.0)) {
                let dst = endpoints[pick_rng.gen_index(endpoints.len())];
                let route = shortest_route(topo, src, dst)
                    .expect("switches reach every endpoint in one fabric");
                let pool = route
                    .encode(topo, MAX_POOL_BITS)
                    .expect("shortest route fits the turn pool");
                schedule.flows.push(FlowSpec {
                    src: src.0,
                    egress: route.source_port,
                    pool,
                    dst: dst.0,
                    kind: FlowKind::SwitchSourced,
                    payload: self.payload,
                });
            }
            let n = schedule.flows.len();
            self.start_clocks(
                &mut schedule,
                &mut rng,
                first..n,
                self.switch_load,
                byte_time,
            );
        }

        // An endpoint a tree cannot reach (see `tree_port`) is not drawn as
        // a member; with switches of at most 32 ports that is none of them.
        let mut reachable = endpoints;
        reachable.retain(|&e| topo.neighbors(e).any(|(p, at)| tree_port(p, at.port)));
        if self.mcast_groups > 0 && self.mcast_load > 0.0 && reachable.len() >= 2 {
            let first = schedule.flows.len();
            for group in 0..self.mcast_groups {
                let members = pick_members(&reachable, &mut pick_rng);
                for (device, mask) in group_masks(topo, &members) {
                    schedule.writes.push(McastTableWrite {
                        device,
                        group,
                        mask,
                    });
                }
                schedule.flows.push(FlowSpec {
                    src: members[0].0,
                    egress: 0,
                    pool: TurnPool::new_spec(),
                    dst: members[0].0,
                    kind: FlowKind::Mcast { group },
                    payload: self.payload,
                });
            }
            let n = schedule.flows.len();
            self.start_clocks(
                &mut schedule,
                &mut rng,
                first..n,
                self.mcast_load,
                byte_time,
            );
        }
        schedule
    }

    /// Winds the arrival clocks of `flows[range]` at `load` each, forking
    /// every flow's RNG stream in flow order.
    fn start_clocks(
        &self,
        schedule: &mut TrafficSchedule,
        rng: &mut SimRng,
        range: std::ops::Range<usize>,
        load: f64,
        byte_time: SimDuration,
    ) {
        for flow in range {
            let packet = build_flow_packet(&schedule.flows[flow]);
            schedule.clocks.push(FlowClock {
                rng: rng.fork(flow as u64 + 1),
                arrivals: self.arrivals,
                at: match self.arrivals {
                    // CBR flows get a deterministic phase stagger so they
                    // don't all fire on the same instant.
                    Arrivals::Cbr => self.start + SimDuration::from_ns(1 + flow as u64),
                    Arrivals::Poisson => self.start,
                },
                seq: 0,
                gap_ps: packet.wire_size() as f64 * byte_time.as_ps() as f64 / load,
                end: self.start + self.duration,
            });
        }
    }
}

/// The packet a shot of the flow puts on the wire: PI-8 data along the
/// flow's pool for unicast and switch-sourced flows, a group-addressed
/// `Mcast` packet for multicast flows. The fabric injects a multicast one
/// as it is; of the others it keeps only a flow body, and their wire and
/// header sizes from this.
pub(crate) fn build_flow_packet(spec: &FlowSpec) -> Packet {
    let header = RouteHeader::forward(ProtocolInterface::Data, 0, spec.pool.clone());
    let len = spec.payload;
    let payload = match spec.kind {
        FlowKind::Unicast | FlowKind::SwitchSourced => Payload::Data { len },
        FlowKind::Mcast { group } => Payload::Mcast {
            group,
            len,
            hops: u8::MAX,
        },
    };
    Packet::new(header, payload)
}

/// Picks a deterministic member set for one multicast group: the source
/// plus up to three other endpoints.
fn pick_members(endpoints: &[NodeId], rng: &mut SimRng) -> Vec<NodeId> {
    let want = endpoints.len().min(4);
    let mut members: Vec<NodeId> = Vec::with_capacity(want);
    while members.len() < want {
        let pick = endpoints[rng.gen_index(endpoints.len())];
        if !members.contains(&pick) {
            members.push(pick);
        }
    }
    members
}

/// Whether a link between these two ports can be a tree edge: a multicast
/// table entry is one configuration-space dword, bit `p` for port `p`, so
/// a port past 31 cannot be named in one (and the switch replicates to
/// none).
fn tree_port(a: u8, b: u8) -> bool {
    u32::from(a.max(b)) < u32::BITS
}

/// Computes per-device multicast masks realizing a spanning tree over
/// the group members: the union of each member's shortest path (in the
/// BFS tree rooted at the first member). Switch entries get an
/// output-port bitmask covering their tree edges; member endpoints get
/// the membership flag (bit 0). Because every tree edge is marked on
/// both switch sides and the replication path skips the ingress port,
/// a packet sourced by *any* member reaches every other member exactly
/// once.
fn group_masks(topo: &Topology, members: &[NodeId]) -> Vec<(u32, u32)> {
    let n = topo.node_count();
    // BFS parent tree from the root member, over port adjacency:
    // parent[v] = (u, port on u toward v, port on v toward u).
    let root = members[0];
    let mut parent: Vec<Option<(NodeId, u8, u8)>> = vec![None; n];
    let mut seen = vec![false; n];
    seen[root.idx()] = true;
    let mut queue = VecDeque::from([root]);
    while let Some(u) = queue.pop_front() {
        let ports = topo.node(u).expect("BFS visits known nodes").ports;
        for p in 0..ports {
            if let Some(at) = topo.peer(u, p).filter(|at| tree_port(p, at.port)) {
                if !seen[at.node.idx()] {
                    seen[at.node.idx()] = true;
                    parent[at.node.idx()] = Some((u, p, at.port));
                    queue.push_back(at.node);
                }
            }
        }
    }
    let is_switch = |id: NodeId| {
        topo.node(id).expect("mask for known node").device_type == asi_proto::DeviceType::Switch
    };
    let mut masks = vec![0u32; n];
    for &m in members {
        masks[m.idx()] |= 1; // membership flag on the endpoint
        let mut v = m;
        while let Some((u, port_u, port_v)) = parent[v.idx()] {
            if is_switch(u) {
                masks[u.idx()] |= 1 << port_u;
            }
            if is_switch(v) {
                masks[v.idx()] |= 1 << port_v;
            }
            v = u;
        }
    }
    (0..n as u32)
        .filter(|&d| masks[d as usize] != 0)
        .map(|d| (d, masks[d as usize]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> asi_topo::Topology {
        asi_topo::mesh(3, 3).unwrap().topology
    }

    const BYTE_TIME: SimDuration = SimDuration::from_ns(4);

    #[test]
    fn inert_plans_materialize_nothing() {
        assert!(TrafficPlan::none().is_inert());
        // A window without load is inert, and load without a window too.
        let windowed = TrafficPlan::none().with_window(SimDuration::ZERO, SimDuration::from_ms(1));
        assert!(windowed.is_inert());
        let loaded = TrafficPlan::none().with_unicast(0.5, 512);
        assert!(loaded.is_inert());
        // Multicast load without groups is inert as well.
        let groupless = TrafficPlan::none()
            .with_multicast(0, 0.5)
            .with_window(SimDuration::ZERO, SimDuration::from_ms(1));
        assert!(groupless.is_inert());
        let sched = windowed.materialize(&mesh(), BYTE_TIME);
        assert!(sched.flows.is_empty() && sched.writes.is_empty() && sched.clocks.is_empty());
    }

    #[test]
    fn materialize_is_deterministic_and_sorted() {
        let plan = TrafficPlan::none()
            .with_unicast(0.4, 512)
            .with_flows(2)
            .with_multicast(2, 0.05)
            .with_switch_sourced(0.1)
            .with_window(SimDuration::from_us(50), SimDuration::from_us(500))
            .with_seed(42);
        let a = plan.materialize(&mesh(), BYTE_TIME);
        let b = plan.materialize(&mesh(), BYTE_TIME);
        let shots = a.shots();
        assert_eq!(shots, b.shots());
        assert_eq!(shots, a.shots(), "expanding leaves the clocks as they were");
        assert_eq!(a.writes, b.writes);
        assert_eq!(a.flows.len(), b.flows.len());
        // 9 endpoints × 2 unicast flows + 9 switch flows + 2 group flows.
        assert_eq!(a.flows.len(), 9 * 2 + 9 + 2);
        assert_eq!(a.clocks.len(), a.flows.len());
        assert!(!shots.is_empty());
        assert!(shots.windows(2).all(|w| w[0].at <= w[1].at));
        let end = SimDuration::from_us(550);
        assert!(shots
            .iter()
            .all(|s| s.at >= SimDuration::from_us(50) && s.at < end));
    }

    /// FNV-1a over every shot's `(at ps, flow, seq)`, little-endian.
    fn digest(shots: &[Shot]) -> u64 {
        let fnv = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        shots
            .iter()
            .flat_map(|s| {
                let at = s.at.as_ps().to_le_bytes();
                let ids = (u64::from(s.flow) | u64::from(s.seq) << 32).to_le_bytes();
                at.into_iter().chain(ids)
            })
            .fold(0xcbf2_9ce4_8422_2325, fnv)
    }

    /// The arrival clocks replay, shot for shot, the schedule the plan
    /// expanded into when it was sorted up front: the digests and counts
    /// were recorded from that eager expansion, for unicast (two flows
    /// per source), switch-sourced and multicast flows in a window that
    /// does not open at 0, under both arrival processes.
    #[test]
    fn clocks_replay_the_eager_schedule() {
        for (arrivals, count, want) in [
            (Arrivals::Poisson, 1133, 0xd384_7036_d096_b896),
            (Arrivals::Cbr, 1104, 0xbd1f_aeb7_8029_ca40),
        ] {
            let shots = TrafficPlan::none()
                .with_unicast(0.4, 512)
                .with_flows(2)
                .with_arrivals(arrivals)
                .with_multicast(2, 0.05)
                .with_switch_sourced(0.1)
                .with_window(SimDuration::from_us(50), SimDuration::from_us(500))
                .with_seed(42)
                .materialize(&mesh(), BYTE_TIME)
                .shots();
            assert_eq!((shots.len(), digest(&shots)), (count, want), "{arrivals:?}");
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let base = TrafficPlan::none()
            .with_unicast(0.4, 512)
            .with_window(SimDuration::ZERO, SimDuration::from_us(200));
        let a = base.clone().with_seed(1).materialize(&mesh(), BYTE_TIME);
        let b = base.with_seed(2).materialize(&mesh(), BYTE_TIME);
        assert_ne!(a.shots(), b.shots());
    }

    #[test]
    fn offered_load_sets_the_mean_gap() {
        // At load l, a flow's shot count over a window approximates
        // window / (wire_size × byte_time / l).
        let plan = TrafficPlan::none()
            .with_unicast(0.8, 512)
            .with_window(SimDuration::ZERO, SimDuration::from_ms(2));
        let sched = plan.materialize(&mesh(), BYTE_TIME);
        let per_flow: f64 = sched.shots().len() as f64 / sched.flows.len() as f64;
        let wire = build_flow_packet(&sched.flows[0]).wire_size() as f64;
        let expected = 2e9 / (wire * 4000.0 / 0.8);
        assert!(
            (per_flow - expected).abs() < expected * 0.25,
            "mean shots per flow {per_flow:.1} far from expected {expected:.1}"
        );
    }

    #[test]
    fn cbr_arrivals_are_evenly_spaced() {
        let plan = TrafficPlan::none()
            .with_unicast(0.5, 256)
            .with_arrivals(Arrivals::Cbr)
            .with_window(SimDuration::ZERO, SimDuration::from_us(500));
        let sched = plan.materialize(&mesh(), BYTE_TIME);
        let shots: Vec<Shot> = sched.shots().into_iter().filter(|s| s.flow == 0).collect();
        assert!(shots.len() > 2);
        let gap = shots[1].at.as_ps() - shots[0].at.as_ps();
        for w in shots.windows(2) {
            assert_eq!(w[1].at.as_ps() - w[0].at.as_ps(), gap);
        }
    }

    #[test]
    fn exempt_devices_source_and_sink_nothing() {
        let exempt: Vec<u32> = vec![0, 9];
        let plan = TrafficPlan::none()
            .with_unicast(0.5, 512)
            .with_multicast(4, 0.1)
            .with_switch_sourced(0.2)
            .with_window(SimDuration::ZERO, SimDuration::from_us(200))
            .with_exempt(exempt.clone());
        let sched = plan.materialize(&mesh(), BYTE_TIME);
        for f in &sched.flows {
            assert!(!exempt.contains(&f.src), "exempt device sources a flow");
            assert!(!exempt.contains(&f.dst), "exempt device is a destination");
        }
        let topo = mesh();
        for w in &sched.writes {
            // Exempt devices may forward multicast (an exempt switch can sit
            // on the tree, where bit 0 is just the east-port bit) but an
            // exempt *endpoint* must never hold the membership flag.
            let is_endpoint = topo.node(asi_topo::NodeId(w.device)).unwrap().device_type
                == asi_proto::DeviceType::Endpoint;
            if exempt.contains(&w.device) && is_endpoint {
                assert_eq!(w.mask & 1, 0, "exempt endpoint is a group member");
            }
        }
    }

    #[test]
    fn group_masks_form_a_member_spanning_tree() {
        let topo = mesh();
        let endpoints: Vec<asi_topo::NodeId> = topo.endpoints();
        let members = [endpoints[0], endpoints[3], endpoints[7]];
        let masks = group_masks(&topo, &members);
        let mask_of = |d: u32| {
            masks
                .iter()
                .find(|(dev, _)| *dev == d)
                .map(|(_, m)| *m)
                .unwrap_or(0)
        };
        // Every member endpoint carries the membership flag.
        for m in &members {
            assert_eq!(mask_of(m.0) & 1, 1);
        }
        // Non-member endpoints carry nothing.
        for e in &endpoints {
            if !members.contains(e) {
                assert_eq!(mask_of(e.0), 0);
            }
        }
        // Tree edges are marked symmetrically on switch-switch links.
        for (dev, mask) in &masks {
            let node = topo.node(asi_topo::NodeId(*dev)).unwrap();
            if node.device_type != asi_proto::DeviceType::Switch {
                continue;
            }
            for p in 0..node.ports {
                if (mask >> p) & 1 == 0 {
                    continue;
                }
                let peer = topo
                    .peer(asi_topo::NodeId(*dev), p)
                    .expect("masked port has a peer");
                let peer_node = topo.node(peer.node).unwrap();
                if peer_node.device_type == asi_proto::DeviceType::Switch {
                    assert_eq!(
                        (mask_of(peer.node.0) >> peer.port) & 1,
                        1,
                        "tree edge marked on one switch side only"
                    );
                } else {
                    assert_eq!(
                        mask_of(peer.node.0) & 1,
                        1,
                        "masked port leads to non-member"
                    );
                }
            }
        }
    }

    /// `dragonfly:4,20` has 35-port routers with endpoints on ports
    /// 23..=34: no tree may use a port the one-dword entry cannot name.
    #[test]
    fn multicast_trees_avoid_ports_past_31() {
        let topo = asi_topo::dragonfly(4, 20).unwrap().topology;
        let sched = TrafficPlan::none()
            .with_multicast(8, 0.05)
            .with_window(SimDuration::ZERO, SimDuration::from_us(10))
            .materialize(&topo, BYTE_TIME);
        let is_endpoint = |w: &&McastTableWrite| {
            topo.node(NodeId(w.device)).unwrap().device_type == asi_proto::DeviceType::Endpoint
        };
        let members: Vec<_> = sched.writes.iter().filter(is_endpoint).collect();
        assert_eq!(members.len(), 8 * 4);
        for w in members {
            // The member's router names the port the member hangs off.
            let at = topo.peer(NodeId(w.device), 0).unwrap();
            let on_router = |s: &&McastTableWrite| s.device == at.node.0 && s.group == w.group;
            let entry = sched.writes.iter().find(on_router).unwrap();
            assert!(at.port < 32 && (entry.mask >> at.port) & 1 == 1, "{at:?}");
        }
    }
}
