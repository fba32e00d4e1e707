//! Data-plane traffic engine: deterministic offered-load plans.
//!
//! The paper reports results "without considering application traffic",
//! noting that traffic scarcely influences discovery time because
//! management packets have the highest priority. A [`TrafficPlan`]
//! stress-tests that claim at scale: it describes a whole fabric's data
//! plane as pure data — endpoint-to-endpoint unicast flows with Poisson
//! or CBR arrivals at a configurable offered load (a fraction of link
//! capacity), and optional switch-sourced flows (in-switch processing,
//! ACiS-style). Multicast is not part of a plan: group tables are the
//! fabric manager's to write, over PI-4 (`asi-core`'s `mcast`).
//!
//! Determinism guarantees (the same contract as
//! [`ChurnPlan`](crate::ChurnPlan) and [`FaultPlan`](crate::FaultPlan)):
//!
//! - [`TrafficPlan::materialize`] is a pure function of `(plan,
//!   topology, byte_time)`: the same plan over the same fabric always
//!   yields the same flow set and arrival clocks — hence the same
//!   injection schedule, [`TrafficSchedule::shots`].
//! - An inert plan (zero load everywhere — see [`TrafficPlan::is_inert`])
//!   never touches an RNG and schedules nothing, so a zero-load run is
//!   byte-identical to a traffic-free run.
//! - Each flow's arrival process draws from its own forked RNG stream
//!   (its [`FlowClock`]), so the schedule of one flow never depends on
//!   another's draws, nor on when the fabric asks for them.
//!
//! **Offered load** is defined on wire bytes: a flow at load `l` keeps
//! its source link `l`-occupied by its own packets (mean inter-arrival
//! gap = `wire_size × byte_time / l`), so `l = 1.0` saturates the link
//! before management traffic is even accounted for.

use asi_proto::{Packet, Payload, ProtocolInterface, RouteHeader, TurnPool, MAX_POOL_BITS};
use asi_sim::{SimDuration, SimRng};
use asi_topo::{shortest_route, NodeId, Topology};

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

/// One materialized flow: a fixed source, route, and payload size. An
/// endpoint-sourced flow and a switch-sourced one (in-switch processing)
/// put the same PI-8 data packet on the wire.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// Source device.
    pub src: u32,
    /// Egress port at the source.
    pub egress: u8,
    /// Turn pool toward the destination.
    pub pool: TurnPool,
    /// Destination device.
    pub dst: u32,
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

/// A [`TrafficPlan`] expanded over a concrete topology: the flow set
/// and each flow's arrival clock.
#[derive(Clone, Debug, Default)]
pub struct TrafficSchedule {
    /// All flows, indexed by [`Shot::flow`].
    pub flows: Vec<FlowSpec>,
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
    /// destinations (e.g. the FM's endpoint, so data
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
    /// window. Inert plans are skipped entirely — no RNG is seeded —
    /// which is what makes zero-load runs byte-identical to traffic-free
    /// runs.
    pub fn is_inert(&self) -> bool {
        let loaded = self.load > 0.0 || self.switch_load > 0.0;
        !loaded || self.duration.is_zero()
    }

    /// Expands the plan over a topology into flows and one arrival clock
    /// per flow. Pure: depends only on the plan, the topology, and the
    /// link byte time.
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
/// flow's pool. The fabric keeps only a flow body per shot, and the
/// packet's wire and header sizes from this.
pub(crate) fn build_flow_packet(spec: &FlowSpec) -> Packet {
    let header = RouteHeader::forward(ProtocolInterface::Data, 0, spec.pool.clone());
    Packet::new(header, Payload::Data { len: spec.payload })
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
        let sched = windowed.materialize(&mesh(), BYTE_TIME);
        assert!(sched.flows.is_empty() && sched.clocks.is_empty());
    }

    #[test]
    fn materialize_is_deterministic_and_sorted() {
        let plan = TrafficPlan::none()
            .with_unicast(0.4, 512)
            .with_flows(2)
            .with_switch_sourced(0.1)
            .with_window(SimDuration::from_us(50), SimDuration::from_us(500))
            .with_seed(42);
        let a = plan.materialize(&mesh(), BYTE_TIME);
        let b = plan.materialize(&mesh(), BYTE_TIME);
        let shots = a.shots();
        assert_eq!(shots, b.shots());
        assert_eq!(shots, a.shots(), "expanding leaves the clocks as they were");
        assert_eq!(a.flows.len(), b.flows.len());
        // 9 endpoints × 2 unicast flows + 9 switch flows.
        assert_eq!(a.flows.len(), 9 * 2 + 9);
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
    /// per source) and switch-sourced flows in a window that does not
    /// open at 0, under both arrival processes.
    #[test]
    fn clocks_replay_the_eager_schedule() {
        for (arrivals, count, want) in [
            (Arrivals::Poisson, 1106, 0x696c_53c3_c5c1_30c4),
            (Arrivals::Cbr, 1080, 0x6a65_631d_d510_76b0),
        ] {
            let shots = TrafficPlan::none()
                .with_unicast(0.4, 512)
                .with_flows(2)
                .with_arrivals(arrivals)
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
            .with_switch_sourced(0.2)
            .with_window(SimDuration::ZERO, SimDuration::from_us(200))
            .with_exempt(exempt.clone());
        let sched = plan.materialize(&mesh(), BYTE_TIME);
        for f in &sched.flows {
            assert!(!exempt.contains(&f.src), "exempt device sources a flow");
            assert!(!exempt.contains(&f.dst), "exempt device is a destination");
        }
    }
}
