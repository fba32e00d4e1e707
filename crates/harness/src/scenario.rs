//! The experiment scenario runner: fabric bring-up, FM installation,
//! initial discovery, PI-5 configuration, and topological-change
//! injection — the exact procedure of the paper's §4.1, each step a
//! [`Bench`] call. PI-5 configuration is the FM's own step, like
//! discovery: it writes every device's reporting route over PI-4
//! ([`Bench::configure_pi5_routes`]), and nothing here writes device
//! state any other way.

use asi_core::{Algorithm, FmAgent, FmConfig, FmTiming, RetryPolicy};
use asi_core::{DiscoveryRun, TopologyDb, TOKEN_CONFIGURE_PI5, TOKEN_START_DISCOVERY};
use asi_fabric::{
    ChurnPlan, DevId, Fabric, FabricConfig, FabricCounters, FaultPlan, TrafficPlan, DSN_BASE,
};
use asi_proto::{apply_forward, turn_width, Direction, PortState, TurnCursor, TurnPool};
use asi_sim::{KernelSpec, SimDuration, SimRng, SimTime, TraceHandle};
use asi_state::Snapshot;
use asi_topo::{Attachment, NodeId, Topology};

/// Simulator-kernel queue-depth sampling period used when a scenario
/// carries a trace sink: one `queue-sample` record per this much
/// *simulated* time (the kernel ignores it on a disabled handle).
/// A simulated-time grid keeps the sample cuts identical under the
/// serial and parallel kernels.
const QUEUE_SAMPLE_PERIOD: SimDuration = SimDuration::from_us(20);

/// Scenario parameters.
///
/// Construct with [`Scenario::new`] and refine with the `with_*`
/// builder methods:
///
/// ```
/// use asi_harness::prelude::*;
/// use asi_sim::SimDuration;
///
/// let s = Scenario::new(Algorithm::Parallel)
///     .with_faults(FaultPlan::none().with_loss(LossModel::bursty(0.05)))
///     .with_retry(RetryPolicy::exponential(10))
///     .with_seed(7);
/// assert!(!s.faults.is_inert());
/// ```
///
/// The struct is `#[non_exhaustive]` so new knobs can be added without
/// breaking callers; fields stay public for reading and in-place
/// mutation.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct Scenario {
    /// Discovery algorithm under test.
    pub algorithm: Algorithm,
    /// FM processing-speed factor (Figs. 8–9).
    pub fm_factor: f64,
    /// Device processing-speed factor (Figs. 8–9).
    pub device_factor: f64,
    /// Partial (affected-region) assimilation instead of full re-runs.
    pub partial_assimilation: bool,
    /// Data-plane traffic plan (offered-load unicast and switch-sourced
    /// flows) materialized by the fabric.
    /// The inert default injects nothing and leaves traffic-free runs
    /// byte-identical.
    pub traffic: TrafficPlan,
    /// Disable credit flow control (ablation).
    pub flow_control: bool,
    /// RNG seed (victim selection, traffic arrivals, fault draws).
    pub seed: u64,
    /// Deterministic fault-injection plan applied to the fabric
    /// (loss, completion corruption/duplication, scheduled events).
    pub faults: FaultPlan,
    /// Continuous-churn plan: Poisson link flaps and device
    /// remove/re-add streams materialized up front by the fabric. The
    /// inert default leaves churn-free runs byte-identical.
    pub churn: ChurnPlan,
    /// FM retry/backoff policy for timed-out requests.
    pub retry: RetryPolicy,
    /// Base timeout for a request's first attempt.
    pub request_timeout: SimDuration,
    /// Observability sink wired into the FM, the discovery engine, the
    /// fabric model and the simulator kernel. Disabled by default (zero
    /// overhead); see `docs/TRACE_FORMAT.md`.
    pub trace: TraceHandle,
    /// Cached topology snapshot seeding a warm-start discovery; `None`
    /// runs the ordinary cold discovery.
    pub snapshot: Option<Snapshot>,
    /// Fraction of snapshot devices that may mismatch during a
    /// warm-start verification before the FM abandons the scoped repair
    /// and falls back to a full cold discovery.
    pub warm_fallback_threshold: f64,
    /// Simulation scheduling kernel (serial timing wheel or the
    /// conservative-sync parallel kernel). Results are byte-identical
    /// across kernels; see `docs/PARALLEL.md`.
    pub kernel: KernelSpec,
}

impl Scenario {
    /// Paper-default scenario for an algorithm.
    pub fn new(algorithm: Algorithm) -> Scenario {
        Scenario {
            algorithm,
            fm_factor: 1.0,
            device_factor: 1.0,
            partial_assimilation: false,
            traffic: TrafficPlan::none(),
            flow_control: true,
            seed: 0xA51,
            faults: FaultPlan::none(),
            churn: ChurnPlan::none(),
            retry: RetryPolicy::default(),
            request_timeout: SimDuration::from_ms(5),
            trace: TraceHandle::disabled(),
            snapshot: None,
            warm_fallback_threshold: 0.25,
            kernel: KernelSpec::Serial,
        }
    }

    /// Sets the processing factors (paper Figs. 8–9).
    pub fn with_factors(mut self, fm: f64, device: f64) -> Scenario {
        self.fm_factor = fm;
        self.device_factor = device;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// Installs a data-plane traffic plan (see [`asi_fabric::TrafficPlan`]).
    /// The FM's endpoint is automatically exempted from sourcing and
    /// sinking flows so the management station models a dedicated host.
    pub fn with_traffic_plan(mut self, traffic: TrafficPlan) -> Scenario {
        self.traffic = traffic;
        self
    }

    /// Installs a fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Scenario {
        self.faults = faults;
        self
    }

    /// Installs a continuous-churn plan (see [`crate::churn`]).
    pub fn with_churn(mut self, churn: ChurnPlan) -> Scenario {
        self.churn = churn;
        self
    }

    /// Sets the FM's retry/backoff policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Scenario {
        self.retry = retry;
        self
    }

    /// Sets the FM's base request timeout.
    pub fn with_request_timeout(mut self, timeout: SimDuration) -> Scenario {
        self.request_timeout = timeout;
        self
    }

    /// Enables partial (affected-region) assimilation.
    pub fn with_partial_assimilation(mut self, on: bool) -> Scenario {
        self.partial_assimilation = on;
        self
    }

    /// Enables or disables credit flow control.
    pub fn with_flow_control(mut self, on: bool) -> Scenario {
        self.flow_control = on;
        self
    }

    /// Installs a trace sink (e.g. `asi_harness::RingCollector::shared`).
    pub fn with_trace(mut self, trace: TraceHandle) -> Scenario {
        self.trace = trace;
        self
    }

    /// Seeds the FM with a cached topology snapshot: the initial run
    /// becomes a warm-start verification pass instead of a cold
    /// discovery (see `asi_core::DiscoveryMode`).
    pub fn with_snapshot(mut self, snapshot: Snapshot) -> Scenario {
        self.snapshot = Some(snapshot);
        self
    }

    /// Sets the warm-start fallback threshold (see
    /// [`Scenario::warm_fallback_threshold`]).
    pub fn with_warm_fallback_threshold(mut self, fraction: f64) -> Scenario {
        self.warm_fallback_threshold = fraction;
        self
    }

    /// Selects the scheduling kernel executing the scenario.
    pub fn with_kernel(mut self, kernel: KernelSpec) -> Scenario {
        self.kernel = kernel;
        self
    }

    /// A recipe for untraced copies of this scenario that worker threads
    /// can share. The trace sink is an `Rc`, which pins `&Scenario` to
    /// its thread; every other field is plain data, so a closure over
    /// those alone is `Sync`.
    pub(crate) fn untraced(&self) -> impl Fn() -> Scenario + Sync + '_ {
        let Scenario {
            algorithm,
            fm_factor,
            device_factor,
            partial_assimilation,
            traffic,
            flow_control,
            seed,
            faults,
            churn,
            retry,
            request_timeout,
            trace: _,
            snapshot,
            warm_fallback_threshold,
            kernel,
        } = self;
        move || Scenario {
            algorithm: *algorithm,
            fm_factor: *fm_factor,
            device_factor: *device_factor,
            partial_assimilation: *partial_assimilation,
            traffic: traffic.clone(),
            flow_control: *flow_control,
            seed: *seed,
            faults: faults.clone(),
            churn: churn.clone(),
            retry: *retry,
            request_timeout: *request_timeout,
            trace: TraceHandle::disabled(),
            snapshot: snapshot.clone(),
            warm_fallback_threshold: *warm_fallback_threshold,
            kernel: *kernel,
        }
    }

    /// The fabric configuration this scenario implies for `topo`. The
    /// FM's endpoint is exempted from the traffic plan so discovery
    /// management runs from a dedicated host, as in the paper's setup.
    fn fabric_config(&self, topo: &Topology) -> FabricConfig {
        let mut traffic = self.traffic.clone();
        if !traffic.is_inert() {
            if let Some(fm) = asi_topo::default_fm_endpoint(topo) {
                if !traffic.exempt.contains(&fm.0) {
                    traffic.exempt.push(fm.0);
                }
            }
        }
        FabricConfig {
            device_factor: self.device_factor,
            flow_control: self.flow_control,
            faults: self.faults.clone(),
            churn: self.churn.clone(),
            traffic,
            seed: self.seed,
            kernel: self.kernel,
            ..FabricConfig::default()
        }
    }

    /// The base request timeout scaled to the fabric size. The FM
    /// processes responses serially, so on large fabrics a parallel
    /// discovery's response backlog alone can exceed a flat timeout and
    /// abandon requests that were answered promptly. Fabrics up to 128
    /// devices (everything in the paper's Table 1) keep the configured
    /// base exactly; beyond that the timeout grows linearly with the
    /// device count, matching the worst-case backlog.
    fn scaled_request_timeout(&self, devices: usize) -> SimDuration {
        self.request_timeout * (devices as u64).div_ceil(128).max(1)
    }

    /// The FM configuration this scenario implies for a fabric of
    /// `devices` nodes.
    fn fm_config(&self, devices: usize) -> FmConfig {
        let cfg = FmConfig::new(self.algorithm)
            .with_timing(FmTiming::default().with_factor(self.fm_factor))
            .with_partial_assimilation(self.partial_assimilation)
            .with_retry(self.retry)
            .with_request_timeout(self.scaled_request_timeout(devices))
            .with_trace(self.trace.clone());
        match &self.snapshot {
            Some(snapshot) => cfg
                .with_warm_start(snapshot.clone())
                .with_warm_fallback_threshold(self.warm_fallback_threshold),
            None => cfg,
        }
    }

    /// Builds the fabric from `config`, powers up every device not in
    /// `absent` and drains the bring-up phase — the state every runner
    /// installs its managers into. Its event limit is every harness
    /// run's one hang guard: a run loop steps until its own condition
    /// holds or the fabric goes idle, and one that does neither panics
    /// at the limit, however much simulated time it took.
    fn powered_fabric(&self, topo: &Topology, config: FabricConfig, absent: &[NodeId]) -> Fabric {
        let mut fabric = Fabric::new(topo, config);
        fabric.set_event_limit(2_000_000_000);
        fabric.set_trace(self.trace.clone(), QUEUE_SAMPLE_PERIOD);
        // One activation per run of ids with no absent device in it.
        let mut first = 0;
        for (id, _) in topo.nodes() {
            if absent.contains(&id) {
                fabric.schedule_activate_run(DevId(first), id.0 - first, SimDuration::ZERO);
                first = id.0 + 1;
            }
        }
        let count = topo.node_count() as u32 - first;
        fabric.schedule_activate_run(DevId(first), count, SimDuration::ZERO);
        run_bringup(&mut fabric, &self.faults, &self.churn, &self.traffic);
        fabric
    }
}

/// Drains the bring-up phase. With scheduled fault events in the plan
/// (or a live churn window, or a live traffic plan), `run_until_idle`
/// would fast-forward through them before the FM is even installed, so
/// stop early instead (the fabric trains in microseconds). Fault
/// schedules target discovery time, so bring-up stops right at the
/// first fault; a churn window instead targets the *steady state* after
/// discovery, so bring-up stops at half the window start, leaving the
/// first half for the initial discovery and PI-5 route configuration;
/// a traffic plan keeps each flow's next arrival in the kernel from its
/// window start on, so bring-up stops at half that start (usually zero:
/// loaded discovery is the point of the measurement).
fn run_bringup(fabric: &mut Fabric, faults: &FaultPlan, churn: &ChurnPlan, traffic: &TrafficPlan) {
    let first_fault = faults.events.iter().map(|e| e.at).min();
    let first_churn = (!churn.is_inert()).then_some(churn.start / 2);
    let first_traffic = (!traffic.is_inert()).then_some(traffic.start / 2);
    match first_fault
        .into_iter()
        .chain(first_churn)
        .chain(first_traffic)
        .min()
    {
        Some(first) => fabric.run_until(asi_sim::SimTime::ZERO + first),
        None => fabric.run_until_idle(),
    }
}

/// Data-plane delivery after a run under a traffic plan: the fabric's
/// counters and the three numbers derived from them and the flows'
/// latency samples. All zeros under an inert plan, so traffic-free
/// reports stay unchanged.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrafficSummary {
    /// The fabric's counters when the run was summarized.
    pub counters: FabricCounters,
    /// Delivered goodput in bits per second over the plan's window.
    pub goodput_bps: f64,
    /// Median end-to-end flow latency in microseconds.
    pub latency_p50_us: f64,
    /// 99th-percentile end-to-end flow latency in microseconds.
    pub latency_p99_us: f64,
}

/// Summarizes data-plane delivery after a run under `plan` — the
/// load-sweep columns and the `traffic` report.
pub fn summarize_traffic(fabric: &Fabric, plan: &TrafficPlan) -> TrafficSummary {
    if plan.is_inert() {
        return TrafficSummary::default();
    }
    let counters = *fabric.counters();
    let mut latencies: Vec<u64> = fabric
        .flow_stats()
        .iter()
        .flat_map(|s| s.latency_ps.iter().copied())
        .collect();
    latencies.sort_unstable();
    let pct_us = |q: f64| -> f64 {
        if latencies.is_empty() {
            0.0
        } else {
            let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
            latencies[idx] as f64 / 1e6 // ps → µs
        }
    };
    let window = plan.duration.as_secs_f64();
    TrafficSummary {
        counters,
        goodput_bps: if window > 0.0 {
            counters.flow_bytes as f64 * 8.0 / window
        } else {
            0.0
        },
        latency_p50_us: pct_us(0.50),
        latency_p99_us: pct_us(0.99),
    }
}

/// A scenario bound to a live fabric: each method is one step of the
/// paper's §4.1 procedure. [`Bench::start`] brings the fabric up and
/// runs the initial discovery; [`Bench::configure_pi5_routes`] has the
/// FM write every device's PI-5 reporting route; [`Bench::remove_switch`]
/// and [`Bench::add_device`] configure, inject their change and wait
/// until the FM has assimilated it and rewritten the routes it changed.
pub struct Bench {
    /// The fabric under test.
    pub fabric: Fabric,
    /// The FM's endpoint.
    pub fm: DevId,
    /// The [`removable_switches`]: what [`Bench::pick_victim_switch`]
    /// draws from.
    removable: Vec<NodeId>,
    rng: SimRng,
}

/// Translates a database DSN back to the fabric device id.
pub fn dev_of_dsn(dsn: u64) -> DevId {
    DevId((dsn & 0xFFFF_FFFF) as u32)
}

/// DSN of a fabric device id.
pub fn dsn_of_dev(dev: DevId) -> u64 {
    DSN_BASE | u64::from(dev.0)
}

/// True when `db` mirrors the live fabric exactly: the same devices as
/// those reachable from `fm` over active links, and every physical link
/// of `topo`, port numbers included, recorded iff both its ends are
/// reachable and both its ports are trained up right now. With
/// [`db_routes_execute`], the ground-truth verdict behind every
/// `full_topology`; alone, churn's divergence measure.
pub fn db_matches_fabric(db: &TopologyDb, fabric: &Fabric, fm: DevId, topo: &Topology) -> bool {
    let truth = fabric.active_reachable(fm);
    if truth.len() != db.device_count() || !truth.iter().all(|&d| db.contains(dsn_of_dev(d))) {
        return false;
    }
    let mut live_links = 0usize;
    for l in topo.links() {
        let (a, b) = (DevId(l.a.node.0), DevId(l.b.node.0));
        let (a_dsn, b_dsn) = (dsn_of_dev(a), dsn_of_dev(b));
        let live = db.contains(a_dsn)
            && db.contains(b_dsn)
            && fabric.port_state(a, l.a.port) == PortState::Active
            && fabric.port_state(b, l.b.port) == PortState::Active;
        if live != (db.neighbor(a_dsn, l.a.port) == Some((b_dsn, l.b.port))) {
            return false;
        }
        live_links += usize::from(live);
    }
    // Discovery can never invent links, so equal counts close the loop.
    live_links == db.link_count()
}

/// True when every route `db` stores executes on the live fabric: out of
/// the host's `egress` port and through one switch per turn of its pool,
/// every hop lands on an active device, and the last lands on the
/// route's own device at its `entry_port`. The routing half of the
/// ground-truth verdict; it stays apart from [`db_matches_fabric`],
/// which churn's divergence accounting reads on its own.
pub fn db_routes_execute(db: &TopologyDb, fabric: &Fabric, topo: &Topology) -> bool {
    let host = db.host_dsn();
    let from = NodeId(dev_of_dsn(host).0);
    db.devices().filter(|d| d.info.dsn != host).all(|d| {
        let route = &d.route;
        let to = Attachment {
            node: NodeId(dev_of_dsn(d.info.dsn).0),
            port: route.entry_port,
        };
        walk(topo, fabric, from, route.egress, &route.pool.to_pool()) == Some(to)
    })
}

/// Follows a route forward over `topo` from `from`: out of `egress`,
/// then one turn per switch the pool names. The attachment it arrives
/// at, or `None` if it falls off the fabric or enters a device that is
/// not active in `fabric`.
fn walk(
    topo: &Topology,
    fabric: &Fabric,
    from: NodeId,
    egress: u8,
    pool: &TurnPool,
) -> Option<Attachment> {
    let active = |at: &Attachment| fabric.is_active(DevId(at.node.0));
    let hop = |node, port| topo.peer(node, port).filter(active);
    let mut at = hop(from, egress)?;
    let mut cursor = TurnCursor::start(pool, Direction::Forward);
    while !cursor.exhausted(pool) {
        let node = topo.node(at.node)?;
        let (turn, next) = cursor.take_turn(pool, turn_width(node.ports)).ok()?;
        at = hop(at.node, apply_forward(at.port, turn, node.ports))?;
        cursor = next;
    }
    Some(at)
}

/// The switches a change experiment may remove or hot-add without
/// cutting the manager off: every switch but the one the FM's endpoint
/// hangs off, in topology order. Empty on a fabric whose only switch is
/// the manager's.
pub fn removable_switches(topo: &Topology) -> Vec<NodeId> {
    let fm_node = asi_topo::default_fm_endpoint(topo);
    let fm_neighbor = fm_node.and_then(|fm| topo.neighbors(fm).next());
    let fm_neighbor = fm_neighbor.map(|(_, at)| at.node);
    (topo.switches().into_iter())
        .filter(|&s| Some(s) != fm_neighbor)
        .collect()
}

impl Bench {
    /// Builds the fabric, powers everything up (minus `absent` devices),
    /// installs the FM on the first endpoint and runs the initial
    /// discovery to completion.
    pub fn start(topo: &Topology, scenario: &Scenario, absent: &[NodeId]) -> Bench {
        let config = scenario.fabric_config(topo);
        let mut fabric = scenario.powered_fabric(topo, config, absent);

        let fm_node = asi_topo::default_fm_endpoint(topo).expect("topology has endpoints");
        assert!(
            !absent.contains(&fm_node),
            "the FM endpoint cannot be absent"
        );
        let fm = DevId(fm_node.0);
        let rng = SimRng::new(scenario.seed);
        let removable = removable_switches(topo);

        fabric.set_agent(
            fm,
            Box::new(FmAgent::new(scenario.fm_config(topo.node_count()))),
        );
        fabric.schedule_agent_timer(fm, SimDuration::from_us(1), TOKEN_START_DISCOVERY);

        let mut bench = Bench {
            fabric,
            fm,
            removable,
            rng,
        };
        bench.settle(|fm| !fm.runs().is_empty() && !fm.discovering());
        bench
    }

    /// Runs one measured discovery and hands back the bench that ran it,
    /// so the caller can judge the fabric it measured: the initial
    /// discovery (`change` is `None`), or the assimilation of a switch
    /// removal (`Some(true)`, the victim drawn from the bench's RNG) or
    /// hot addition (`Some(false)`: the fabric comes up without a
    /// newcomer drawn from the scenario seed, then hot-adds it).
    ///
    /// # Panics
    ///
    /// On a change, if the fabric has no switch besides the manager's
    /// own ([`removable_switches`] is empty).
    pub fn measure(
        topo: &Topology,
        scenario: &Scenario,
        change: Option<bool>,
    ) -> (Bench, DiscoveryRun) {
        let newcomer = (change == Some(false)).then(|| {
            let candidates = removable_switches(topo);
            let mut rng = SimRng::new(scenario.seed ^ 0x5EED);
            *rng.choose(&candidates).expect("a removable switch")
        });
        let mut bench = Bench::start(topo, scenario, newcomer.as_slice());
        let run = match (change, newcomer) {
            (None, _) => bench.last_run(),
            (_, Some(newcomer)) => bench.add_device(newcomer),
            (Some(_), None) => {
                let victim = bench.pick_victim_switch();
                bench.remove_switch(victim)
            }
        };
        (bench, run)
    }

    /// Steps the fabric until `done` holds of the FM and has held for a
    /// grace period: it stops on the first event dated a grace period or
    /// more after the one that made `done` hold. Works both with and
    /// without background traffic (which never lets the event queue go
    /// idle). `done` reads agent state, which only an agent callback
    /// changes, so it is asked again after an event that called one, not
    /// after every event.
    fn settle(&mut self, done: impl Fn(&FmAgent) -> bool) {
        let quiet = SimDuration::from_us(500);
        let mut quiet_since = None;
        loop {
            let ready = done(self.fm_agent());
            let deadline = if ready {
                let since = *quiet_since.get_or_insert(self.fabric.now());
                if self.fabric.now().saturating_since(since) >= quiet {
                    break;
                }
                since + quiet
            } else {
                quiet_since = None;
                SimTime::MAX
            };
            if !self.fabric.run_until_agent_call(deadline) {
                assert!(ready, "fabric went idle before the FM was done");
                break;
            }
        }
    }

    /// The FM agent.
    pub fn fm_agent(&self) -> &FmAgent {
        self.fabric
            .agent_as::<FmAgent>(self.fm)
            .expect("FM installed")
    }

    /// The latest discovery run.
    pub fn last_run(&self) -> DiscoveryRun {
        *self
            .fm_agent()
            .last_run()
            .expect("a discovery has completed")
    }

    /// The FM's current database.
    pub fn db(&self) -> &TopologyDb {
        self.fm_agent().db().expect("discovery completed")
    }

    /// Number of active devices reachable from the FM (the paper's
    /// "active nodes" x-axis).
    pub fn active_nodes(&self) -> usize {
        self.fabric.active_reachable(self.fm).len()
    }

    /// The PI-5 configuration step after discovery: arms the FM's
    /// [`TOKEN_CONFIGURE_PI5`] and settles until its reporting-route
    /// writes have drained. The FM writes each device's route to the
    /// host, from its own database, over PI-4 along the route its reads
    /// used; a second call writes only the routes that changed since.
    /// Panics if a write failed with no retry left: that device would
    /// report nothing.
    pub fn configure_pi5_routes(&mut self) {
        let failures = self.fm_agent().pi5_route_failures();
        self.arm_pi5_configuration();
        self.settle(|fm| fm.pi5_routes_settled() && !fm.discovering());
        let failed = self.fm_agent().pi5_route_failures() - failures;
        assert_eq!(failed, 0, "{failed} reporting-route writes failed");
    }

    /// Arms the FM's [`TOKEN_CONFIGURE_PI5`] 1 µs from now, without
    /// waiting for its writes.
    pub(crate) fn arm_pi5_configuration(&mut self) {
        (self.fabric).schedule_agent_timer(self.fm, SimDuration::from_us(1), TOKEN_CONFIGURE_PI5);
    }

    /// Picks a random switch that is safe to remove (never the FM's
    /// attached switch, so the manager stays connected).
    pub fn pick_victim_switch(&mut self) -> NodeId {
        let candidates: Vec<NodeId> = self
            .removable
            .iter()
            .copied()
            .filter(|s| self.fabric.is_active(DevId(s.0)))
            .collect();
        *self.rng.choose(&candidates).expect("a removable switch")
    }

    /// Configures PI-5 reporting, removes `victim` and runs until the FM
    /// has assimilated the change. Returns the assimilation run.
    pub fn remove_switch(&mut self, victim: NodeId) -> DiscoveryRun {
        self.configure_pi5_routes();
        self.fabric
            .schedule_deactivate(DevId(victim.0), SimDuration::from_us(1));
        self.assimilate()
    }

    /// Configures PI-5 reporting, activates a previously absent device
    /// and runs until assimilated.
    pub fn add_device(&mut self, newcomer: NodeId) -> DiscoveryRun {
        self.configure_pi5_routes();
        self.fabric
            .schedule_activate(DevId(newcomer.0), SimDuration::from_us(1));
        self.assimilate()
    }

    /// Settles until the FM has finished one more run and rewritten the
    /// reporting routes it changed, and returns that run.
    fn assimilate(&mut self) -> DiscoveryRun {
        let target = self.fm_agent().runs().len() + 1;
        self.settle(|fm| fm.runs().len() >= target && !fm.discovering() && fm.pi5_routes_settled());
        self.last_run()
    }
}

/// Result of an election-based sharded discovery ([`sharded_discovery`]).
#[derive(Clone, Debug)]
pub struct ShardedOutcome {
    /// Time from the election kick-off to the primary's final merged
    /// database (election window included).
    pub merged_time: asi_sim::SimDuration,
    /// Devices in the merged database.
    pub devices: usize,
    /// Links in the merged database.
    pub links: usize,
    /// Canonical-snapshot checksum stamped by the merge certificate.
    pub checksum: u64,
    /// Boundary devices ceded to a rival, summed over every manager.
    pub boundary_conflicts: u64,
    /// Primary failovers over the whole run (0 unless the primary died).
    pub failovers: u32,
    /// The primary's merge tail: end of its own exploration to the
    /// merged database becoming final.
    pub merge_time: asi_sim::SimDuration,
    /// Devices each manager explored itself (primary first).
    pub per_fm_devices: Vec<usize>,
}

/// Runs a fully distributed sharded discovery: `fm_count` managers
/// elect a primary over PI-9 (claim broadcast, fixed election window,
/// deterministic local resolution), partition the fabric with
/// claim-and-hold ownership writes, and stream their regions to the
/// elected primary, which certifies the merged database
/// ([`asi_core::certify_merge`]).
///
/// No roles are pre-assigned — only the peer routes are (the fabric
/// would normally flood-learn them). The first endpoint advertises the
/// highest election priority, so the winner is deterministic; the
/// runner-up arms standby keepalives and takes over if the primary dies
/// mid-run. With `fm_count == 1` the lone manager elects itself and the
/// run degenerates to a classic single-FM discovery through the same
/// code path.
///
/// # Panics
///
/// Unless `1 <= fm_count <= min(endpoints, 255)` (a priority is a `u8`).
pub fn sharded_discovery(
    topo: &Topology,
    fm_count: usize,
    scenario: &Scenario,
) -> (Fabric, DevId, ShardedOutcome) {
    use asi_core::{certify_merge, DistributedConfig, TOKEN_START_ELECTION};
    use asi_topo::shortest_route;

    let endpoints = topo.endpoints();
    assert!(
        (1..=endpoints.len().min(255)).contains(&fm_count),
        "{fm_count} managers do not fit {} endpoints",
        endpoints.len()
    );
    // Manager endpoints spread evenly (so distinct) over the endpoint
    // list; the first endpoint runs the highest-priority candidate.
    let mut fm_nodes: Vec<NodeId> = vec![endpoints[0]];
    for i in 1..fm_count {
        fm_nodes.push(endpoints[i * (endpoints.len() - 1) / (fm_count - 1).max(1)]);
    }

    let mut fabric = scenario.powered_fabric(topo, scenario.fabric_config(topo), &[]);

    // Pairwise peer routes and the election window: every claim must
    // cross the fabric before any window closes, so pad the default by
    // a generous per-hop budget.
    let mut max_hops = 0usize;
    let mut ensembles = Vec::new();
    for (i, &a) in fm_nodes.iter().enumerate() {
        let mut dc = DistributedConfig::new((fm_count - i) as u8);
        for &b in fm_nodes.iter().filter(|&&b| b != a) {
            let route = shortest_route(topo, a, b).expect("connected fabric");
            max_hops = max_hops.max(route.hops.len());
            let pool = route
                .encode(topo, asi_proto::MAX_POOL_BITS)
                .expect("route fits extended pool");
            dc = dc.with_peer(dsn_of_dev(DevId(b.0)), route.source_port, pool);
        }
        ensembles.push(dc);
    }
    let window =
        DistributedConfig::new(0).election_window + SimDuration::from_us(1) * (max_hops as u64);

    // Each manager's request timeout scales with the region it will
    // actually explore (~1/fm_count of the fabric), not the whole
    // fabric.
    let region = topo.node_count().div_ceil(fm_count);
    let fm_cfg = scenario.fm_config(region).with_auto_rediscover(false);
    for (&node, dc) in fm_nodes.iter().zip(ensembles) {
        let cfg = fm_cfg
            .clone()
            .with_distributed_config(dc.with_election_window(window));
        fabric.set_agent(DevId(node.0), Box::new(FmAgent::new(cfg)));
    }

    // Kick every candidate at (nearly) the same instant.
    let start = SimDuration::from_us(1);
    let start_at = fabric.now() + start;
    for &node in &fm_nodes {
        fabric.schedule_agent_timer(DevId(node.0), start, TOKEN_START_ELECTION);
    }

    // Some manager ends up holding the merged database — normally the
    // elected primary, but after a failover the promoted secondary. The
    // trailing drain is bounded: a healthy standby secondary keeps
    // watching the primary forever, so the fabric never goes idle on
    // its own.
    let managers: Vec<DevId> = fm_nodes.iter().map(|n| DevId(n.0)).collect();
    fn agent(fabric: &Fabric, m: DevId) -> &FmAgent {
        fabric.agent_as::<FmAgent>(m).expect("a manager")
    }
    let holder = loop {
        if let Some(&m) = managers
            .iter()
            .find(|&&m| agent(&fabric, m).merged_at().is_some())
        {
            break m;
        }
        assert!(
            fabric.step(),
            "fabric idle before the sharded merge completed"
        );
    };
    fabric.run_until(fabric.now() + SimDuration::from_ms(1));

    let (merged_time, devices, links, checksum, merge_time) = {
        let agent = agent(&fabric, holder);
        let finished = agent.merged_at().expect("checked");
        let db = agent.db().expect("merged database");
        let cert = certify_merge(db).expect("merged database certifies");
        let merge_time = agent
            .last_run()
            .map(|r| r.merge_time)
            .unwrap_or(SimDuration::ZERO);
        (
            finished.saturating_since(start_at),
            cert.devices as usize,
            cert.links as usize,
            cert.checksum,
            merge_time,
        )
    };
    let mut boundary_conflicts = 0;
    let mut failovers = 0;
    let mut per_fm_devices = Vec::new();
    for &m in &managers {
        let run = agent(&fabric, m).last_run();
        boundary_conflicts += run.map_or(0, |r| r.boundary_conflicts);
        failovers += run.map_or(0, |r| r.failovers);
        per_fm_devices.push(run.map_or(0, |r| r.devices_found));
    }

    (
        fabric,
        holder,
        ShardedOutcome {
            merged_time,
            devices,
            links,
            checksum,
            boundary_conflicts,
            failovers,
            merge_time,
            per_fm_devices,
        },
    )
}

/// One repetition of the paper's change experiment: [`Bench::measure`]
/// with a random switch removal **or** addition. Returns `(assimilation
/// run, active nodes after the change)`; panics where `measure` does.
pub fn change_experiment(
    topo: &Topology,
    scenario: &Scenario,
    remove: bool,
) -> (DiscoveryRun, usize) {
    let (bench, run) = Bench::measure(topo, scenario, Some(remove));
    (run, bench.active_nodes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use asi_proto::config::event_route_from_words;
    use asi_proto::{EVENT_ROUTE_WORDS, MAX_COMPLETION_DWORDS, MAX_POOL_BITS};
    use asi_topo::mesh;
    use std::collections::HashMap;

    /// The second scenario's manager is so slow that its discovery takes
    /// 45.6 simulated seconds; the bench waits for it all the same.
    #[test]
    fn bench_initial_discovery_finds_everything() {
        let g = mesh(3, 3).unwrap();
        let slow = Scenario::new(Algorithm::Parallel)
            .with_factors(3e-5, 1.0)
            .with_request_timeout(SimDuration::from_ms(1_000_000));
        for scenario in [Scenario::new(Algorithm::Parallel), slow] {
            let bench = Bench::start(&g.topology, &scenario, &[]);
            assert_eq!(bench.db().device_count(), 18);
            assert_eq!(bench.active_nodes(), 18);
        }
    }

    /// A link recorded on the wrong port keeps every count right; only
    /// the comparison with the live fabric catches it.
    #[test]
    fn a_link_on_a_wrong_port_fails_the_ground_truth_verdict() {
        let g = mesh(3, 3).unwrap();
        let bench = Bench::start(&g.topology, &Scenario::new(Algorithm::Parallel), &[]);
        let matches = |db: &TopologyDb| db_matches_fabric(db, &bench.fabric, bench.fm, &g.topology);
        let mut db = bench.db().clone();
        assert!(matches(&db));
        let ((a, a_port), b) = db
            .links()
            .find(|&((a, _), _)| a == dsn_of_dev(DevId(g.switch_at(1, 1).0)))
            .unwrap();
        let wrong = (0..=u8::MAX)
            .find(|&p| db.neighbor(a, p).is_none())
            .unwrap();
        assert!(db.remove_link((a, a_port), b) && db.add_link((a, wrong), b));
        assert_eq!((db.device_count(), db.link_count()), (18, 21));
        assert!(!matches(&db));
    }

    /// A device record that routes to another device keeps every count,
    /// device and link right; only executing the stored routes catches it.
    #[test]
    fn a_misrouted_record_fails_the_route_verdict() {
        let g = mesh(3, 3).unwrap();
        let bench = Bench::start(&g.topology, &Scenario::new(Algorithm::Parallel), &[]);
        let routes_execute = |db: &TopologyDb| db_routes_execute(db, &bench.fabric, &g.topology);
        let mut db = bench.db().clone();
        assert!(routes_execute(&db));
        let [near, far] = [(1, 1), (2, 2)].map(|(x, y)| dsn_of_dev(DevId(g.switch_at(x, y).0)));
        let detour = db.device(near).unwrap().route.clone();
        db.device_mut(far).unwrap().route = detour;
        assert!(db_matches_fabric(&db, &bench.fabric, bench.fm, &g.topology));
        assert!(!routes_execute(&db));
    }

    /// A device's PI-5 reporting route as a PI-4 read of its register
    /// returns it: `(egress, pool)`, or `None` while it holds no valid
    /// route.
    fn reporting_route(fabric: &Fabric, dev: DevId) -> Option<(u8, TurnPool)> {
        let mut words = Vec::new();
        for offset in (0..EVENT_ROUTE_WORDS).step_by(MAX_COMPLETION_DWORDS) {
            let capability = asi_proto::CAP_EVENT_ROUTE;
            let n = (EVENT_ROUTE_WORDS - offset).min(MAX_COMPLETION_DWORDS as u16);
            let addr = asi_proto::CapabilityAddr { capability, offset };
            words.extend(fabric.read_config(dev, addr, n as u8).unwrap());
        }
        event_route_from_words(&words)
    }

    /// Each device's route to the host in `db`, by DSN.
    fn routes_to_host(db: &TopologyDb) -> HashMap<u64, (u8, TurnPool)> {
        let mut routes = HashMap::new();
        db.for_each_route_to(db.host_dsn(), MAX_POOL_BITS, |dsn, route| {
            let route = route.unwrap();
            assert!(routes.insert(dsn, (route.egress, route.pool)).is_none());
        });
        routes
    }

    /// The routes the FM's configuration step writes reach the manager:
    /// every device but the host holds one, read back over PI-4, that
    /// walks the real fabric to the host, and it is the route the
    /// database's walk to the host gives; `routes_to` is the same routes
    /// in a map. On the long thin mesh the far routes exceed one write.
    #[test]
    fn pi5_routes_lead_every_device_to_the_host() {
        let fabrics = [
            ("mesh:4x4", mesh(4, 4).unwrap().topology),
            ("torus:4x4", asi_topo::torus(4, 4).unwrap().topology),
            ("fattree:4,2", asi_topo::fat_tree(4, 2).unwrap().topology),
            ("dragonfly:2,4", asi_topo::dragonfly(2, 4).unwrap().topology),
            ("mesh:58x2", mesh(58, 2).unwrap().topology),
        ];
        for (name, topo) in &fabrics {
            let mut bench = Bench::start(topo, &Scenario::new(Algorithm::Parallel), &[]);
            bench.configure_pi5_routes();
            let db = bench.db();
            let host = db.host_dsn();
            assert_eq!(dev_of_dsn(host), bench.fm, "{name}");
            let routes = routes_to_host(db);
            assert!(
                !routes.contains_key(&host),
                "{name}: the host routed to itself"
            );
            assert_eq!(routes.len(), topo.node_count() - 1, "{name}");
            let longest = routes.values().map(|(_, pool)| pool.len_bits()).max();
            assert_eq!(longest > Some(224), *name == "mesh:58x2", "{name}");
            for (id, _) in topo.nodes().filter(|&(id, _)| DevId(id.0) != bench.fm) {
                let (egress, pool) = reporting_route(&bench.fabric, DevId(id.0))
                    .unwrap_or_else(|| panic!("{name}: {id} holds no route"));
                let arrival = walk(topo, &bench.fabric, id, egress, &pool);
                assert_eq!(
                    arrival.map(|at| at.node),
                    Some(NodeId(bench.fm.0)),
                    "{name}: the route from {id} misses the host"
                );
                let dsn = dsn_of_dev(DevId(id.0));
                assert_eq!(routes.get(&dsn), Some(&(egress, pool)), "{name}");
            }
            let in_a_map = db.routes_to(host, MAX_POOL_BITS);
            assert_eq!(in_a_map.len(), routes.len(), "{name}");
            for (dsn, route) in in_a_map {
                let route = route.unwrap();
                assert_eq!(routes[&dsn], (route.egress, route.pool), "{name}");
            }
        }
    }

    /// Reporting-route writes the fabric carried between two counter
    /// readings over which the FM ran `runs`: every packet injected is a
    /// run's request or its response, a PI-5, or a route write or its
    /// acknowledgement.
    fn route_writes(before: &FabricCounters, after: &FabricCounters, runs: &[DiscoveryRun]) -> u64 {
        let reads: u64 = runs
            .iter()
            .map(|r| r.requests_sent + r.responses_received)
            .sum();
        let pi5 = after.pi5_emitted - before.pi5_emitted;
        let writes = after.injected - before.injected - reads - pi5;
        assert_eq!(writes % 2, 0, "a write without its acknowledgement");
        writes / 2
    }

    /// A second configuration sends nothing; a removal rewrites exactly
    /// the devices whose route to the host changed, and every register
    /// then holds the new route.
    #[test]
    fn configuration_rewrites_only_the_routes_that_changed() {
        let g = mesh(4, 4).unwrap();
        let mut bench = Bench::start(&g.topology, &Scenario::new(Algorithm::Parallel), &[]);
        let held = |bench: &Bench| {
            let devs = g.topology.nodes().map(|(id, _)| DevId(id.0));
            devs.filter(|&dev| reporting_route(&bench.fabric, dev).is_some())
                .count()
        };
        assert_eq!(held(&bench), 0, "start configures nothing");
        let started = *bench.fabric.counters();
        bench.configure_pi5_routes();
        let configured = *bench.fabric.counters();
        assert_eq!(held(&bench), 31);
        assert_eq!(route_writes(&started, &configured, &[]), 31);
        bench.configure_pi5_routes();
        assert_eq!(
            bench.fabric.counters().injected,
            configured.injected,
            "a packet was sent"
        );

        let before = routes_to_host(bench.db());
        let runs = bench.fm_agent().runs().len();
        bench.remove_switch(g.switch_at(1, 1));
        let new_runs = &bench.fm_agent().runs()[runs..];
        assert!(!new_runs.is_empty(), "no PI-5 reached the FM");
        let after = routes_to_host(bench.db());
        let changed = after
            .iter()
            .filter(|&(dsn, r)| before.get(dsn) != Some(r))
            .count();
        assert!(changed > 0);
        let removed = route_writes(&configured, bench.fabric.counters(), new_runs);
        assert_eq!(removed, changed as u64);
        for (dsn, route) in &after {
            let held = reporting_route(&bench.fabric, dev_of_dsn(*dsn));
            assert_eq!(held.as_ref(), Some(route));
        }
    }

    #[test]
    fn remove_experiment_updates_active_nodes() {
        let g = mesh(3, 3).unwrap();
        let (run, active) =
            change_experiment(&g.topology, &Scenario::new(Algorithm::Parallel), true);
        // One switch + its endpoint gone.
        assert_eq!(active, 16);
        assert!(run.discovery_time() > asi_sim::SimDuration::ZERO);
        assert_eq!(run.devices_found, 16);
    }

    #[test]
    fn add_experiment_restores_full_fabric() {
        let g = mesh(3, 3).unwrap();
        let (run, active) =
            change_experiment(&g.topology, &Scenario::new(Algorithm::SerialDevice), false);
        assert_eq!(active, 18);
        assert_eq!(run.devices_found, 18);
    }

    #[test]
    fn victim_never_isolates_the_fm() {
        let g = mesh(3, 3).unwrap();
        let mut bench = Bench::start(&g.topology, &Scenario::new(Algorithm::Parallel), &[]);
        for _ in 0..20 {
            let v = bench.pick_victim_switch();
            assert_ne!(v, g.switch_at(0, 0), "FM's own switch chosen");
        }
    }

    #[test]
    fn warm_scenario_verifies_instead_of_rediscovering() {
        let g = mesh(3, 3).unwrap();
        let cold = Bench::start(&g.topology, &Scenario::new(Algorithm::Parallel), &[]);
        let snapshot = asi_core::snapshot_db(cold.db());
        let warm = Scenario::new(Algorithm::Parallel).with_snapshot(snapshot);
        let bench = Bench::start(&g.topology, &warm, &[]);
        let run = bench.last_run();
        assert_eq!(run.trigger, asi_core::DiscoveryTrigger::WarmStart);
        assert_eq!(run.probes_verified, 17);
        assert_eq!(run.verify_mismatches, 0);
        assert!(!run.warm_fallback);
        assert_eq!(bench.db().device_count(), 18);
    }

    #[test]
    fn request_timeout_scales_with_the_per_manager_region() {
        let s = Scenario::new(Algorithm::Parallel);
        // Whole-fabric scaling: 512 devices quadruple the base timeout.
        assert_eq!(s.scaled_request_timeout(512), s.request_timeout * 4);
        // A manager exploring half of that fabric must get the timeout
        // for *its region*, not the whole fabric.
        assert_eq!(
            s.scaled_request_timeout(512usize.div_ceil(2)),
            s.request_timeout * 2
        );
        // Paper-scale fabrics keep the configured base exactly.
        assert_eq!(s.scaled_request_timeout(64), s.request_timeout);
    }

    #[test]
    fn sharded_discovery_elects_and_merges_the_full_fabric() {
        let g = mesh(4, 4).unwrap();
        let s = Scenario::new(Algorithm::Parallel);
        let (_fabric, primary, out) = sharded_discovery(&g.topology, 3, &s);
        // The first endpoint advertises the highest priority: it wins.
        assert_eq!(primary, DevId(g.topology.endpoints()[0].0));
        assert_eq!(out.devices, 32);
        assert!(out.links > 0);
        assert_eq!(out.failovers, 0);
        assert_eq!(out.per_fm_devices.len(), 3);
        // Every device was explored by someone; overlap at shard
        // boundaries is expected and shows up as ceded devices.
        assert!(out.per_fm_devices.iter().sum::<usize>() >= 32);
        assert!(out.merged_time > SimDuration::ZERO);
    }

    #[test]
    fn sharded_discovery_with_one_manager_degenerates_to_classic() {
        let g = mesh(3, 3).unwrap();
        let s = Scenario::new(Algorithm::Parallel);
        let (_fabric, _primary, out) = sharded_discovery(&g.topology, 1, &s);
        assert_eq!(out.devices, 18);
        assert_eq!(out.boundary_conflicts, 0);
        assert_eq!(out.per_fm_devices, vec![18]);
        assert_eq!(out.merge_time, SimDuration::ZERO);
    }

    #[test]
    fn traffic_scenario_runs_and_summarizes() {
        let g = mesh(3, 3).unwrap();
        let plan = TrafficPlan::none()
            .with_unicast(0.10, 256)
            .with_window(SimDuration::ZERO, SimDuration::from_us(800));
        let s = Scenario::new(Algorithm::Parallel).with_traffic_plan(plan);
        let bench = Bench::start(&g.topology, &s, &[]);
        assert_eq!(bench.db().device_count(), 18);
        let counters = bench.fabric.counters();
        assert!(counters.flow_injected > 0, "no traffic injected");
        assert!(counters.flow_delivered > 0, "no traffic delivered");
        let summary = summarize_traffic(&bench.fabric, &s.traffic);
        assert_eq!(summary.counters, *counters);
        assert!(summary.goodput_bps > 0.0);
        assert!(summary.latency_p50_us > 0.0);
        assert!(summary.latency_p99_us >= summary.latency_p50_us);
        // The FM endpoint is exempted automatically.
        let fm_id = bench.fm.0;
        assert!(bench
            .fabric
            .traffic_flows()
            .iter()
            .all(|f| f.src != fm_id && f.dst != fm_id));
    }

    #[test]
    fn inert_traffic_plan_is_byte_identical_to_none() {
        let g = mesh(3, 3).unwrap();
        let base = Bench::start(&g.topology, &Scenario::new(Algorithm::Parallel), &[]);
        let zero = Scenario::new(Algorithm::Parallel).with_traffic_plan(
            TrafficPlan::none().with_window(SimDuration::ZERO, SimDuration::ZERO),
        );
        let loaded = Bench::start(&g.topology, &zero, &[]);
        assert_eq!(base.fabric.counters(), loaded.fabric.counters());
        assert_eq!(
            base.last_run().discovery_time(),
            loaded.last_run().discovery_time()
        );
        assert_eq!(
            summarize_traffic(&loaded.fabric, &zero.traffic),
            TrafficSummary::default()
        );
    }
}
