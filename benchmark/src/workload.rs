//! The five workloads and the three ways the benchmark drives them:
//!
//! - the **user path** — `Bench::start` / `change_experiment`, what a
//!   user of the repository calls; `wall_s` is measured here;
//! - the **set-up path** — spec → trained fabric with no manager, driven
//!   by hand with public functions; `setup_s` is measured here;
//! - the **hand-driven discovery** — the same discovery as the user
//!   path, driven by hand so a span can be put around each call into a
//!   layer; traced runs only, once bare and once with allocations
//!   counted and the FM wrapped in [`Timed`].
//!
//! Every workload is the same loop over *cells* (topology × cell seed ×
//! algorithm); the four single-fabric workloads have exactly one cell.

use crate::alloc;
use crate::span::Tracer;
use crate::stats;
use crate::timed::{AgentTimes, Timed};
use asi_core::{Algorithm, DiscoveryRun, FmAgent, FmConfig, FmTiming, TOKEN_START_DISCOVERY};
use asi_fabric::{DevId, Fabric, FabricConfig, TrafficPlan};
use asi_harness::{change_experiment, Bench, Scenario};
use asi_proto::MAX_POOL_BITS;
use asi_sim::{AnyKernel, KernelSpec, SimDuration, SimRng, SimTime, Simulator, Target};
use asi_topo::{default_fm_endpoint, dragonfly, mesh, NodeId, Table1, Topology};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Set-ups are timed after every repetition for this long, and at
/// least [`MIN_SETUPS_PER_REP`] times; their median is the repetition's
/// `setup_s`, so the run's is a median of medians spread over the whole
/// run even where one set-up takes milliseconds.
const SETUP_SECONDS_PER_REP: f64 = 0.3;
const MIN_SETUPS_PER_REP: usize = 3;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 64x64 mesh, Parallel discovery, serial kernel.
    Mesh64,
    /// The same inputs through the two-shard parallel kernel.
    Mesh64Par2,
    /// Swapped Dragonfly D3(8, 48), Parallel discovery, serial kernel.
    Dragonfly48,
    /// Every Table 1 topology × algorithm × {start, remove, add}.
    PaperSuite,
    /// 16x16 mesh discovered under 0.4 offered data-plane load.
    Mesh16Loaded,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::Mesh64,
        Workload::Mesh64Par2,
        Workload::Dragonfly48,
        Workload::PaperSuite,
        Workload::Mesh16Loaded,
    ];

    /// The name used on the command line and in every result.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mesh64 => "mesh64",
            Workload::Mesh64Par2 => "mesh64_par2",
            Workload::Dragonfly48 => "dragonfly48",
            Workload::PaperSuite => "paper_suite",
            Workload::Mesh16Loaded => "mesh16_loaded",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the real ladder, or a seconds-long smoke test of the
/// same code paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the baseline numbers are measured at.
    Full,
    /// mesh:8x8 / dragonfly:2,4 / one suite seed / 500 µs traffic window.
    Smoke,
}

impl Scale {
    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum TopoSpec {
    Mesh(usize),
    Dragonfly(usize, usize),
    Paper(Table1),
}

impl TopoSpec {
    /// The generator call, validation included.
    fn build(self) -> Topology {
        match self {
            TopoSpec::Mesh(w) => mesh(w, w).expect("benchmark mesh is valid").topology,
            TopoSpec::Dragonfly(k, m) => {
                dragonfly(k, m)
                    .expect("benchmark dragonfly is valid")
                    .topology
            }
            TopoSpec::Paper(row) => row.build(),
        }
    }
}

/// The inputs of one workload, made from `(workload, scale, seed)`. The
/// seed reaches the program only as `Scenario::with_seed`, the traffic
/// plan's seed and the suite's cell seeds.
pub struct Plan {
    topos: Vec<TopoSpec>,
    algorithms: Vec<Algorithm>,
    seeds: Vec<u64>,
    kernel: KernelSpec,
    traffic: TrafficPlan,
    /// Also run the remove and add change experiments on every cell.
    changes: bool,
}

impl Plan {
    /// The inputs of `workload` at `scale` for `seed`.
    pub fn new(workload: Workload, scale: Scale, seed: u64) -> Plan {
        let full = scale == Scale::Full;
        let mesh64 = TopoSpec::Mesh(if full { 64 } else { 8 });
        let base = Plan {
            topos: Vec::new(),
            algorithms: vec![Algorithm::Parallel],
            seeds: vec![seed],
            kernel: KernelSpec::Serial,
            traffic: TrafficPlan::none(),
            changes: false,
        };
        match workload {
            Workload::Mesh64 => Plan {
                topos: vec![mesh64],
                ..base
            },
            Workload::Mesh64Par2 => Plan {
                topos: vec![mesh64],
                kernel: KernelSpec::Parallel { shards: 2 },
                ..base
            },
            Workload::Dragonfly48 => Plan {
                topos: vec![if full {
                    TopoSpec::Dragonfly(8, 48)
                } else {
                    TopoSpec::Dragonfly(2, 4)
                }],
                ..base
            },
            Workload::PaperSuite => {
                let mut rng = SimRng::new(seed);
                Plan {
                    topos: Table1::all().into_iter().map(TopoSpec::Paper).collect(),
                    algorithms: Algorithm::all().to_vec(),
                    seeds: (0..if full { 4 } else { 1 })
                        .map(|_| rng.next_u64())
                        .collect(),
                    changes: true,
                    ..base
                }
            }
            Workload::Mesh16Loaded => Plan {
                topos: vec![TopoSpec::Mesh(16)],
                // The CLI's `traffic --load 0.4` default shape.
                traffic: TrafficPlan::none()
                    .with_unicast(0.4, 512)
                    .with_window(
                        SimDuration::ZERO,
                        SimDuration::from_us(if full { 8000 } else { 500 }),
                    )
                    .with_seed(seed ^ 0x7AF1C),
                ..base
            },
        }
    }

    fn scenario(&self, algorithm: Algorithm, seed: u64) -> Scenario {
        Scenario::new(algorithm)
            .with_seed(seed)
            .with_kernel(self.kernel)
            .with_traffic_plan(self.traffic.clone())
    }

    /// Devices of the largest topology: the population of the kernel
    /// hold model.
    fn largest_population(&self) -> u32 {
        let devices = self.topos.iter().map(|t| t.build().node_count()).max();
        devices.expect("a plan has a topology") as u32
    }
}

/// The simulated numbers of a set of discoveries. A host-side change
/// must leave every one of them identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimNumbers {
    /// Summed discovery time in simulated picoseconds.
    pub discovery_ps: u64,
    /// PI-4 requests injected.
    pub requests: u64,
    /// Completions processed.
    pub responses: u64,
    /// Requests that timed out.
    pub timeouts: u64,
    /// Timed-out requests re-issued.
    pub retries: u64,
    /// Requests abandoned.
    pub abandoned: u64,
    /// Largest pending-table occupancy of any discovery.
    pub peak_outstanding: u64,
    /// Devices in the databases.
    pub devices_found: u64,
    /// Links in the databases.
    pub links_found: u64,
    /// Summed FM occupancy in simulated picoseconds.
    pub fm_busy_ps: u64,
}

impl SimNumbers {
    fn add(&mut self, run: &DiscoveryRun) {
        self.discovery_ps += run.discovery_time().as_ps();
        self.requests += run.requests_sent;
        self.responses += run.responses_received;
        self.timeouts += run.timeouts;
        self.retries += run.retries;
        self.abandoned += run.abandoned;
        self.peak_outstanding = self.peak_outstanding.max(run.peak_outstanding as u64);
        self.devices_found += run.devices_found as u64;
        self.links_found += run.links_found as u64;
        self.fm_busy_ps += run.fm_busy.as_ps();
    }

    /// Summed discovery time in simulated microseconds.
    pub fn discovery_us(&self) -> f64 {
        self.discovery_ps as f64 / 1e6
    }
}

/// Running count of what was attempted and what failed, with the first
/// few failure messages.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// Devices that should be in an FM database, over every discovery.
    pub attempted: u64,
    /// Devices missing + requests abandoned + failed checks.
    pub failed: u64,
    /// Why, for the first failures.
    pub failures: Vec<String>,
}

impl Verdict {
    /// Counts one failure unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(why());
            }
        }
    }

    /// One discovery that should have found every device and link of
    /// `topo`, with no request timed out or given up.
    fn discovery(&mut self, what: &str, run: &DiscoveryRun, topo: &Topology) {
        let (expected, links) = (topo.node_count(), topo.links().len());
        self.attempted += expected as u64;
        self.failed += expected.saturating_sub(run.devices_found) as u64 + run.abandoned;
        self.check(run.devices_found == expected, || {
            format!("{what}: found {} of {expected} devices", run.devices_found)
        });
        self.check(run.links_found == links, || {
            format!("{what}: found {} of {links} links", run.links_found)
        });
        self.check(run.timeouts == 0 && run.abandoned == 0, || {
            format!(
                "{what}: {} timeouts, {} abandoned on a loss-free fabric",
                run.timeouts, run.abandoned
            )
        });
    }
}

/// What one pass over the user path produced.
struct UserPath {
    /// Host seconds inside `Bench::start` / `change_experiment`.
    wall_s: f64,
    /// Host seconds inside the `Bench::start` cells alone.
    start_wall_s: f64,
    /// Every discovery of the pass.
    all: SimNumbers,
    /// The `Bench::start` discoveries alone, which the hand-driven run repeats.
    starts: SimNumbers,
    /// Events the `Bench::start` fabrics processed.
    start_events: u64,
    /// Simulated time each `Bench::start` stopped at, in cell order.
    start_ends: Vec<SimTime>,
}

/// Runs every cell of `plan` through the calls a user makes. With an
/// enabled tracer the change experiments are spelled out as their public
/// `Bench` calls so each gets its own span.
fn user_path(
    plan: &Plan,
    topos: &[Topology],
    tracer: &mut Tracer,
    verdict: &mut Verdict,
) -> UserPath {
    let mut out = UserPath {
        wall_s: 0.0,
        start_wall_s: 0.0,
        all: SimNumbers::default(),
        starts: SimNumbers::default(),
        start_events: 0,
        start_ends: Vec::new(),
    };
    for topo in topos {
        for &seed in &plan.seeds {
            for &algorithm in &plan.algorithms {
                let scenario = plan.scenario(algorithm, seed);
                let what = format!("{} {algorithm} seed {seed:#x}", topo_name(topo));

                let span = tracer.enter("harness.start");
                let started = Instant::now();
                let mut bench = Bench::start(topo, &scenario, &[]);
                let elapsed = started.elapsed().as_secs_f64();
                tracer.exit(span);
                out.wall_s += elapsed;
                out.start_wall_s += elapsed;
                let run = bench.last_run();
                verdict.discovery(&what, &run, topo);
                verdict.check(bench.db().device_count() == topo.node_count(), || {
                    format!(
                        "{what}: database holds {} devices",
                        bench.db().device_count()
                    )
                });
                if plan.traffic.is_inert() {
                    verdict.check(bench.fabric.packet_arena_live() == 0, || {
                        format!(
                            "{what}: {} packets leaked",
                            bench.fabric.packet_arena_live()
                        )
                    });
                }
                out.all.add(&run);
                out.starts.add(&run);
                out.start_events += bench.fabric.events_processed();
                out.start_ends.push(bench.fabric.now());
                if tracer.is_enabled() {
                    // An extra, idempotent install: its cost is inside
                    // `Bench::start` and has no other public handle.
                    let span = tracer.enter("harness.configure_pi5");
                    bench.configure_pi5_routes();
                    tracer.exit(span);
                }
                drop(bench);

                if plan.changes {
                    for remove in [true, false] {
                        let started = Instant::now();
                        let (run, active) = change_cell(topo, &scenario, remove, tracer);
                        out.wall_s += started.elapsed().as_secs_f64();
                        let kind = if remove { "remove" } else { "add" };
                        // A removal legitimately times out the requests
                        // in flight to the removed switch, so only the
                        // database is checked on change cells.
                        verdict.attempted += active as u64;
                        verdict.failed += active.saturating_sub(run.devices_found) as u64;
                        verdict.check(run.devices_found == active, || {
                            format!("{what} {kind}: found {} of {active}", run.devices_found)
                        });
                        out.all.add(&run);
                    }
                }
            }
        }
    }
    out
}

/// One change experiment. Untraced it is the harness's own
/// `change_experiment`; traced it is the same public `Bench` calls
/// spelled out, with a span around each.
fn change_cell(
    topo: &Topology,
    scenario: &Scenario,
    remove: bool,
    tracer: &mut Tracer,
) -> (DiscoveryRun, usize) {
    if !tracer.is_enabled() {
        return change_experiment(topo, scenario, remove);
    }
    if remove {
        let span = tracer.enter("harness.start");
        let mut bench = Bench::start(topo, scenario, &[]);
        tracer.exit(span);
        let victim = bench.pick_victim_switch();
        let span = tracer.enter("harness.remove_switch");
        let run = bench.remove_switch(victim);
        tracer.exit(span);
        (run, bench.active_nodes())
    } else {
        // Any switch but the FM's own will do as the late arrival.
        let fm = default_fm_endpoint(topo).expect("topology has endpoints");
        let fm_switch = topo.neighbors(fm).next().map(|(_, at)| at.node);
        let newcomer: NodeId = topo
            .switches()
            .into_iter()
            .rev()
            .find(|s| Some(*s) != fm_switch)
            .expect("a second switch");
        let span = tracer.enter("harness.start");
        let mut bench = Bench::start(topo, scenario, &[newcomer]);
        tracer.exit(span);
        let span = tracer.enter("harness.add_device");
        let run = bench.add_device(newcomer);
        tracer.exit(span);
        (run, bench.active_nodes())
    }
}

fn topo_name(topo: &Topology) -> String {
    format!("{}-device fabric", topo.node_count())
}

/// Spec → trained fabric with no manager: the generator call, then
/// `Fabric::new` (which materialises the traffic plan), `activate_all`
/// and the bring-up drain — what `Bench::start` does before it installs
/// the FM, spelled out with public functions.
fn train(plan: &Plan, spec: TopoSpec, seed: u64, tracer: &mut Tracer) -> (Topology, Fabric) {
    let span = tracer.enter("topo.build");
    let topo = spec.build();
    tracer.exit(span);

    let span = tracer.enter("fabric.new");
    let mut traffic = plan.traffic.clone();
    if !traffic.is_inert() {
        // The management station is a dedicated host.
        traffic
            .exempt
            .extend(default_fm_endpoint(&topo).map(|fm| fm.0));
    }
    let config = FabricConfig {
        traffic,
        seed,
        kernel: plan.kernel,
        ..FabricConfig::default()
    };
    let mut fabric = Fabric::new(&topo, config);
    tracer.exit(span);

    let span = tracer.enter("fabric.bringup");
    fabric.activate_all(SimDuration::ZERO);
    if plan.traffic.is_inert() {
        fabric.run_until_idle();
    } else {
        // Injections are pre-scheduled from the window start on, so the
        // drain must stop there.
        fabric.run_until(SimTime::ZERO + plan.traffic.start / 2);
    }
    tracer.exit(span);
    (topo, fabric)
}

/// One `setup_s` sample: a trained fabric for every cell of the plan.
fn setup_sample(plan: &Plan) -> f64 {
    let mut tracer = Tracer::disabled();
    let mut total = 0.0;
    for &spec in &plan.topos {
        for &seed in &plan.seeds {
            for _ in &plan.algorithms {
                let started = Instant::now();
                let trained = train(plan, spec, seed, &mut tracer);
                total += started.elapsed().as_secs_f64();
                drop(black_box(trained));
            }
        }
    }
    total
}

/// The FM's base request timeout grows with the fabric, as the harness
/// scales it (the check against the user path guards this copy).
fn request_timeout(devices: usize) -> SimDuration {
    SimDuration::from_ms(5) * (devices as u64).div_ceil(128).max(1)
}

/// What the hand-driven pass produced beyond its spans.
#[derive(Default)]
struct HandDriven {
    sims: SimNumbers,
    counts: BTreeMap<&'static str, f64>,
}

impl HandDriven {
    fn add(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_default() += value;
    }

    fn max(&mut self, name: &'static str, value: u64) {
        let slot = self.counts.entry(name).or_default();
        *slot = slot.max(value as f64);
    }
}

/// Repeats every `Bench::start` cell by hand with a span around each
/// call into a layer. `instrumented` also wraps the FM in [`Timed`]; the
/// bare pass is what the harness's and the instruments' own costs are
/// read against.
fn hand_driven(
    plan: &Plan,
    ends: &[SimTime],
    instrumented: bool,
    tracer: &mut Tracer,
    verdict: &mut Verdict,
) -> HandDriven {
    let mut out = HandDriven::default();
    let mut ends = ends.iter();
    for &spec in &plan.topos {
        for &seed in &plan.seeds {
            for &algorithm in &plan.algorithms {
                let end = *ends.next().expect("one end time per start cell");

                let before = alloc::snapshot();
                let (topo, mut fabric) = train(plan, spec, seed, tracer);
                let trained = alloc::snapshot();
                let bringup_events = fabric.events_processed();

                let fm = DevId(
                    default_fm_endpoint(&topo)
                        .expect("topology has endpoints")
                        .0,
                );
                let config = FmConfig::new(algorithm)
                    .with_timing(FmTiming::default())
                    .with_request_timeout(request_timeout(topo.node_count()));
                let (agent, times) = Timed::new(FmAgent::new(config));
                if instrumented {
                    fabric.set_agent(fm, Box::new(agent));
                } else {
                    fabric.set_agent(fm, Box::new(agent.into_inner()));
                }
                fabric.schedule_agent_timer(fm, SimDuration::from_us(1), TOKEN_START_DISCOVERY);

                let span = tracer.enter("fabric.run");
                if plan.traffic.is_inert() {
                    fabric.run_until_idle();
                } else {
                    // Traffic never lets the queue drain; stop where the
                    // user path's settle loop stopped.
                    fabric.run_until(end);
                }
                let AgentTimes {
                    processing_time,
                    on_packet,
                    on_timer,
                    on_port_event,
                } = *times.borrow();
                tracer.aggregate(
                    "core.processing_time",
                    span,
                    processing_time.ns,
                    processing_time.calls,
                );
                tracer.aggregate("core.on_packet", span, on_packet.ns, on_packet.calls);
                tracer.aggregate("core.on_timer", span, on_timer.ns, on_timer.calls);
                tracer.aggregate(
                    "core.on_port_event",
                    span,
                    on_port_event.ns,
                    on_port_event.calls,
                );
                tracer.exit(span);
                let ran = alloc::snapshot();

                out.add("topo.devices", topo.node_count() as f64);
                out.add("topo.links", topo.links().len() as f64);
                out.add("fabric.bringup_events", bringup_events as f64);
                out.add("host.alloc_count_setup", (trained.0 - before.0) as f64);
                out.add("host.alloc_bytes_setup", (trained.1 - before.1) as f64);
                out.add("host.alloc_count_run", (ran.0 - trained.0) as f64);
                out.add("host.alloc_bytes_run", (ran.1 - trained.1) as f64);
                out.add(
                    "fabric.run_events",
                    (fabric.events_processed() - bringup_events) as f64,
                );

                let c = *fabric.counters();
                out.add("fabric.injected", c.injected as f64);
                out.add("fabric.forwarded", c.forwarded as f64);
                out.add("fabric.delivered", c.delivered as f64);
                out.add("fabric.dropped", c.total_dropped() as f64);
                out.add("fabric.credit_stalls", c.credit_stalls as f64);
                out.add("fabric.mgmt_bytes", c.mgmt_bytes as f64);
                out.add("fabric.data_bytes", c.data_bytes as f64);
                out.add("fabric.flow_injected", c.flow_injected as f64);
                out.add("fabric.flow_delivered", c.flow_delivered as f64);
                out.max("fabric.mgmt_queue_peak", c.mgmt_queue_peak);
                out.max("fabric.data_queue_peak", c.data_queue_peak);
                out.add("sim.arena_live_end", fabric.packet_arena_live() as f64);
                let parallel = fabric.parallel_stats().unwrap_or_default();
                out.add("sim.parallel_windows", parallel.windows as f64);
                out.add("sim.cross_shard_events", parallel.cross_shard_events as f64);
                out.add("sim.batches", parallel.batches as f64);

                let agent = fabric
                    .agent_as::<FmAgent>(fm)
                    .expect("the wrapper downcasts to the FM");
                let run = agent
                    .last_run()
                    .expect("the hand-driven discovery finished");
                let what = format!("hand-driven {} {algorithm}", topo_name(&topo));
                verdict.discovery(&what, run, &topo);
                out.sims.add(run);

                let db = agent.db().expect("a finished discovery has a database");
                let host = db.host_dsn();
                let span = tracer.enter("core.routes_to");
                let to_host = db.routes_to(host, MAX_POOL_BITS);
                tracer.exit(span);
                let span = tracer.enter("core.routes_from");
                let from_host = db.routes_from(host, MAX_POOL_BITS);
                tracer.exit(span);
                let routed = to_host
                    .values()
                    .chain(from_host.values())
                    .filter(|r| r.is_ok());
                out.add("core.routes", routed.count() as f64);
            }
        }
    }
    out
}

/// The kernel alone: the classic hold model (pop the earliest event,
/// schedule one more for the same rank) on the workload's kernel with a
/// steady population of one pending event per device. Host nanoseconds
/// per hold.
fn hold_ns_per_event(kernel: KernelSpec, population: u32, holds: u64, seed: u64) -> f64 {
    let lookahead = FabricConfig::default().propagation;
    let mut sim: Simulator<u64, AnyKernel<u64>> =
        Simulator::with_kernel(AnyKernel::from_spec(kernel, population, lookahead));
    let mut rng = SimRng::new(seed);
    // Increments up to twice the 4 µs device time, never under the lookahead.
    let mut increment = || lookahead + SimDuration::from_ps(rng.gen_below(8_000_000));
    for rank in 0..population {
        sim.schedule_event(
            SimTime::ZERO + increment(),
            Target::Rank(rank),
            u64::from(rank),
        );
    }
    let started = Instant::now();
    for _ in 0..holds {
        let fired = sim.next_event().expect("the population never drains");
        let at = sim.now() + increment();
        sim.schedule_event(at, Target::Rank(fired.event as u32), fired.event);
        sim.finish_dispatch();
    }
    let ns = started.elapsed().as_nanos() as f64;
    black_box(sim.pending());
    ns / holds as f64
}

/// How long a run measures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    /// A fixed number of repetitions.
    Reps(usize),
    /// Repetitions until this many seconds have been measured (at least two).
    Seconds(f64),
}

/// One workload's run: every sample of every metric, and the verdict.
pub struct WorkloadRun {
    /// Repetitions measured.
    pub reps: usize,
    /// Samples per metric name, in the order taken.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// What was attempted, what failed and why.
    pub verdict: Verdict,
    /// The spans of a traced run.
    pub tracer: Tracer,
}

impl WorkloadRun {
    fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }
}

/// VmHWM of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status reads");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Runs one workload in this process: a closed loop with one client,
/// one repetition at a time.
pub fn run_workload(
    workload: Workload,
    scale: Scale,
    seed: u64,
    budget: Budget,
    traced: bool,
) -> WorkloadRun {
    let plan = Plan::new(workload, scale, seed);
    let mut run = WorkloadRun {
        reps: 0,
        samples: BTreeMap::new(),
        verdict: Verdict::default(),
        tracer: if traced {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        },
    };
    let mut first: Option<(SimNumbers, u64)> = None;
    let began = Instant::now();
    loop {
        match budget {
            Budget::Reps(n) if run.reps >= n => break,
            Budget::Seconds(s) if run.reps >= 2 && began.elapsed().as_secs_f64() >= s => break,
            _ => {}
        }
        run.reps += 1;
        let mark = run.tracer.mark();
        let topos: Vec<Topology> = plan.topos.iter().map(|t| t.build()).collect();
        // A traced run records a span around each public `Bench` call
        // here, two clock reads per discovery: the user path costs a
        // traced run what it costs an untraced one.
        let user = user_path(&plan, &topos, &mut run.tracer, &mut run.verdict);
        run.push("wall_s", user.wall_s);
        run.push("sim_discovery_us", user.all.discovery_us());
        let numbers = (user.all, user.start_events);
        let reference = *first.get_or_insert(numbers);
        run.verdict.check(numbers == reference, || {
            format!(
                "repetition {} simulated {numbers:?}, the first {reference:?}",
                run.reps
            )
        });
        if traced {
            traced_rep(&plan, mark, &user, &mut run);
            continue;
        }
        if run.reps == 1 {
            // The high-water mark of one pass over the user path in a
            // fresh process: later repetitions and the set-ups below
            // could only add allocator fragmentation to it.
            run.push("peak_rss_mb", peak_rss_mb());
        }
        drop(topos);
        let setups_began = Instant::now();
        let mut setups = Vec::new();
        while setups.len() < MIN_SETUPS_PER_REP
            || setups_began.elapsed().as_secs_f64() < SETUP_SECONDS_PER_REP
        {
            setups.push(setup_sample(&plan));
        }
        // One value per repetition, like every other metric, so the
        // spread `compare` sees is the spread between repetitions.
        run.push("setup_s", stats::median(&setups));
    }

    if traced {
        let holds = if scale == Scale::Full {
            2_000_000
        } else {
            100_000
        };
        let hold = hold_ns_per_event(plan.kernel, plan.largest_population(), holds, seed);
        run.push("sim.hold_ns_per_event", hold);
        let events = stats::median(&run.samples["fabric.run_events"]);
        let run_s = stats::median(&run.samples["fabric.run_s"]);
        run.push("sim.kernel_share_est", hold * events / 1e9 / run_s);
    }

    if plan.kernel != KernelSpec::Serial {
        // Another `Kernel` must simulate exactly what the serial one does.
        let serial = Plan {
            kernel: KernelSpec::Serial,
            ..plan
        };
        let topos: Vec<Topology> = serial.topos.iter().map(|t| t.build()).collect();
        let mut off = Tracer::disabled();
        let user = user_path(&serial, &topos, &mut off, &mut run.verdict);
        let (parallel, serial) = (
            first.expect("a repetition ran"),
            (user.all, user.start_events),
        );
        run.verdict.check(parallel == serial, || {
            format!("parallel kernel simulated {parallel:?}, serial kernel {serial:?}")
        });
    }
    let share = run.verdict.failed as f64 / run.verdict.attempted.max(1) as f64;
    run.push("failed_share", share);
    run
}

/// Host seconds of the hand-driven discoveries recorded since `mark`:
/// what `Bench::start` does apart from the harness's own work.
fn hand_driven_s(tracer: &Tracer, mark: usize) -> f64 {
    ["fabric.new", "fabric.bringup", "fabric.run"]
        .iter()
        .map(|name| tracer.total_s_since(mark, name))
        .sum()
}

/// The traced half of a repetition, after the user path whose spans
/// start at `mark`: the hand-driven discovery bare, then instrumented,
/// then the per-layer samples.
fn traced_rep(plan: &Plan, mark: usize, user: &UserPath, run: &mut WorkloadRun) {
    let mut bare_spans = Tracer::enabled();
    let ends = &user.start_ends;
    let bare = hand_driven(plan, ends, false, &mut bare_spans, &mut run.verdict);
    alloc::set_counting(true);
    let hand = hand_driven(plan, ends, true, &mut run.tracer, &mut run.verdict);
    alloc::set_counting(false);

    let (want, got) = (user.starts, hand.sims);
    for (pass, got) in [("bare", bare.sims), ("instrumented", got)] {
        run.verdict.check(
            (want.discovery_ps, want.requests, want.devices_found)
                == (got.discovery_ps, got.requests, got.devices_found),
            || format!("{pass} hand-driven run simulated {got:?}, Bench::start {want:?}"),
        );
    }

    let t = &run.tracer;
    let span_s = |name: &str| t.total_s_since(mark, name);
    let mut samples: Vec<(&'static str, f64)> = vec![
        ("topo.build_s", span_s("topo.build")),
        ("fabric.new_s", span_s("fabric.new")),
        ("fabric.bringup_s", span_s("fabric.bringup")),
        ("fabric.run_s", span_s("fabric.run")),
        ("fabric.dispatch_s", t.self_s_since(mark, "fabric.run")),
        ("core.on_packet_s", span_s("core.on_packet")),
        (
            "core.on_packet_calls",
            t.calls_since(mark, "core.on_packet") as f64,
        ),
        ("core.on_timer_s", span_s("core.on_timer")),
        (
            "core.on_timer_calls",
            t.calls_since(mark, "core.on_timer") as f64,
        ),
        ("core.processing_time_s", span_s("core.processing_time")),
        ("core.on_port_event_s", span_s("core.on_port_event")),
        ("core.routes_to_s", span_s("core.routes_to")),
        ("core.routes_from_s", span_s("core.routes_from")),
        ("harness.start_s", span_s("harness.start")),
        ("harness.configure_pi5_s", span_s("harness.configure_pi5")),
        ("harness.remove_switch_s", span_s("harness.remove_switch")),
        ("harness.add_device_s", span_s("harness.add_device")),
    ];
    let run_s = span_s("fabric.run");
    let agent_s = run_s - t.self_s_since(mark, "fabric.run");
    // The harness's own cost is read off the cells the hand-driven run
    // repeats: `Bench::start` against the same discovery without it, and
    // the instruments' cost off the same discovery with and without them.
    let bare_s = hand_driven_s(&bare_spans, 0);
    let overhead_s = user.start_wall_s - bare_s;
    let discovery_events = hand.counts["fabric.run_events"];
    samples.extend([
        ("core.agent_s", agent_s),
        ("core.agent_share", agent_s / run_s),
        ("fabric.ns_per_event", run_s * 1e9 / discovery_events),
        ("harness.overhead_s", overhead_s),
        ("harness.overhead_share", overhead_s / user.start_wall_s),
        (
            "trace.overhead_pct",
            100.0 * (hand_driven_s(t, mark) - bare_s) / bare_s,
        ),
        ("sim.events", user.start_events as f64),
        (
            "sim.events_per_s",
            user.start_events as f64 / user.start_wall_s,
        ),
        ("core.sim_discovery_us", got.discovery_us()),
        ("core.requests", got.requests as f64),
        ("core.responses", got.responses as f64),
        ("core.timeouts", got.timeouts as f64),
        ("core.retries", got.retries as f64),
        ("core.abandoned", got.abandoned as f64),
        ("core.peak_outstanding", got.peak_outstanding as f64),
        ("core.devices_found", got.devices_found as f64),
        ("core.links_found", got.links_found as f64),
        ("core.fm_busy_sim_us", got.fm_busy_ps as f64 / 1e6),
        (
            "core.useful_ratio",
            got.responses as f64 / got.requests as f64,
        ),
    ]);
    if plan.traffic.is_inert() {
        let live = hand.counts["sim.arena_live_end"];
        run.verdict.check(live == 0.0, || {
            format!("{live} packets live after a drained run")
        });
    }
    samples.extend(hand.counts);
    for (name, value) in samples {
        run.push(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{DRIVER_END_TO_END, END_TO_END, PER_LAYER};

    #[test]
    fn timed_wrapper_is_transparent_on_a_4x4_mesh() {
        let plan = Plan::new(Workload::Mesh64, Scale::Smoke, 7);
        let topo = mesh(4, 4).expect("valid mesh").topology;
        let scenario = plan.scenario(Algorithm::Parallel, 7);
        let bench = Bench::start(&topo, &scenario, &[]);
        let plain = bench.last_run();

        let mut tracer = Tracer::disabled();
        let (_, mut fabric) = train(&plan, TopoSpec::Mesh(4), 7, &mut tracer);
        let fm = bench.fm;
        let config = FmConfig::new(Algorithm::Parallel).with_request_timeout(request_timeout(32));
        let (agent, times) = Timed::new(FmAgent::new(config));
        fabric.set_agent(fm, Box::new(agent));
        fabric.schedule_agent_timer(fm, SimDuration::from_us(1), TOKEN_START_DISCOVERY);
        fabric.run_until_idle();
        let wrapped = fabric
            .agent_as::<FmAgent>(fm)
            .expect("downcasts through the wrapper")
            .last_run()
            .expect("finished")
            .clone();
        // `DiscoveryRun` has no `PartialEq`; its debug form covers every field.
        assert_eq!(format!("{plain:?}"), format!("{wrapped:?}"));
        let times = *times.borrow();
        assert_eq!(times.on_packet.calls, plain.responses_received);
        assert_eq!(times.processing_time.calls, plain.responses_received);
        assert!(times.on_timer.calls >= 1);
        assert!(times.on_packet.ns > 0);
    }

    #[test]
    fn smoke_scale_of_every_workload_is_correct_and_complete() {
        for workload in Workload::ALL {
            let untraced = run_workload(workload, Scale::Smoke, 0xA51, Budget::Reps(2), false);
            assert_eq!(
                untraced.verdict.failures,
                Vec::<String>::new(),
                "{workload:?}"
            );
            assert_eq!(untraced.verdict.failed, 0);
            assert!(untraced.verdict.attempted > 0);
            for def in END_TO_END {
                assert!(
                    untraced.samples.contains_key(def.name),
                    "{workload:?} {}",
                    def.name
                );
            }
            for name in DRIVER_END_TO_END {
                assert!(
                    untraced.samples[name].iter().all(|v| *v > 0.0),
                    "{name} is never 0"
                );
            }
            assert_eq!(untraced.samples["setup_s"].len(), untraced.reps);

            let traced = run_workload(workload, Scale::Smoke, 0xA51, Budget::Reps(1), true);
            assert_eq!(
                traced.verdict.failures,
                Vec::<String>::new(),
                "{workload:?}"
            );
            // A metric that does not apply to a workload reads 0 there.
            for def in PER_LAYER {
                assert!(
                    traced.samples.contains_key(def.name),
                    "{workload:?} lacks {}",
                    def.name
                );
            }
            let s = |name: &str| traced.samples[name][0];
            assert!((s("fabric.dispatch_s") + s("core.agent_s") - s("fabric.run_s")).abs() < 1e-9);
            // The suite's end-to-end sum also holds the change
            // experiments; the hand-driven run repeats only the starts.
            if workload != Workload::PaperSuite {
                assert_eq!(
                    s("core.sim_discovery_us"),
                    untraced.samples["sim_discovery_us"][0]
                );
            }
            assert!(traced.tracer.mark() > 0);
        }
    }

    #[test]
    fn the_seed_does_not_move_a_loss_free_workload() {
        let a = run_workload(Workload::Mesh64, Scale::Smoke, 1, Budget::Reps(1), false);
        let b = run_workload(Workload::Mesh64, Scale::Smoke, 2, Budget::Reps(1), false);
        assert_eq!(a.samples["sim_discovery_us"], b.samples["sim_discovery_us"]);
    }
}
