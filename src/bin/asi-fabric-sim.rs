//! `asi-fabric-sim` — command-line scenario runner.
//!
//! Runs a discovery scenario on a chosen topology and prints the
//! measurements as text or JSON, so the simulator is usable without
//! writing Rust:
//!
//! ```text
//! asi-fabric-sim --topology mesh:6x6 --algorithm parallel
//! asi-fabric-sim --topology torus:8x8 --algorithm all --change remove --json
//! asi-fabric-sim --topology fattree:4,3 --fm-factor 4 --device-factor 0.2
//! asi-fabric-sim --topology irregular:20 --seed 7 --loss 0.02 --retries 4
//! asi-fabric-sim faults --topology mesh:3x3 --loss 0.05 --loss-model bursty \
//!     --retry-policy exponential --retries 10
//! asi-fabric-sim sweep --grid faults --quick --jobs 4 --json
//! asi-fabric-sim sweep --grid scale --jobs 2 --csv
//! asi-fabric-sim stress --topology mesh:64x64 --algorithm parallel --json
//! asi-fabric-sim snapshot save --topology mesh:3x3 --out fabric.snap
//! asi-fabric-sim snapshot verify --topology mesh:3x3 --in fabric.snap --json
//! ```
//!
//! Every malformed flag produces a one-line `error: ...` on stderr plus
//! the usage text and exit code 2 — never a panic.

use advanced_switching::core::{snapshot_db, Algorithm, RetryPolicy};
use advanced_switching::fabric::{Arrivals, ChurnPlan, FaultPlan, LossModel, TrafficPlan};
use advanced_switching::harness::{
    change_experiment, churn_experiment, default_churn_exempt, load_snapshot, save_snapshot,
    save_trace_jsonl, sharded_discovery, summarize_traffic, sweep, Bench, Json, RingCollector,
    Scenario, SnapshotFormat, SweepSpec,
};
use advanced_switching::sim::{KernelSpec, SimDuration, SimRng, TraceHandle};
use advanced_switching::state::{checksum_of, Snapshot, TopologyDelta};
use advanced_switching::topo::{
    design_fat_tree, dragonfly, fat_tree, irregular, mesh, torus, IrregularSpec, PortCatalogue,
    Topology,
};
use std::fmt;
use std::path::Path;

struct RunReport {
    topology: String,
    devices: usize,
    algorithm: String,
    scenario: String,
    discovery_time_s: f64,
    devices_found: usize,
    links_found: usize,
    requests: u64,
    responses: u64,
    timeouts: u64,
    retries: u64,
    abandoned: u64,
    bytes_sent: u64,
    bytes_received: u64,
    mean_fm_processing_us: f64,
    fm_utilization: f64,
}

impl RunReport {
    fn to_json(&self) -> Json {
        Json::object()
            .with("topology", self.topology.as_str())
            .with("devices", self.devices)
            .with("algorithm", self.algorithm.as_str())
            .with("scenario", self.scenario.as_str())
            .with("discovery_time_s", self.discovery_time_s)
            .with("devices_found", self.devices_found)
            .with("links_found", self.links_found)
            .with("requests", self.requests)
            .with("responses", self.responses)
            .with("timeouts", self.timeouts)
            .with("retries", self.retries)
            .with("abandoned", self.abandoned)
            .with("bytes_sent", self.bytes_sent)
            .with("bytes_received", self.bytes_received)
            .with("mean_fm_processing_us", self.mean_fm_processing_us)
            .with("fm_utilization", self.fm_utilization)
    }
}

const USAGE: &str = "usage: asi-fabric-sim --topology <spec> [options]
       asi-fabric-sim faults --topology <spec> [options]
       asi-fabric-sim churn --topology <spec> [options]
       asi-fabric-sim traffic --topology <spec> [options]
       asi-fabric-sim sweep [sweep options]
       asi-fabric-sim stress --topology <spec> [options]
       asi-fabric-sim certify --topology <spec> [options]
       asi-fabric-sim snapshot save --topology <spec> --out <path> [options]
       asi-fabric-sim snapshot load --in <path> [--resave <path>] [options]
       asi-fabric-sim snapshot diff --old <path> --new <path> [--json]
       asi-fabric-sim snapshot verify --topology <spec> --in <path> [options]

topology specs:
  mesh:<W>x<H>        2-D mesh of 16-port switches, one endpoint each (2..=64 per side)
  torus:<W>x<H>       2-D torus (2..=64 per side)
  fattree:<m>,<n>     m-port n-tree (m even, 2..=254; n 1..=8)
  irregular:<N>       random connected fabric with N switches (1..=4096)
  dragonfly:<k>,<m>   Swapped Dragonfly: k*m groups of k routers, 12 endpoints
                      per router, one global link per group pair (diameter 3)
  designed:<N>        automated two-layer fat-tree sized for N endpoints over
                      the stock port catalogue (see docs/TOPOLOGIES.md)

options:
  --algorithm serial-packet|serial-device|parallel|all   (default: all)
  --change none|remove|add     measure initial discovery or a change (default: none)
  --fm-factor <f>              FM processing speed factor (default 1)
  --device-factor <f>          device processing speed factor (default 1)
  --seed <n>                   RNG seed (default 0xA51)
  --kernel serial|parallel[:N] event-engine scheduling kernel (default: serial;
                               parallel = conservative-sync over N shards, 4 when
                               omitted — output is byte-identical either way,
                               see docs/PARALLEL.md); accepted by every mode
                               except snapshot
  --trace <path>               write a JSONL discovery trace (see docs/TRACE_FORMAT.md)
  --json                       emit JSON instead of a table

fault options (compose a deterministic fault plan; accepted by every mode,
and the `faults` mode reports the robustness metrics — see docs/FAULTS.md):
  --loss <p>                   mean per-hop packet loss probability in [0,1) (default 0)
  --loss-model uniform|bursty  loss process for --loss (default: uniform)
  --corrupt <p>                completion corruption (CRC drop) probability (default 0)
  --duplicate <p>              completion duplication probability (default 0)
  --flap <at_us>:<dev>:<port>:<down_us>   schedule a link flap (repeatable)
  --hang <at_us>:<dev>:<dur_us>           schedule a device hang (repeatable)
  --slow <at_us>:<dev>:<factor>:<dur_us>  schedule a device slowdown (repeatable)
  --retry-policy fixed|exponential|deadline   retry/backoff policy (default: fixed)
  --retries <n>                retry budget for fixed/exponential (default 0)
  --deadline-us <n>            per-request budget for --retry-policy deadline
  --timeout-us <n>             base request timeout under faults (default 800)

churn options (continuous-churn steady state: Poisson link flaps and
device remove/re-add cycles disturb a live fabric while the FM
assimilates the PI-5 storm incrementally — see docs/CHURN.md; exits 1
unless the run ends converged, i.e. full topology, zero divergence at
quiescence, and the churned database equal to a cold re-discovery):
  --flap-rate <f>              link flaps per simulated second (default 1500)
  --flap-down-us <n>           how long a flapped link stays down (default 200)
  --device-rate <f>            device remove/re-add cycles per second (default 300)
  --device-down-us <n>         how long a removed device stays out (default 1000)
  --start-us <n>               churn window start; leave the first half for the
                               initial discovery to settle (default 6000)
  --horizon-us <n>             churn window length (default 4000)
  plus --algorithm/--seed/--fm-factor/--device-factor/--trace/--json as above

traffic options (initial discovery under a deterministic data-plane
workload — see docs/TRAFFIC.md; reports discovery time against a quiet
twin run plus delivery metrics, all byte-identical across --kernel;
exits 1 when the loaded discovery misses devices):
  --load <f>                   offered unicast load per source endpoint as a
                               fraction of its 2 Gb/s link in [0, 1] (default 0.2)
  --flows <n>                  unicast flows per source endpoint (default 1)
  --payload <bytes>            data payload size (default 512)
  --arrivals poisson|cbr       packet arrival process (default: poisson)
  --mcast-groups <n>           multicast groups to provision and feed, at
                               most 64 (default 0)
  --mcast-load <f>             offered load of each group's source flow in
                               [0, 1] (default 0.05)
  --switch-load <f>            offered load sourced by each switch in [0, 1]
                               (default 0)
  --start-us <n>               injection window start (default 0)
  --duration-us <n>            injection window length (default 8000)
  plus --algorithm/--seed/--kernel/--fm-factor/--device-factor/--trace/--json

sweep options (deterministic multi-threaded grid; output is byte-identical
for any --jobs value):
  --grid fig5|fig6|faults|warmstart|smoke|scale|churn|load   named grid
                               (default: smoke)
  --quick                      smaller topology set / fewer repetitions
  --jobs <n>                   worker threads (default: all cores)
  --fms <n>                    override the grid's fabric-manager axis with a
                               single count (>1 = election-based sharded
                               discovery — see docs/DISTRIBUTED.md)
  --fm-factor <f>              FM processing speed factor (default 1)
  --device-factor <f>          device processing speed factor (default 1)
  plus any fault option above, applied to every cell
  --json | --csv               machine-readable output (default: text table)
  (the scale grid also prints wall-clock throughput on stderr, outside
  the byte-compared stdout)

stress options (one large-fabric discovery with wall-clock throughput;
wall_time_s and events_per_sec are execution-dependent by design — the
deterministic counterpart is `sweep --grid scale`; exits 1 when the
discovery misses devices):
  --topology <spec>            fabric under test (e.g. mesh:64x64)
  --algorithm serial-packet|serial-device|parallel   (default: parallel)
  --fms <n>                    fabric managers; >1 runs the election-based
                               sharded discovery with a certified merge
  --seed / --fm-factor / --device-factor / --json as above
  (--json also reports peak_rss_mb, the process's peak resident set —
  execution-dependent like wall_time_s, never byte-compare it)

certify options (the CI topology-certification gate: build the topology,
re-run the whole-graph validator, then one full discovery that must find
every device; exits 1 on any mismatch):
  --topology <spec>            family instance to certify (required)
  --kernel / --seed / --json as above

snapshot options (cached-topology workflows — see docs/ARCHITECTURE.md):
  save    run a cold discovery and write the resulting snapshot to --out
  load    read a snapshot, print its summary; --resave <path> rewrites it
  diff    structural delta between --old and --new snapshots
  verify  warm-start discovery on --topology seeded from --in: one probe
          per cached device, escalating around mismatches
  --format binary|jsonl        output format for save/--resave (default: binary)
  --threshold <f>              mismatch fraction that triggers the full
                               cold fallback during verify (default 0.25)
  plus --algorithm/--seed/--fm-factor/--device-factor/--json where relevant";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

/// Friendly fatal error: one line on stderr, then the usage text, exit 2.
fn fail(msg: impl fmt::Display) -> ! {
    eprintln!("error: {msg}");
    eprintln!();
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn parse_topology(spec: &str, seed: u64) -> Result<Topology, String> {
    let Some((kind, rest)) = spec.split_once(':') else {
        return Err(format!(
            "topology {spec:?} is missing its parameters (e.g. mesh:3x3)"
        ));
    };
    match kind {
        "mesh" | "torus" => {
            let Some((w, h)) = rest.split_once('x') else {
                return Err(format!("{kind} wants WxH dimensions, got {rest:?}"));
            };
            let (w, h): (usize, usize) = match (w.parse(), h.parse()) {
                (Ok(w), Ok(h)) => (w, h),
                _ => return Err(format!("{kind} dimensions must be integers, got {rest:?}")),
            };
            if !(2..=64).contains(&w) || !(2..=64).contains(&h) {
                return Err(format!(
                    "{kind} sides must be between 2 and 64, got {w}x{h}"
                ));
            }
            if kind == "mesh" {
                mesh(w, h).map(|g| g.topology)
            } else {
                torus(w, h).map(|g| g.topology)
            }
            .map_err(|e| e.to_string())
        }
        "fattree" => {
            let Some((m, n)) = rest.split_once(',') else {
                return Err(format!("fattree wants m,n parameters, got {rest:?}"));
            };
            let (m, n): (u32, u32) = match (m.parse(), n.parse()) {
                (Ok(m), Ok(n)) => (m, n),
                _ => return Err(format!("fattree parameters must be integers, got {rest:?}")),
            };
            if !(2..=254).contains(&m) || !m.is_multiple_of(2) {
                return Err(format!(
                    "fattree port count must be even and in 2..=254, got {m}"
                ));
            }
            if !(1..=8).contains(&n) {
                return Err(format!("fattree levels must be in 1..=8, got {n}"));
            }
            fat_tree(m, n)
                .map(|ft| ft.topology)
                .map_err(|e| e.to_string())
        }
        "irregular" => {
            let switches: usize = rest
                .parse()
                .map_err(|_| format!("irregular wants a switch count, got {rest:?}"))?;
            if !(1..=4096).contains(&switches) {
                return Err(format!(
                    "irregular switch count must be in 1..=4096, got {switches}"
                ));
            }
            let mut rng = SimRng::new(seed);
            irregular(
                IrregularSpec {
                    switches,
                    extra_links: switches / 2,
                    endpoints_per_switch: 1,
                },
                &mut rng,
            )
            .map_err(|e| e.to_string())
        }
        "dragonfly" => {
            let Some((k, m)) = rest.split_once(',') else {
                return Err(format!("dragonfly wants k,m parameters, got {rest:?}"));
            };
            let (k, m): (usize, usize) = match (k.parse(), m.parse()) {
                (Ok(k), Ok(m)) => (k, m),
                _ => {
                    return Err(format!(
                        "dragonfly parameters must be integers, got {rest:?}"
                    ))
                }
            };
            dragonfly(k, m)
                .map(|d| d.topology)
                .map_err(|e| e.to_string())
        }
        "designed" => {
            let endpoints: usize = rest
                .parse()
                .map_err(|_| format!("designed wants an endpoint count, got {rest:?}"))?;
            design_fat_tree(endpoints, &PortCatalogue::default())
                .map(|d| d.topology)
                .map_err(|e| e.to_string())
        }
        other => Err(format!(
            "unknown topology kind {other:?} (mesh, torus, fattree, irregular, dragonfly, designed)"
        )),
    }
}

/// The first value of `--name <value>`, if the flag is present.
fn arg_value(args: &[String], name: &str) -> Option<String> {
    arg_values(args, name).into_iter().next()
}

/// Every value of a repeatable `--name <value>` flag, in order.
fn arg_values(args: &[String], name: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if a == name {
            match args.get(i + 1) {
                Some(v) => out.push(v.clone()),
                None => fail(format!("{name} is missing its value")),
            }
        }
    }
    out
}

/// Parses `--name <value>` with a friendly error instead of a panic.
fn parse_arg<T: std::str::FromStr>(args: &[String], name: &str, default: T, what: &str) -> T {
    match arg_value(args, name) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| fail(format!("{name} must be {what}, got {v:?}"))),
    }
}

fn parse_loss(args: &[String]) -> f64 {
    let loss: f64 = parse_arg(args, "--loss", 0.0, "a probability");
    if !(0.0..1.0).contains(&loss) {
        fail(format!("--loss must be in [0, 1), got {loss}"));
    }
    loss
}

/// Parses `--name <p>` as a probability in [0, 1].
fn parse_prob(args: &[String], name: &str) -> f64 {
    let p: f64 = parse_arg(args, name, 0.0, "a probability");
    if !(0.0..=1.0).contains(&p) {
        fail(format!("{name} must be in [0, 1], got {p}"));
    }
    p
}

/// Splits a colon-separated fault-event spec into exactly `n` fields.
fn split_spec<'a>(flag: &str, spec: &'a str, shape: &str, n: usize) -> Vec<&'a str> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() != n {
        fail(format!("{flag} wants {shape}, got {spec:?}"));
    }
    parts
}

/// Parses one colon-separated field with a friendly error.
fn spec_field<T: std::str::FromStr>(flag: &str, field: &str, what: &str) -> T {
    field
        .parse()
        .unwrap_or_else(|_| fail(format!("{flag}: {field:?} is not {what}")))
}

/// Composes the fault plan from `--loss`/`--loss-model`, the completion
/// corruption/duplication probabilities, and any scheduled
/// `--flap`/`--hang`/`--slow` events.
fn parse_fault_plan(args: &[String]) -> FaultPlan {
    let loss = parse_loss(args);
    let model = match arg_value(args, "--loss-model").as_deref() {
        Some("uniform") | None => LossModel::uniform(loss),
        Some("bursty") => LossModel::bursty(loss),
        Some(other) => fail(format!("unknown loss model {other:?} (uniform, bursty)")),
    };
    let mut plan = FaultPlan::none()
        .with_loss(model)
        .with_corruption(parse_prob(args, "--corrupt"))
        .with_duplication(parse_prob(args, "--duplicate"));
    for spec in arg_values(args, "--flap") {
        let shape = "<at_us>:<device>:<port>:<down_us>";
        let p = split_spec("--flap", &spec, shape, 4);
        plan = plan.with_link_flap(
            SimDuration::from_us(spec_field("--flap", p[0], "a time in µs")),
            spec_field("--flap", p[1], "a device id"),
            spec_field("--flap", p[2], "a port number"),
            SimDuration::from_us(spec_field("--flap", p[3], "a duration in µs")),
        );
    }
    for spec in arg_values(args, "--hang") {
        let shape = "<at_us>:<device>:<dur_us>";
        let p = split_spec("--hang", &spec, shape, 3);
        plan = plan.with_device_hang(
            SimDuration::from_us(spec_field("--hang", p[0], "a time in µs")),
            spec_field("--hang", p[1], "a device id"),
            SimDuration::from_us(spec_field("--hang", p[2], "a duration in µs")),
        );
    }
    for spec in arg_values(args, "--slow") {
        let shape = "<at_us>:<device>:<factor>:<dur_us>";
        let p = split_spec("--slow", &spec, shape, 4);
        let factor: f64 = spec_field("--slow", p[2], "a number");
        if factor <= 0.0 {
            fail(format!("--slow factor must be positive, got {factor}"));
        }
        plan = plan.with_device_slow(
            SimDuration::from_us(spec_field("--slow", p[0], "a time in µs")),
            spec_field("--slow", p[1], "a device id"),
            factor,
            SimDuration::from_us(spec_field("--slow", p[3], "a duration in µs")),
        );
    }
    plan
}

/// Parses the retry policy from `--retry-policy`, `--retries` and
/// `--deadline-us`.
fn parse_retry(args: &[String]) -> RetryPolicy {
    let retries: u32 = parse_arg(args, "--retries", 0, "an integer");
    let deadline_us = arg_value(args, "--deadline-us");
    let policy = arg_value(args, "--retry-policy");
    match policy.as_deref() {
        Some("deadline") => {
            let Some(us) = deadline_us else {
                fail("--retry-policy deadline needs --deadline-us <n>");
            };
            let us: u64 = us
                .parse()
                .unwrap_or_else(|_| fail(format!("--deadline-us must be an integer, got {us:?}")));
            RetryPolicy::deadline(SimDuration::from_us(us))
        }
        Some("fixed") | None => {
            if deadline_us.is_some() {
                fail("--deadline-us only applies with --retry-policy deadline");
            }
            RetryPolicy::fixed(retries)
        }
        Some("exponential") => {
            if deadline_us.is_some() {
                fail("--deadline-us only applies with --retry-policy deadline");
            }
            RetryPolicy::exponential(retries)
        }
        Some(other) => fail(format!(
            "unknown retry policy {other:?} (fixed, exponential, deadline)"
        )),
    }
}

fn parse_algorithms(args: &[String]) -> Vec<Algorithm> {
    match arg_value(args, "--algorithm").as_deref() {
        Some("serial-packet") => vec![Algorithm::SerialPacket],
        Some("serial-device") => vec![Algorithm::SerialDevice],
        Some("parallel") => vec![Algorithm::Parallel],
        Some("all") | None => Algorithm::all().to_vec(),
        Some(other) => fail(format!(
            "unknown algorithm {other:?} (serial-packet, serial-device, parallel, all)"
        )),
    }
}

/// `--kernel serial|parallel[:N]` — the event-engine scheduling kernel.
/// Output is byte-identical across kernels, so this is a cross-check
/// and throughput knob, never a semantic one.
fn parse_kernel(args: &[String]) -> KernelSpec {
    match arg_value(args, "--kernel") {
        None => KernelSpec::Serial,
        Some(spec) => spec.parse().unwrap_or_else(|e: String| fail(e)),
    }
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `asi-fabric-sim sweep ...`: run a named deterministic grid.
fn sweep_main(args: &[String]) {
    let quick = args.iter().any(|a| a == "--quick");
    let fm_factor: f64 = parse_arg(args, "--fm-factor", 1.0, "a number");
    let device_factor: f64 = parse_arg(args, "--device-factor", 1.0, "a number");
    let mut spec = match arg_value(args, "--grid").as_deref() {
        Some("fig5") => SweepSpec::fig5(quick),
        Some("fig6") => SweepSpec::fig6(quick, fm_factor, device_factor),
        Some("faults") => SweepSpec::faults(quick),
        Some("warmstart") => SweepSpec::warmstart(quick),
        Some("scale") => SweepSpec::scale(quick),
        Some("churn") => SweepSpec::churn(quick),
        Some("load") => SweepSpec::load(quick),
        Some("smoke") | None => SweepSpec::smoke(),
        Some(other) => fail(format!(
            "unknown grid {other:?} (fig5, fig6, faults, warmstart, smoke, scale, churn, load)"
        )),
    };
    spec.fm_factor = fm_factor;
    spec.device_factor = device_factor;
    spec.kernel = parse_kernel(args);
    // Fault flags override the grid's plan (the `faults` grid carries
    // its own defaults; any other grid stays loss-free unless asked).
    let plan = parse_fault_plan(args);
    let has_retry_flags = ["--retries", "--retry-policy", "--deadline-us"]
        .iter()
        .any(|f| args.iter().any(|a| a == *f));
    if !plan.is_inert() {
        spec.faults = plan;
        spec.request_timeout =
            SimDuration::from_us(parse_arg(args, "--timeout-us", 800, "an integer"));
    }
    if has_retry_flags {
        spec.retry = parse_retry(args);
    }
    let jobs: usize = parse_arg(args, "--jobs", default_jobs(), "an integer");
    if jobs == 0 {
        fail("--jobs must be at least 1");
    }
    if arg_value(args, "--fms").is_some() {
        let fms: usize = parse_arg(args, "--fms", 1, "an integer");
        if fms == 0 {
            fail("--fms must be at least 1");
        }
        spec.fm_counts = vec![fms];
    }
    let started = std::time::Instant::now();
    let result = sweep::run(&spec, jobs);
    if spec.name == "scale" {
        // Wall-clock throughput goes to stderr: stdout must stay
        // byte-identical across --jobs values.
        let wall = started.elapsed().as_secs_f64();
        let events: u64 = result.cells.iter().map(|c| c.sim_events).sum();
        let rate = if wall > 0.0 {
            (events as f64 / wall) as u64
        } else {
            0
        };
        eprintln!(
            "scale: {} cells, {events} sim events in {wall:.2}s wall ({rate} events/sec)",
            result.cells.len()
        );
    }
    if args.iter().any(|a| a == "--json") {
        println!("{}", result.to_json().to_string_pretty());
    } else if args.iter().any(|a| a == "--csv") {
        print!("{}", result.to_csv());
    } else {
        print!("{}", result.to_text());
    }
}

/// Peak resident-set size of this process in MiB, read from Linux's
/// `VmHWM` accounting. Returns 0.0 where the file is unavailable
/// (non-Linux platforms). Execution-dependent, like wall-clock time:
/// reported for capacity planning, never byte-compared.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// `asi-fabric-sim certify --topology <spec>`: the CI certification
/// gate for one generator family instance. Builds the topology, re-runs
/// the whole-graph validator on the generator's output, then runs one
/// full discovery and requires every device found. Exits 1 on any
/// mismatch, 2 on bad arguments.
fn certify_main(args: &[String]) {
    let seed: u64 = parse_arg(args, "--seed", 0xA51, "an integer");
    let Some(topo_spec) = arg_value(args, "--topology") else {
        fail("--topology is required (e.g. certify --topology dragonfly:2,3)");
    };
    let topo = parse_topology(&topo_spec, seed).unwrap_or_else(|e| fail(e));
    let json = args.iter().any(|a| a == "--json");
    let validated = topo.validate();
    let scenario = Scenario::new(Algorithm::Parallel)
        .with_seed(seed)
        .with_kernel(parse_kernel(args));
    let bench = Bench::start(&topo, &scenario, &[]);
    let run = bench.last_run();
    let full_topology = run.devices_found == topo.node_count();
    let certified = validated.is_ok() && full_topology;
    if json {
        let out = Json::object()
            .with("spec", topo_spec.as_str())
            .with("topology", topo.name.as_str())
            .with("devices", topo.node_count())
            .with("validated", validated.is_ok())
            .with("full_topology", full_topology)
            .with("devices_found", run.devices_found)
            .with("links_found", run.links_found)
            .with("discovery_time_s", run.discovery_time().as_secs_f64())
            .with("certified", certified);
        println!("{}", out.to_string_pretty());
    } else {
        println!(
            "certify {}: validate {}, discovery {} of {} devices -> {}",
            topo.name,
            if validated.is_ok() { "ok" } else { "FAILED" },
            run.devices_found,
            topo.node_count(),
            if certified { "certified" } else { "FAILED" },
        );
    }
    if !certified {
        if let Err(e) = validated {
            eprintln!("certify: validation failed: {e}");
        }
        if !full_topology {
            eprintln!(
                "certify: discovery found {} of {} devices",
                run.devices_found,
                topo.node_count()
            );
        }
        std::process::exit(1);
    }
}

/// `asi-fabric-sim stress ...`: one large-fabric discovery with
/// wall-clock throughput metrics. `wall_time_s` and `events_per_sec`
/// depend on the machine and must never be byte-compared; the
/// deterministic counterpart is `sweep --grid scale`. Exits 1 when the
/// discovery misses devices, so CI can assert full coverage directly.
fn stress_main(args: &[String]) {
    let seed: u64 = parse_arg(args, "--seed", 0xA51, "an integer");
    let Some(topo_spec) = arg_value(args, "--topology") else {
        fail("--topology is required (e.g. stress --topology mesh:64x64)");
    };
    let topo = parse_topology(&topo_spec, seed).unwrap_or_else(|e| fail(e));
    let fm_factor: f64 = parse_arg(args, "--fm-factor", 1.0, "a number");
    let device_factor: f64 = parse_arg(args, "--device-factor", 1.0, "a number");
    let algorithm = parse_single_algorithm(args, "stress");
    let json = args.iter().any(|a| a == "--json");
    let trace = trace_out(args);
    let scenario = Scenario::new(algorithm)
        .with_factors(fm_factor, device_factor)
        .with_seed(seed)
        .with_kernel(parse_kernel(args))
        .with_trace(trace.handle.clone());
    let fms: usize = parse_arg(args, "--fms", 1, "an integer");
    if fms == 0 {
        fail("--fms must be at least 1");
    }
    if fms > 1 {
        return stress_sharded(&topo, fms, &scenario, algorithm, seed, json, &trace);
    }
    let started = std::time::Instant::now();
    let bench = Bench::start(&topo, &scenario, &[]);
    let wall_time_s = started.elapsed().as_secs_f64();
    let run = bench.last_run();
    let sim_events = bench.fabric.events_processed();
    let events_per_sec = if wall_time_s > 0.0 {
        (sim_events as f64 / wall_time_s) as u64
    } else {
        0
    };
    let full_topology = run.devices_found == topo.node_count();
    if json {
        let out = Json::object()
            .with("topology", topo.name.as_str())
            .with("devices", topo.node_count())
            .with("algorithm", algorithm.name())
            .with("seed", seed)
            .with("full_topology", full_topology)
            .with("devices_found", run.devices_found)
            .with("links_found", run.links_found)
            .with("requests", run.requests_sent)
            .with("timeouts", run.timeouts)
            .with("discovery_time_s", run.discovery_time().as_secs_f64())
            .with("peak_outstanding", run.peak_outstanding)
            .with("sim_events", sim_events)
            .with("wall_time_s", wall_time_s)
            .with("events_per_sec", events_per_sec)
            .with("peak_rss_mb", peak_rss_mb());
        println!("{}", out.to_string_pretty());
    } else {
        println!(
            "stress {}: {} of {} devices ({} links) in {:.3}s simulated / {:.2}s wall",
            topo.name,
            run.devices_found,
            topo.node_count(),
            run.links_found,
            run.discovery_time().as_secs_f64(),
            wall_time_s,
        );
        println!(
            "  {sim_events} sim events, {events_per_sec} events/sec, \
             peak {} outstanding requests, {} timeouts, peak RSS {:.1} MiB",
            run.peak_outstanding,
            run.timeouts,
            peak_rss_mb(),
        );
    }
    trace.save();
    if !full_topology {
        eprintln!(
            "stress: discovery found {} of {} devices",
            run.devices_found,
            topo.node_count()
        );
        std::process::exit(1);
    }
}

/// `stress --fms N`: one election-based sharded discovery. The headline
/// time is election kick-off to the certified merged database; the
/// checksum is the merge certificate's canonical-snapshot checksum, so
/// two runs with the same seed can be compared byte-for-byte on it.
/// Exits 1 unless the merged database covers the whole fabric.
fn stress_sharded(
    topo: &Topology,
    fms: usize,
    scenario: &Scenario,
    algorithm: Algorithm,
    seed: u64,
    json: bool,
    trace: &TraceOut,
) {
    let started = std::time::Instant::now();
    let (fabric, _primary, out) = sharded_discovery(topo, fms, scenario);
    let wall_time_s = started.elapsed().as_secs_f64();
    let sim_events = fabric.events_processed();
    let events_per_sec = if wall_time_s > 0.0 {
        (sim_events as f64 / wall_time_s) as u64
    } else {
        0
    };
    let full_topology = out.devices == topo.node_count();
    if json {
        let output = Json::object()
            .with("topology", topo.name.as_str())
            .with("devices", topo.node_count())
            .with("algorithm", algorithm.name())
            .with("seed", seed)
            .with("fms", fms)
            .with("full_topology", full_topology)
            .with("devices_found", out.devices)
            .with("links_found", out.links)
            .with("boundary_conflicts", out.boundary_conflicts)
            .with("failovers", out.failovers)
            .with("discovery_time_s", out.merged_time.as_secs_f64())
            .with("merge_time_s", out.merge_time.as_secs_f64())
            .with("merge_checksum", out.checksum)
            .with("sim_events", sim_events)
            .with("wall_time_s", wall_time_s)
            .with("events_per_sec", events_per_sec)
            .with("peak_rss_mb", peak_rss_mb());
        println!("{}", output.to_string_pretty());
    } else {
        println!(
            "stress {} ({} managers): {} of {} devices ({} links) in {:.3}s simulated / {:.2}s wall",
            topo.name,
            fms,
            out.devices,
            topo.node_count(),
            out.links,
            out.merged_time.as_secs_f64(),
            wall_time_s,
        );
        println!(
            "  {sim_events} sim events, {events_per_sec} events/sec, \
             {} boundary conflicts, {} failovers, merge tail {:.1}us, \
             checksum {:#x}, peak RSS {:.1} MiB",
            out.boundary_conflicts,
            out.failovers,
            out.merge_time.as_secs_f64() * 1e6,
            out.checksum,
            peak_rss_mb(),
        );
    }
    trace.save();
    if !full_topology {
        eprintln!(
            "stress: sharded discovery merged {} of {} devices",
            out.devices,
            topo.node_count()
        );
        std::process::exit(1);
    }
}

fn parse_snapshot_format(args: &[String]) -> SnapshotFormat {
    match arg_value(args, "--format").as_deref() {
        Some("binary") | None => SnapshotFormat::Binary,
        Some("jsonl") => SnapshotFormat::Jsonl,
        Some(other) => fail(format!("unknown snapshot format {other:?} (binary, jsonl)")),
    }
}

/// Modes that run one concrete discovery (stress, snapshot) reject `all`.
fn parse_single_algorithm(args: &[String], mode: &str) -> Algorithm {
    match arg_value(args, "--algorithm").as_deref() {
        Some("serial-packet") => Algorithm::SerialPacket,
        Some("serial-device") => Algorithm::SerialDevice,
        Some("parallel") | None => Algorithm::Parallel,
        Some(other) => fail(format!(
            "{mode} mode wants one algorithm, got {other:?} \
             (serial-packet, serial-device, parallel)"
        )),
    }
}

fn require_arg(args: &[String], name: &str, hint: &str) -> String {
    arg_value(args, name).unwrap_or_else(|| fail(format!("{name} is required ({hint})")))
}

fn load_snapshot_or_fail(path: &str) -> Snapshot {
    load_snapshot(Path::new(path)).unwrap_or_else(|e| fail(format!("cannot load snapshot: {e}")))
}

fn snapshot_summary(path: &str, snap: &Snapshot) -> Json {
    Json::object()
        .with("path", path)
        .with("devices", snap.device_count())
        .with("links", snap.link_count())
        .with("host_dsn", format!("{:#x}", snap.host_dsn).as_str())
        .with("checksum", format!("{:#x}", checksum_of(snap)).as_str())
}

fn print_snapshot_summary(path: &str, snap: &Snapshot, json: bool) {
    if json {
        println!("{}", snapshot_summary(path, snap).to_string_pretty());
    } else {
        println!(
            "snapshot {path}: {} devices, {} links, host {:#x}, checksum {:#x}",
            snap.device_count(),
            snap.link_count(),
            snap.host_dsn,
            checksum_of(snap)
        );
    }
}

fn hex_arr(dsns: &[u64]) -> Json {
    Json::Arr(dsns.iter().map(|d| Json::Str(format!("{d:#x}"))).collect())
}

fn link_arr(links: &[(u64, u8, u64, u8)]) -> Json {
    Json::Arr(
        links
            .iter()
            .map(|&(a, ap, b, bp)| {
                Json::object()
                    .with("a", format!("{a:#x}").as_str())
                    .with("a_port", ap)
                    .with("b", format!("{b:#x}").as_str())
                    .with("b_port", bp)
            })
            .collect(),
    )
}

/// `asi-fabric-sim snapshot <save|load|diff|verify> ...`: cached-topology
/// workflows on the asi-state snapshot format.
fn snapshot_main(args: &[String]) {
    let Some(subcommand) = args.first() else {
        fail("snapshot wants a subcommand (save, load, diff, verify)");
    };
    let json = args.iter().any(|a| a == "--json");
    match subcommand.as_str() {
        "save" => {
            let seed: u64 = parse_arg(args, "--seed", 0xA51, "an integer");
            let spec = require_arg(args, "--topology", "e.g. snapshot save --topology mesh:3x3");
            let out = require_arg(args, "--out", "where to write the snapshot");
            let topo = parse_topology(&spec, seed).unwrap_or_else(|e| fail(e));
            let fm_factor: f64 = parse_arg(args, "--fm-factor", 1.0, "a number");
            let device_factor: f64 = parse_arg(args, "--device-factor", 1.0, "a number");
            let trace = trace_out(args);
            let scenario = Scenario::new(parse_single_algorithm(args, "snapshot"))
                .with_factors(fm_factor, device_factor)
                .with_seed(seed)
                .with_trace(trace.handle.clone());
            let bench = Bench::start(&topo, &scenario, &[]);
            let snap = snapshot_db(bench.db());
            trace.handle.emit(bench.fabric.now(), || {
                advanced_switching::sim::trace::TraceEvent::SnapshotSaved {
                    devices: snap.device_count() as u64,
                    links: snap.link_count() as u64,
                }
            });
            trace.save();
            save_snapshot(Path::new(&out), &snap, parse_snapshot_format(args))
                .unwrap_or_else(|e| fail(format!("cannot write {out}: {e}")));
            print_snapshot_summary(&out, &snap, json);
        }
        "load" => {
            let input = require_arg(args, "--in", "the snapshot to read");
            let snap = load_snapshot_or_fail(&input);
            if let Some(resave) = arg_value(args, "--resave") {
                save_snapshot(Path::new(&resave), &snap, parse_snapshot_format(args))
                    .unwrap_or_else(|e| fail(format!("cannot write {resave}: {e}")));
            }
            print_snapshot_summary(&input, &snap, json);
        }
        "diff" => {
            let old = require_arg(args, "--old", "the baseline snapshot");
            let new = require_arg(args, "--new", "the newer snapshot");
            let delta =
                TopologyDelta::between(&load_snapshot_or_fail(&old), &load_snapshot_or_fail(&new));
            if json {
                let out = Json::object()
                    .with("identical", delta.is_empty())
                    .with("change_count", delta.change_count())
                    .with("added_devices", hex_arr(&delta.added_devices))
                    .with("removed_devices", hex_arr(&delta.removed_devices))
                    .with("recabled_devices", hex_arr(&delta.recabled_devices))
                    .with("added_links", link_arr(&delta.added_links))
                    .with("removed_links", link_arr(&delta.removed_links));
                println!("{}", out.to_string_pretty());
            } else if delta.is_empty() {
                println!("identical");
            } else {
                println!("{delta}");
            }
        }
        "verify" => {
            let seed: u64 = parse_arg(args, "--seed", 0xA51, "an integer");
            let spec = require_arg(args, "--topology", "the live fabric to verify against");
            let input = require_arg(args, "--in", "the cached snapshot");
            let topo = parse_topology(&spec, seed).unwrap_or_else(|e| fail(e));
            let threshold: f64 = parse_arg(args, "--threshold", 0.25, "a number");
            if !(0.0..=1.0).contains(&threshold) {
                fail(format!("--threshold must be in [0, 1], got {threshold}"));
            }
            let fm_factor: f64 = parse_arg(args, "--fm-factor", 1.0, "a number");
            let device_factor: f64 = parse_arg(args, "--device-factor", 1.0, "a number");
            let snap = load_snapshot_or_fail(&input);
            let trace = trace_out(args);
            let scenario = Scenario::new(parse_single_algorithm(args, "snapshot"))
                .with_factors(fm_factor, device_factor)
                .with_seed(seed)
                .with_snapshot(snap)
                .with_warm_fallback_threshold(threshold)
                .with_trace(trace.handle.clone());
            let bench = Bench::start(&topo, &scenario, &[]);
            trace.save();
            let run = bench.last_run();
            let trigger = match run.trigger {
                advanced_switching::core::DiscoveryTrigger::WarmStart => "warm-start",
                _ => "cold",
            };
            if json {
                let out = Json::object()
                    .with("topology", topo.name.as_str())
                    .with("snapshot", input.as_str())
                    .with("trigger", trigger)
                    .with("probes_verified", run.probes_verified)
                    .with("verify_mismatches", run.verify_mismatches)
                    .with("warm_fallback", run.warm_fallback)
                    .with("devices_found", run.devices_found)
                    .with("links_found", run.links_found)
                    .with("requests", run.requests_sent)
                    .with("discovery_time_s", run.discovery_time().as_secs_f64());
                println!("{}", out.to_string_pretty());
            } else {
                println!(
                    "{trigger}: {} verified, {} mismatched{}; {} devices, {} links in {:.3}ms",
                    run.probes_verified,
                    run.verify_mismatches,
                    if run.warm_fallback {
                        " (fell back to cold discovery)"
                    } else {
                        ""
                    },
                    run.devices_found,
                    run.links_found,
                    run.discovery_time().as_secs_f64() * 1e3
                );
            }
        }
        other => fail(format!(
            "unknown snapshot subcommand {other:?} (save, load, diff, verify)"
        )),
    }
}

/// Shared `--trace <path>` wiring: one collector for the whole
/// invocation; per-algorithm runs are delimited by their
/// run-started/run-finished records.
struct TraceOut {
    path: Option<String>,
    collector: Option<std::rc::Rc<std::cell::RefCell<RingCollector>>>,
    handle: TraceHandle,
}

fn trace_out(args: &[String]) -> TraceOut {
    let path = arg_value(args, "--trace");
    let collector = path.as_ref().map(|_| RingCollector::shared(1 << 20));
    let handle = collector
        .as_ref()
        .map(|c| TraceHandle::to(c.clone()))
        .unwrap_or_default();
    TraceOut {
        path,
        collector,
        handle,
    }
}

impl TraceOut {
    fn save(&self) {
        let (Some(path), Some(collector)) = (&self.path, &self.collector) else {
            return;
        };
        let collector = collector.borrow();
        let path = std::path::Path::new(path);
        save_trace_jsonl(path, collector.records()).unwrap_or_else(|e| {
            eprintln!("cannot write trace to {}: {e}", path.display());
            std::process::exit(1);
        });
        eprintln!(
            "trace: {} records written to {}{}",
            collector.len(),
            path.display(),
            if collector.dropped() > 0 {
                format!(
                    " ({} oldest dropped by the ring buffer)",
                    collector.dropped()
                )
            } else {
                String::new()
            }
        );
    }
}

fn report_run(
    topo: &Topology,
    algorithm: Algorithm,
    scenario_name: &str,
    run: &advanced_switching::core::DiscoveryRun,
) -> RunReport {
    RunReport {
        topology: topo.name.clone(),
        devices: topo.node_count(),
        algorithm: algorithm.name().to_string(),
        scenario: scenario_name.to_string(),
        discovery_time_s: run.discovery_time().as_secs_f64(),
        devices_found: run.devices_found,
        links_found: run.links_found,
        requests: run.requests_sent,
        responses: run.responses_received,
        timeouts: run.timeouts,
        retries: run.retries,
        abandoned: run.abandoned,
        bytes_sent: run.bytes_sent,
        bytes_received: run.bytes_received,
        mean_fm_processing_us: run.mean_fm_processing().as_micros_f64(),
        fm_utilization: run.fm_utilization(),
    }
}

fn print_reports(reports: &[RunReport], json: bool) {
    if json {
        let arr = Json::Arr(reports.iter().map(RunReport::to_json).collect());
        println!("{}", arr.to_string_pretty());
    } else {
        println!(
            "{:<16} {:>14} {:>9} {:>9} {:>9} {:>8} {:>9} {:>12} {:>8}",
            "algorithm",
            "discovery",
            "devices",
            "links",
            "requests",
            "retries",
            "abandoned",
            "FM us/pkt",
            "FM util"
        );
        for r in reports {
            println!(
                "{:<16} {:>12.3}ms {:>9} {:>9} {:>9} {:>8} {:>9} {:>12.2} {:>7.0}%",
                r.algorithm,
                r.discovery_time_s * 1e3,
                r.devices_found,
                r.links_found,
                r.requests,
                r.retries,
                r.abandoned,
                r.mean_fm_processing_us,
                r.fm_utilization * 100.0
            );
        }
    }
}

/// `asi-fabric-sim churn ...`: one continuous-churn run — the fabric
/// is disturbed by Poisson link-flap and device remove/re-add streams
/// while the FM assimilates the PI-5 storm incrementally. Reports the
/// steady-state metrics (events absorbed per second, convergence lag,
/// divergence windows) and exits 1 unless the run ends converged:
/// full topology, zero divergence at quiescence, and a churned
/// database equal to a cold re-discovery of the end-state fabric.
fn churn_main(args: &[String]) {
    let seed: u64 = parse_arg(args, "--seed", 0xA51, "an integer");
    let Some(topo_spec) = arg_value(args, "--topology") else {
        fail("--topology is required (e.g. churn --topology mesh:3x3)");
    };
    let topo = parse_topology(&topo_spec, seed).unwrap_or_else(|e| fail(e));
    let fm_factor: f64 = parse_arg(args, "--fm-factor", 1.0, "a number");
    let device_factor: f64 = parse_arg(args, "--device-factor", 1.0, "a number");
    let algorithm = parse_single_algorithm(args, "churn");
    let json = args.iter().any(|a| a == "--json");
    let flap_rate: f64 = parse_arg(args, "--flap-rate", 1_500.0, "a number");
    let flap_down_us: u64 = parse_arg(args, "--flap-down-us", 200, "an integer");
    let device_rate: f64 = parse_arg(args, "--device-rate", 300.0, "a number");
    let device_down_us: u64 = parse_arg(args, "--device-down-us", 1_000, "an integer");
    let start_us: u64 = parse_arg(args, "--start-us", 6_000, "an integer");
    let horizon_us: u64 = parse_arg(args, "--horizon-us", 4_000, "an integer");
    if flap_rate < 0.0 || device_rate < 0.0 {
        fail("churn rates must be non-negative");
    }
    let plan = ChurnPlan::none()
        .with_link_flaps(flap_rate, SimDuration::from_us(flap_down_us))
        .with_device_churn(device_rate, SimDuration::from_us(device_down_us))
        .with_window(
            SimDuration::from_us(start_us),
            SimDuration::from_us(horizon_us),
        )
        .with_seed(seed)
        .with_exempt(default_churn_exempt(&topo));
    if plan.is_inert() {
        fail("churn wants a live plan: give --flap-rate or --device-rate a positive value");
    }
    let trace = trace_out(args);
    let scenario = Scenario::new(algorithm)
        .with_factors(fm_factor, device_factor)
        .with_seed(seed)
        .with_kernel(parse_kernel(args))
        .with_partial_assimilation(true)
        .with_churn(plan)
        .with_trace(trace.handle.clone());
    let out = churn_experiment(&topo, &scenario);
    trace.save();
    let converged = out.full_topology && !out.diverged_at_end && out.cold_db_matches;
    if json {
        let report = Json::object()
            .with("topology", topo.name.as_str())
            .with("devices", topo.node_count())
            .with("algorithm", algorithm.name())
            .with("seed", seed)
            .with("churn_events", out.churn_events)
            .with("events_absorbed", out.events_absorbed)
            .with("events_per_sec", out.events_per_sec)
            .with("assimilation_runs", out.assimilation_runs)
            .with("convergence_lag_s", out.convergence_lag.as_secs_f64())
            .with("divergence_s", out.divergence_total.as_secs_f64())
            .with("divergence_max_s", out.divergence_max.as_secs_f64())
            .with("divergence_windows", out.divergence_windows)
            .with("full_topology", out.full_topology)
            .with("devices_found", out.final_devices)
            .with("links_found", out.final_links)
            .with("cold_db_matches", out.cold_db_matches)
            .with("converged", converged)
            .with("sim_time_s", out.sim_time.as_secs_f64());
        println!("{}", report.to_string_pretty());
    } else {
        println!(
            "churn {}: {} churn events, {} PI-5 events absorbed ({:.0} events/sec) \
             across {} assimilation runs",
            topo.name,
            out.churn_events,
            out.events_absorbed,
            out.events_per_sec,
            out.assimilation_runs,
        );
        println!(
            "  diverged for {:.3}ms total over {} windows (max {:.3}ms), \
             converged {:.3}ms after the last event",
            out.divergence_total.as_secs_f64() * 1e3,
            out.divergence_windows,
            out.divergence_max.as_secs_f64() * 1e3,
            out.convergence_lag.as_secs_f64() * 1e3,
        );
        println!(
            "  final database: {} devices, {} links; cold re-discovery {}",
            out.final_devices,
            out.final_links,
            if out.cold_db_matches {
                "matches"
            } else {
                "DIFFERS"
            },
        );
    }
    if !converged {
        eprintln!("churn: the run did not end converged");
        std::process::exit(1);
    }
}

/// `asi-fabric-sim traffic ...`: initial discovery under a
/// deterministic data-plane workload ([`TrafficPlan`]). Runs a quiet
/// twin first so the report carries the paper's headline — how much
/// the offered load moved the discovery time — next to the delivery
/// metrics (goodput, latency quantiles, credit stalls, queue peaks).
/// Every field is simulation-derived, so the output is byte-identical
/// across `--kernel` values. Exits 1 when the loaded discovery misses
/// devices.
fn traffic_main(args: &[String]) {
    let seed: u64 = parse_arg(args, "--seed", 0xA51, "an integer");
    let Some(topo_spec) = arg_value(args, "--topology") else {
        fail("--topology is required (e.g. traffic --topology mesh:3x3)");
    };
    let topo = parse_topology(&topo_spec, seed).unwrap_or_else(|e| fail(e));
    let fm_factor: f64 = parse_arg(args, "--fm-factor", 1.0, "a number");
    let device_factor: f64 = parse_arg(args, "--device-factor", 1.0, "a number");
    let algorithm = parse_single_algorithm(args, "traffic");
    let json = args.iter().any(|a| a == "--json");
    let load: f64 = parse_arg(args, "--load", 0.2, "a number");
    if !(0.0..=1.0).contains(&load) {
        fail(format!("--load must be in [0, 1], got {load}"));
    }
    let flows: u32 = parse_arg(args, "--flows", 1, "an integer");
    if flows == 0 {
        fail("--flows must be at least 1");
    }
    let payload: u16 = parse_arg(args, "--payload", 512, "an integer");
    if payload == 0 {
        fail("--payload must be at least 1 byte");
    }
    let arrivals = match arg_value(args, "--arrivals").as_deref() {
        Some("poisson") | None => Arrivals::Poisson,
        Some("cbr") => Arrivals::Cbr,
        Some(other) => fail(format!("unknown arrival process {other:?} (poisson, cbr)")),
    };
    let mcast_groups: u16 = parse_arg(args, "--mcast-groups", 0, "an integer");
    if mcast_groups > 64 {
        fail(format!(
            "--mcast-groups must be at most 64, got {mcast_groups}"
        ));
    }
    let mcast_load: f64 = parse_arg(args, "--mcast-load", 0.05, "a number");
    if !(0.0..=1.0).contains(&mcast_load) {
        fail(format!("--mcast-load must be in [0, 1], got {mcast_load}"));
    }
    let switch_load: f64 = parse_arg(args, "--switch-load", 0.0, "a number");
    if !(0.0..=1.0).contains(&switch_load) {
        fail(format!(
            "--switch-load must be in [0, 1], got {switch_load}"
        ));
    }
    let start_us: u64 = parse_arg(args, "--start-us", 0, "an integer");
    let duration_us: u64 = parse_arg(args, "--duration-us", 8_000, "an integer");
    let mut plan = TrafficPlan::none()
        .with_unicast(load, payload)
        .with_flows(flows)
        .with_arrivals(arrivals)
        .with_switch_sourced(switch_load)
        .with_window(
            SimDuration::from_us(start_us),
            SimDuration::from_us(duration_us),
        )
        .with_seed(seed ^ 0x7AF1C);
    if mcast_groups > 0 {
        plan = plan.with_multicast(mcast_groups, mcast_load);
    }
    let trace = trace_out(args);
    let base = Scenario::new(algorithm)
        .with_factors(fm_factor, device_factor)
        .with_seed(seed)
        .with_kernel(parse_kernel(args));
    // Quiet twin: same scenario, no plan — the delta is the headline.
    let quiet_time = Bench::start(&topo, &base, &[])
        .last_run()
        .discovery_time()
        .as_secs_f64();
    let scenario = base
        .with_traffic_plan(plan.clone())
        .with_trace(trace.handle.clone());
    let bench = Bench::start(&topo, &scenario, &[]);
    trace.save();
    let run = bench.last_run();
    let summary = summarize_traffic(&bench.fabric, &scenario.traffic);
    let loaded_time = run.discovery_time().as_secs_f64();
    let delta_pct = if quiet_time > 0.0 {
        100.0 * (loaded_time - quiet_time) / quiet_time
    } else {
        0.0
    };
    let full_topology = run.devices_found == topo.node_count();
    if json {
        let out = Json::object()
            .with("topology", topo.name.as_str())
            .with("devices", topo.node_count())
            .with("algorithm", algorithm.name())
            .with("seed", seed)
            .with("load", load)
            .with("flows_per_source", flows)
            .with("payload", payload)
            .with(
                "arrivals",
                if arrivals == Arrivals::Cbr {
                    "cbr"
                } else {
                    "poisson"
                },
            )
            .with("mcast_groups", mcast_groups)
            .with("duration_us", duration_us)
            .with("full_topology", full_topology)
            .with("devices_found", run.devices_found)
            .with("links_found", run.links_found)
            .with("requests", run.requests_sent)
            .with("quiet_discovery_time_s", quiet_time)
            .with("discovery_time_s", loaded_time)
            .with("discovery_delta_pct", delta_pct)
            .with("flow_injected", summary.flow_injected)
            .with("flow_delivered", summary.flow_delivered)
            .with("flow_bytes", summary.flow_bytes)
            .with("goodput_mbps", summary.goodput_bps / 1e6)
            .with("latency_p50_us", summary.latency_p50_us)
            .with("latency_p99_us", summary.latency_p99_us)
            .with("mcast_injected", summary.mcast_injected)
            .with("mcast_delivered", summary.mcast_delivered)
            .with("credit_stalls", summary.credit_stalls)
            .with("mgmt_queue_peak", summary.mgmt_queue_peak)
            .with("data_queue_peak", summary.data_queue_peak);
        println!("{}", out.to_string_pretty());
    } else {
        println!(
            "traffic {}: discovery {:.3}ms quiet -> {:.3}ms at {:.0}% offered load ({:+.2}%)",
            topo.name,
            quiet_time * 1e3,
            loaded_time * 1e3,
            load * 100.0,
            delta_pct,
        );
        println!(
            "  {} of {} packets delivered ({:.1} Mb/s goodput), \
             latency p50 {:.2}us / p99 {:.2}us",
            summary.flow_delivered,
            summary.flow_injected,
            summary.goodput_bps / 1e6,
            summary.latency_p50_us,
            summary.latency_p99_us,
        );
        println!(
            "  {} multicast deliveries from {} group packets, {} credit stalls, \
             queue peaks mgmt {} / data {}",
            summary.mcast_delivered,
            summary.mcast_injected,
            summary.credit_stalls,
            summary.mgmt_queue_peak,
            summary.data_queue_peak,
        );
    }
    if !full_topology {
        eprintln!(
            "traffic: discovery found {} of {} devices under load",
            run.devices_found,
            topo.node_count()
        );
        std::process::exit(1);
    }
}

/// `asi-fabric-sim faults ...`: initial discovery under a composed
/// fault plan, reporting the robustness/degradation metrics.
fn faults_main(args: &[String]) {
    let seed: u64 = parse_arg(args, "--seed", 0xA51, "an integer");
    let Some(topo_spec) = arg_value(args, "--topology") else {
        fail("--topology is required (e.g. faults --topology mesh:3x3)");
    };
    let topo = parse_topology(&topo_spec, seed).unwrap_or_else(|e| fail(e));
    let fm_factor: f64 = parse_arg(args, "--fm-factor", 1.0, "a number");
    let device_factor: f64 = parse_arg(args, "--device-factor", 1.0, "a number");
    let faults = parse_fault_plan(args);
    let retry = parse_retry(args);
    let timeout_us: u64 = parse_arg(args, "--timeout-us", 800, "an integer");
    let json = args.iter().any(|a| a == "--json");
    let algorithms = parse_algorithms(args);
    let trace = trace_out(args);

    let mut reports = Vec::new();
    for algorithm in algorithms {
        let scenario = Scenario::new(algorithm)
            .with_factors(fm_factor, device_factor)
            .with_seed(seed)
            .with_kernel(parse_kernel(args))
            .with_faults(faults.clone())
            .with_retry(retry)
            .with_request_timeout(SimDuration::from_us(timeout_us))
            .with_trace(trace.handle.clone());
        let Some((run, _active)) = scenario.initial_discovery(&topo) else {
            fail("discovery never completed a run under the fault plan");
        };
        reports.push(report_run(&topo, algorithm, "faults", &run));
    }
    trace.save();
    print_reports(&reports, json);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    if args[0] == "sweep" {
        sweep_main(&args[1..]);
        return;
    }
    if args[0] == "stress" {
        stress_main(&args[1..]);
        return;
    }
    if args[0] == "certify" {
        certify_main(&args[1..]);
        return;
    }
    if args[0] == "faults" {
        faults_main(&args[1..]);
        return;
    }
    if args[0] == "churn" {
        churn_main(&args[1..]);
        return;
    }
    if args[0] == "traffic" {
        traffic_main(&args[1..]);
        return;
    }
    if args[0] == "snapshot" {
        snapshot_main(&args[1..]);
        return;
    }
    let seed: u64 = parse_arg(&args, "--seed", 0xA51, "an integer");
    let Some(topo_spec) = arg_value(&args, "--topology") else {
        fail("--topology is required (e.g. --topology mesh:3x3)");
    };
    let topo = parse_topology(&topo_spec, seed).unwrap_or_else(|e| fail(e));
    let fm_factor: f64 = parse_arg(&args, "--fm-factor", 1.0, "a number");
    let device_factor: f64 = parse_arg(&args, "--device-factor", 1.0, "a number");
    let faults = parse_fault_plan(&args);
    let retry = parse_retry(&args);
    let timeout_us: u64 = parse_arg(&args, "--timeout-us", 800, "an integer");
    let change = arg_value(&args, "--change").unwrap_or_else(|| "none".into());
    let json = args.iter().any(|a| a == "--json");
    let algorithms = parse_algorithms(&args);
    let kernel = parse_kernel(&args);
    let trace = trace_out(&args);

    let mut reports = Vec::new();
    for algorithm in algorithms {
        let mut scenario = Scenario::new(algorithm)
            .with_factors(fm_factor, device_factor)
            .with_seed(seed)
            .with_kernel(kernel)
            .with_faults(faults.clone())
            .with_retry(retry)
            .with_trace(trace.handle.clone());
        let run = match change.as_str() {
            "none" if faults.is_inert() => Bench::start(&topo, &scenario, &[]).last_run(),
            "none" => {
                // Faulty initial discovery: the unified robustness path
                // shared with the `faults` mode and the sweep runner.
                scenario = scenario.with_request_timeout(SimDuration::from_us(timeout_us));
                match scenario.initial_discovery(&topo) {
                    Some((run, _active)) => run,
                    None => fail(
                        "discovery did not complete under the fault plan (give the FM \
                         a larger --retries budget)",
                    ),
                }
            }
            "remove" | "add" => change_experiment(&topo, &scenario, change == "remove").0,
            other => fail(format!("unknown change {other:?} (none, remove, add)")),
        };
        reports.push(report_run(&topo, algorithm, &change, &run));
    }

    trace.save();
    print_reports(&reports, json);
}
