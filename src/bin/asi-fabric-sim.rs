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
//! The command line is parsed once: [`Args::walk`] checks every token
//! against the flag table ([`FLAGS`]), [`Invocation::parse`] turns the
//! values into one [`Scenario`] plus the mode's extras, and each mode is
//! *run → verdict → report* over that. Every malformed, unknown, misplaced
//! or repeated flag produces a one-line `error: ...` on stderr plus the
//! usage text and exit code 2 — never a panic.

use advanced_switching::core::{snapshot_db, Algorithm, DiscoveryTrigger, RetryPolicy};
use advanced_switching::fabric::{Arrivals, ChurnPlan, Fabric, FaultPlan, LossModel, TrafficPlan};
use advanced_switching::harness::{
    change_experiment, churn_experiment, default_churn_exempt, load_snapshot, save_snapshot,
    save_trace_jsonl, sharded_discovery, summarize_traffic, sweep, Bench, Json, RingCollector,
    Scenario, SnapshotFormat, SweepSpec,
};
use advanced_switching::sim::trace::TraceEvent;
use advanced_switching::sim::{SimDuration, SimRng, SimTime, TraceHandle};
use advanced_switching::state::{checksum_of, Snapshot, TopologyDelta};
use advanced_switching::topo::{
    design_fat_tree, dragonfly, fat_tree, irregular, mesh, torus, IrregularSpec, PortCatalogue,
    Topology,
};
use std::fmt;
use std::io::Write;
use std::path::Path;

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
  --topology <spec>            fabric under test (required; specs above)
  --algorithm serial-packet|serial-device|parallel|all   (default: all)
  --change none|remove|add     measure initial discovery or a change (default: none)
  --fm-factor <f>              FM processing speed factor (default 1)
  --device-factor <f>          device processing speed factor (default 1)
  --seed <n>                   RNG seed (default 0xA51)
  --kernel serial|parallel[:N] event-engine scheduling kernel (default: serial;
                               parallel = conservative-sync over N shards, 4 when
                               omitted — output is byte-identical either way,
                               see docs/PARALLEL.md); taken by the default,
                               faults, churn, traffic, sweep, stress and
                               certify modes
  --trace <path>               write a JSONL discovery trace (see docs/TRACE_FORMAT.md)
  --json                       emit JSON instead of a table

fault options (compose a deterministic fault plan and the FM's retry policy;
taken by the default, `faults` and `sweep` modes only — `faults` always
reports the robustness metrics, see docs/FAULTS.md):
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
  plus --algorithm/--seed/--kernel/--fm-factor/--device-factor/--trace/--json

traffic options (initial discovery under a deterministic data-plane
workload — see docs/TRAFFIC.md; reports discovery time against a quiet
twin run plus delivery metrics, all byte-identical across --kernel;
exits 1 when the loaded discovery misses devices, or when data packets
are still queued once the rest of the window has run to idle):
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
                               discovery — see docs/DISTRIBUTED.md; at most
                               the smallest grid fabric's endpoints, and 255)
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
  --fms <n>                    fabric managers, at most one per endpoint and
                               255; >1 runs the election-based sharded
                               discovery with a certified merge
  --seed / --fm-factor / --device-factor / --kernel / --trace / --json as above
  (--json also reports peak_rss_mb, the process's peak resident set —
  execution-dependent like wall_time_s, never byte-compare it — and
  events_by_kind, the deterministic split of sim_events by event kind)

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
  save and verify also take --algorithm/--seed/--fm-factor/--device-factor/
  --trace; every subcommand takes --json";

fn usage() -> ! {
    let _ = writeln!(std::io::stderr(), "{USAGE}");
    std::process::exit(2)
}

/// Friendly fatal error: one line on stderr, then the usage text, exit 2
/// (also when stderr has gone away — a closed pipe is not a panic).
fn fail(msg: impl fmt::Display) -> ! {
    let _ = writeln!(std::io::stderr(), "error: {msg}\n\n{USAGE}");
    std::process::exit(2)
}

/// One bit per mode, so the modes that consume a flag form a mask.
type Modes = u16;
const DISCOVER: Modes = 1 << 0;
const FAULTS: Modes = 1 << 1;
const CHURN: Modes = 1 << 2;
const TRAFFIC: Modes = 1 << 3;
const SWEEP: Modes = 1 << 4;
const STRESS: Modes = 1 << 5;
const CERTIFY: Modes = 1 << 6;
const SAVE: Modes = 1 << 7;
const LOAD: Modes = 1 << 8;
const DIFF: Modes = 1 << 9;
const VERIFY: Modes = 1 << 10;
const EVERY: Modes = (1 << 11) - 1;
/// Modes that run one traced discovery on `--topology`.
const RUNS: Modes = DISCOVER | FAULTS | CHURN | TRAFFIC | STRESS | SAVE | VERIFY;
/// Modes that take the fault plan and retry policy.
const FAULTY: Modes = DISCOVER | FAULTS | SWEEP;

/// Each mode: the words that select it, and the hint its
/// "--topology is required" error carries.
const MODES: &[(Modes, &str, &str)] = &[
    (DISCOVER, "", "e.g. --topology mesh:3x3"),
    (FAULTS, "faults", "e.g. faults --topology mesh:3x3"),
    (CHURN, "churn", "e.g. churn --topology mesh:3x3"),
    (TRAFFIC, "traffic", "e.g. traffic --topology mesh:3x3"),
    (SWEEP, "sweep", ""),
    (STRESS, "stress", "e.g. stress --topology mesh:64x64"),
    (CERTIFY, "certify", "e.g. certify --topology dragonfly:2,3"),
    (
        SAVE,
        "snapshot save",
        "e.g. snapshot save --topology mesh:3x3",
    ),
    (LOAD, "snapshot load", ""),
    (DIFF, "snapshot diff", ""),
    (
        VERIFY,
        "snapshot verify",
        "the live fabric to verify against",
    ),
];

#[derive(Clone, Copy, PartialEq)]
enum Arity {
    /// Present or absent; no value.
    Switch,
    /// One value; giving the flag twice is an error.
    Value,
    /// One value per occurrence, any number of occurrences.
    Repeat,
}

/// Declares the flag identifiers ([`F`]) and the flag table ([`FLAGS`])
/// from one list, so each flag's literal is written exactly once and
/// `FLAGS[f as usize]` is always `f`'s row.
macro_rules! flags {
    ($($id:ident $name:literal $arity:ident $modes:expr,)*) => {
        #[derive(Clone, Copy, PartialEq)]
        enum F { $($id),* }
        /// The flag table: name, arity, and the modes that consume the flag.
        const FLAGS: &[(F, &str, Arity, Modes)] =
            &[$((F::$id, $name, Arity::$arity, $modes)),*];
    };
}

flags! {
    Topology "--topology" Value RUNS | CERTIFY,
    Algorithm "--algorithm" Value RUNS,
    Change "--change" Value DISCOVER,
    FmFactor "--fm-factor" Value RUNS | SWEEP,
    DeviceFactor "--device-factor" Value RUNS | SWEEP,
    Seed "--seed" Value RUNS | CERTIFY,
    Kernel "--kernel" Value DISCOVER | FAULTS | CHURN | TRAFFIC | SWEEP | STRESS | CERTIFY,
    Trace "--trace" Value RUNS,
    Json "--json" Switch EVERY,
    Loss "--loss" Value FAULTY,
    LossModel "--loss-model" Value FAULTY,
    Corrupt "--corrupt" Value FAULTY,
    Duplicate "--duplicate" Value FAULTY,
    Flap "--flap" Repeat FAULTY,
    Hang "--hang" Repeat FAULTY,
    Slow "--slow" Repeat FAULTY,
    RetryPolicy "--retry-policy" Value FAULTY,
    Retries "--retries" Value FAULTY,
    DeadlineUs "--deadline-us" Value FAULTY,
    TimeoutUs "--timeout-us" Value FAULTY,
    FlapRate "--flap-rate" Value CHURN,
    FlapDownUs "--flap-down-us" Value CHURN,
    DeviceRate "--device-rate" Value CHURN,
    DeviceDownUs "--device-down-us" Value CHURN,
    StartUs "--start-us" Value CHURN | TRAFFIC,
    HorizonUs "--horizon-us" Value CHURN,
    Load "--load" Value TRAFFIC,
    Flows "--flows" Value TRAFFIC,
    Payload "--payload" Value TRAFFIC,
    Arrivals "--arrivals" Value TRAFFIC,
    McastGroups "--mcast-groups" Value TRAFFIC,
    McastLoad "--mcast-load" Value TRAFFIC,
    SwitchLoad "--switch-load" Value TRAFFIC,
    DurationUs "--duration-us" Value TRAFFIC,
    Grid "--grid" Value SWEEP,
    Quick "--quick" Switch SWEEP,
    Jobs "--jobs" Value SWEEP,
    Csv "--csv" Switch SWEEP,
    Fms "--fms" Value SWEEP | STRESS,
    Out "--out" Value SAVE,
    Format "--format" Value SAVE | LOAD,
    In "--in" Value LOAD | VERIFY,
    Resave "--resave" Value LOAD,
    Old "--old" Value DIFF,
    New "--new" Value DIFF,
    Threshold "--threshold" Value VERIFY,
}

impl F {
    fn name(self) -> &'static str {
        FLAGS[self as usize].1
    }
}

/// The command line after one walk against [`FLAGS`]: the selected mode
/// and every flag value, in command-line order.
struct Args {
    mode: Modes,
    values: Vec<(F, String)>,
}

impl Args {
    /// Resolves the mode words, then checks each remaining token: it
    /// must be a known flag, one the mode consumes, carrying its value,
    /// and given once unless repeatable. A value is whatever token
    /// follows its flag, so values may start with `-`.
    fn walk(argv: &[String]) -> Args {
        let words = match (argv.first().map(String::as_str), argv.get(1)) {
            (Some(flag), _) if flag.starts_with("--") => String::new(),
            (Some("snapshot"), None) => {
                fail("snapshot wants a subcommand (save, load, diff, verify)")
            }
            (Some("snapshot"), Some(sub)) => format!("snapshot {sub}"),
            (Some(mode), _) => mode.to_string(),
            (None, _) => usage(),
        };
        let Some(&(mode, ..)) = MODES.iter().find(|m| m.1 == words) else {
            match words.strip_prefix("snapshot ") {
                Some(sub) => fail(format!(
                    "unknown snapshot subcommand {sub:?} (save, load, diff, verify)"
                )),
                None => fail(format!(
                    "unknown mode {words:?} (faults, churn, traffic, sweep, stress, certify, snapshot)"
                )),
            }
        };
        let mut values: Vec<(F, String)> = Vec::new();
        let mut tokens = argv[words.split_whitespace().count()..].iter();
        while let Some(token) = tokens.next() {
            let Some(&(flag, name, arity, modes)) = FLAGS.iter().find(|f| f.1 == token) else {
                fail(format!("unknown option {token:?}"));
            };
            if modes & mode == 0 {
                let mode = if words.is_empty() {
                    "the default mode".to_string()
                } else {
                    format!("the `{words}` mode")
                };
                fail(format!("{name} is not an option of {mode}"));
            }
            if arity != Arity::Repeat && values.iter().any(|(f, _)| *f == flag) {
                fail(format!("{name} given more than once"));
            }
            let value = match arity {
                Arity::Switch => String::new(),
                _ => match tokens.next() {
                    Some(v) => v.clone(),
                    None => fail(format!("{name} is missing its value")),
                },
            };
            values.push((flag, value));
        }
        Args { mode, values }
    }

    /// Every value of a repeatable flag, in order.
    fn all(&self, flag: F) -> impl Iterator<Item = &str> {
        self.values
            .iter()
            .filter(move |(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn get(&self, flag: F) -> Option<&str> {
        self.all(flag).next()
    }

    fn has(&self, flag: F) -> bool {
        self.get(flag).is_some()
    }

    /// Parses the flag's value with a friendly error instead of a panic.
    fn num<T: std::str::FromStr>(&self, flag: F, default: T, what: &str) -> T {
        match self.get(flag) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| fail(format!("{} must be {what}, got {v:?}", flag.name()))),
        }
    }

    /// Parses the flag's value as a fraction in [0, 1].
    fn unit(&self, flag: F, default: f64, what: &str) -> f64 {
        let v: f64 = self.num(flag, default, what);
        if !(0.0..=1.0).contains(&v) {
            fail(format!("{} must be in [0, 1], got {v}", flag.name()));
        }
        v
    }

    fn require(&self, flag: F, hint: &str) -> String {
        match self.get(flag) {
            Some(v) => v.to_string(),
            None => fail(format!("{} is required ({hint})", flag.name())),
        }
    }
}

/// Splits a two-integer topology parameter (`WxH`, `m,n`, `k,m`).
fn parse_pair<T: std::str::FromStr>(
    kind: &str,
    rest: &str,
    sep: char,
    shape: &str,
    noun: &str,
) -> Result<(T, T), String> {
    let (a, b) = rest
        .split_once(sep)
        .ok_or_else(|| format!("{kind} wants {shape} {noun}, got {rest:?}"))?;
    match (a.parse(), b.parse()) {
        (Ok(a), Ok(b)) => Ok((a, b)),
        _ => Err(format!("{kind} {noun} must be integers, got {rest:?}")),
    }
}

fn parse_topology(spec: &str, seed: u64) -> Result<Topology, String> {
    let Some((kind, rest)) = spec.split_once(':') else {
        return Err(format!(
            "topology {spec:?} is missing its parameters (e.g. mesh:3x3)"
        ));
    };
    let built = match kind {
        "mesh" | "torus" => {
            let (w, h): (usize, usize) = parse_pair(kind, rest, 'x', "WxH", "dimensions")?;
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
        }
        "fattree" => {
            let (m, n): (u32, u32) = parse_pair(kind, rest, ',', "m,n", "parameters")?;
            if !(2..=254).contains(&m) || !m.is_multiple_of(2) {
                return Err(format!(
                    "fattree port count must be even and in 2..=254, got {m}"
                ));
            }
            if !(1..=8).contains(&n) {
                return Err(format!("fattree levels must be in 1..=8, got {n}"));
            }
            fat_tree(m, n).map(|ft| ft.topology)
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
            let spec = IrregularSpec {
                switches,
                extra_links: switches / 2,
                endpoints_per_switch: 1,
            };
            irregular(spec, &mut SimRng::new(seed))
        }
        "dragonfly" => {
            let (k, m) = parse_pair(kind, rest, ',', "k,m", "parameters")?;
            dragonfly(k, m).map(|d| d.topology)
        }
        "designed" => {
            let endpoints: usize = rest
                .parse()
                .map_err(|_| format!("designed wants an endpoint count, got {rest:?}"))?;
            design_fat_tree(endpoints, &PortCatalogue::default()).map(|d| d.topology)
        }
        other => {
            return Err(format!(
            "unknown topology kind {other:?} (mesh, torus, fattree, irregular, dragonfly, designed)"
        ))
        }
    };
    built.map_err(|e| e.to_string())
}

/// Splits a colon-separated fault-event spec into exactly `n` fields.
fn split_spec<'a>(flag: F, spec: &'a str, shape: &str, n: usize) -> Vec<&'a str> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() != n {
        fail(format!("{} wants {shape}, got {spec:?}", flag.name()));
    }
    parts
}

/// Parses one colon-separated field with a friendly error.
fn spec_field<T: std::str::FromStr>(flag: F, field: &str, what: &str) -> T {
    field
        .parse()
        .unwrap_or_else(|_| fail(format!("{}: {field:?} is not {what}", flag.name())))
}

/// Parses one colon-separated field as a span of microseconds.
fn spec_us(flag: F, field: &str, what: &str) -> SimDuration {
    SimDuration::from_us(spec_field(flag, field, what))
}

/// Composes the fault plan from the loss flags, the completion
/// corruption/duplication probabilities, and any scheduled
/// flap/hang/slow events.
fn parse_fault_plan(args: &Args) -> FaultPlan {
    let loss: f64 = args.num(F::Loss, 0.0, "a probability");
    if !(0.0..1.0).contains(&loss) {
        fail(format!("{} must be in [0, 1), got {loss}", F::Loss.name()));
    }
    let model = match args.get(F::LossModel) {
        Some("uniform") | None => LossModel::uniform(loss),
        Some("bursty") => LossModel::bursty(loss),
        Some(other) => fail(format!("unknown loss model {other:?} (uniform, bursty)")),
    };
    let mut plan = FaultPlan::none()
        .with_loss(model)
        .with_corruption(args.unit(F::Corrupt, 0.0, "a probability"))
        .with_duplication(args.unit(F::Duplicate, 0.0, "a probability"));
    for spec in args.all(F::Flap) {
        let p = split_spec(F::Flap, spec, "<at_us>:<device>:<port>:<down_us>", 4);
        plan = plan.with_link_flap(
            spec_us(F::Flap, p[0], "a time in µs"),
            spec_field(F::Flap, p[1], "a device id"),
            spec_field(F::Flap, p[2], "a port number"),
            spec_us(F::Flap, p[3], "a duration in µs"),
        );
    }
    for spec in args.all(F::Hang) {
        let p = split_spec(F::Hang, spec, "<at_us>:<device>:<dur_us>", 3);
        plan = plan.with_device_hang(
            spec_us(F::Hang, p[0], "a time in µs"),
            spec_field(F::Hang, p[1], "a device id"),
            spec_us(F::Hang, p[2], "a duration in µs"),
        );
    }
    for spec in args.all(F::Slow) {
        let p = split_spec(F::Slow, spec, "<at_us>:<device>:<factor>:<dur_us>", 4);
        let factor: f64 = spec_field(F::Slow, p[2], "a number");
        if factor <= 0.0 {
            fail(format!("--slow factor must be positive, got {factor}"));
        }
        plan = plan.with_device_slow(
            spec_us(F::Slow, p[0], "a time in µs"),
            spec_field(F::Slow, p[1], "a device id"),
            factor,
            spec_us(F::Slow, p[3], "a duration in µs"),
        );
    }
    plan
}

/// Parses the retry policy; `None` when no retry flag was given.
fn parse_retry(args: &Args) -> Option<RetryPolicy> {
    let deadline_us = args.get(F::DeadlineUs);
    let policy = args.get(F::RetryPolicy);
    if policy.is_none() && deadline_us.is_none() && !args.has(F::Retries) {
        return None;
    }
    let retries: u32 = args.num(F::Retries, 0, "an integer");
    let budgeted = |policy: fn(u32) -> RetryPolicy| {
        if deadline_us.is_some() {
            fail("--deadline-us only applies with --retry-policy deadline");
        }
        policy(retries)
    };
    Some(match policy {
        Some("deadline") => {
            if deadline_us.is_none() {
                fail("--retry-policy deadline needs --deadline-us <n>");
            }
            let us: u64 = args.num(F::DeadlineUs, 0, "an integer");
            RetryPolicy::deadline(SimDuration::from_us(us))
        }
        Some("fixed") | None => budgeted(RetryPolicy::fixed),
        Some("exponential") => budgeted(RetryPolicy::exponential),
        Some(other) => fail(format!(
            "unknown retry policy {other:?} (fixed, exponential, deadline)"
        )),
    })
}

/// `--algorithm`. Modes that loop over algorithms (`single: None`)
/// default to all three and accept `all`; a mode that runs one concrete
/// discovery names itself in `single`, defaults to Parallel and rejects
/// `all`.
fn parse_algorithms(value: Option<&str>, single: Option<&str>) -> Vec<Algorithm> {
    match (value, single) {
        (Some("serial-packet"), _) => vec![Algorithm::SerialPacket],
        (Some("serial-device"), _) => vec![Algorithm::SerialDevice],
        (Some("parallel"), _) | (None, Some(_)) => vec![Algorithm::Parallel],
        (Some("all") | None, None) => Algorithm::all().to_vec(),
        (Some(other), None) => fail(format!(
            "unknown algorithm {other:?} (serial-packet, serial-device, parallel, all)"
        )),
        (Some(other), Some(mode)) => fail(format!(
            "{mode} mode wants one algorithm, got {other:?} \
             (serial-packet, serial-device, parallel)"
        )),
    }
}

/// `--change`: `None` measures the initial discovery, `Some(true)`
/// removes a switch, `Some(false)` adds one.
fn parse_change(args: &Args) -> Option<bool> {
    match args.get(F::Change) {
        Some("none") | None => None,
        Some("remove") => Some(true),
        Some("add") => Some(false),
        Some(other) => fail(format!("unknown change {other:?} (none, remove, add)")),
    }
}

fn parse_snapshot_format(args: &Args) -> SnapshotFormat {
    match args.get(F::Format) {
        Some("binary") | None => SnapshotFormat::Binary,
        Some("jsonl") => SnapshotFormat::Jsonl,
        Some(other) => fail(format!("unknown snapshot format {other:?} (binary, jsonl)")),
    }
}

fn load_snapshot_or_fail(path: &str) -> Snapshot {
    load_snapshot(Path::new(path)).unwrap_or_else(|e| fail(format!("cannot load snapshot: {e}")))
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `--fms <n>`: one to `endpoints` fabric managers (one per endpoint of
/// the smallest fabric they run on), and at most 255 — an election
/// priority is a `u8`.
fn parse_fms(args: &Args, endpoints: usize) -> usize {
    let fms: usize = args.num(F::Fms, 1, "an integer");
    let most = endpoints.min(255);
    if !(1..=most).contains(&fms) {
        fail(format!(
            "--fms must be in 1..={most} (at most one manager per endpoint, and 255), got {fms}"
        ));
    }
    fms
}

/// One parsed command line: everything a mode runs from. The shared
/// spec is converted here, once; a mode's own flags (`--fms`, `--out`,
/// the churn and traffic plans, …) are read off `args` by that mode
/// before it runs anything.
struct Invocation {
    args: Args,
    /// `--topology` as typed and the fabric it names (`None` in the
    /// modes that take no topology).
    topology: Option<(String, Topology)>,
    algorithms: Vec<Algorithm>,
    /// The scenario spec. Modes that loop over algorithms stamp each
    /// one onto a copy; `sweep` hands it to the grid as its base.
    scenario: Scenario,
    trace: TraceOut,
}

impl Invocation {
    /// `start` is the scenario the flags apply to: the paper defaults,
    /// or in `sweep` mode the chosen grid's base.
    fn parse(args: Args, start: Option<Scenario>) -> Invocation {
        let mode = args.mode;
        let &(_, words, hint) = MODES.iter().find(|m| m.0 == mode).expect("a known mode");
        let seed: u64 = args.num(F::Seed, 0xA51, "an integer");
        let topology = (FLAGS[F::Topology as usize].3 & mode != 0).then(|| {
            let spec = args.require(F::Topology, hint);
            let topo = parse_topology(&spec, seed).unwrap_or_else(|e| fail(e));
            (spec, topo)
        });
        let single =
            (mode & (DISCOVER | FAULTS) == 0).then(|| words.split(' ').next().unwrap_or(""));
        let algorithms = parse_algorithms(args.get(F::Algorithm), single);
        let trace = TraceOut::to(args.get(F::Trace));

        let sweeping = start.is_some();
        let mut scenario = start.unwrap_or_else(|| Scenario::new(algorithms[0]).with_seed(seed));
        scenario.fm_factor = args.num(F::FmFactor, scenario.fm_factor, "a number");
        scenario.device_factor = args.num(F::DeviceFactor, scenario.device_factor, "a number");
        scenario.trace = trace.handle.clone();
        if let Some(kernel) = args.get(F::Kernel) {
            scenario.kernel = kernel.parse().unwrap_or_else(|e: String| fail(e));
        }
        // Fault flags replace a grid's own plan only when they compose a
        // live one (the `faults` grid carries defaults; any other grid
        // stays loss-free unless asked).
        let faults = parse_fault_plan(&args);
        let live = !faults.is_inert();
        if live || !sweeping {
            scenario.faults = faults;
        }
        if let Some(retry) = parse_retry(&args) {
            scenario.retry = retry;
        }
        // The short fault timeout belongs to the robust initial-discovery
        // path: always in `faults`, elsewhere when a live plan is
        // measured without a topology change.
        let timeout_us: u64 = args.num(F::TimeoutUs, 800, "an integer");
        if mode == FAULTS || (live && parse_change(&args).is_none()) {
            scenario.request_timeout = SimDuration::from_us(timeout_us);
        }
        Invocation {
            args,
            topology,
            algorithms,
            scenario,
            trace,
        }
    }

    fn topo(&self) -> &Topology {
        let (_, topo) = self.topology.as_ref().expect("this mode takes --topology");
        topo
    }
}

/// What a finished mode hands back to `main`: both renderings of its
/// result, and the stderr explanation of a failed verdict (exit 1).
struct Report {
    json: Json,
    text: String,
    failure: Option<String>,
}

/// The default and `faults` modes: one discovery (or change
/// assimilation) per algorithm, reported side by side. `faults` forces
/// the fault-tolerant initial-discovery path even under an inert plan.
fn discover_main(inv: &Invocation) -> Report {
    let topo = inv.topo();
    let robust = inv.args.mode == FAULTS;
    let change = parse_change(&inv.args);
    let label = match change {
        _ if robust => "faults",
        None => "none",
        Some(true) => "remove",
        Some(false) => "add",
    };
    let mut json = Vec::new();
    let mut text = format!(
        "{:<16} {:>14} {:>9} {:>9} {:>9} {:>8} {:>9} {:>12} {:>8}\n",
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
    for &algorithm in &inv.algorithms {
        let mut scenario = inv.scenario.clone();
        scenario.algorithm = algorithm;
        let run = match change {
            Some(remove) => change_experiment(topo, &scenario, remove).0,
            // Faulty initial discovery: the robustness path shared with
            // the sweep runner.
            None if robust || !scenario.faults.is_inert() => {
                match scenario.initial_discovery(topo) {
                    Some((run, _active)) => run,
                    None if robust => fail("discovery never completed a run under the fault plan"),
                    None => fail(
                        "discovery did not complete under the fault plan (give the FM \
                         a larger --retries budget)",
                    ),
                }
            }
            None => Bench::start(topo, &scenario, &[]).last_run(),
        };
        let time_s = run.discovery_time().as_secs_f64();
        let fm_us = run.mean_fm_processing().as_micros_f64();
        json.push(
            Json::object()
                .with("topology", topo.name.as_str())
                .with("devices", topo.node_count())
                .with("algorithm", algorithm.name())
                .with("scenario", label)
                .with("discovery_time_s", time_s)
                .with("devices_found", run.devices_found)
                .with("links_found", run.links_found)
                .with("requests", run.requests_sent)
                .with("responses", run.responses_received)
                .with("timeouts", run.timeouts)
                .with("retries", run.retries)
                .with("abandoned", run.abandoned)
                .with("bytes_sent", run.bytes_sent)
                .with("bytes_received", run.bytes_received)
                .with("mean_fm_processing_us", fm_us)
                .with("fm_utilization", run.fm_utilization()),
        );
        text += &format!(
            "{:<16} {:>12.3}ms {:>9} {:>9} {:>9} {:>8} {:>9} {:>12.2} {:>7.0}%\n",
            algorithm.name(),
            time_s * 1e3,
            run.devices_found,
            run.links_found,
            run.requests_sent,
            run.retries,
            run.abandoned,
            fm_us,
            run.fm_utilization() * 100.0
        );
    }
    Report {
        json: Json::Arr(json),
        text,
        failure: None,
    }
}

/// `sweep`: the named deterministic grid, its base scenario already
/// carrying the command line's flags.
fn sweep_main(inv: &Invocation, mut spec: SweepSpec) -> Report {
    let jobs: usize = inv.args.num(F::Jobs, default_jobs(), "an integer");
    if jobs == 0 {
        fail("--jobs must be at least 1");
    }
    if inv.args.has(F::Fms) {
        let smallest = spec.topologies.iter().map(|t| t.endpoints()).min();
        spec.fm_counts = vec![parse_fms(&inv.args, smallest.unwrap_or(0))];
    }
    spec.base = inv.scenario.clone();
    let started = std::time::Instant::now();
    let result = sweep::run(&spec, jobs);
    if spec.name == "scale" {
        // Wall-clock throughput goes to stderr: stdout must stay
        // byte-identical across --jobs values.
        let wall = started.elapsed().as_secs_f64();
        let events: u64 = result.cells.iter().map(|c| c.sim_events).sum();
        eprintln!(
            "scale: {} cells, {events} sim events in {wall:.2}s wall ({} events/sec)",
            result.cells.len(),
            per_second(events, wall)
        );
    }
    Report {
        json: result.to_json(),
        text: if inv.args.has(F::Csv) {
            result.to_csv()
        } else {
            result.to_text()
        },
        failure: None,
    }
}

/// `sweep --grid <name>`: the grid whose base scenario the flags refine.
fn parse_grid(args: &Args) -> SweepSpec {
    let quick = args.has(F::Quick);
    match args.get(F::Grid) {
        Some("fig5") => SweepSpec::fig5(quick),
        Some("fig6") => SweepSpec::fig6(quick, 1.0, 1.0),
        Some("faults") => SweepSpec::faults(quick),
        Some("warmstart") => SweepSpec::warmstart(quick),
        Some("scale") => SweepSpec::scale(quick),
        Some("churn") => SweepSpec::churn(quick),
        Some("load") => SweepSpec::load(quick),
        Some("smoke") | None => SweepSpec::smoke(),
        Some(other) => fail(format!(
            "unknown grid {other:?} (fig5, fig6, faults, warmstart, smoke, scale, churn, load)"
        )),
    }
}

fn per_second(events: u64, wall_s: f64) -> u64 {
    if wall_s > 0.0 {
        (events as f64 / wall_s) as u64
    } else {
        0
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

/// `certify`: the CI certification gate for one generator family
/// instance. Re-runs the whole-graph validator on the generator's
/// output, then runs one full discovery and requires every device
/// found. Exits 1 on any mismatch.
fn certify_main(inv: &Invocation) -> Report {
    let (spec, topo) = inv.topology.as_ref().expect("certify takes --topology");
    let validated = topo.validate();
    let run = Bench::start(topo, &inv.scenario, &[]).last_run();
    let full_topology = run.devices_found == topo.node_count();
    let certified = validated.is_ok() && full_topology;
    let mut failure = Vec::new();
    if let Err(e) = &validated {
        failure.push(format!("certify: validation failed: {e}"));
    }
    if !full_topology {
        failure.push(format!(
            "certify: discovery found {} of {} devices",
            run.devices_found,
            topo.node_count()
        ));
    }
    Report {
        json: Json::object()
            .with("spec", spec.as_str())
            .with("topology", topo.name.as_str())
            .with("devices", topo.node_count())
            .with("validated", validated.is_ok())
            .with("full_topology", full_topology)
            .with("devices_found", run.devices_found)
            .with("links_found", run.links_found)
            .with("discovery_time_s", run.discovery_time().as_secs_f64())
            .with("certified", certified),
        text: format!(
            "certify {}: validate {}, discovery {} of {} devices -> {}\n",
            topo.name,
            if validated.is_ok() { "ok" } else { "FAILED" },
            run.devices_found,
            topo.node_count(),
            if certified { "certified" } else { "FAILED" },
        ),
        failure: (!certified).then(|| failure.join("\n")),
    }
}

/// `stress`: one large-fabric discovery with wall-clock throughput
/// metrics. `wall_time_s`, `events_per_sec` and `peak_rss_mb` depend on
/// the machine and must never be byte-compared; the deterministic
/// counterpart is `sweep --grid scale`. Exits 1 when the discovery
/// misses devices, so CI can assert full coverage directly.
///
/// With `--fms N` the run is one election-based sharded discovery: the
/// headline time is election kick-off to the certified merged database,
/// and the checksum is the merge certificate's canonical-snapshot
/// checksum, so two runs with the same seed can be compared on it.
fn stress_main(inv: &Invocation) -> Report {
    let topo = inv.topo();
    let fms = parse_fms(&inv.args, topo.endpoint_count());
    let mut json = Json::object()
        .with("topology", topo.name.as_str())
        .with("devices", topo.node_count())
        .with("algorithm", inv.scenario.algorithm.name())
        .with("seed", inv.scenario.seed);
    let started = std::time::Instant::now();
    // Each arm runs its discovery and reports what only it measures:
    // its JSON fields, and the detail clause of the text rendering.
    let by_kind = |fabric: &Fabric| {
        let kinds = fabric.dispatch_counts();
        kinds.fold(Json::object(), |json, (kind, n)| json.with(kind, n))
    };
    let (sim_events, events_by_kind, devices, links, time_s, managers, detail, missed) = if fms > 1
    {
        let (fabric, _primary, out) = sharded_discovery(topo, fms, &inv.scenario);
        json = json
            .with("fms", fms)
            .with("full_topology", out.devices == topo.node_count())
            .with("devices_found", out.devices)
            .with("links_found", out.links)
            .with("boundary_conflicts", out.boundary_conflicts)
            .with("failovers", out.failovers)
            .with("discovery_time_s", out.merged_time.as_secs_f64())
            .with("merge_time_s", out.merge_time.as_secs_f64())
            .with("merge_checksum", out.checksum);
        let detail = format!(
            "{} boundary conflicts, {} failovers, merge tail {:.1}us, checksum {:#x}",
            out.boundary_conflicts,
            out.failovers,
            out.merge_time.as_secs_f64() * 1e6,
            out.checksum,
        );
        (
            fabric.events_processed(),
            by_kind(&fabric),
            out.devices,
            out.links,
            out.merged_time.as_secs_f64(),
            format!(" ({fms} managers)"),
            detail,
            "sharded discovery merged",
        )
    } else {
        let bench = Bench::start(topo, &inv.scenario, &[]);
        let run = bench.last_run();
        json = json
            .with("full_topology", run.devices_found == topo.node_count())
            .with("devices_found", run.devices_found)
            .with("links_found", run.links_found)
            .with("requests", run.requests_sent)
            .with("timeouts", run.timeouts)
            .with("discovery_time_s", run.discovery_time().as_secs_f64())
            .with("peak_outstanding", run.peak_outstanding);
        let detail = format!(
            "peak {} outstanding requests, {} timeouts",
            run.peak_outstanding, run.timeouts
        );
        (
            bench.fabric.events_processed(),
            by_kind(&bench.fabric),
            run.devices_found,
            run.links_found,
            run.discovery_time().as_secs_f64(),
            String::new(),
            detail,
            "discovery found",
        )
    };
    let wall_time_s = started.elapsed().as_secs_f64();
    let events_per_sec = per_second(sim_events, wall_time_s);
    let (total, peak_rss_mb) = (topo.node_count(), peak_rss_mb());
    Report {
        json: json
            .with("sim_events", sim_events)
            .with("events_by_kind", events_by_kind)
            .with("wall_time_s", wall_time_s)
            .with("events_per_sec", events_per_sec)
            .with("peak_rss_mb", peak_rss_mb),
        text: format!(
            "stress {}{managers}: {devices} of {total} devices ({links} links) in \
             {time_s:.3}s simulated / {wall_time_s:.2}s wall\n  \
             {sim_events} sim events, {events_per_sec} events/sec, {detail}, \
             peak RSS {peak_rss_mb:.1} MiB\n",
            topo.name,
        ),
        failure: (devices != total)
            .then(|| format!("stress: {missed} {devices} of {total} devices")),
    }
}

fn snapshot_summary(path: &str, snap: &Snapshot) -> Report {
    let (host, checksum) = (snap.host_dsn, checksum_of(snap));
    Report {
        json: Json::object()
            .with("path", path)
            .with("devices", snap.device_count())
            .with("links", snap.link_count())
            .with("host_dsn", format!("{host:#x}").as_str())
            .with("checksum", format!("{checksum:#x}").as_str()),
        text: format!(
            "snapshot {path}: {} devices, {} links, host {host:#x}, checksum {checksum:#x}\n",
            snap.device_count(),
            snap.link_count(),
        ),
        failure: None,
    }
}

fn write_snapshot(path: &str, snap: &Snapshot, format: SnapshotFormat) {
    save_snapshot(Path::new(path), snap, format)
        .unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
}

/// `snapshot save`: run a cold discovery and write the resulting
/// snapshot.
fn save_main(inv: &Invocation) -> Report {
    let out = inv.args.require(F::Out, "where to write the snapshot");
    let format = parse_snapshot_format(&inv.args);
    let bench = Bench::start(inv.topo(), &inv.scenario, &[]);
    let snap = snapshot_db(bench.db());
    inv.trace
        .handle
        .emit(bench.fabric.now(), || TraceEvent::SnapshotSaved {
            devices: snap.device_count() as u64,
            links: snap.link_count() as u64,
        });
    write_snapshot(&out, &snap, format);
    snapshot_summary(&out, &snap)
}

/// `snapshot load`: read a snapshot, optionally re-save it, print its
/// summary.
fn load_main(inv: &Invocation) -> Report {
    let input = inv.args.require(F::In, "the snapshot to read");
    let format = parse_snapshot_format(&inv.args);
    let snap = load_snapshot_or_fail(&input);
    if let Some(resave) = inv.args.get(F::Resave) {
        write_snapshot(resave, &snap, format);
    }
    snapshot_summary(&input, &snap)
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

/// `snapshot diff`: the structural delta between two snapshots.
fn diff_main(inv: &Invocation) -> Report {
    let old = inv.args.require(F::Old, "the baseline snapshot");
    let new = inv.args.require(F::New, "the newer snapshot");
    let delta = TopologyDelta::between(&load_snapshot_or_fail(&old), &load_snapshot_or_fail(&new));
    Report {
        json: Json::object()
            .with("identical", delta.is_empty())
            .with("change_count", delta.change_count())
            .with("added_devices", hex_arr(&delta.added_devices))
            .with("removed_devices", hex_arr(&delta.removed_devices))
            .with("recabled_devices", hex_arr(&delta.recabled_devices))
            .with("added_links", link_arr(&delta.added_links))
            .with("removed_links", link_arr(&delta.removed_links)),
        text: if delta.is_empty() {
            "identical\n".to_string()
        } else {
            format!("{delta}\n")
        },
        failure: None,
    }
}

/// `snapshot verify`: warm-start discovery seeded from the cached
/// snapshot — one probe per cached device, escalating around
/// mismatches.
fn verify_main(inv: &Invocation) -> Report {
    let topo = inv.topo();
    let input = inv.args.require(F::In, "the cached snapshot");
    let scenario = inv
        .scenario
        .clone()
        .with_warm_fallback_threshold(inv.args.unit(F::Threshold, 0.25, "a number"))
        .with_snapshot(load_snapshot_or_fail(&input));
    let run = Bench::start(topo, &scenario, &[]).last_run();
    let trigger = match run.trigger {
        DiscoveryTrigger::WarmStart => "warm-start",
        _ => "cold",
    };
    Report {
        json: Json::object()
            .with("topology", topo.name.as_str())
            .with("snapshot", input.as_str())
            .with("trigger", trigger)
            .with("probes_verified", run.probes_verified)
            .with("verify_mismatches", run.verify_mismatches)
            .with("warm_fallback", run.warm_fallback)
            .with("devices_found", run.devices_found)
            .with("links_found", run.links_found)
            .with("requests", run.requests_sent)
            .with("discovery_time_s", run.discovery_time().as_secs_f64()),
        text: format!(
            "{trigger}: {} verified, {} mismatched{}; {} devices, {} links in {:.3}ms\n",
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
        ),
        failure: None,
    }
}

/// Shared `--trace <path>` wiring: one collector for the whole
/// invocation; per-algorithm runs are delimited by their
/// run-started/run-finished records.
struct TraceOut {
    sink: Option<(String, std::rc::Rc<std::cell::RefCell<RingCollector>>)>,
    handle: TraceHandle,
}

impl TraceOut {
    fn to(path: Option<&str>) -> TraceOut {
        let sink = path.map(|p| (p.to_string(), RingCollector::shared(1 << 20)));
        let handle = sink
            .as_ref()
            .map(|(_, c)| TraceHandle::to(c.clone()))
            .unwrap_or_default();
        TraceOut { sink, handle }
    }

    fn save(&self) {
        let Some((path, collector)) = &self.sink else {
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

/// `churn`: one continuous-churn run — Poisson link-flap and device
/// remove/re-add streams disturb the fabric while the FM assimilates
/// the PI-5 storm incrementally. Exits 1 unless the run ends converged:
/// full topology, zero divergence at quiescence, and a churned database
/// equal to a cold re-discovery of the end-state fabric.
fn churn_main(inv: &Invocation) -> Report {
    let (topo, args) = (inv.topo(), &inv.args);
    let flap_rate: f64 = args.num(F::FlapRate, 1_500.0, "a number");
    let flap_down_us: u64 = args.num(F::FlapDownUs, 200, "an integer");
    let device_rate: f64 = args.num(F::DeviceRate, 300.0, "a number");
    let device_down_us: u64 = args.num(F::DeviceDownUs, 1_000, "an integer");
    let start_us: u64 = args.num(F::StartUs, 6_000, "an integer");
    let horizon_us: u64 = args.num(F::HorizonUs, 4_000, "an integer");
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
        .with_seed(inv.scenario.seed)
        .with_exempt(default_churn_exempt(topo));
    if plan.is_inert() {
        fail("churn wants a live plan: give --flap-rate or --device-rate a positive value");
    }
    let scenario = inv
        .scenario
        .clone()
        .with_partial_assimilation(true)
        .with_churn(plan);
    let out = churn_experiment(topo, &scenario);
    let converged = out.full_topology && !out.diverged_at_end && out.cold_db_matches;
    let failure = (!converged).then(|| {
        let mut why = String::from("churn: the run did not end converged");
        if SimTime::from_us(start_us) < out.initial_finished_at {
            // The initial discovery launches 1 us after bring-up stops at
            // half the window start, so the window clears a discovery from
            // twice its length on; a quiet twin (no plan, no trace) gives
            // the length this one would have had undisturbed.
            let quiet = inv.scenario.clone().with_trace(TraceHandle::disabled());
            let undisturbed = Bench::start(topo, &quiet, &[]).last_run().discovery_time();
            why += &format!(
                "\nchurn: the window opened at {start_us} us, before the initial discovery \
                 finished at {:.0} us; --start-us {:.0} is the smallest that clears it \
                 (docs/CHURN.md, \"Placing the window\")",
                out.initial_finished_at.as_micros_f64(),
                (undisturbed.as_micros_f64() * 2.0).ceil() + 2.0,
            );
        }
        why
    });
    Report {
        json: Json::object()
            .with("topology", topo.name.as_str())
            .with("devices", topo.node_count())
            .with("algorithm", scenario.algorithm.name())
            .with("seed", scenario.seed)
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
            .with("sim_time_s", out.sim_time.as_secs_f64()),
        text: format!(
            "churn {}: {} churn events, {} PI-5 events absorbed ({:.0} events/sec) \
             across {} assimilation runs\n  \
             diverged for {:.3}ms total over {} windows (max {:.3}ms), \
             converged {:.3}ms after the last event\n  \
             final database: {} devices, {} links; cold re-discovery {}\n",
            topo.name,
            out.churn_events,
            out.events_absorbed,
            out.events_per_sec,
            out.assimilation_runs,
            out.divergence_total.as_secs_f64() * 1e3,
            out.divergence_windows,
            out.divergence_max.as_secs_f64() * 1e3,
            out.convergence_lag.as_secs_f64() * 1e3,
            out.final_devices,
            out.final_links,
            if out.cold_db_matches {
                "matches"
            } else {
                "DIFFERS"
            },
        ),
        failure,
    }
}

/// `traffic`: initial discovery under a deterministic data-plane
/// workload ([`TrafficPlan`]). Runs a quiet twin first so the report
/// carries the paper's headline — how much the offered load moved the
/// discovery time — next to the delivery metrics. Every field is
/// simulation-derived, so the output is byte-identical across
/// `--kernel` values. Exits 1 when the loaded discovery misses devices.
fn traffic_main(inv: &Invocation) -> Report {
    let (topo, args) = (inv.topo(), &inv.args);
    let load = args.unit(F::Load, 0.2, "a number");
    let flows: u32 = args.num(F::Flows, 1, "an integer");
    if flows == 0 {
        fail("--flows must be at least 1");
    }
    let payload: u16 = args.num(F::Payload, 512, "an integer");
    if payload == 0 {
        fail("--payload must be at least 1 byte");
    }
    let arrivals = match args.get(F::Arrivals) {
        Some("poisson") | None => Arrivals::Poisson,
        Some("cbr") => Arrivals::Cbr,
        Some(other) => fail(format!("unknown arrival process {other:?} (poisson, cbr)")),
    };
    let mcast_groups: u16 = args.num(F::McastGroups, 0, "an integer");
    if mcast_groups > 64 {
        fail(format!(
            "--mcast-groups must be at most 64, got {mcast_groups}"
        ));
    }
    let mcast_load = args.unit(F::McastLoad, 0.05, "a number");
    let switch_load = args.unit(F::SwitchLoad, 0.0, "a number");
    let start_us: u64 = args.num(F::StartUs, 0, "an integer");
    let duration_us: u64 = args.num(F::DurationUs, 8_000, "an integer");
    let mut plan = TrafficPlan::none()
        .with_unicast(load, payload)
        .with_flows(flows)
        .with_arrivals(arrivals)
        .with_switch_sourced(switch_load)
        .with_window(
            SimDuration::from_us(start_us),
            SimDuration::from_us(duration_us),
        )
        .with_seed(inv.scenario.seed ^ 0x7AF1C);
    if mcast_groups > 0 {
        plan = plan.with_multicast(mcast_groups, mcast_load);
    }
    // Quiet twin: same scenario, no plan, no trace — the delta is the
    // headline.
    let quiet = inv.scenario.clone().with_trace(TraceHandle::disabled());
    let quiet_time = Bench::start(topo, &quiet, &[])
        .last_run()
        .discovery_time()
        .as_secs_f64();
    let scenario = inv.scenario.clone().with_traffic_plan(plan);
    let mut bench = Bench::start(topo, &scenario, &[]);
    let run = bench.last_run();
    let summary = summarize_traffic(&bench.fabric, &scenario.traffic);
    let loaded_time = run.discovery_time().as_secs_f64();
    let delta_pct = if quiet_time > 0.0 {
        100.0 * (loaded_time - quiet_time) / quiet_time
    } else {
        0.0
    };
    let full_topology = run.devices_found == topo.node_count();
    let mut report = Report {
        json: Json::object()
            .with("topology", topo.name.as_str())
            .with("devices", topo.node_count())
            .with("algorithm", scenario.algorithm.name())
            .with("seed", scenario.seed)
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
            .with("data_queue_peak", summary.data_queue_peak),
        text: format!(
            "traffic {}: discovery {:.3}ms quiet -> {:.3}ms at {:.0}% offered load ({:+.2}%)\n  \
             {} of {} packets delivered ({:.1} Mb/s goodput), \
             latency p50 {:.2}us / p99 {:.2}us\n  \
             {} multicast deliveries from {} group packets, {} credit stalls, \
             queue peaks mgmt {} / data {}\n",
            topo.name,
            quiet_time * 1e3,
            loaded_time * 1e3,
            load * 100.0,
            delta_pct,
            summary.flow_delivered,
            summary.flow_injected,
            summary.goodput_bps / 1e6,
            summary.latency_p50_us,
            summary.latency_p99_us,
            summary.mcast_delivered,
            summary.mcast_injected,
            summary.credit_stalls,
            summary.mgmt_queue_peak,
            summary.data_queue_peak,
        ),
        failure: (!full_topology).then(|| {
            format!(
                "traffic: discovery found {} of {} devices under load",
                run.devices_found,
                topo.node_count()
            )
        }),
    };
    // The report is the cut where discovery settled. The rest of the
    // window runs to idle untraced, so neither output gains a byte; a
    // data plane that stopped delivering still holds packets there.
    bench
        .fabric
        .set_trace(TraceHandle::disabled(), SimDuration::ZERO);
    bench.fabric.run_until_idle();
    let queued = bench.fabric.queued_packets();
    if queued > 0 {
        let c = bench.fabric.counters();
        let stalled = format!(
            "traffic: the data plane stalled with {queued} packets still queued at idle \
             ({} of {} flow packets delivered)",
            c.flow_delivered, c.flow_injected
        );
        report.failure = Some(match report.failure {
            Some(lost) => format!("{lost}\n{stalled}"),
            None => stalled,
        });
    }
    report
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    let args = Args::walk(&argv);
    let grid = (args.mode == SWEEP).then(|| parse_grid(&args));
    let inv = Invocation::parse(args, grid.as_ref().map(|spec| spec.base.clone()));
    let report = match inv.args.mode {
        CHURN => churn_main(&inv),
        TRAFFIC => traffic_main(&inv),
        SWEEP => sweep_main(&inv, grid.expect("sweep mode built its grid")),
        STRESS => stress_main(&inv),
        CERTIFY => certify_main(&inv),
        SAVE => save_main(&inv),
        LOAD => load_main(&inv),
        DIFF => diff_main(&inv),
        VERIFY => verify_main(&inv),
        _ => discover_main(&inv),
    };
    // The one stdout writer. A reader that went away (`| head -1`) is
    // not an error: the run keeps its own exit status, quietly.
    let text = if inv.args.has(F::Json) {
        report.json.to_string_pretty() + "\n"
    } else {
        report.text
    };
    let mut stdout = std::io::stdout().lock();
    let _ = stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush());
    inv.trace.save();
    if let Some(why) = report.failure {
        eprintln!("{why}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The `--flag` tokens of a piece of usage text.
    fn flags_in(text: &str) -> BTreeSet<&str> {
        text.split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
            .filter(|t| t.len() > 2 && t.starts_with("--"))
            .collect()
    }

    #[test]
    fn usage_and_flag_table_document_each_other() {
        // Each option block of USAGE and the modes it describes.
        let sections: &[(&str, Modes)] = &[
            ("\noptions:", DISCOVER),
            ("\nfault options", FAULTY),
            ("\nchurn options", CHURN),
            ("\ntraffic options", TRAFFIC),
            ("\nsweep options", SWEEP),
            ("\nstress options", STRESS),
            ("\ncertify options", CERTIFY),
            ("\nsnapshot options", SAVE | LOAD | DIFF | VERIFY),
        ];
        let starts: Vec<usize> = sections
            .iter()
            .map(|(header, _)| USAGE.find(header).expect(header))
            .collect();
        let blocks: Vec<(BTreeSet<&str>, Modes)> = sections
            .iter()
            .enumerate()
            .map(|(i, &(_, modes))| {
                let end = starts.get(i + 1).copied().unwrap_or(USAGE.len());
                (flags_in(&USAGE[starts[i]..end]), modes)
            })
            .collect();
        for &(_, name, _, modes) in FLAGS {
            assert!(
                blocks
                    .iter()
                    .any(|(flags, described)| described & modes != 0 && flags.contains(name)),
                "{name} is not documented under a mode that consumes it"
            );
        }
        for token in flags_in(USAGE) {
            assert!(
                FLAGS.iter().any(|f| f.1 == token),
                "USAGE mentions {token}, which is not in the flag table"
            );
        }
    }
}
