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
//! asi-fabric-sim --topology mesh:3x3 --loss 0.05 --loss-model bursty \
//!     --retry-policy exponential --retries 10
//! asi-fabric-sim sweep --grid faults --quick --jobs 4 --json
//! asi-fabric-sim sweep --grid scale --jobs 2 --csv
//! asi-fabric-sim stress --topology mesh:64x64 --algorithm parallel --json
//! asi-fabric-sim snapshot save --topology mesh:3x3 --out fabric.snap
//! asi-fabric-sim snapshot verify --topology mesh:3x3 --in fabric.snap --json
//! ```
//!
//! The command line is declared once: every mode in [`MODES`], every
//! flag in [`FLAGS`], and the usage text is rendered from the two.
//! [`Args::walk`] checks every token against the flag table,
//! [`Invocation::parse`] turns the values into one [`Scenario`] plus the
//! mode's extras, and each mode is *run → verdict → report* over that.
//! Every malformed, unknown, misplaced or repeated flag produces a
//! one-line `error: ...` on stderr plus the usage text and exit code 2 —
//! never a panic.

use advanced_switching::core::{snapshot_db, Algorithm, DiscoveryTrigger, FmAgent, RetryPolicy};
use advanced_switching::fabric::{Arrivals, ChurnPlan, Fabric, FaultPlan, LossModel, TrafficPlan};
use advanced_switching::harness::{
    churn_experiment, db_matches_fabric, db_routes_execute, default_churn_exempt, load_snapshot,
    removable_switches, save_snapshot, save_trace_jsonl, sharded_discovery, summarize_traffic,
    sweep, Bench, ChangeMode, Json, RingCollector, Scenario, SnapshotFormat, SweepSpec,
};
use advanced_switching::sim::trace::TraceEvent;
use advanced_switching::sim::{SimDuration, SimRng, SimTime, TraceHandle};
use advanced_switching::state::{checksum_of, Snapshot, TopologyDelta};
use advanced_switching::topo::{
    design_fat_tree, dragonfly, fat_tree, irregular, mesh, torus, IrregularSpec, NodeId,
    PortCatalogue, Topology,
};
use std::fmt;
use std::io::Write;
use std::path::Path;

/// The one hand-written part of the usage text: the `--topology`
/// grammar, which no flag row can carry.
const TOPOLOGY_SPECS: &str = "
topology specs:
  mesh:<W>x<H>        2-D mesh of 16-port switches, one endpoint each (2..=64 per side)
  torus:<W>x<H>       2-D torus (2..=64 per side)
  fattree:<m>,<n>     m-port n-tree (m even, 2..=254; n 1..=8)
  irregular:<N>       random connected fabric with N switches (1..=4096)
  dragonfly:<k>,<m>   Swapped Dragonfly: k*m groups of k routers, 12 endpoints
                      per router, one global link per group pair (diameter 3)
  designed:<N>        automated two-layer fat-tree sized for N endpoints over
                      the stock port catalogue (see docs/TOPOLOGIES.md)
";

/// The usage text, rendered from [`MODES`] and [`FLAGS`]: the synopsis
/// with one summary line per mode, the topology grammar, then every
/// flag once with the modes that take it.
fn usage_text() -> String {
    let mut text = String::from(
        "usage: asi-fabric-sim [<mode>] [options]\n\n\
         modes (a malformed command line is one `error:` line plus this text, exit 2):\n",
    );
    for &(_, words, _, summary) in MODES {
        text += &format!("  {:<16} {summary}\n", mode_name(words));
    }
    text += TOPOLOGY_SPECS;
    text += "\noptions, each with the modes that take it:\n";
    for flag in FLAGS {
        let taking = MODES.iter().filter(|m| m.0 & flag.modes != 0);
        let modes: Vec<&str> = taking.map(|m| mode_name(m.1)).collect();
        let synopsis = format!("{} {}", flag.name, flag.value);
        let (synopsis, help, modes) = (synopsis.trim_end(), flag.help, modes.join(", "));
        text += &format!("  {synopsis:<29} {help}\n  {:29} [{modes}]\n", "");
    }
    text
}

/// A mode's name in the usage text: its words, or `default`.
fn mode_name(words: &str) -> &str {
    Some(words).filter(|w| !w.is_empty()).unwrap_or("default")
}

fn usage() -> ! {
    let _ = write!(std::io::stderr(), "{}", usage_text());
    std::process::exit(2)
}

/// Friendly fatal error: one line on stderr, then the usage text, exit 2
/// (also when stderr has gone away — a closed pipe is not a panic).
fn fail(msg: impl fmt::Display) -> ! {
    let _ = write!(std::io::stderr(), "error: {msg}\n\n{}", usage_text());
    std::process::exit(2)
}

/// One bit per mode, so the modes that consume a flag form a mask.
type Modes = u16;

/// Declares each mode's bit and its [`MODES`] row from one list.
macro_rules! modes {
    ($($id:ident $bit:literal $words:literal $hint:literal $summary:literal;)*) => {
        $(const $id: Modes = 1 << $bit;)*
        const EVERY: Modes = $($id)|*;
        /// Each mode: its bit, the words that select it, the hint its
        /// "--topology is required" error carries, and its usage summary
        /// (which ends with its exit rule).
        const MODES: &[(Modes, &str, &str, &str)] = &[$(($id, $words, $hint, $summary)),*];
    };
}

modes! {
    DISCOVER 0 "" "e.g. --topology mesh:3x3"
        "one discovery, or one --change assimilation, per --algorithm; exit 0";
    CHURN 1 "churn" "e.g. churn --topology mesh:3x3"
        "flaps and device churn on a live fabric; exit 1 unless it ends converged";
    TRAFFIC 2 "traffic" "e.g. traffic --topology mesh:3x3"
        "loaded discovery; exit 1 unless the database equals the fabric and packets drain";
    SWEEP 3 "sweep" "" "a deterministic grid, byte-identical for any --jobs; exit 0";
    STRESS 4 "stress" "e.g. stress --topology mesh:64x64"
        "one large discovery, wall clock included; exit 1 unless the database equals the fabric";
    SAVE 5 "snapshot save" "e.g. snapshot save --topology mesh:3x3"
        "a cold discovery, its snapshot written to --out; exit 0";
    LOAD 6 "snapshot load" "" "print the snapshot at --in, or re-write it with --resave; exit 0";
    DIFF 7 "snapshot diff" "" "the structural delta between --old and --new; exit 0";
    VERIFY 8 "snapshot verify" "the live fabric to verify against"
        "warm start on --topology, seeded from --in; exit 0";
}

/// Modes that run one traced discovery on `--topology`.
const RUNS: Modes = DISCOVER | CHURN | TRAFFIC | STRESS | SAVE | VERIFY;
/// Modes that take the fault plan and retry policy.
const FAULTY: Modes = DISCOVER | SWEEP;

#[derive(Clone, Copy, PartialEq)]
enum Arity {
    /// Present or absent; no value.
    Switch,
    /// One value; giving the flag twice is an error.
    Value,
    /// One value per occurrence, any number of occurrences.
    Repeat,
}

/// One row of the flag table.
struct Flag {
    id: F,
    name: &'static str,
    arity: Arity,
    /// The modes that consume the flag.
    modes: Modes,
    /// The value placeholder in the usage text (empty for a switch).
    value: &'static str,
    /// The flag's one-line help, defaults included.
    help: &'static str,
}

/// Declares the flag identifiers ([`F`]) and the flag table ([`FLAGS`])
/// from one list, so each flag's literal is written exactly once and
/// `FLAGS[f as usize]` is always `f`'s row.
macro_rules! flags {
    ($($id:ident $name:literal $arity:ident $modes:expr, $value:literal $help:literal;)*) => {
        #[derive(Clone, Copy, PartialEq)]
        enum F { $($id),* }
        /// The flag table, in usage-text order.
        const FLAGS: &[Flag] = &[$(Flag {
            id: F::$id,
            name: $name,
            arity: Arity::$arity,
            modes: $modes,
            value: $value,
            help: $help,
        }),*];
    };
}

flags! {
    Topology "--topology" Value RUNS, "<spec>" "fabric under test (required; specs above)";
    Algorithm "--algorithm" Value RUNS, "<name>"
        "serial-packet, serial-device, parallel (default), or all (default mode only, its default)";
    Change "--change" Value DISCOVER, "<change>"
        "none (default), remove or add; fault flags take none only";
    FmFactor "--fm-factor" Value RUNS | SWEEP, "<f>" "FM processing speed factor (default 1)";
    DeviceFactor "--device-factor" Value RUNS | SWEEP, "<f>" "device speed factor (default 1)";
    Seed "--seed" Value RUNS, "<n>" "RNG seed (default 0xA51)";
    Trace "--trace" Value RUNS, "<path>" "write a JSONL trace (docs/TRACE_FORMAT.md)";
    Json "--json" Switch EVERY, "" "emit JSON instead of text";
    Loss "--loss" Value FAULTY, "<p>" "mean per-hop loss in [0, 1) (default 0; docs/FAULTS.md)";
    LossModel "--loss-model" Value FAULTY, "<model>" "uniform (default) or bursty";
    Corrupt "--corrupt" Value FAULTY, "<p>" "completion corruption probability (default 0)";
    Duplicate "--duplicate" Value FAULTY, "<p>" "completion duplication probability (default 0)";
    Flap "--flap" Repeat FAULTY, "<at_us>:<dev>:<port>:<down_us>" "schedule a link flap";
    Hang "--hang" Repeat FAULTY, "<at_us>:<dev>:<dur_us>" "schedule a device hang";
    Slow "--slow" Repeat FAULTY, "<at_us>:<dev>:<factor>:<dur_us>" "schedule a device slowdown";
    RetryPolicy "--retry-policy" Value FAULTY, "<policy>" "fixed (default), exponential, deadline";
    Retries "--retries" Value FAULTY, "<n>" "retry budget for fixed/exponential (default 0)";
    DeadlineUs "--deadline-us" Value FAULTY, "<us>" "per-request budget for the deadline policy";
    TimeoutUs "--timeout-us" Value FAULTY, "<us>" "request timeout under a live plan (default 800)";
    FlapRate "--flap-rate" Value CHURN, "<f>" "link flaps per second (default 1500; docs/CHURN.md)";
    FlapDownUs "--flap-down-us" Value CHURN, "<us>" "a flapped link's down time (default 200)";
    DeviceRate "--device-rate" Value CHURN, "<f>" "device remove/re-adds per second (default 300)";
    DeviceDownUs "--device-down-us" Value CHURN, "<us>" "a removed device's absence (default 1000)";
    StartUs "--start-us" Value CHURN | TRAFFIC, "<us>"
        "churn window start, its first half left to the initial discovery (default 6000), \
         or injection window start (default 0)";
    HorizonUs "--horizon-us" Value CHURN, "<us>" "churn window length (default 4000)";
    Load "--load" Value TRAFFIC, "<f>"
        "unicast load per source, a fraction of its link (default 0.2; docs/TRAFFIC.md)";
    Flows "--flows" Value TRAFFIC, "<n>" "unicast flows per source endpoint (default 1)";
    Payload "--payload" Value TRAFFIC, "<bytes>" "data payload size (default 512)";
    Arrivals "--arrivals" Value TRAFFIC, "<process>" "poisson (default) or cbr";
    SwitchLoad "--switch-load" Value TRAFFIC, "<f>" "load sourced by each switch (default 0)";
    DurationUs "--duration-us" Value TRAFFIC, "<us>" "injection window length (default 8000)";
    Grid "--grid" Value SWEEP, "<name>"
        "fig5, fig6, faults, warmstart, smoke (default), scale, churn or load";
    Quick "--quick" Switch SWEEP, "" "smaller topology set, fewer repetitions";
    Jobs "--jobs" Value SWEEP, "<n>" "worker threads (default: all cores)";
    Csv "--csv" Switch SWEEP, "" "emit CSV instead of a text table";
    Fms "--fms" Value SWEEP | STRESS, "<n>"
        "fabric managers, at most one per endpoint and 255 (default 1; docs/DISTRIBUTED.md)";
    Out "--out" Value SAVE, "<path>" "where to write the snapshot (required)";
    Format "--format" Value SAVE | LOAD, "<format>" "binary (default) or jsonl";
    In "--in" Value LOAD | VERIFY, "<path>" "the snapshot to read (required)";
    Resave "--resave" Value LOAD, "<path>" "re-write the loaded snapshot there";
    Old "--old" Value DIFF, "<path>" "the baseline snapshot (required)";
    New "--new" Value DIFF, "<path>" "the newer snapshot (required)";
    Threshold "--threshold" Value VERIFY, "<f>" "mismatch share for a cold fallback (default 0.25)";
}

impl F {
    fn row(self) -> &'static Flag {
        &FLAGS[self as usize]
    }

    fn name(self) -> &'static str {
        self.row().name
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
                None => {
                    let firsts = MODES.iter().filter_map(|m| m.1.split(' ').next());
                    let mut known: Vec<&str> = firsts.filter(|w| !w.is_empty()).collect();
                    known.dedup();
                    fail(format!("unknown mode {words:?} ({})", known.join(", ")))
                }
            }
        };
        let mut values: Vec<(F, String)> = Vec::new();
        let mut tokens = argv[words.split_whitespace().count()..].iter();
        while let Some(token) = tokens.next() {
            let Some(row) = FLAGS.iter().find(|f| f.name == token) else {
                fail(format!("unknown option {token:?}"));
            };
            let (flag, name, arity) = (row.id, row.name, row.arity);
            if row.modes & mode == 0 {
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
        self.checked(flag, default, what, "in [0, 1]", |v| {
            (0.0..=1.0).contains(&v)
        })
    }

    /// Parses the flag's value and holds it to `ok`, which `range`
    /// names in the error: a value the library would reject with a
    /// panic (a zero speed factor, a `nan` rate) is a usage error here.
    fn checked<T>(&self, flag: F, default: T, what: &str, range: &str, ok: fn(T) -> bool) -> T
    where
        T: std::str::FromStr + std::fmt::Display + Copy,
    {
        let v = self.num(flag, default, what);
        if !ok(v) {
            fail(format!("{} must be {range}, got {v}", flag.name()));
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

/// Parses a scheduled fault's device field. Given the fabric the run
/// builds, the device must be one of its nodes: a fault on a device the
/// fabric lacks would do nothing.
fn spec_device(flag: F, field: &str, topo: Option<&Topology>) -> u32 {
    let device = spec_field(flag, field, "a device id");
    if let Some(nodes) = topo.map(Topology::node_count) {
        if device as usize >= nodes {
            fail(format!(
                "{}: the fabric has no device {device} (it has {nodes})",
                flag.name()
            ));
        }
    }
    device
}

/// Composes the fault plan from the loss flags, the completion
/// corruption/duplication probabilities, and any scheduled
/// flap/hang/slow events, checked against `topo` when the mode knows
/// its fabric (the sweep builds one per cell).
fn parse_fault_plan(args: &Args, topo: Option<&Topology>) -> FaultPlan {
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
        let device = spec_device(F::Flap, p[1], topo);
        let port: u8 = spec_field(F::Flap, p[2], "a port number");
        if let Some(node) = topo.and_then(|t| t.node(NodeId(device))) {
            if port >= node.ports {
                fail(format!(
                    "--flap: device {device} has no port {port} (it has {})",
                    node.ports
                ));
            }
        }
        plan = plan.with_link_flap(
            spec_us(F::Flap, p[0], "a time in µs"),
            device,
            port,
            spec_us(F::Flap, p[3], "a duration in µs"),
        );
    }
    for spec in args.all(F::Hang) {
        let p = split_spec(F::Hang, spec, "<at_us>:<device>:<dur_us>", 3);
        plan = plan.with_device_hang(
            spec_us(F::Hang, p[0], "a time in µs"),
            spec_device(F::Hang, p[1], topo),
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
            spec_device(F::Slow, p[1], topo),
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

/// `--change`: the initial discovery, or the assimilation of one
/// switch removal or addition.
fn parse_change(args: &Args) -> ChangeMode {
    match args.get(F::Change) {
        Some("none") | None => ChangeMode::Initial,
        Some("remove") => ChangeMode::Remove,
        Some("add") => ChangeMode::Add,
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
    /// What the run measures: `--change`, or the sweep grid's own mode.
    change: ChangeMode,
    /// The scenario spec. Modes that loop over algorithms stamp each
    /// one onto a copy; `sweep` hands it to the grid as its base.
    scenario: Scenario,
    trace: TraceOut,
}

impl Invocation {
    /// `grid` is the sweep grid whose base scenario the flags refine;
    /// every other mode starts from the paper defaults.
    fn parse(args: Args, grid: Option<&SweepSpec>) -> Invocation {
        let mode = args.mode;
        let &(_, words, hint, _) = MODES.iter().find(|m| m.0 == mode).expect("a known mode");
        let seed: u64 = args.num(F::Seed, 0xA51, "an integer");
        let topology = (F::Topology.row().modes & mode != 0).then(|| {
            let spec = args.require(F::Topology, hint);
            let topo = parse_topology(&spec, seed).unwrap_or_else(|e| fail(e));
            (spec, topo)
        });
        let single = (mode != DISCOVER).then(|| words.split(' ').next().unwrap_or(""));
        let algorithms = parse_algorithms(args.get(F::Algorithm), single);
        let trace = TraceOut::to(args.get(F::Trace));

        let mut scenario = match grid {
            Some(grid) => grid.base.clone(),
            None => Scenario::new(algorithms[0]).with_seed(seed),
        };
        let factor = |flag, default| {
            args.checked(flag, default, "a number", "finite and > 0", |v: f64| {
                v.is_finite() && v > 0.0
            })
        };
        scenario.fm_factor = factor(F::FmFactor, scenario.fm_factor);
        scenario.device_factor = factor(F::DeviceFactor, scenario.device_factor);
        scenario.trace = trace.handle.clone();
        // Fault flags replace a grid's own plan only when they compose a
        // live one (the `faults` grid carries defaults; any other grid
        // stays loss-free unless asked).
        let faults = parse_fault_plan(&args, topology.as_ref().map(|(_, topo)| topo));
        let live = !faults.is_inert();
        if live || grid.is_none() {
            scenario.faults = faults;
        }
        if let Some(retry) = parse_retry(&args) {
            scenario.retry = retry;
        }
        // A live plan measures the initial discovery, with its short
        // timeout; a change run would wait for PI-5 reports the plan can
        // lose.
        let timeout_us: u64 = args.num(F::TimeoutUs, 800, "an integer");
        let change = grid.map_or_else(|| parse_change(&args), |g| g.change);
        if live && change != ChangeMode::Initial {
            let change = change.name();
            fail(format!(
                "fault flags measure the initial discovery, not {change} changes"
            ));
        }
        if live {
            scenario.request_timeout = SimDuration::from_us(timeout_us);
        }
        // A change removes or hot-adds a switch besides the manager's own.
        if let Some((spec, topo)) = &topology {
            if change != ChangeMode::Initial && removable_switches(topo).is_empty() {
                fail(format!(
                    "--change {} needs a switch besides the manager's own, and {spec} has none",
                    change.name()
                ));
            }
        }
        Invocation {
            args,
            topology,
            algorithms,
            change,
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

/// The default mode: one discovery (or change assimilation) per
/// algorithm, reported side by side, each measured by the
/// [`Bench::measure`] the sweep's cells run through.
fn discover_main(inv: &Invocation) -> Report {
    let topo = inv.topo();
    let change = inv.change;
    let faulty = !inv.scenario.faults.is_inert();
    let label = match change {
        ChangeMode::Initial if faulty => "faults",
        ChangeMode::Initial => "none",
        change => change.name(),
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
        let (_, run) = Bench::measure(topo, &scenario, change.removes(0));
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
    spec.base = inv.scenario.clone();
    if inv.args.has(F::Fms) {
        let smallest = spec.topologies.iter().map(|t| t.endpoints()).min();
        let fms = parse_fms(&inv.args, smallest.unwrap_or(0));
        // A sharded discovery is an initial cold one (`SweepSpec::fm_counts`).
        let cold = spec.change == ChangeMode::Initial && !spec.warm_axis;
        if fms > 1 && !(cold && spec.base.churn.is_inert()) {
            fail(format!(
                "--fms above 1 runs an initial cold discovery without churn, \
                 which grid {} does not measure",
                spec.name
            ));
        }
        if fms > 1 && !spec.base.faults.is_inert() {
            fail("--fms above 1 runs a fault-free discovery, but this sweep carries a live fault plan");
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

/// `stress`: one large-fabric discovery with wall-clock throughput
/// metrics. `wall_time_s`, `events_per_sec` and `peak_rss_mb` depend on
/// the machine and must never be byte-compared; the deterministic
/// counterpart is `sweep --grid scale`. `full_topology` compares the
/// manager's database with the live fabric, every link and port number
/// included, and executes every route it stores there; it is the exit
/// status: the CI certification gate.
///
/// With `--fms N` the run is one election-based sharded discovery: the
/// headline time is election kick-off to the certified merged database,
/// the checksum is the merge certificate's canonical-snapshot checksum,
/// so two runs with the same seed can be compared on it, and the verdict
/// judges the merged database of the manager holding it.
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
    let (sim_events, events_by_kind, devices, links, time_s, managers, detail, full) = if fms > 1 {
        let (fabric, holder, out) = sharded_discovery(topo, fms, &inv.scenario);
        let merged = fabric.agent_as::<FmAgent>(holder).and_then(FmAgent::db);
        let full = merged.is_some_and(|db| {
            db_matches_fabric(db, &fabric, holder, topo) && db_routes_execute(db, &fabric, topo)
        });
        json = json
            .with("fms", fms)
            .with("full_topology", full)
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
            full,
        )
    } else {
        let (bench, run) = Bench::measure(topo, &inv.scenario, None);
        let db = bench.db();
        let full = db_matches_fabric(db, &bench.fabric, bench.fm, topo)
            && db_routes_execute(db, &bench.fabric, topo);
        json = json
            .with("full_topology", full)
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
            full,
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
        failure: (!full).then(|| {
            format!(
                "stress: the database ({devices} of {total} devices, {links} links) \
                 differs from the live fabric"
            )
        }),
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
    let rate = |flag, default| {
        args.checked(flag, default, "a number", "finite and >= 0", |v: f64| {
            v.is_finite() && v >= 0.0
        })
    };
    let down_us = |flag, default| args.checked(flag, default, "an integer", "> 0", |v: u64| v > 0);
    let flap_rate = rate(F::FlapRate, 1_500.0);
    let flap_down_us = down_us(F::FlapDownUs, 200);
    let device_rate = rate(F::DeviceRate, 300.0);
    let device_down_us = down_us(F::DeviceDownUs, 1_000);
    let start_us: u64 = args.num(F::StartUs, 6_000, "an integer");
    let horizon_us: u64 = args.num(F::HorizonUs, 4_000, "an integer");
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
    let converged = out.converged();
    let failure = (!converged).then(|| {
        let mut why = String::from("churn: the run did not end converged");
        if SimTime::from_us(start_us) < out.configured_at {
            // The initial discovery launches 1 us after bring-up stops at
            // half the window start, and PI-5 configuration follows it,
            // so the window clears both from twice their length on; a
            // quiet twin (no plan, no trace) gives the length they would
            // have had undisturbed: from its discovery's start to its
            // configuration's drain.
            let quiet = inv.scenario.clone().with_trace(TraceHandle::disabled());
            let mut twin = Bench::start(topo, &quiet, &[]);
            twin.configure_pi5_routes();
            let fm = twin.fm_agent();
            let configured = fm.pi5_routes_configured_at().expect("the twin configured");
            let undisturbed = configured.saturating_since(fm.runs()[0].started_at);
            why += &format!(
                "\nchurn: the window opened at {start_us} us, before the initial discovery \
                 and its PI-5 configuration finished at {:.0} us; --start-us {:.0} is the \
                 smallest that clears it (docs/CHURN.md, \"Placing the window\")",
                out.configured_at.as_micros_f64(),
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
/// simulation-derived, so the same invocation prints the same bytes.
/// Exits 1 when the loaded discovery's database differs from the live
/// fabric.
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
    let (arrivals, arrivals_name) = match args.get(F::Arrivals) {
        Some("poisson") | None => (Arrivals::Poisson, "poisson"),
        Some("cbr") => (Arrivals::Cbr, "cbr"),
        Some(other) => fail(format!("unknown arrival process {other:?} (poisson, cbr)")),
    };
    let switch_load = args.unit(F::SwitchLoad, 0.0, "a number");
    let start_us: u64 = args.num(F::StartUs, 0, "an integer");
    let duration_us: u64 = args.num(F::DurationUs, 8_000, "an integer");
    let plan = TrafficPlan::none()
        .with_unicast(load, payload)
        .with_flows(flows)
        .with_arrivals(arrivals)
        .with_switch_sourced(switch_load)
        .with_window(
            SimDuration::from_us(start_us),
            SimDuration::from_us(duration_us),
        )
        .with_seed(inv.scenario.seed ^ 0x7AF1C);
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
    let counters = summary.counters;
    let loaded_time = run.discovery_time().as_secs_f64();
    let delta_pct = if quiet_time > 0.0 {
        100.0 * (loaded_time - quiet_time) / quiet_time
    } else {
        0.0
    };
    let db = bench.db();
    let full_topology = db_matches_fabric(db, &bench.fabric, bench.fm, topo)
        && db_routes_execute(db, &bench.fabric, topo);
    let mut report = Report {
        json: Json::object()
            .with("topology", topo.name.as_str())
            .with("devices", topo.node_count())
            .with("algorithm", scenario.algorithm.name())
            .with("seed", scenario.seed)
            .with("load", load)
            .with("flows_per_source", flows)
            .with("payload", payload)
            .with("arrivals", arrivals_name)
            .with("duration_us", duration_us)
            .with("full_topology", full_topology)
            .with("devices_found", run.devices_found)
            .with("links_found", run.links_found)
            .with("requests", run.requests_sent)
            .with("quiet_discovery_time_s", quiet_time)
            .with("discovery_time_s", loaded_time)
            .with("discovery_delta_pct", delta_pct)
            .with("flow_injected", counters.flow_injected)
            .with("flow_delivered", counters.flow_delivered)
            .with("flow_bytes", counters.flow_bytes)
            .with("goodput_mbps", summary.goodput_bps / 1e6)
            .with("latency_p50_us", summary.latency_p50_us)
            .with("latency_p99_us", summary.latency_p99_us)
            .with("credit_stalls", counters.credit_stalls)
            .with("mgmt_queue_peak", counters.mgmt_queue_peak)
            .with("data_queue_peak", counters.data_queue_peak),
        text: format!(
            "traffic {}: discovery {:.3}ms quiet -> {:.3}ms at {:.0}% offered load ({:+.2}%)\n  \
             {} of {} packets delivered ({:.1} Mb/s goodput), \
             latency p50 {:.2}us / p99 {:.2}us\n  \
             {} credit stalls, queue peaks mgmt {} / data {}\n",
            topo.name,
            quiet_time * 1e3,
            loaded_time * 1e3,
            load * 100.0,
            delta_pct,
            counters.flow_delivered,
            counters.flow_injected,
            summary.goodput_bps / 1e6,
            summary.latency_p50_us,
            summary.latency_p99_us,
            counters.credit_stalls,
            counters.mgmt_queue_peak,
            counters.data_queue_peak,
        ),
        failure: (!full_topology).then(|| {
            format!(
                "traffic: the loaded discovery's database ({} of {} devices, {} links) \
                 differs from the live fabric",
                run.devices_found,
                topo.node_count(),
                run.links_found
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
    let inv = Invocation::parse(args, grid.as_ref());
    let report = match inv.args.mode {
        CHURN => churn_main(&inv),
        TRAFFIC => traffic_main(&inv),
        SWEEP => sweep_main(&inv, grid.expect("sweep mode built its grid")),
        STRESS => stress_main(&inv),
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
