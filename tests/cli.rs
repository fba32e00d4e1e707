//! Integration tests for the `asi-fabric-sim` command-line runner.

use advanced_switching::harness::json::{parse, Json};
use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let (stdout, stderr, code) = run_coded(args);
    (stdout, stderr, code == Some(0))
}

fn run_coded(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_asi-fabric-sim"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn json_output_is_parseable_and_complete() {
    let (stdout, _, ok) = run(&["--topology", "mesh:3x3", "--algorithm", "all", "--json"]);
    assert!(ok);
    let reports: Json = parse(&stdout).expect("valid JSON");
    let arr = reports.as_array().expect("array of reports");
    assert_eq!(arr.len(), 3);
    for r in arr {
        assert_eq!(*r.get("devices_found"), 18);
        assert_eq!(*r.get("links_found"), 21);
        assert_eq!(*r.get("timeouts"), 0);
        assert!(r.get("discovery_time_s").as_f64().unwrap() > 0.0);
    }
    // Paper ordering holds through the CLI too.
    let t = |i: usize| arr[i].get("discovery_time_s").as_f64().unwrap();
    assert!(t(2) < t(1) && t(1) < t(0));
}

#[test]
fn change_scenario_reports_the_shrunken_fabric() {
    let (stdout, _, ok) = run(&[
        "--topology",
        "torus:3x3",
        "--algorithm",
        "parallel",
        "--change",
        "remove",
        "--json",
        "--seed",
        "5",
    ]);
    assert!(ok);
    let reports: Json = parse(&stdout).unwrap();
    // Torus stays connected: exactly the victim switch + its endpoint gone.
    assert_eq!(*reports.idx(0).get("devices_found"), 16);
    assert_eq!(*reports.idx(0).get("scenario"), "remove");
}

/// Lost requests are retried; a link flap at t = 0 stops bring-up
/// before any port trained, and the manager still starts after it.
#[test]
fn lossy_run_with_retries_recovers() {
    let base = [
        "--topology",
        "mesh:3x3",
        "--algorithm",
        "parallel",
        "--json",
    ];
    for faults in [
        &["--loss", "0.05", "--retries", "8", "--seed", "3"][..],
        &["--flap", "0:0:0:0"],
    ] {
        let (stdout, stderr, ok) = run(&[&base[..], faults].concat());
        assert!(ok, "{faults:?}: {stderr}");
        let reports: Json = parse(&stdout).unwrap();
        assert_eq!(
            *reports.idx(0).get("devices_found"),
            18,
            "{faults:?} must recover"
        );
    }
}

#[test]
fn table_output_mentions_all_algorithms() {
    let (stdout, _, ok) = run(&["--topology", "fattree:4,2", "--algorithm", "all"]);
    assert!(ok);
    for name in ["Serial Packet", "Serial Device", "Parallel"] {
        assert!(stdout.contains(name), "{name} missing from table output");
    }
}

#[test]
fn trace_flag_writes_a_reconciling_jsonl_dump() {
    use advanced_switching::harness::{trace_from_jsonl, TraceSummary};

    let dir = std::env::temp_dir().join("asi-cli-trace-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.jsonl");
    let (stdout, stderr, ok) = run(&[
        "--topology",
        "mesh:3x3",
        "--algorithm",
        "parallel",
        "--json",
        "--trace",
        path.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("records written"), "{stderr}");

    let records = trace_from_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let summary = TraceSummary::of(&records);
    let report = parse(&stdout).unwrap();
    // The trace reconciles with the CLI's own aggregate report.
    assert_eq!(
        summary.count("request-injected"),
        report.idx(0).get("requests").as_u64().unwrap()
    );
    assert_eq!(
        summary.count("device-discovered"),
        report.idx(0).get("devices_found").as_u64().unwrap()
    );
    assert_eq!(
        summary.count("request-timed-out"),
        report.idx(0).get("timeouts").as_u64().unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_arguments_exit_nonzero_with_usage() {
    let (_, stderr, ok) = run(&["--topology", "klein-bottle:4"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"));
    // One kernel: the usage text offers no choice of it.
    assert!(!stderr.contains("kernel"), "{stderr}");
}

/// Asserts `args` dies with exit code 2 and a friendly one-line error
/// (never a panic: panics abort with code 101 and a backtrace-style
/// message on stderr).
fn assert_usage_error(args: &[&str], needle: &str) {
    let (stdout, stderr, code) = run_coded(args);
    assert_eq!(code, Some(2), "args {args:?}: stderr = {stderr}");
    assert!(stdout.is_empty(), "args {args:?} wrote to stdout: {stdout}");
    assert!(
        stderr.contains(needle),
        "args {args:?}: expected {needle:?} in stderr, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "args {args:?} panicked: {stderr}"
    );
}

/// Table form of [`assert_usage_error`]: every `(extra args, needle)`
/// row is appended to `prefix` (a mode plus its required flags).
fn assert_usage_errors(prefix: &[&str], table: &[(&[&str], &str)]) {
    for (extra, needle) in table {
        assert_usage_error(&[prefix, extra].concat(), needle);
    }
}

#[test]
fn malformed_flags_report_friendly_errors_not_panics() {
    assert_usage_errors(
        &["--topology", "mesh:3x3"],
        &[
            (&["--seed", "banana"], "--seed must be an integer"),
            // Values may start with `-`: this is a bad value, not a flag.
            (&["--seed", "-3"], "--seed must be an integer"),
            (&["--fm-factor", "fast"], "--fm-factor must be a number"),
            (
                &["--device-factor", "2x"],
                "--device-factor must be a number",
            ),
            (&["--loss", "lots"], "--loss must be a probability"),
            (&["--loss", "1.5"], "--loss must be in [0, 1)"),
            (&["--retries", "many"], "--retries must be an integer"),
            (&["--algorithm", "psychic"], "unknown algorithm"),
            (&["--change", "rename"], "unknown change"),
            // A flag left dangling at the end is an error, not the default.
            (&["--seed"], "error: --seed is missing its value"),
        ],
    );
}

#[test]
fn malformed_fault_flags_report_friendly_errors_not_panics() {
    assert_usage_errors(
        &["--topology", "mesh:3x3"],
        &[
            (&["--loss-model", "gaussian"], "unknown loss model"),
            (&["--corrupt", "1.5"], "--corrupt must be in [0, 1]"),
            (&["--corrupt", "often"], "--corrupt must be a probability"),
            (&["--duplicate", "2"], "--duplicate must be in [0, 1]"),
            (
                &["--flap", "100:3"],
                "--flap wants <at_us>:<device>:<port>:<down_us>",
            ),
            (&["--flap", "soon:3:0:200"], "is not a time in \u{b5}s"),
            (
                &["--hang", "100:3:50:9"],
                "--hang wants <at_us>:<device>:<dur_us>",
            ),
            (&["--slow", "100:3:0:50"], "--slow factor must be positive"),
            (&["--slow", "100:3:-2:50"], "--slow factor must be positive"),
            // mesh:3x3 has 18 devices; its switches have 16 ports.
            (
                &["--flap", "10:99:0:10"],
                "error: --flap: the fabric has no device 99 (it has 18)",
            ),
            (
                &["--flap", "10:0:99:10"],
                "error: --flap: device 0 has no port 99 (it has 16)",
            ),
            (
                &["--hang", "10:999:10"],
                "error: --hang: the fabric has no device 999 (it has 18)",
            ),
            (&["--retry-policy", "psychic"], "unknown retry policy"),
            (
                &["--retry-policy", "deadline"],
                "--retry-policy deadline needs --deadline-us",
            ),
            (
                &["--retry-policy", "deadline", "--deadline-us", "soon"],
                "--deadline-us must be an integer",
            ),
            (
                &["--deadline-us", "5000"],
                "--deadline-us only applies with --retry-policy deadline",
            ),
            (&["--timeout-us", "fast"], "--timeout-us must be an integer"),
            // A live fault plan measures the initial discovery only: a
            // change run would wait for a PI-5 report the plan can lose.
            (
                &["--change", "remove", "--loss", "0.05"],
                "error: fault flags measure the initial discovery, not remove changes",
            ),
        ],
    );
    assert_usage_errors(
        &["sweep", "--quick"],
        &[(
            &["--grid", "fig6", "--loss", "0.05", "--retries", "8"],
            "error: fault flags measure the initial discovery, not alternate changes",
        )],
    );
}

/// A change removes or hot-adds a switch besides the one the manager
/// hangs off; on a fabric whose only switch is the manager's there is
/// none, and the command line says so instead of panicking.
#[test]
fn a_change_needs_a_switch_besides_the_managers() {
    assert_usage_errors(
        &[],
        &[
            (
                &["--topology", "irregular:1", "--change", "remove"],
                "error: --change remove needs a switch besides the manager's own, \
                 and irregular:1 has none",
            ),
            (
                &["--topology", "designed:1", "--change", "remove"],
                "error: --change remove needs a switch besides the manager's own, \
                 and designed:1 has none",
            ),
            (
                &["--topology", "fattree:2,1", "--change", "remove"],
                "error: --change remove needs a switch besides the manager's own, \
                 and fattree:2,1 has none",
            ),
            (
                &["--topology", "fattree:2,1", "--change", "add"],
                "error: --change add needs a switch besides the manager's own, \
                 and fattree:2,1 has none",
            ),
        ],
    );
}

/// Numbers that parse but that the library would refuse with an assert
/// (a zero speed factor, a `nan` churn rate, a zero down time) are
/// usage errors, not exit-101 panics — in `sweep`, not even on a worker.
#[test]
fn out_of_range_numbers_report_friendly_errors_not_panics() {
    for prefix in [
        &["--topology", "mesh:3x3"][..],
        &["stress", "--topology", "mesh:3x3"],
        &["sweep", "--quick", "--grid", "smoke"],
    ] {
        assert_usage_errors(
            prefix,
            &[
                (
                    &["--fm-factor", "0"],
                    "error: --fm-factor must be finite and > 0, got 0",
                ),
                (
                    &["--fm-factor", "-2"],
                    "--fm-factor must be finite and > 0, got -2",
                ),
                (
                    &["--fm-factor", "nan"],
                    "--fm-factor must be finite and > 0, got NaN",
                ),
                (
                    &["--device-factor", "0"],
                    "--device-factor must be finite and > 0",
                ),
                (
                    &["--device-factor", "-0.5"],
                    "--device-factor must be finite and > 0",
                ),
                (
                    &["--device-factor", "nan"],
                    "--device-factor must be finite and > 0",
                ),
            ],
        );
    }
    assert_usage_errors(
        &["churn", "--topology", "mesh:3x3"],
        &[
            (
                &["--flap-rate", "nan"],
                "error: --flap-rate must be finite and >= 0, got NaN",
            ),
            (
                &["--flap-rate", "inf"],
                "--flap-rate must be finite and >= 0, got inf",
            ),
            (
                &["--device-rate", "nan"],
                "--device-rate must be finite and >= 0, got NaN",
            ),
            (
                &["--device-rate", "inf"],
                "--device-rate must be finite and >= 0, got inf",
            ),
            (
                &["--device-rate", "-1"],
                "--device-rate must be finite and >= 0, got -1",
            ),
            (
                &["--flap-down-us", "0"],
                "error: --flap-down-us must be > 0, got 0",
            ),
            (
                &["--device-down-us", "0"],
                "error: --device-down-us must be > 0, got 0",
            ),
        ],
    );
    let (_, stderr, _) = run_coded(&["--topology", "mesh:3x3", "--fm-factor", "0"]);
    assert!(
        stderr.contains("usage:"),
        "no usage after the error: {stderr}"
    );
}

#[test]
fn faults_mode_converges_for_every_algorithm_under_bursty_loss() {
    // The acceptance scenario: 5% bursty (Gilbert-Elliott) loss on a
    // Table 1 topology, exponential backoff — every algorithm must
    // still discover the full topology, visibly exercising retries.
    let (stdout, stderr, ok) = run(&[
        "--topology",
        "mesh:3x3",
        "--algorithm",
        "all",
        "--loss",
        "0.05",
        "--loss-model",
        "bursty",
        "--retry-policy",
        "exponential",
        "--retries",
        "10",
        "--seed",
        "1",
        "--json",
    ]);
    assert!(ok, "{stderr}");
    let reports: Json = parse(&stdout).unwrap();
    let arr = reports.as_array().unwrap();
    assert_eq!(arr.len(), 3);
    for r in arr {
        assert_eq!(*r.get("scenario"), "faults");
        assert_eq!(*r.get("devices_found"), 18, "degraded: {r:?}");
        assert_eq!(*r.get("links_found"), 21);
        assert!(
            r.get("retries").as_u64().unwrap() > 0,
            "loss never bit: {r:?}"
        );
    }
}

#[test]
fn zero_probability_fault_plan_reproduces_the_loss_free_run_bytes() {
    // An armed Gilbert-Elliott model with mean loss 0 must not perturb
    // the simulation: same stdout, same trace, byte for byte. Both plans
    // are inert, so both runs take the ordinary path.
    let dir = std::env::temp_dir().join("asi-cli-ge-zero-test");
    std::fs::create_dir_all(&dir).unwrap();
    let clean = dir.join("clean.jsonl");
    let armed = dir.join("armed.jsonl");
    let base = [
        "--topology",
        "mesh:3x3",
        "--algorithm",
        "all",
        "--json",
        "--trace",
    ];
    let (out_clean, _, ok1) = run(&[&base[..], &[clean.to_str().unwrap()]].concat());
    let (out_armed, _, ok2) = run(&[
        &base[..],
        &[
            armed.to_str().unwrap(),
            "--loss",
            "0",
            "--loss-model",
            "bursty",
        ],
    ]
    .concat());
    assert!(ok1 && ok2);
    assert_eq!(
        out_clean, out_armed,
        "GE(p=0) must replay the loss-free run"
    );
    assert_eq!(
        std::fs::read(&clean).unwrap(),
        std::fs::read(&armed).unwrap(),
        "GE(p=0) trace must be byte-identical to the loss-free trace"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalid_topologies_report_friendly_errors_not_builder_panics() {
    // Each of these previously tripped an `assert!` inside the topology
    // builders (exit code 101); they must now be usage errors.
    assert_usage_error(
        &["--topology", "mesh:1x5"],
        "sides must be between 2 and 64",
    );
    assert_usage_error(
        &["--topology", "torus:0x0"],
        "sides must be between 2 and 64",
    );
    assert_usage_error(&["--topology", "mesh:3"], "wants WxH dimensions");
    assert_usage_error(&["--topology", "mesh:axb"], "dimensions must be integers");
    assert_usage_error(&["--topology", "fattree:3,2"], "port count must be even");
    assert_usage_error(&["--topology", "fattree:4,0"], "levels must be in 1..=8");
    assert_usage_error(&["--topology", "fattree:4"], "wants m,n parameters");
    assert_usage_error(&["--topology", "irregular:0"], "switch count must be in");
    assert_usage_error(&["--topology", "mesh"], "missing its parameters");
    assert_usage_error(&["--topology", "ring:9"], "unknown topology kind");
}

#[test]
fn unsatisfiable_generator_parameters_are_usage_errors_not_panics() {
    // The fallible-generator contract end to end: parameter combinations
    // that exhaust switch ports (or the port catalogue) surface as the
    // CLI's friendly `error:` + exit-2 contract, never as a builder
    // panic (exit 101).
    assert_usage_error(&["--topology", "dragonfly:1,4"], "needs k >= 2");
    assert_usage_error(&["--topology", "dragonfly:8"], "wants k,m parameters");
    assert_usage_error(
        &["--topology", "dragonfly:a,b"],
        "parameters must be integers",
    );
    // k=8, m=240 needs 7 + 240 + 12 = 259 ports: over the ASI ceiling.
    assert_usage_error(
        &["stress", "--topology", "dragonfly:8,240"],
        "255-port ASI switch ceiling",
    );
    assert_usage_error(&["--topology", "designed:0"], "at least one endpoint");
    // The default catalogue tops out at 64-port switches (2048 endpoints).
    assert_usage_error(
        &["stress", "--topology", "designed:100000"],
        "no two-layer design reaches 100000 endpoints",
    );
}

/// The CI certification gate: one discovery per generator family whose
/// database must equal the live fabric, links and ports included.
#[test]
fn stress_json_certifies_every_family() {
    for spec in [
        "mesh:3x3",
        "fattree:4,2",
        "irregular:32",
        "dragonfly:2,3",
        "designed:64",
    ] {
        let (stdout, stderr, ok) = run(&["stress", "--topology", spec, "--json"]);
        assert!(ok, "{spec}: {stderr}");
        let v = parse(&stdout).unwrap();
        assert_eq!(
            v.get("full_topology"),
            &Json::Bool(true),
            "{spec}: {stdout}"
        );
        assert!(v.get("devices").as_u64().unwrap() > 0, "{spec}");
        assert_eq!(v.get("devices"), v.get("devices_found"), "{spec}");
    }
}

#[test]
fn exotic_topologies_run_through_the_discovery_front_door() {
    // Dragonfly and designed fat-trees are first-class `--topology`
    // citizens of the default discovery mode, not just stress.
    let (stdout, stderr, ok) = run(&[
        "--topology",
        "dragonfly:2,2",
        "--algorithm",
        "parallel",
        "--json",
    ]);
    assert!(ok, "{stderr}");
    let reports = parse(&stdout).unwrap();
    // D3(2,2): 4 groups x 2 routers = 8 switches + 96 endpoints = 104.
    assert_eq!(*reports.idx(0).get("devices_found"), 104);

    let (stdout, stderr, ok) = run(&[
        "--topology",
        "designed:48",
        "--algorithm",
        "parallel",
        "--json",
    ]);
    assert!(ok, "{stderr}");
    let reports = parse(&stdout).unwrap();
    assert!(reports.idx(0).get("devices_found").as_u64().unwrap() > 48);
}

#[test]
fn missing_topology_is_a_usage_error() {
    assert_usage_error(&["--algorithm", "parallel"], "--topology is required");
}

#[test]
fn sweep_rejects_bad_grid_and_jobs() {
    assert_usage_error(&["sweep", "--grid", "fig99"], "unknown grid");
    assert_usage_error(&["sweep", "--jobs", "zero"], "--jobs must be an integer");
    assert_usage_error(&["sweep", "--jobs", "0"], "--jobs must be at least 1");
    // Sharded cells run an initial cold discovery only.
    for grid in ["fig6", "warmstart", "churn"] {
        assert_usage_error(
            &["sweep", "--quick", "--fms", "2", "--grid", grid],
            &format!(
                "error: --fms above 1 runs an initial cold discovery without churn, \
                 which grid {grid} does not measure"
            ),
        );
    }
    // And on a fault-free fabric only: a lost boundary read leaves the merged
    // database short.
    let faulty: [&[&str]; 2] = [
        &["sweep", "--grid", "faults", "--quick", "--fms", "2"],
        &["sweep", "--grid", "smoke", "--fms", "2", "--loss", "0.05"],
    ];
    for args in faulty {
        assert_usage_error(
            args,
            "error: --fms above 1 runs a fault-free discovery, \
             but this sweep carries a live fault plan",
        );
    }
}

#[test]
fn sweep_output_is_identical_for_any_job_count() {
    // The tentpole guarantee: worker count never changes the bytes.
    let (json1, stderr1, ok1) = run(&["sweep", "--grid", "smoke", "--jobs", "1", "--json"]);
    let (json8, _, ok8) = run(&["sweep", "--grid", "smoke", "--jobs", "8", "--json"]);
    assert!(ok1 && ok8, "{stderr1}");
    assert_eq!(json1, json8, "sweep JSON must not depend on --jobs");

    let (csv1, _, c1) = run(&["sweep", "--grid", "smoke", "--jobs", "1", "--csv"]);
    let (csv4, _, c4) = run(&["sweep", "--grid", "smoke", "--jobs", "4", "--csv"]);
    assert!(c1 && c4);
    assert_eq!(csv1, csv4, "sweep CSV must not depend on --jobs");

    // And the JSON is well-formed with one cell per grid point.
    let v = parse(&json1).unwrap();
    let cells = v.get("cells").as_array().expect("cells array");
    assert!(!cells.is_empty());
    for c in cells {
        assert_eq!(c.get("completed"), &Json::Bool(true));
        assert!(c.get("discovery_time_s").as_f64().unwrap() > 0.0);
    }
}

#[test]
fn fault_sweep_is_identical_for_any_job_count_and_converges() {
    // Identical (seed, FaultPlan) must sweep byte-identically whatever
    // the worker count — fault and RNG state is all per-cell.
    let (json1, stderr1, ok1) = run(&[
        "sweep", "--grid", "faults", "--quick", "--jobs", "1", "--json",
    ]);
    let (json4, _, ok4) = run(&[
        "sweep", "--grid", "faults", "--quick", "--jobs", "4", "--json",
    ]);
    assert!(ok1 && ok4, "{stderr1}");
    assert_eq!(json1, json4, "fault sweep JSON must not depend on --jobs");

    // Convergence under the grid's 5% bursty loss: every aggregate
    // reaches the full topology on every rep, and the degradation
    // metrics show the loss was real.
    let v = parse(&json1).unwrap();
    let aggregates = v.get("aggregates").as_array().expect("aggregates");
    assert!(!aggregates.is_empty());
    for a in aggregates {
        assert_eq!(
            a.get("full_topology"),
            a.get("completed"),
            "partial topology in {a:?}"
        );
        assert!(
            a.get("mean_retries").as_f64().unwrap() > 0.0,
            "no retries in {a:?}"
        );
    }
}

#[test]
fn snapshot_save_load_verify_round_trip() {
    let dir = std::env::temp_dir().join("asi-cli-snapshot-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bin = dir.join("fabric.snap");
    let jsonl = dir.join("fabric.jsonl");
    let resaved = dir.join("resaved.snap");

    // save: cold discovery → snapshot on disk, summary on stdout.
    let (stdout, stderr, ok) = run(&[
        "snapshot",
        "save",
        "--topology",
        "mesh:3x3",
        "--out",
        bin.to_str().unwrap(),
        "--json",
    ]);
    assert!(ok, "{stderr}");
    let summary = parse(&stdout).unwrap();
    assert_eq!(*summary.get("devices"), 18);
    assert_eq!(*summary.get("links"), 21);

    // Same discovery in JSONL form.
    let (_, _, ok) = run(&[
        "snapshot",
        "save",
        "--topology",
        "mesh:3x3",
        "--out",
        jsonl.to_str().unwrap(),
        "--format",
        "jsonl",
    ]);
    assert!(ok);

    // load sniffs both formats and reports the same checksum.
    let (sum_bin, _, ok1) = run(&["snapshot", "load", "--in", bin.to_str().unwrap(), "--json"]);
    let (sum_jsonl, _, ok2) = run(&[
        "snapshot",
        "load",
        "--in",
        jsonl.to_str().unwrap(),
        "--json",
    ]);
    assert!(ok1 && ok2);
    assert_eq!(
        parse(&sum_bin).unwrap().get("checksum"),
        parse(&sum_jsonl).unwrap().get("checksum"),
        "binary and JSONL renderings must describe the same snapshot"
    );

    // load --resave: JSONL → binary re-save is byte-identical to the
    // directly saved binary file.
    let (_, _, ok) = run(&[
        "snapshot",
        "load",
        "--in",
        jsonl.to_str().unwrap(),
        "--resave",
        resaved.to_str().unwrap(),
    ]);
    assert!(ok);
    assert_eq!(
        std::fs::read(&bin).unwrap(),
        std::fs::read(&resaved).unwrap(),
        "re-saved snapshot must be byte-identical"
    );

    // diff against itself: identical.
    let (stdout, _, ok) = run(&[
        "snapshot",
        "diff",
        "--old",
        bin.to_str().unwrap(),
        "--new",
        jsonl.to_str().unwrap(),
        "--json",
    ]);
    assert!(ok);
    let delta = parse(&stdout).unwrap();
    assert_eq!(*delta.get("identical"), Json::Bool(true));
    assert_eq!(*delta.get("change_count"), 0);

    // verify on the unchanged fabric: every cached device verified with
    // one probe, no mismatches, no fallback.
    let (stdout, stderr, ok) = run(&[
        "snapshot",
        "verify",
        "--topology",
        "mesh:3x3",
        "--in",
        bin.to_str().unwrap(),
        "--json",
    ]);
    assert!(ok, "{stderr}");
    let report = parse(&stdout).unwrap();
    assert_eq!(*report.get("trigger"), "warm-start");
    assert_eq!(*report.get("probes_verified"), 17);
    assert_eq!(*report.get("verify_mismatches"), 0);
    assert_eq!(*report.get("warm_fallback"), Json::Bool(false));
    assert_eq!(*report.get("devices_found"), 18);
    assert_eq!(*report.get("requests"), 17);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_workflows_emit_reconciling_traces() {
    use advanced_switching::harness::{trace_from_jsonl, TraceSummary};

    let dir = std::env::temp_dir().join("asi-cli-snapshot-trace-test");
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("fabric.snap");
    let save_trace = dir.join("save.jsonl");
    let verify_trace = dir.join("verify.jsonl");

    let (_, stderr, ok) = run(&[
        "snapshot",
        "save",
        "--topology",
        "mesh:3x3",
        "--out",
        snap.to_str().unwrap(),
        "--trace",
        save_trace.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let records = trace_from_jsonl(&std::fs::read_to_string(&save_trace).unwrap()).unwrap();
    let summary = TraceSummary::of(&records);
    assert_eq!(summary.count("snapshot-saved"), 1);

    let (stdout, stderr, ok) = run(&[
        "snapshot",
        "verify",
        "--topology",
        "mesh:3x3",
        "--in",
        snap.to_str().unwrap(),
        "--json",
        "--trace",
        verify_trace.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let report = parse(&stdout).unwrap();
    let records = trace_from_jsonl(&std::fs::read_to_string(&verify_trace).unwrap()).unwrap();
    let summary = TraceSummary::of(&records);
    assert_eq!(summary.count("snapshot-loaded"), 1);
    assert_eq!(
        summary.count("warm-verified"),
        report.get("probes_verified").as_u64().unwrap()
    );
    assert_eq!(summary.count("verify-mismatch"), 0);
    assert_eq!(summary.count("warm-fallback"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_diff_reports_a_removed_switch() {
    let dir = std::env::temp_dir().join("asi-cli-snapshot-diff-test");
    std::fs::create_dir_all(&dir).unwrap();
    let full = dir.join("full.snap");
    let small = dir.join("small.snap");
    let (_, _, ok1) = run(&[
        "snapshot",
        "save",
        "--topology",
        "mesh:3x3",
        "--out",
        full.to_str().unwrap(),
    ]);
    let (_, _, ok2) = run(&[
        "snapshot",
        "save",
        "--topology",
        "mesh:2x3",
        "--out",
        small.to_str().unwrap(),
    ]);
    assert!(ok1 && ok2);
    let (stdout, _, ok) = run(&[
        "snapshot",
        "diff",
        "--old",
        full.to_str().unwrap(),
        "--new",
        small.to_str().unwrap(),
        "--json",
    ]);
    assert!(ok);
    let delta = parse(&stdout).unwrap();
    assert_eq!(*delta.get("identical"), Json::Bool(false));
    assert_eq!(delta.get("removed_devices").as_array().unwrap().len(), 6);
    assert!(delta.get("change_count").as_u64().unwrap() > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_mode_rejects_malformed_invocations() {
    assert_usage_error(&["snapshot"], "snapshot wants a subcommand");
    assert_usage_error(&["snapshot", "freeze"], "unknown snapshot subcommand");
    assert_usage_error(
        &["snapshot", "save", "--topology", "mesh:3x3"],
        "--out is required",
    );
    assert_usage_error(
        &["snapshot", "save", "--out", "x.snap"],
        "--topology is required",
    );
    assert_usage_error(
        &[
            "snapshot",
            "save",
            "--topology",
            "mesh:3x3",
            "--out",
            "x",
            "--format",
            "yaml",
        ],
        "unknown snapshot format",
    );
    assert_usage_error(
        &[
            "snapshot",
            "save",
            "--topology",
            "mesh:3x3",
            "--out",
            "x",
            "--algorithm",
            "all",
        ],
        "snapshot mode wants one algorithm",
    );
    assert_usage_error(&["snapshot", "load"], "--in is required");
    assert_usage_error(
        &["snapshot", "load", "--in", "/nonexistent/fabric.snap"],
        "cannot load snapshot",
    );
    assert_usage_error(
        &["snapshot", "diff", "--old", "a.snap"],
        "--new is required",
    );
    assert_usage_error(
        &["snapshot", "verify", "--topology", "mesh:3x3"],
        "--in is required",
    );
    let dir = std::env::temp_dir().join("asi-cli-snapshot-err-test");
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("t.snap");
    let (_, _, ok) = run(&[
        "snapshot",
        "save",
        "--topology",
        "mesh:2x2",
        "--out",
        snap.to_str().unwrap(),
    ]);
    assert!(ok);
    assert_usage_error(
        &[
            "snapshot",
            "verify",
            "--topology",
            "mesh:2x2",
            "--in",
            snap.to_str().unwrap(),
            "--threshold",
            "1.5",
        ],
        "--threshold must be in [0, 1]",
    );
    // Corrupt snapshots die with the friendly error, not a panic.
    let garbled = dir.join("garbled.snap");
    let mut bytes = std::fs::read(&snap).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&garbled, &bytes).unwrap();
    assert_usage_error(
        &["snapshot", "load", "--in", garbled.to_str().unwrap()],
        "cannot load snapshot",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warmstart_sweep_grid_runs_and_is_jobs_invariant() {
    let (csv1, stderr, ok1) = run(&[
        "sweep",
        "--grid",
        "warmstart",
        "--quick",
        "--jobs",
        "1",
        "--csv",
    ]);
    let (csv2, _, ok2) = run(&[
        "sweep",
        "--grid",
        "warmstart",
        "--quick",
        "--jobs",
        "2",
        "--csv",
    ]);
    assert!(ok1 && ok2, "{stderr}");
    assert_eq!(csv1, csv2, "warm sweep CSV must not depend on --jobs");
    let header = csv1.lines().next().unwrap();
    for col in [
        "warm",
        "probes_verified",
        "verify_mismatches",
        "warm_fallback",
    ] {
        assert!(header.contains(col), "{col} missing from CSV header");
    }
}

#[test]
fn sweep_text_table_names_every_algorithm() {
    let (stdout, _, ok) = run(&["sweep", "--grid", "smoke"]);
    assert!(ok);
    for name in ["Serial Packet", "Serial Device", "Parallel"] {
        assert!(stdout.contains(name), "{name} missing from sweep table");
    }
}

#[test]
fn stress_reports_full_topology_and_throughput() {
    let (stdout, stderr, ok) = run(&[
        "stress",
        "--topology",
        "mesh:8x8",
        "--algorithm",
        "parallel",
        "--json",
    ]);
    assert!(ok, "{stderr}");
    let report = parse(&stdout).unwrap();
    assert_eq!(report.get("full_topology"), &Json::Bool(true));
    assert_eq!(*report.get("devices"), 128);
    assert_eq!(*report.get("devices_found"), 128);
    assert_eq!(*report.get("timeouts"), 0);
    // The wall-clock metrics exist and are non-trivial, but their values
    // are execution-dependent — never byte-compare them.
    assert!(report.get("events_per_sec").as_u64().unwrap() > 0);
    assert!(report.get("sim_events").as_u64().unwrap() > 0);
    assert!(report.get("wall_time_s").as_f64().unwrap() > 0.0);
    assert!(report.get("peak_outstanding").as_u64().unwrap() > 1);
    // Peak RSS is reported on Linux (VmHWM); elsewhere it degrades to 0.
    assert!(report.get("peak_rss_mb").as_f64().unwrap() >= 0.0);
}

/// The cut-through commit (`fabric/port.rs`'s module header) took the
/// `TryTx` wake-up out of every uncontended switch hop — 44,011 events
/// before, 35,730 after — and the credit ledger the `CreditReturn` out
/// of every hop whose upstream port has credits to spare: 22,356. Event
/// counts are deterministic, so a change that silently brings either
/// event back fails here, not on the benchmark ladder.
#[test]
fn stress_event_count_stays_under_its_budget() {
    let events = |algorithm: &str| {
        let args = ["stress", "--topology", "mesh:8x8", "--json"];
        let (stdout, stderr, ok) = run(&[&args[..], &["--algorithm", algorithm]].concat());
        assert!(ok, "{stderr}");
        let report = parse(&stdout).unwrap();
        let by_kind = report.get("events_by_kind");
        let Json::Obj(kinds) = by_kind else {
            panic!("events_by_kind is {by_kind:?}");
        };
        let total: u64 = kinds.iter().map(|(_, n)| n.as_u64().unwrap()).sum();
        let sim_events = report.get("sim_events").as_u64().unwrap();
        assert_eq!(total, sim_events, "the kinds partition the events");
        let of = |kind: &str| by_kind.get(kind).as_u64().unwrap();
        (sim_events, of("try_tx"), of("credit_return"))
    };
    // 2% above the 22,356 this landed at.
    let (parallel, _, credit_returns) = events("parallel");
    assert!(parallel <= 22_803, "{parallel} events");
    // No port of a loss-free, traffic-free fabric runs short of credits.
    assert_eq!(credit_returns, 0, "a credit came back as an event");
    // Serial Packet keeps one packet in flight there: no hop is
    // contended, so every hop commits.
    let (_, wakeups, credit_returns) = events("serial-packet");
    assert_eq!(wakeups, 0, "a hop armed a wake-up");
    assert_eq!(credit_returns, 0, "a credit came back as an event");
}

/// An answered request's timeout is cancelled, and the kernel holds one
/// `Timer` event per agent, for its earliest pending timer: three
/// managers discovering a 16x16 mesh dispatch 13 timer events, where
/// one per request timeout came to 3,282.
#[test]
fn answered_requests_spend_no_timer_events() {
    let args = ["stress", "--topology", "mesh:16x16", "--fms", "3", "--json"];
    let (stdout, stderr, ok) = run(&args);
    assert!(ok, "{stderr}");
    let report = parse(&stdout).unwrap();
    let timers = report.get("events_by_kind").get("timer").as_u64().unwrap();
    assert!(timers <= 20, "{timers} timer events");
}

#[test]
fn stress_rejects_malformed_invocations() {
    // One negative per flag, on the same error/usage/exit-2 framework as
    // the discovery mode.
    assert_usage_error(&["stress"], "--topology is required");
    assert_usage_error(&["stress", "--topology", "ring:9"], "unknown topology kind");
    assert_usage_error(
        &["stress", "--topology", "irregular:5000"],
        "switch count must be in",
    );
    assert_usage_error(
        &["stress", "--topology", "mesh:8x8", "--algorithm", "psychic"],
        "stress mode wants one algorithm",
    );
    assert_usage_error(
        &["stress", "--topology", "mesh:8x8", "--algorithm", "all"],
        "stress mode wants one algorithm",
    );
    assert_usage_error(
        &["stress", "--topology", "mesh:8x8", "--seed", "banana"],
        "--seed must be an integer",
    );
    assert_usage_error(
        &["stress", "--topology", "mesh:8x8", "--fm-factor", "fast"],
        "--fm-factor must be a number",
    );
}

#[test]
fn scale_grid_is_jobs_invariant_and_reports_occupancy() {
    let (json1, stderr1, ok1) = run(&[
        "sweep", "--grid", "scale", "--quick", "--jobs", "1", "--json",
    ]);
    let (json2, stderr2, ok2) = run(&[
        "sweep", "--grid", "scale", "--quick", "--jobs", "2", "--json",
    ]);
    assert!(ok1 && ok2, "{stderr1}{stderr2}");
    assert_eq!(json1, json2, "scale grid JSON must not depend on --jobs");
    // The wall-clock throughput line goes to stderr, outside the
    // byte-compared stdout.
    assert!(stderr1.contains("events/sec"), "{stderr1}");

    let v = parse(&json1).unwrap();
    let cells = v.get("cells").as_array().expect("cells array");
    assert!(!cells.is_empty());
    for c in cells {
        assert_eq!(c.get("completed"), &Json::Bool(true));
        assert_eq!(c.get("algorithm").as_str(), Some("Parallel"));
        assert!(c.get("peak_outstanding").as_u64().unwrap() > 1);
        assert!(c.get("sim_events").as_u64().unwrap() > 0);
    }

    let (csv1, _, c1) = run(&[
        "sweep", "--grid", "scale", "--quick", "--jobs", "1", "--csv",
    ]);
    let (csv2, _, c2) = run(&[
        "sweep", "--grid", "scale", "--quick", "--jobs", "2", "--csv",
    ]);
    assert!(c1 && c2);
    assert_eq!(csv1, csv2, "scale grid CSV must not depend on --jobs");
    assert!(csv1.lines().next().unwrap().contains("peak_outstanding"));
}

#[test]
fn churn_mode_reports_a_converged_steady_state() {
    let (stdout, stderr, ok) = run(&["churn", "--topology", "mesh:3x3", "--json"]);
    assert!(ok, "{stderr}");
    assert!(!stderr.contains("the window opened"), "{stderr}");
    let v = parse(&stdout).unwrap();
    assert!(v.get("churn_events").as_u64().unwrap() > 0);
    assert!(v.get("events_absorbed").as_u64().unwrap() > 0);
    assert!(v.get("events_per_sec").as_f64().unwrap() > 0.0);
    assert!(v.get("divergence_s").as_f64().unwrap() > 0.0);
    assert_eq!(v.get("full_topology"), &Json::Bool(true));
    assert_eq!(v.get("cold_db_matches"), &Json::Bool(true));
    assert_eq!(v.get("converged"), &Json::Bool(true));
    assert_eq!(*v.get("devices_found"), 18);
    assert_eq!(*v.get("links_found"), 21);
    // Same invocation, same bytes: the steady state is deterministic.
    let (again, _, ok2) = run(&["churn", "--topology", "mesh:3x3", "--json"]);
    assert!(ok2);
    assert_eq!(stdout, again, "churn runs must be reproducible");
    // A sparse window of 70 simulated seconds still runs to quiescence.
    let (_, stderr, ok) = run(&[
        "churn",
        "--topology",
        "mesh:3x3",
        "--horizon-us",
        "70000000",
        "--flap-rate",
        "1",
        "--device-rate",
        "0",
    ]);
    assert!(ok, "{stderr}");
}

/// The default window opens at 6 ms; a 6x6 mesh is still being discovered
/// then. The failure names that cause and the start that avoids it: one
/// that clears the undisturbed discovery and the PI-5 configuration
/// after it.
#[test]
fn churn_mode_names_a_window_that_opened_mid_discovery() {
    let at = ["churn", "--topology", "mesh:6x6", "--seed", "1"];
    let (_, stderr, code) = run_coded(&at);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("did not end converged"), "{stderr}");
    let cause = "the window opened at 6000 us, before the initial discovery and its PI-5 \
                 configuration finished at 14476 us; --start-us 21391 is the smallest that \
                 clears it";
    assert!(stderr.contains(cause), "{stderr}");
    let (_, stderr, code) = run_coded(&[&at[..], &["--start-us", "21391"]].concat());
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn churn_mode_rejects_malformed_invocations() {
    let (_, stderr, code) = run_coded(&["churn"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--topology is required"), "{stderr}");
    let (_, stderr, code) = run_coded(&[
        "churn",
        "--topology",
        "mesh:3x3",
        "--flap-rate",
        "0",
        "--device-rate",
        "0",
    ]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("live plan"), "{stderr}");
}

#[test]
fn churn_sweep_grid_is_jobs_invariant_and_reports_absorption() {
    let (json1, stderr1, ok1) = run(&[
        "sweep", "--grid", "churn", "--quick", "--jobs", "1", "--json",
    ]);
    let (json2, stderr2, ok2) = run(&[
        "sweep", "--grid", "churn", "--quick", "--jobs", "2", "--json",
    ]);
    assert!(ok1 && ok2, "{stderr1}{stderr2}");
    assert_eq!(json1, json2, "churn grid JSON must not depend on --jobs");

    let v = parse(&json1).unwrap();
    let cells = v.get("cells").as_array().expect("cells array");
    assert!(!cells.is_empty());
    for c in cells {
        assert_eq!(c.get("completed"), &Json::Bool(true));
        assert_eq!(c.get("algorithm").as_str(), Some("Parallel"));
        assert!(c.get("churn_events").as_u64().unwrap() > 0);
        assert!(c.get("events_per_sec").as_f64().unwrap() > 0.0);
        assert!(c.get("divergence_s").as_f64().unwrap() > 0.0);
    }

    let (csv1, _, c1) = run(&[
        "sweep", "--grid", "churn", "--quick", "--jobs", "1", "--csv",
    ]);
    let (csv2, _, c2) = run(&[
        "sweep", "--grid", "churn", "--quick", "--jobs", "2", "--csv",
    ]);
    assert!(c1 && c2);
    assert_eq!(csv1, csv2, "churn grid CSV must not depend on --jobs");
    let header = csv1.lines().next().unwrap();
    for col in [
        "churn_events",
        "events_per_sec",
        "convergence_lag_s",
        "divergence_windows",
        "divergence_s",
    ] {
        assert!(header.contains(col), "{col} missing from {header}");
    }
}

#[test]
fn traffic_mode_reports_delivery_and_stays_deterministic() {
    let args = [
        "traffic",
        "--topology",
        "mesh:3x3",
        "--load",
        "0.4",
        "--json",
    ];
    let (stdout, stderr, ok) = run(&args);
    assert!(ok, "{stderr}");
    let v = parse(&stdout).unwrap();
    assert_eq!(v.get("full_topology"), &Json::Bool(true));
    assert_eq!(*v.get("devices_found"), 18);
    assert!(v.get("flow_injected").as_u64().unwrap() > 0);
    assert!(v.get("flow_delivered").as_u64().unwrap() > 0);
    assert!(v.get("goodput_mbps").as_f64().unwrap() > 0.0);
    let p50 = v.get("latency_p50_us").as_f64().unwrap();
    let p99 = v.get("latency_p99_us").as_f64().unwrap();
    assert!(p50 > 0.0 && p99 >= p50, "p50 {p50} p99 {p99}");
    // The paper's claim, surfaced as a first-class column: background
    // traffic scarcely influences the discovery time.
    let delta = v.get("discovery_delta_pct").as_f64().unwrap();
    assert!(delta.abs() < 10.0, "traffic moved discovery by {delta}%");
    // Same invocation, same bytes.
    let (again, _, ok2) = run(&args);
    assert!(ok2);
    assert_eq!(stdout, again, "traffic runs must be reproducible");
}

/// Minimal routing over one data VC closes a credit cycle on a
/// dragonfly. On `dragonfly:3,1`, the smallest that stalls, a 50 us
/// window leaves packets queued once the run goes idle: the report is
/// still printed, and the stall is exit 1 with the count. A mesh drains.
#[test]
fn traffic_mode_exits_1_when_its_data_plane_stalls() {
    let stalls = [
        "traffic",
        "--topology",
        "dragonfly:3,1",
        "--duration-us",
        "50",
    ];
    let (stdout, stderr, code) = run_coded(&stalls);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stdout.contains("205 of 494 packets delivered"), "{stdout}");
    let line = "traffic: the data plane stalled with 289 packets still queued at idle \
                (205 of 494 flow packets delivered)";
    assert_eq!(stderr.trim_end(), line);
    let (_, stderr, code) = run_coded(&["traffic", "--topology", "mesh:3x3"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn traffic_mode_rejects_malformed_invocations() {
    // Satellite 3: one negative per new flag, all on the exit-2
    // error/usage framework.
    assert_usage_error(&["traffic"], "--topology is required");
    assert_usage_errors(
        &["traffic", "--topology", "mesh:3x3"],
        &[
            (&["--load", "1.5"], "--load must be in [0, 1]"),
            (&["--load", "-0.1"], "--load must be in [0, 1]"),
            (&["--load", "lots"], "--load must be a number"),
            (&["--flows", "0"], "--flows must be at least 1"),
            (&["--flows", "many"], "--flows must be an integer"),
            // Group tables are the FM's to write: the plan has no
            // multicast of its own.
            (
                &["--mcast-groups", "2"],
                "unknown option \"--mcast-groups\"",
            ),
            (&["--switch-load", "-1"], "--switch-load must be in [0, 1]"),
            (&["--payload", "0"], "--payload must be at least 1"),
            (&["--payload", "huge"], "--payload must be an integer"),
            (&["--arrivals", "bursty"], "unknown arrival process"),
            (
                &["--duration-us", "forever"],
                "--duration-us must be an integer",
            ),
            (&["--algorithm", "all"], "traffic mode wants one algorithm"),
            (
                &["--kernel", "serial"],
                "error: unknown option \"--kernel\"",
            ),
        ],
    );
}

#[test]
fn load_sweep_grid_is_jobs_invariant_with_monotone_goodput() {
    let (json1, stderr1, ok1) = run(&[
        "sweep", "--grid", "load", "--quick", "--jobs", "1", "--json",
    ]);
    let (json2, stderr2, ok2) = run(&[
        "sweep", "--grid", "load", "--quick", "--jobs", "2", "--json",
    ]);
    assert!(ok1 && ok2, "{stderr1}{stderr2}");
    assert_eq!(json1, json2, "load grid JSON must not depend on --jobs");

    let v = parse(&json1).unwrap();
    let aggregates = v.get("aggregates").as_array().expect("aggregates");
    // One row per (algorithm, load) on the quick grid's single topology.
    assert_eq!(aggregates.len(), 3 * 4);
    for a in aggregates {
        assert_eq!(a.get("full_topology"), a.get("completed"));
    }
    // Within each algorithm block: the canonical load order holds, and
    // discovery time degrades gently — under 2x quiet even at 80% load.
    for block in aggregates.chunks(4) {
        let load = |i: usize| block[i].get("load").as_f64().unwrap();
        assert_eq!(
            (load(0), load(1), load(2), load(3)),
            (0.0, 0.2, 0.4, 0.8),
            "canonical load order"
        );
        let quiet = block[0].get("mean_time_s").as_f64().unwrap();
        let loaded = block[3].get("mean_time_s").as_f64().unwrap();
        assert!(
            loaded < 2.0 * quiet,
            "80% load {loaded} vs quiet {quiet} ({})",
            block[0].get("algorithm").as_str().unwrap_or("?")
        );
    }
    // Delivered goodput grows monotonically with offered load in every
    // algorithm's cell block (one rep per cell on the quick grid).
    let cells = v.get("cells").as_array().expect("cells");
    assert_eq!(cells.len(), 3 * 4);
    for block in cells.chunks(4) {
        let goodput = |i: usize| block[i].get("goodput_mbps").as_f64().unwrap();
        assert_eq!(goodput(0), 0.0, "zero-load cell carries no traffic");
        assert!(
            goodput(1) > 0.0 && goodput(1) < goodput(2) && goodput(2) < goodput(3),
            "goodput not monotone: {} {} {} ({})",
            goodput(1),
            goodput(2),
            goodput(3),
            block[0].get("algorithm").as_str().unwrap_or("?")
        );
    }

    let (csv1, _, c1) = run(&["sweep", "--grid", "load", "--quick", "--jobs", "1", "--csv"]);
    let (csv2, _, c2) = run(&["sweep", "--grid", "load", "--quick", "--jobs", "2", "--csv"]);
    assert!(c1 && c2);
    assert_eq!(csv1, csv2, "load grid CSV must not depend on --jobs");
    let header = csv1.lines().next().unwrap();
    for col in [
        "load",
        "goodput_mbps",
        "flow_delivered",
        "latency_p50_us",
        "latency_p99_us",
        "credit_stalls",
        "data_queue_peak",
    ] {
        assert!(header.contains(col), "{col} missing from {header}");
    }
}

/// Every mode: the arguments that select it (with the flags it
/// requires), what the parser calls it, a flag only other modes own,
/// and one of its own scalar flags.
const MODES: &[(&[&str], &str, &[&str], &str)] = &[
    (
        &["--topology", "mesh:3x3"],
        "the default mode",
        &["--load", "0.4"],
        "--seed",
    ),
    (
        &["churn", "--topology", "mesh:3x3"],
        "the `churn` mode",
        &["--loss", "0.1"],
        "--seed",
    ),
    (
        &["traffic", "--topology", "mesh:3x3"],
        "the `traffic` mode",
        &["--flap-rate", "1"],
        "--seed",
    ),
    (&["sweep"], "the `sweep` mode", &["--seed", "3"], "--jobs"),
    (
        &["stress", "--topology", "mesh:3x3"],
        "the `stress` mode",
        &["--load", "0.4"],
        "--seed",
    ),
    (
        &["snapshot", "save", "--topology", "mesh:3x3", "--out", "x"],
        "the `snapshot save` mode",
        &["--load", "0.4"],
        "--seed",
    ),
    (
        &["snapshot", "load"],
        "the `snapshot load` mode",
        &["--topology", "mesh:3x3"],
        "--in",
    ),
    (
        &["snapshot", "diff"],
        "the `snapshot diff` mode",
        &["--format", "jsonl"],
        "--old",
    ),
    (
        &["snapshot", "verify", "--topology", "mesh:3x3"],
        "the `snapshot verify` mode",
        &["--out", "x"],
        "--seed",
    ),
];

#[test]
fn every_mode_rejects_flags_it_does_not_consume() {
    for &(mode, label, foreign, scalar) in MODES {
        assert_usage_errors(
            mode,
            &[
                (&["--bogus"], "error: unknown option \"--bogus\""),
                (
                    &["--kernel", "serial"],
                    "error: unknown option \"--kernel\"",
                ),
                (
                    foreign,
                    &format!("error: {} is not an option of {label}", foreign[0]),
                ),
                (
                    &[scalar, "1", scalar, "2"],
                    &format!("error: {scalar} given more than once"),
                ),
                (&[scalar], &format!("error: {scalar} is missing its value")),
            ],
        );
    }
    // The misbehaviours the hand-scanned flags allowed: each used to
    // exit 0 on defaults.
    assert_usage_errors(
        &[],
        &[
            (
                &["--topology", "mesh:3x3", "--laod", "0.4", "--bogus"],
                "error: unknown option \"--laod\"",
            ),
            (
                &["frobnicate", "--topology", "mesh:3x3"],
                "error: unknown mode \"frobnicate\"",
            ),
            // Folded away: `faults` is the default mode under a live
            // plan, and `stress --json` is the certification gate.
            (
                &["faults", "--topology", "mesh:3x3"],
                "error: unknown mode \"faults\" (churn, traffic, sweep, stress, snapshot)",
            ),
            (
                &["certify", "--topology", "mesh:3x3"],
                "error: unknown mode \"certify\"",
            ),
            (
                &["churn", "--topology", "mesh:3x3", "--fms", "3"],
                "error: --fms is not an option of the `churn` mode",
            ),
            // More managers than the fabric (the grid's smallest) seats.
            (
                &["stress", "--topology", "mesh:2x2", "--fms", "5"],
                "error: --fms must be in 1..=4",
            ),
            (
                &["sweep", "--grid", "smoke", "--fms", "40"],
                "error: --fms must be in 1..=9",
            ),
            (
                &["--topology", "mesh:3x3", "extra"],
                "unknown option \"extra\"",
            ),
        ],
    );
}

#[test]
fn repeatable_fault_events_are_accepted_more_than_once() {
    let (stdout, stderr, ok) = run(&[
        "--topology",
        "mesh:3x3",
        "--flap",
        "40000:0:0:200",
        "--flap",
        "300:4:1:100",
        "--hang",
        "1000:3:2000",
        "--hang",
        "50:2:300",
        "--slow",
        "10:5:0.5:400",
        "--slow",
        "20:6:2:100",
        "--json",
    ]);
    assert!(ok, "{stderr}");
    assert_eq!(parse(&stdout).unwrap().as_array().unwrap().len(), 3);
}

#[test]
fn a_closed_stdout_pipe_ends_every_mode_quietly() {
    use std::process::Stdio;

    let dir = std::env::temp_dir().join("asi-cli-closed-pipe-test");
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("p.snap");
    let snap = snap.to_str().unwrap();
    // `snapshot save` runs first so the modes after it have a file to read.
    let modes: &[&[&str]] = &[
        &["snapshot", "save", "--topology", "mesh:3x3", "--out", snap],
        &["snapshot", "load", "--in", snap],
        &["snapshot", "diff", "--old", snap, "--new", snap],
        &["snapshot", "verify", "--topology", "mesh:3x3", "--in", snap],
        &["--topology", "mesh:3x3"],
        &["churn", "--topology", "mesh:3x3"],
        &["traffic", "--topology", "mesh:3x3"],
        &["sweep", "--grid", "smoke"],
        &["stress", "--topology", "mesh:3x3"],
    ];
    for args in modes {
        let mut child = Command::new(env!("CARGO_BIN_EXE_asi-fabric-sim"))
            .args(*args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        // The reader goes away before the run has anything to print
        // (`| head` that already exited): every later write hits EPIPE.
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("binary exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        // The run's own verdict survives: these all succeed.
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
