//! The repo benchmark: five discovery workloads, five end-to-end
//! metrics, and per-layer attribution recorded from the outside in.
//! See `benchmark/README.md`.
//!
//! ```text
//! asi-benchmark run [--workload W] [--seed N] [--reps R | --seconds S]
//!                   [--scale full|smoke] [--traced | --trace 0|1] [--out FILE]
//! asi-benchmark compare <a.json> <b.json>
//! ```
//!
//! `run --workload W` measures one workload in this process and ends
//! with the one-line JSON result. `run` without `--workload` re-executes
//! itself once per workload, so `peak_rss_mb` is per workload, and
//! merges the children's set files into one.

mod alloc;
mod compare;
mod metrics;
mod report;
mod span;
mod stats;
mod timed;
mod workload;

use asi_harness::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workload::{Budget, Scale, Workload};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: asi-benchmark run [--workload W] [--seed N] [--reps R | --seconds S] \
[--scale full|smoke] [--traced | --trace 0|1] [--out FILE]\n       \
asi-benchmark compare <a.json> <b.json>";

/// The issue's default seed, `Scenario::new`'s own.
const DEFAULT_SEED: u64 = 0xA51;

struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    budget: Option<Budget>,
    scale: Scale,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        budget: None,
        scale: Scale::Full,
        traced: false,
        out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--traced" {
            parsed.traced = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(Workload::from_name(value).ok_or_else(bad)?);
            }
            "--seed" => parsed.seed = parse_u64(value).ok_or_else(bad)?,
            "--reps" => {
                let reps = value.parse().ok().filter(|n| *n >= 1).ok_or_else(bad)?;
                parsed.budget = Some(Budget::Reps(reps));
            }
            "--seconds" => {
                let seconds = value.parse().ok().filter(|s| *s > 0.0).ok_or_else(bad)?;
                parsed.budget = Some(Budget::Seconds(seconds));
            }
            "--scale" => {
                parsed.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(bad()),
                }
            }
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

/// `benchmark/out`, next to this package's manifest.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_json(path: &Path, json: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, json.to_string_pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Measures one workload in this process.
fn run_one(workload: Workload, args: &RunArgs, budget: Budget) -> Result<bool, String> {
    let run = workload::run_workload(workload, args.scale, args.seed, budget, args.traced);
    report::print_report(workload, &run, args.traced);
    if args.traced {
        let path = out_dir().join(format!("trace-{}.json", workload.name()));
        write_json(&path, &run.tracer.to_json())?;
    }
    if let Some(path) = &args.out {
        let mut set = report::header(None, args.seed, args.scale, budget, args.traced);
        set.set(
            "workloads",
            vec![report::workload_json(workload, &run, args.traced)],
        );
        write_json(path, &set)?;
    }
    println!(
        "{}",
        report::result_line(&run, args.traced).to_string_compact()
    );
    Ok(run.verdict.failed == 0)
}

/// The commit of the repository this package sits in, if `git` knows.
fn commit() -> Option<String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(env!("CARGO_MANIFEST_DIR"))
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_string())
}

/// Runs every workload, each in its own child process, and merges the
/// children's set files.
fn run_all(args: &RunArgs, budget: Budget) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let mut set = report::header(commit(), args.seed, args.scale, budget, args.traced);
    let mut entries = Vec::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        let part = out_dir().join(format!("part-{}.json", workload.name()));
        let mut child = Command::new(&exe);
        child
            .args(["run", "--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--scale", args.scale.name()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&part);
        match budget {
            Budget::Reps(n) => child.args(["--reps", &n.to_string()]),
            Budget::Seconds(s) => child.args(["--seconds", &s.to_string()]),
        };
        // `status` waits for the child to end.
        let status = child
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_correct &= status.success();
        let path = part.to_str().ok_or("non-UTF-8 output path")?;
        let part_set = compare::load(path)?;
        entries.extend_from_slice(part_set.get("workloads").as_array().unwrap_or_default());
        // The part is merged; a leftover would only confuse.
        let _ = std::fs::remove_file(&part);
    }
    set.set("workloads", entries);
    let name = if args.traced {
        "run-traced.json"
    } else {
        "run.json"
    };
    let path = args.out.clone().unwrap_or_else(|| out_dir().join(name));
    write_json(&path, &set)?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|parsed| {
            let default_reps = if parsed.scale == Scale::Full { 5 } else { 2 };
            let budget = parsed.budget.unwrap_or(Budget::Reps(default_reps));
            match parsed.workload {
                Some(workload) => run_one(workload, &parsed, budget),
                None => run_all(&parsed, budget),
            }
        }),
        Some((cmd, [a, b])) if cmd == "compare" => compare::load(a).and_then(|a| {
            let b = compare::load(b)?;
            let (regressed, _) = compare::compare(&a, &b);
            Ok(regressed == 0)
        }),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_invocation_parses() {
        let parsed = parse_run(&args(
            "--workload paper_suite --seed 17 --seconds 20 --trace 1",
        ))
        .expect("valid flags");
        assert_eq!(parsed.workload, Some(Workload::PaperSuite));
        assert_eq!(parsed.seed, 17);
        assert_eq!(parsed.budget, Some(Budget::Seconds(20.0)));
        assert!(parsed.traced);
        assert_eq!(parsed.scale, Scale::Full);
    }

    #[test]
    fn seeds_are_decimal_or_hex_and_defaults_hold() {
        let parsed =
            parse_run(&args("--seed 0xA51 --scale smoke --reps 3 --traced")).expect("valid");
        assert_eq!(parsed.seed, 0xA51);
        assert_eq!(parsed.scale, Scale::Smoke);
        assert_eq!(parsed.budget, Some(Budget::Reps(3)));
        assert!(parsed.traced && parsed.workload.is_none());
        let defaults = parse_run(&[]).expect("no flags is valid");
        assert_eq!(defaults.seed, DEFAULT_SEED);
        assert!(defaults.budget.is_none() && !defaults.traced);
    }

    #[test]
    fn bad_flags_are_rejected() {
        for bad in [
            "--workload mesh65",
            "--seed twelve",
            "--reps 0",
            "--seconds -1",
            "--trace 2",
            "--scale huge",
            "--frobnicate 1",
            "--seed",
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad} was accepted");
        }
    }
}
