//! Result files and the printed report.
//!
//! A *set file* is what `run` writes and `compare` reads: a header
//! (commit, seed, scale, budget, `nproc`) and, per workload, every
//! metric with its median, minimum, maximum and every raw sample.

use crate::metrics::{MetricDef, DRIVER_END_TO_END, END_TO_END, PER_LAYER};
use crate::stats;
use crate::workload::{Budget, Scale, Workload, WorkloadRun};
use asi_harness::Json;

/// Schema tag of a set file.
pub const SCHEMA: &str = "asi-benchmark/v1";

/// The metrics a run of this kind reports.
fn defs(traced: bool) -> &'static [MetricDef] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn samples<'a>(run: &'a WorkloadRun, def: &MetricDef) -> &'a [f64] {
    run.samples
        .get(def.name)
        .unwrap_or_else(|| panic!("the run took no sample of {}", def.name))
}

/// The header every set file starts with.
pub fn header(
    commit: Option<String>,
    seed: u64,
    scale: Scale,
    budget: Budget,
    traced: bool,
) -> Json {
    let budget = match budget {
        Budget::Reps(n) => Json::object().with("reps", n),
        Budget::Seconds(s) => Json::object().with("seconds", s),
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let now = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH);
    Json::object()
        .with("schema", SCHEMA)
        .with("commit", commit.map_or(Json::Null, Json::from))
        .with("unix_time", now.map_or(0, |d| d.as_secs()))
        .with("seed", seed)
        .with("scale", scale.name())
        .with("traced", traced)
        .with("budget", budget)
        .with("nproc", nproc)
        .with("workloads", Json::Arr(Vec::new()))
}

/// One workload's entry of a set file.
pub fn workload_json(workload: Workload, run: &WorkloadRun, traced: bool) -> Json {
    let metrics = defs(traced)
        .iter()
        .map(|def| {
            let v = samples(run, def);
            Json::object()
                .with("name", def.name)
                .with("unit", def.unit)
                .with("median", stats::median(v))
                .with("min", stats::min(v))
                .with("max", stats::max(v))
                .with("n", v.len())
                .with(
                    "samples",
                    Json::Arr(v.iter().map(|x| Json::from(*x)).collect()),
                )
        })
        .collect();
    let failures = run.verdict.failures.iter().map(|f| Json::from(f.as_str()));
    Json::object()
        .with("name", workload.name())
        .with("reps", run.reps)
        .with("correct", run.verdict.failed == 0)
        .with("attempted", run.verdict.attempted)
        .with("failed", run.verdict.failed)
        .with("failures", Json::Arr(failures.collect()))
        .with("metrics", Json::Arr(metrics))
}

/// The one-line result: `correct`, `attempted`, `failed` and the median
/// of every metric `BENCHMARK.json` lists for this kind of run.
pub fn result_line(run: &WorkloadRun, traced: bool) -> Json {
    let mut metrics = Json::object();
    for def in defs(traced) {
        if traced || DRIVER_END_TO_END.contains(&def.name) {
            let value = stats::median(samples(run, def));
            metrics.set(
                def.name,
                Json::object().with("value", value).with("unit", def.unit),
            );
        }
    }
    Json::object()
        .with("correct", run.verdict.failed == 0)
        .with("attempted", run.verdict.attempted)
        .with("failed", run.verdict.failed)
        .with("metrics", metrics)
}

/// Prints every metric of the run by name with its unit.
pub fn print_report(workload: Workload, run: &WorkloadRun, traced: bool) {
    println!(
        "workload {} — {} repetitions, {} run; a timing is the median of its samples \
         (so few samples support no higher percentile)",
        workload.name(),
        run.reps,
        if traced { "traced" } else { "untraced" },
    );
    for def in defs(traced) {
        let v = samples(run, def);
        println!(
            "  {:<26} {:>16.6} {:<7} min {:.6}  max {:.6}  n={}",
            def.name,
            stats::median(v),
            def.unit,
            stats::min(v),
            stats::max(v),
            v.len()
        );
    }
    println!(
        "  attempted {}  failed {}  {}",
        run.verdict.attempted,
        run.verdict.failed,
        if run.verdict.failed == 0 {
            "correct"
        } else {
            "INCORRECT"
        }
    );
    for failure in &run.verdict.failures {
        println!("  check failed: {failure}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_workload;
    use asi_harness::json::parse;

    fn keys(json: &Json) -> Vec<&str> {
        match json {
            Json::Obj(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        }
    }

    #[test]
    fn emitted_json_parses_back_with_the_repository_parser() {
        for traced in [false, true] {
            let run = run_workload(
                Workload::Mesh64,
                Scale::Smoke,
                0xA51,
                Budget::Reps(2),
                traced,
            );

            let line = result_line(&run, traced).to_string_compact();
            assert!(!line.contains('\n'));
            let parsed = parse(&line).expect("the result line parses");
            assert_eq!(keys(&parsed), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(parsed.get("correct").as_bool(), Some(true));
            assert_eq!(parsed.get("failed").as_u64(), Some(0));
            assert!(parsed.get("attempted").as_u64().expect("a whole number") >= 1);
            let expected: Vec<&str> = if traced {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                DRIVER_END_TO_END.to_vec()
            };
            assert_eq!(keys(parsed.get("metrics")), expected);
            for name in expected {
                let metric = parsed.get("metrics").get(name);
                assert_eq!(keys(metric), ["value", "unit"]);
                assert!(metric.get("value").as_f64().expect("a number").is_finite());
            }

            let mut set = header(None, 0xA51, Scale::Smoke, Budget::Reps(2), traced);
            set.set(
                "workloads",
                vec![workload_json(Workload::Mesh64, &run, traced)],
            );
            let parsed = parse(&set.to_string_pretty()).expect("the set file parses");
            assert_eq!(parsed, set);
            assert_eq!(parsed.get("schema").as_str(), Some(SCHEMA));
            assert_eq!(parsed.get("seed").as_u64(), Some(0xA51));
            let wall = parsed.get("workloads").idx(0).get("metrics").idx(0);
            if !traced {
                assert_eq!(wall.get("name").as_str(), Some("wall_s"));
                assert_eq!(wall.get("samples").as_array().map(<[Json]>::len), Some(2));
            }
        }
    }
}
