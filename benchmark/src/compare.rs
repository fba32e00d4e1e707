//! `compare <a.json> <b.json>`: judges set file `b` against baseline `a`
//! per (metric, workload) with the bounds of [`crate::metrics`].

use crate::metrics::{lookup, Better, Bound, MetricDef};
use crate::stats;
use asi_harness::Json;

/// The judgement of one (metric, workload) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Better than the baseline by more than the bound (or at all, for an exact metric).
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse than the baseline by more than the bound (or at all, for an exact metric).
    Regressed,
    /// A set's own repetitions spread wider than the bound: no verdict.
    Unresolved,
    /// A per-layer timing or ratio: shown, never judged.
    Info,
}

impl Status {
    fn name(self) -> &'static str {
        match self {
            Status::Improved => "improved",
            Status::Unchanged => "unchanged",
            Status::Regressed => "regressed",
            Status::Unresolved => "unresolved",
            Status::Info => "-",
        }
    }
}

/// Run-to-run spread of one set's samples as a share of their median:
/// the quartile distance, or the full range below four samples.
fn spread(samples: &[f64]) -> f64 {
    if samples.len() >= 4 {
        stats::quartile_spread(samples)
    } else {
        let med = stats::median(samples);
        if med == 0.0 {
            0.0
        } else {
            (stats::max(samples) - stats::min(samples)) / med
        }
    }
}

/// Judges samples `b` against baseline samples `a`.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Status {
    let (base, new) = (stats::median(a), stats::median(b));
    // Positive when `b` is worse.
    let worse = match def.better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    match def.bound {
        Bound::Info => Status::Info,
        Bound::Exact if worse == 0.0 => Status::Unchanged,
        Bound::Exact if worse > 0.0 => Status::Regressed,
        Bound::Exact => Status::Improved,
        Bound::Share(bound) => {
            let limit = bound * base.abs();
            if worse > limit {
                Status::Regressed
            } else if spread(a) > bound || spread(b) > bound {
                // Too noisy to call unchanged; a clean sweep still counts.
                let sweep = match def.better {
                    Better::Lower => stats::max(b) < stats::min(a),
                    Better::Higher => stats::min(b) > stats::max(a),
                };
                if sweep {
                    Status::Improved
                } else {
                    Status::Unresolved
                }
            } else if worse < -limit {
                Status::Improved
            } else {
                Status::Unchanged
            }
        }
    }
}

fn samples_of(metric: &Json) -> Vec<f64> {
    let list = metric.get("samples").as_array().unwrap_or_default();
    list.iter().filter_map(Json::as_f64).collect()
}

/// Loads a set file.
pub fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = asi_harness::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if json.get("schema").as_str() != Some(crate::report::SCHEMA) {
        return Err(format!("{path}: not a {} set file", crate::report::SCHEMA));
    }
    Ok(json)
}

/// Prints one row per (workload, metric) present in both sets and
/// returns how many regressed and how many are unresolved.
pub fn compare(a: &Json, b: &Json) -> (usize, usize) {
    let (mut regressed, mut unresolved) = (0, 0);
    println!(
        "{:<14} {:<26} {:>16} {:>16} {:>9} {:>8} {:>8}  status",
        "workload", "metric", "a", "b", "delta", "spread a", "spread b"
    );
    for wa in a.get("workloads").as_array().unwrap_or_default() {
        let name = wa.get("name").as_str().unwrap_or_default();
        let workloads_b = b.get("workloads").as_array().unwrap_or_default();
        let Some(wb) = workloads_b
            .iter()
            .find(|w| w.get("name").as_str() == Some(name))
        else {
            continue;
        };
        for (set, w) in [("a", wa), ("b", wb)] {
            if w.get("correct").as_bool() != Some(true) {
                println!("{name:<14} set {set} failed its correctness checks");
                regressed += 1;
            }
        }
        for ma in wa.get("metrics").as_array().unwrap_or_default() {
            let metric = ma.get("name").as_str().unwrap_or_default();
            let metrics_b = wb.get("metrics").as_array().unwrap_or_default();
            let found = metrics_b
                .iter()
                .find(|m| m.get("name").as_str() == Some(metric));
            let (Some(mb), Some(def)) = (found, lookup(metric)) else {
                continue;
            };
            let (sa, sb) = (samples_of(ma), samples_of(mb));
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let status = judge(def, &sa, &sb);
            regressed += usize::from(status == Status::Regressed);
            unresolved += usize::from(status == Status::Unresolved);
            let (base, new) = (stats::median(&sa), stats::median(&sb));
            let delta = if base == 0.0 {
                0.0
            } else {
                100.0 * (new - base) / base
            };
            println!(
                "{name:<14} {metric:<26} {base:>16.6} {new:>16.6} {delta:>+8.2}% {:>7.2}% {:>7.2}%  {}",
                100.0 * spread(&sa),
                100.0 * spread(&sb),
                status.name()
            );
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    (regressed, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_metric_judgements() {
        let wall = lookup("wall_s").expect("wall_s is defined");
        let steady = [1.00, 1.01, 0.99, 1.00, 1.00];
        assert_eq!(judge(wall, &steady, &steady), Status::Unchanged);
        assert_eq!(judge(wall, &steady, &[1.2; 5]), Status::Unchanged);
        assert_eq!(judge(wall, &steady, &[1.3; 5]), Status::Regressed);
        assert_eq!(judge(wall, &steady, &[0.7; 5]), Status::Improved);
        let noisy = [0.7, 1.3, 1.0, 0.8, 1.2];
        assert_eq!(judge(wall, &noisy, &steady), Status::Unresolved);
        // Every run of `b` beats every run of noisy `a`.
        assert_eq!(judge(wall, &noisy, &[0.5; 5]), Status::Improved);
        assert_eq!(judge(wall, &noisy, &[1.5; 5]), Status::Regressed);
    }

    #[test]
    fn exact_and_informational_metrics() {
        let sim = lookup("sim_discovery_us").expect("defined");
        assert_eq!(judge(sim, &[5.0, 5.0], &[5.0]), Status::Unchanged);
        assert_eq!(judge(sim, &[5.0], &[5.000001]), Status::Regressed);
        assert_eq!(judge(sim, &[5.0], &[4.0]), Status::Improved);
        let found = lookup("core.devices_found").expect("defined");
        assert_eq!(judge(found, &[8.0], &[7.0]), Status::Regressed);
        let run_s = lookup("fabric.run_s").expect("defined");
        assert_eq!(judge(run_s, &[1.0], &[9.0]), Status::Info);
    }
}
