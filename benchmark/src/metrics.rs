//! The benchmark's metric names: one table that `run`, `compare`, the
//! README and `BENCHMARK.json` all agree with (a test checks the last).

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// How `compare` judges a metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// May worsen by this share of the baseline's median.
    Share(f64),
    /// A simulated quantity or a count: any difference is reported.
    Exact,
    /// Reported, never judged (per-layer host timings and ratios).
    Info,
}

/// One named metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]`; the part before the first `.` is the layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression rule.
    pub bound: Bound,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: Bound) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};
use Bound::{Exact, Info, Share};

/// The five end-to-end metrics, measured with tracing off. The share
/// bounds are set by the run-to-run spread of the machine the baseline
/// was taken on (see the README); `BENCHMARK.json` carries the same
/// numbers.
pub const END_TO_END: &[MetricDef] = &[
    def("wall_s", "s", Lower, Share(0.25)),
    def("setup_s", "s", Lower, Share(0.25)),
    def("peak_rss_mb", "MiB", Lower, Share(0.12)),
    def("sim_discovery_us", "sim_us", Lower, Exact),
    def("failed_share", "share", Lower, Exact),
];

/// The end-to-end metrics `BENCHMARK.json` lists. `sim_discovery_us` is
/// the same on every run and `failed_share` is zero, which that file's
/// contract does not allow in its `end_to_end` list: there the first is
/// the per-layer `core.sim_discovery_us` and the second is the
/// `failed`/`attempted` pair of the result line.
pub const DRIVER_END_TO_END: &[&str] = &["wall_s", "setup_s", "peak_rss_mb"];

/// The per-layer metrics, from the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // asi-topo
    def("topo.build_s", "s", Lower, Info),
    def("topo.devices", "count", Lower, Exact),
    def("topo.links", "count", Lower, Exact),
    // asi-fabric
    def("fabric.new_s", "s", Lower, Info),
    def("fabric.bringup_s", "s", Lower, Info),
    def("fabric.bringup_events", "count", Lower, Exact),
    def("fabric.run_s", "s", Lower, Info),
    def("fabric.run_events", "count", Lower, Exact),
    def("fabric.dispatch_s", "s", Lower, Info),
    def("fabric.ns_per_event", "ns", Lower, Info),
    def("fabric.injected", "count", Lower, Exact),
    def("fabric.forwarded", "count", Lower, Exact),
    def("fabric.delivered", "count", Lower, Exact),
    def("fabric.dropped", "count", Lower, Exact),
    def("fabric.credit_stalls", "count", Lower, Exact),
    def("fabric.mgmt_bytes", "B", Lower, Exact),
    def("fabric.data_bytes", "B", Lower, Exact),
    def("fabric.flow_injected", "count", Higher, Exact),
    def("fabric.flow_delivered", "count", Higher, Exact),
    def("fabric.mgmt_queue_peak", "count", Lower, Exact),
    def("fabric.data_queue_peak", "count", Lower, Exact),
    // asi-sim
    def("sim.events", "count", Lower, Exact),
    def("sim.events_per_s", "1/s", Higher, Info),
    def("sim.arena_live_end", "count", Lower, Exact),
    def("sim.hold_ns_per_event", "ns", Lower, Info),
    def("sim.kernel_share_est", "share", Lower, Info),
    def("sim.parallel_windows", "count", Lower, Exact),
    def("sim.cross_shard_events", "count", Lower, Exact),
    def("sim.batches", "count", Lower, Exact),
    // asi-core
    def("core.on_packet_s", "s", Lower, Info),
    def("core.on_packet_calls", "count", Lower, Exact),
    def("core.on_timer_s", "s", Lower, Info),
    def("core.on_timer_calls", "count", Lower, Exact),
    def("core.processing_time_s", "s", Lower, Info),
    def("core.on_port_event_s", "s", Lower, Info),
    def("core.agent_s", "s", Lower, Info),
    def("core.agent_share", "share", Lower, Info),
    def("core.sim_discovery_us", "sim_us", Lower, Exact),
    def("core.requests", "count", Lower, Exact),
    def("core.responses", "count", Lower, Exact),
    def("core.timeouts", "count", Lower, Exact),
    def("core.retries", "count", Lower, Exact),
    def("core.abandoned", "count", Lower, Exact),
    def("core.peak_outstanding", "count", Lower, Exact),
    def("core.devices_found", "count", Higher, Exact),
    def("core.links_found", "count", Higher, Exact),
    def("core.fm_busy_sim_us", "sim_us", Lower, Exact),
    def("core.useful_ratio", "share", Higher, Exact),
    def("core.routes_to_s", "s", Lower, Info),
    def("core.routes_from_s", "s", Lower, Info),
    def("core.routes", "count", Higher, Exact),
    // asi-harness
    def("harness.start_s", "s", Lower, Info),
    def("harness.configure_pi5_s", "s", Lower, Info),
    def("harness.remove_switch_s", "s", Lower, Info),
    def("harness.add_device_s", "s", Lower, Info),
    def("harness.overhead_s", "s", Lower, Info),
    def("harness.overhead_share", "share", Lower, Info),
    // the host, seen from the benchmark binary
    def("host.alloc_count_setup", "count", Lower, Exact),
    def("host.alloc_count_run", "count", Lower, Exact),
    def("host.alloc_bytes_setup", "B", Lower, Exact),
    def("host.alloc_bytes_run", "B", Lower, Exact),
    // the instrument itself
    def("trace.overhead_pct", "%", Lower, Info),
];

/// Looks a metric up by name in either table.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(ok)
    }

    #[test]
    fn metric_and_workload_names_use_the_allowed_characters_once() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for name in &names {
            assert!(is_name(name), "bad name {name:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16 && m.unit.chars().all(unit_ok));
        }
    }

    /// `BENCHMARK.json` at the repository root names exactly the
    /// workloads and metrics this binary emits.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = asi_harness::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            json.get(key)
                .as_array()
                .expect("a list")
                .iter()
                .map(|e| e.get("name").as_str().expect("a name").to_string())
                .collect()
        };
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), workloads);
        assert_eq!(names("end_to_end"), DRIVER_END_TO_END);
        let per_layer: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names("per_layer"), per_layer);
        for entry in json.get("end_to_end").as_array().expect("a list") {
            let def = lookup(entry.get("name").as_str().expect("a name")).expect("known metric");
            assert_eq!(entry.get("unit").as_str(), Some(def.unit));
            let theirs = entry.get("bound").as_f64().expect("a bound");
            assert_eq!(def.bound, Bound::Share(theirs), "{}", def.name);
        }
        for entry in json.get("per_layer").as_array().expect("a list") {
            let def = lookup(entry.get("name").as_str().expect("a name")).expect("known metric");
            assert_eq!(entry.get("unit").as_str(), Some(def.unit));
            let better = match def.better {
                Lower => "lower",
                Higher => "higher",
            };
            assert_eq!(entry.get("better").as_str(), Some(better));
        }
        assert_eq!(json.get("paths").idx(0).as_str(), Some("benchmark"));
    }
}
