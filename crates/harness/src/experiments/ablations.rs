//! Ablations beyond the paper's figures (DESIGN.md §4):
//!
//! - background traffic on/off — verifies the paper's "application
//!   traffic scarcely influences discovery time" claim;
//! - partial (affected-region) assimilation vs full re-discovery;
//! - credit flow control on/off;
//! - the 31-bit spec turn-pool reachability study.

use crate::report::{trim_float, TableOut};
use crate::scenario::{Bench, Scenario};
use asi_core::Algorithm;
use asi_fabric::TrafficPlan;
use asi_sim::SimDuration;
use asi_topo::{mesh, spec_reachability, Table1};

/// Background-traffic ablation: initial discovery time with and without
/// offered-load data traffic from every endpoint ([`TrafficPlan`]).
pub fn traffic(quick: bool) -> TableOut {
    let g = if quick { mesh(3, 3) } else { mesh(6, 6) }.expect("known-good grid");
    let mut t = TableOut::new(
        "ablation_traffic",
        "Effect of background application traffic on discovery time",
        &[
            "Algorithm",
            "No traffic (ms)",
            "With traffic (ms)",
            "Delta (%)",
        ],
    );
    // 7% offered load per endpoint (one 512 B packet every ≈30 µs) over
    // a window covering the whole discovery.
    let plan = TrafficPlan::none()
        .with_unicast(0.07, 512)
        .with_window(SimDuration::ZERO, SimDuration::from_ms(40));
    for alg in Algorithm::all() {
        let quiet = Bench::start(&g.topology, &Scenario::new(alg), &[])
            .last_run()
            .discovery_time();
        let s = Scenario::new(alg).with_traffic_plan(plan.clone());
        let busy = Bench::start(&g.topology, &s, &[])
            .last_run()
            .discovery_time();
        let delta = 100.0 * (busy.as_secs_f64() - quiet.as_secs_f64()) / quiet.as_secs_f64();
        t.push_row(vec![
            alg.name().to_string(),
            trim_float(quiet.as_millis_f64()),
            trim_float(busy.as_millis_f64()),
            trim_float(delta),
        ]);
    }
    t
}

/// Partial vs full change assimilation.
pub fn partial_assimilation(quick: bool) -> TableOut {
    let g = if quick { mesh(4, 4) } else { mesh(8, 8) }.expect("known-good grid");
    let mut t = TableOut::new(
        "ablation_partial",
        "Full re-discovery vs partial (affected-region) assimilation after a switch removal",
        &["Mode", "Assimilation time (ms)", "PI-4 requests"],
    );
    for partial in [false, true] {
        let scenario = Scenario::new(Algorithm::Parallel)
            .with_seed(0xAB1)
            .with_partial_assimilation(partial);
        let mut bench = Bench::start(&g.topology, &scenario, &[]);
        let victim = bench.pick_victim_switch();
        let run = bench.remove_switch(victim);
        t.push_row(vec![
            if partial { "Partial" } else { "Full" }.to_string(),
            trim_float(run.discovery_time().as_millis_f64()),
            run.requests_sent.to_string(),
        ]);
    }
    t
}

/// Credit flow control on/off.
pub fn flow_control(quick: bool) -> TableOut {
    let g = if quick { mesh(3, 3) } else { mesh(6, 6) }.expect("known-good grid");
    let mut t = TableOut::new(
        "ablation_flow_control",
        "Effect of credit-based flow control on discovery time",
        &["Algorithm", "Credits on (ms)", "Credits off (ms)"],
    );
    for alg in Algorithm::all() {
        let on = Bench::start(&g.topology, &Scenario::new(alg), &[])
            .last_run()
            .discovery_time();
        let s = Scenario::new(alg).with_flow_control(false);
        let off = Bench::start(&g.topology, &s, &[])
            .last_run()
            .discovery_time();
        t.push_row(vec![
            alg.name().to_string(),
            trim_float(on.as_millis_f64()),
            trim_float(off.as_millis_f64()),
        ]);
    }
    t
}

/// 31-bit spec turn-pool reachability per Table 1 topology.
pub fn spec_pool(quick: bool) -> TableOut {
    let topos = if quick {
        Table1::quick()
    } else {
        Table1::all()
    };
    let mut t = TableOut::new(
        "ablation_spec_pool",
        "Fraction of each fabric addressable within the 31-bit spec turn pool",
        &[
            "Topology",
            "Reachable",
            "Within 31-bit pool",
            "Max turn bits",
        ],
    );
    for spec in topos {
        let topo = spec.build();
        let fm = asi_topo::default_fm_endpoint(&topo).unwrap();
        let r = spec_reachability(&topo, fm);
        t.push_row(vec![
            spec.name(),
            r.reachable.to_string(),
            r.within_spec.to_string(),
            r.max_turn_bits.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_barely_affects_discovery() {
        let t = traffic(true);
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            let delta: f64 = row[3].parse().unwrap();
            // The paper: "this traffic scarcely influences the discovery
            // time" — allow single-digit percent.
            assert!(
                delta.abs() < 10.0,
                "{}: traffic changed discovery time by {delta}%",
                row[0]
            );
        }
    }

    #[test]
    fn partial_is_faster_than_full() {
        let t = partial_assimilation(true);
        let full_ms: f64 = t.rows[0][1].parse().unwrap();
        let partial_ms: f64 = t.rows[1][1].parse().unwrap();
        assert!(partial_ms < full_ms, "partial {partial_ms} full {full_ms}");
        let full_req: u64 = t.rows[0][2].parse().unwrap();
        let partial_req: u64 = t.rows[1][2].parse().unwrap();
        assert!(partial_req * 2 < full_req);
    }

    #[test]
    fn flow_control_is_nearly_free_for_management() {
        let t = flow_control(true);
        for row in &t.rows {
            let on: f64 = row[1].parse().unwrap();
            let off: f64 = row[2].parse().unwrap();
            // Management load is tiny: credits should not be a bottleneck.
            assert!(
                (on - off).abs() / off < 0.05,
                "{}: on={on} off={off}",
                row[0]
            );
        }
    }

    #[test]
    fn spec_pool_covers_small_but_not_large_fabrics() {
        let t = spec_pool(false);
        let find = |name: &str| {
            t.rows
                .iter()
                .find(|r| r[0] == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .clone()
        };
        let small = find("3x3 mesh");
        assert_eq!(small[1], small[2], "3x3 mesh should be fully in spec");
        let big = find("16x16 torus");
        let reach: u64 = big[1].parse().unwrap();
        let within: u64 = big[2].parse().unwrap();
        assert!(within < reach, "16x16 torus cannot fit the 31-bit pool");
    }
}
