//! Property tests for the continuous-churn guarantees (`docs/CHURN.md`):
//! a churn plan whose rates are zero must replay the churn-free run
//! byte for byte, and a live churn run's final partial-assimilation
//! database must equal a cold re-discovery of the end-state fabric.

use asi_harness::prelude::*;
use asi_harness::{trace_to_jsonl, RingCollector};
use asi_sim::{SimDuration, TraceHandle};
use asi_topo::{mesh, torus, Grid};
use proptest::prelude::*;

/// Brings up the 3x3 mesh and runs initial discovery under `churn`,
/// returning everything observable: the full event trace plus the
/// run's aggregate metrics and fabric counters.
fn traced_run(seed: u64, algorithm: Algorithm, churn: ChurnPlan) -> (String, String) {
    let sink = RingCollector::shared(1 << 20);
    let scenario = Scenario::new(algorithm)
        .with_seed(seed)
        .with_churn(churn)
        .with_trace(TraceHandle::to(sink.clone()));
    let bench = Bench::start(&mesh(3, 3).unwrap().topology, &scenario, &[]);
    let run = bench.last_run();
    let counters = *bench.fabric.counters();
    let jsonl = trace_to_jsonl(sink.borrow().records());
    let summary = format!(
        "{} devices={} links={} requests={} responses={} time={} \
         events={} churn_events={} flaps={} pi5={}",
        algorithm.name(),
        run.devices_found,
        run.links_found,
        run.requests_sent,
        run.responses_received,
        run.discovery_time(),
        bench.fabric.events_processed(),
        counters.churn_events,
        counters.link_flaps,
        counters.pi5_emitted,
    );
    (jsonl, summary)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A churn plan with an armed window but zero rates schedules
    /// nothing and draws nothing: the run must be byte-identical to a
    /// run with no plan at all, for any seed and any algorithm.
    #[test]
    fn zero_rate_churn_plan_replays_the_churn_free_run(
        seed in 0u64..1_000_000,
        alg_idx in 0usize..3,
    ) {
        let algorithm = Algorithm::all()[alg_idx];
        let clean = traced_run(seed, algorithm, ChurnPlan::none());
        let armed = traced_run(
            seed,
            algorithm,
            ChurnPlan::none()
                .with_link_flaps(0.0, SimDuration::from_us(200))
                .with_device_churn(0.0, SimDuration::from_ms(1))
                .with_window(SimDuration::from_ms(6), SimDuration::from_ms(4)),
        );
        prop_assert_eq!(clean, armed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The assimilation-correctness property: after a live churn window
    /// drains, the incrementally assimilated database equals a cold
    /// re-discovery of the end-state fabric, and the run ends with zero
    /// divergence — for any churn seed.
    #[test]
    fn churned_database_equals_cold_rediscovery_of_the_end_state(
        seed in 0u64..1_000_000,
    ) {
        let grid = mesh(3, 3).unwrap();
        let plan = ChurnPlan::none()
            .with_link_flaps(1_500.0, SimDuration::from_us(200))
            .with_device_churn(300.0, SimDuration::from_ms(1))
            .with_window(SimDuration::from_ms(6), SimDuration::from_ms(4))
            .with_seed(seed)
            .with_exempt(default_churn_exempt(&grid.topology));
        let scenario = Scenario::new(Algorithm::Parallel)
            .with_seed(seed)
            .with_partial_assimilation(true)
            .with_churn(plan);
        let out = churn_experiment(&grid.topology, &scenario);
        prop_assert!(out.churn_events > 0, "plan fired nothing: {out:?}");
        prop_assert!(out.full_topology, "devices missing: {out:?}");
        prop_assert!(!out.diverged_at_end, "still diverged: {out:?}");
        prop_assert!(out.cold_db_matches, "cold mismatch: {out:?}");
    }
}

/// Seeds a PI-5 storm used to lose: the storm's verification pass
/// dropped the port-block re-reads its scoping kept, so the live
/// neighbours of a device a timeout had forgotten were never re-read
/// and the database ended short (`churn --topology mesh:4x4 --seed 8`
/// ended with 30 of 32 devices). Each row is the CLI's `churn` run:
/// default rates and down times, a 4 ms window at `start_us`.
#[test]
fn storm_rereads_keep_the_pinned_churn_seeds_converged() {
    let rows: [(&str, Grid, u64, &[u64]); 4] = [
        ("mesh:4x4", mesh(4, 4).unwrap(), 6_000, &[8, 39, 42, 52, 55]),
        ("torus:4x4", torus(4, 4).unwrap(), 6_000, &[52, 55]),
        ("mesh:6x6", mesh(6, 6).unwrap(), 40_000, &[6, 35, 37, 39]),
        ("mesh:8x8", mesh(8, 8).unwrap(), 40_000, &[12]),
    ];
    for (name, grid, start_us, seeds) in rows {
        let topo = &grid.topology;
        for &seed in seeds {
            let plan = ChurnPlan::none()
                .with_link_flaps(1_500.0, SimDuration::from_us(200))
                .with_device_churn(300.0, SimDuration::from_ms(1))
                .with_window(SimDuration::from_us(start_us), SimDuration::from_ms(4))
                .with_seed(seed)
                .with_exempt(default_churn_exempt(topo));
            let scenario = Scenario::new(Algorithm::Parallel)
                .with_seed(seed)
                .with_partial_assimilation(true)
                .with_churn(plan);
            let out = churn_experiment(topo, &scenario);
            assert!(
                out.full_topology,
                "{name} seed {seed}: database short: {out:?}"
            );
            assert!(
                out.cold_db_matches,
                "{name} seed {seed}: cold mismatch: {out:?}"
            );
            assert!(
                out.converged(),
                "{name} seed {seed}: not converged: {out:?}"
            );
        }
    }
}
