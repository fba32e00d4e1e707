//! Property tests for the fault-injection determinism guarantees
//! (`docs/FAULTS.md`): an armed fault plan whose every probability is
//! zero must be indistinguishable — byte for byte — from no plan at
//! all, for any seed and any algorithm.

use asi_harness::prelude::*;
use asi_harness::{trace_to_jsonl, RingCollector};
use asi_sim::TraceHandle;
use asi_topo::mesh;
use proptest::prelude::*;

/// Runs initial discovery on the 3x3 mesh under `faults` and returns
/// everything observable: the full event trace plus the run's
/// aggregate metrics.
fn traced_run(seed: u64, algorithm: Algorithm, faults: FaultPlan) -> (String, String) {
    let sink = RingCollector::shared(1 << 20);
    let scenario = Scenario::new(algorithm)
        .with_seed(seed)
        .with_faults(faults)
        .with_trace(TraceHandle::to(sink.clone()));
    let bench = Bench::start(&mesh(3, 3).unwrap().topology, &scenario, &[]);
    let (run, active) = (bench.last_run(), bench.active_nodes());
    let jsonl = trace_to_jsonl(sink.borrow().records());
    let summary = format!(
        "{} devices={} links={} requests={} responses={} timeouts={} \
         retries={} abandoned={} time={} active={}",
        algorithm.name(),
        run.devices_found,
        run.links_found,
        run.requests_sent,
        run.responses_received,
        run.timeouts,
        run.retries,
        run.abandoned,
        run.discovery_time(),
        active,
    );
    (jsonl, summary)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A Gilbert–Elliott model with mean loss 0 keeps advancing its
    /// burst state (consuming fault-RNG draws), yet must replay the
    /// fault-free run exactly: the fault RNG feeds nothing else and a
    /// lossless draw never alters scheduling.
    #[test]
    fn zero_loss_gilbert_elliott_replays_the_fault_free_run(
        seed in 0u64..1_000_000,
        alg_idx in 0usize..3,
    ) {
        let algorithm = Algorithm::all()[alg_idx];
        let clean = traced_run(seed, algorithm, FaultPlan::none());
        let armed = traced_run(
            seed,
            algorithm,
            FaultPlan::none()
                .with_loss(LossModel::bursty(0.0))
                .with_corruption(0.0)
                .with_duplication(0.0),
        );
        prop_assert_eq!(clean, armed);
    }
}
