//! Property tests for the data-plane traffic guarantees
//! (`docs/TRAFFIC.md`): a zero-load plan must replay the traffic-free
//! run byte for byte, and a loaded run must be byte-identical across
//! scheduling kernels — for any plan seed.

use asi_fabric::Arrivals;
use asi_harness::prelude::*;
use asi_harness::{summarize_traffic, trace_to_jsonl, RingCollector};
use asi_sim::{KernelSpec, SimDuration, TraceHandle};
use asi_topo::mesh;
use proptest::prelude::*;

/// Brings up the 3x3 mesh, runs initial discovery under `traffic` and
/// drains the fabric, returning everything observable: the full event
/// trace plus the run's aggregate metrics, fabric counters and traffic
/// summary. The drain is what makes the cut kernel-independent:
/// `Bench::start` stops at whichever event first passes its quiet
/// period, and under the parallel kernel the clock is not monotone
/// inside a lookahead window, so with traffic still flowing the two
/// kernels stop one or two packets apart.
fn traced_run(
    seed: u64,
    algorithm: Algorithm,
    traffic: TrafficPlan,
    kernel: KernelSpec,
) -> (String, String) {
    let sink = RingCollector::shared(1 << 20);
    let scenario = Scenario::new(algorithm)
        .with_seed(seed)
        .with_traffic_plan(traffic)
        .with_kernel(kernel)
        .with_trace(TraceHandle::to(sink.clone()));
    let mut bench = Bench::start(&mesh(3, 3).unwrap().topology, &scenario, &[]);
    bench.fabric.run_until_idle();
    // Drained and fault-free: every packet consumed, every credit home.
    assert_eq!(bench.fabric.packet_arena_live(), 0, "under {kernel:?}");
    assert_eq!(bench.fabric.queued_packets(), 0, "under {kernel:?}");
    assert_eq!(bench.fabric.credits_outstanding(), 0, "under {kernel:?}");
    let run = bench.last_run();
    let counters = *bench.fabric.counters();
    let summary = summarize_traffic(&bench.fabric, &scenario.traffic);
    let jsonl = trace_to_jsonl(sink.borrow().records());
    let line = format!(
        "{} devices={} links={} requests={} responses={} time={} \
         events={} counters={:?} summary={:?}",
        algorithm.name(),
        run.devices_found,
        run.links_found,
        run.requests_sent,
        run.responses_received,
        run.discovery_time(),
        bench.fabric.events_processed(),
        counters,
        summary,
    );
    (jsonl, line)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A traffic plan with an armed window but zero offered load
    /// schedules nothing and draws nothing: the run must be
    /// byte-identical to a run with no plan at all, for any seed and
    /// any algorithm.
    #[test]
    fn zero_load_traffic_plan_replays_the_traffic_free_run(
        seed in 0u64..1_000_000,
        alg_idx in 0usize..3,
    ) {
        let algorithm = Algorithm::all()[alg_idx];
        let clean = traced_run(seed, algorithm, TrafficPlan::none(), KernelSpec::Serial);
        let armed = traced_run(
            seed,
            algorithm,
            TrafficPlan::none()
                .with_unicast(0.0, 512)
                .with_switch_sourced(0.0)
                .with_window(SimDuration::ZERO, SimDuration::from_ms(8)),
            KernelSpec::Serial,
        );
        prop_assert_eq!(clean, armed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A loaded run is byte-identical across scheduling kernels: flow
    /// deliveries, latency stamps and queue peaks are all device-local,
    /// so the conservative-sync parallel kernel reproduces the serial
    /// kernel's traffic exactly. (Trace emission order within one
    /// instant is kernel-dependent for data packets too, so the trace
    /// is compared as a sorted line multiset.) The load runs from idle
    /// ports to saturated ones, so ports cross between taking their
    /// credits by ledger and by event (`fabric/port.rs`) under every
    /// shard count.
    #[test]
    fn loaded_run_is_byte_identical_across_kernels(
        seed in 0u64..1_000_000,
        shards in 2u32..5,
        load_pct in 10u32..=90,
    ) {
        let plan = TrafficPlan::none()
            .with_unicast(f64::from(load_pct) / 100.0, 512)
            .with_flows(2)
            .with_window(SimDuration::ZERO, SimDuration::from_ms(4))
            .with_seed(seed ^ 0x7AF1C);
        let sort = |(jsonl, line): (String, String)| {
            let mut lines: Vec<&str> = jsonl.lines().collect();
            lines.sort_unstable();
            (lines.join("\n"), line)
        };
        let serial = sort(traced_run(
            seed, Algorithm::Parallel, plan.clone(), KernelSpec::Serial,
        ));
        let parallel = sort(traced_run(
            seed, Algorithm::Parallel, plan, KernelSpec::Parallel { shards },
        ));
        prop_assert_eq!(serial, parallel);
    }
}

/// CBR arrivals go through the same deterministic machinery: two
/// identical runs agree byte for byte, and delivery is non-trivial.
#[test]
fn cbr_arrivals_are_deterministic_and_deliver() {
    let plan = TrafficPlan::none()
        .with_unicast(0.25, 256)
        .with_arrivals(Arrivals::Cbr)
        .with_window(SimDuration::ZERO, SimDuration::from_ms(4));
    let a = traced_run(7, Algorithm::Parallel, plan.clone(), KernelSpec::Serial);
    let b = traced_run(7, Algorithm::Parallel, plan, KernelSpec::Serial);
    assert!(a.1.contains("flow_delivered"), "summary carries delivery");
    assert_eq!(a, b, "CBR runs must be reproducible");
}
