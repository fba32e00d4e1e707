//! Property tests for the data-plane traffic guarantees
//! (`docs/TRAFFIC.md`): a zero-load plan must replay the traffic-free
//! run byte for byte, a loaded run must be byte-identical across
//! scheduling kernels, and multicast replication must deliver every
//! group packet to every member exactly once — for any plan seed.

use asi_fabric::Arrivals;
use asi_harness::prelude::*;
use asi_harness::{summarize_traffic, trace_to_jsonl, RingCollector};
use asi_proto::DeviceType;
use asi_sim::{KernelSpec, SimDuration, TraceHandle};
use asi_topo::{mesh, NodeId};
use proptest::prelude::*;
use std::collections::BTreeMap;

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
    assert_eq!(bench.fabric.packet_arena_live(), 0, "under {kernel}");
    assert_eq!(bench.fabric.queued_packets(), 0, "under {kernel}");
    assert_eq!(bench.fabric.credits_outstanding(), 0, "under {kernel}");
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
                .with_multicast(4, 0.0)
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
            .with_multicast(2, 0.05)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The multicast replication property: every packet injected into a
    /// group is delivered to every member of that group exactly once —
    /// no member missed, no duplicate down a spanning-tree branch, no
    /// delivery to a non-member — for any seeded group layout.
    #[test]
    fn multicast_reaches_every_member_exactly_once(
        seed in 0u64..1_000_000,
        groups in 1u16..=8,
    ) {
        let grid = mesh(3, 3).unwrap();
        // The window opens at 1ms, well after bring-up: a shot fired
        // before its source's link trains is dropped like any arrival
        // at a dead port, which would under-count deliveries.
        let plan = TrafficPlan::none()
            .with_multicast(groups, 0.1)
            .with_window(SimDuration::from_ms(1), SimDuration::from_ms(2))
            .with_seed(seed);
        let scenario = Scenario::new(Algorithm::Parallel)
            .with_seed(seed)
            .with_traffic_plan(plan.clone());
        let mut bench = Bench::start(&grid.topology, &scenario, &[]);
        // Bench::start returns shortly after discovery settles; drain
        // the rest of the injection window so every shot lands.
        bench.fabric.run_until_idle();

        // Recompute the schedule the fabric ran (the scenario adds the
        // FM endpoint to the exempt set before materializing).
        let fm = asi_topo::default_fm_endpoint(&grid.topology).unwrap();
        let mut exempt_plan = plan;
        exempt_plan.exempt.push(fm.0);
        let schedule = exempt_plan.materialize(&grid.topology, SimDuration::from_ns(4));
        let shots = schedule.shots();

        // Members per group: endpoints whose table entry has the
        // membership bit set.
        let mut members: BTreeMap<u16, Vec<u32>> = BTreeMap::new();
        for w in &schedule.writes {
            let is_endpoint = grid.topology.node(NodeId(w.device)).unwrap().device_type
                == DeviceType::Endpoint;
            if is_endpoint && w.mask & 1 != 0 {
                members.entry(w.group).or_default().push(w.device);
            }
        }
        // Packets injected per group, and each group's feeding member
        // (the flow source replicates outward but never hears its own
        // packet back — the ingress port is skipped at its switch).
        let mut injected: BTreeMap<u16, u64> = BTreeMap::new();
        let mut sources: BTreeMap<u16, u32> = BTreeMap::new();
        for shot in &shots {
            let flow = &schedule.flows[shot.flow as usize];
            if let asi_fabric::FlowKind::Mcast { group } = flow.kind {
                *injected.entry(group).or_default() += 1;
                sources.insert(group, flow.src);
            }
        }
        prop_assert_eq!(members.len() as u16, groups, "every group provisioned");

        let counters = *bench.fabric.counters();
        prop_assert_eq!(counters.dropped_inactive, 0, "no shot fired early");
        prop_assert_eq!(
            counters.mcast_injected,
            shots.len() as u64,
            "every scheduled shot injected"
        );
        let deliveries = bench.fabric.mcast_deliveries();
        let mut expected_total = 0u64;
        for (&group, devs) in &members {
            prop_assert!(devs.len() >= 2, "group {} has {} members", group, devs.len());
            let shots = injected.get(&group).copied().unwrap_or(0);
            prop_assert!(shots > 0, "group {} never fed", group);
            let src = sources[&group];
            prop_assert!(devs.contains(&src), "source {} is a member", src);
            for &dev in devs {
                let want = if dev == src { 0 } else { shots };
                prop_assert_eq!(
                    deliveries.get(&(group, dev)).copied().unwrap_or(0),
                    want,
                    "group {} member {} exactly-once violated", group, dev
                );
                expected_total += want;
            }
        }
        // No delivery lands outside the provisioned membership.
        for (&(group, dev), &n) in deliveries {
            prop_assert!(
                members.get(&group).is_some_and(|m| m.contains(&dev)),
                "non-member delivery: group {} device {} x{}", group, dev, n
            );
        }
        prop_assert_eq!(
            bench.fabric.counters().mcast_delivered,
            expected_total,
            "aggregate counter reconciles with the per-member map"
        );
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
