//! Property tests for the cross-kernel determinism guarantee
//! (`docs/PARALLEL.md`): the conservative-sync parallel kernel must
//! reproduce the serial kernel's run **byte for byte** — same discovery
//! aggregates, same fabric counters, same trace events — at any shard
//! count, for any seed and algorithm, including faulted and churned
//! plans.
//!
//! Trace comparison is canonical: within one instant the parallel
//! kernel dispatches shard-by-shard while the serial kernel interleaves
//! devices in key order, so emission order *within a timestamp* may
//! differ while the per-instant event multiset must not. Lines are
//! compared sorted by `(t_ps, line)`.

use asi_harness::prelude::*;
use asi_harness::{trace_to_jsonl, RingCollector};
use asi_sim::{KernelSpec, SimDuration, TraceHandle};
use asi_topo::mesh;
use proptest::prelude::*;

/// Extracts the `t_ps` timestamp from one trace JSONL line.
fn t_ps_of(line: &str) -> u64 {
    let rest = &line[line.find("\"t_ps\":").expect("record has t_ps") + 7..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().expect("t_ps is an integer")
}

/// Sorts a JSONL trace into the canonical cross-kernel order:
/// by timestamp, then by the rendered record.
fn canonicalize(jsonl: &str) -> String {
    let mut lines: Vec<(u64, &str)> = jsonl
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| (t_ps_of(l), l))
        .collect();
    lines.sort();
    lines
        .into_iter()
        .map(|(_, l)| l)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Runs initial discovery on the 3x3 mesh under `kernel` and returns
/// everything observable: the canonicalized trace plus the run's
/// aggregate metrics and the full fabric counters. Also asserts the
/// conservation laws of a drained run: no packet payload may still be
/// live, and — when no link or device went down under a packet — every
/// flow-control credit is back with its transmitter.
fn kernel_run(
    seed: u64,
    algorithm: Algorithm,
    faults: FaultPlan,
    churn: ChurnPlan,
    kernel: KernelSpec,
) -> (String, String) {
    let sink = RingCollector::shared(1 << 20);
    let nothing_goes_down = churn.is_inert() && faults.events.is_empty();
    let scenario = Scenario::new(algorithm)
        .with_seed(seed)
        .with_faults(faults)
        .with_churn(churn)
        .with_kernel(kernel)
        .with_trace(TraceHandle::to(sink.clone()));
    let mut bench = Bench::start(&mesh(3, 3).unwrap().topology, &scenario, &[]);
    let run = bench.last_run();
    let counters = *bench.fabric.counters();
    bench.fabric.run_until_idle();
    assert_eq!(
        bench.fabric.packet_arena_live(),
        0,
        "packet arena leaked under {kernel}"
    );
    assert_eq!(
        bench.fabric.queued_packets(),
        0,
        "packets left queued under {kernel}"
    );
    if nothing_goes_down {
        assert_eq!(
            bench.fabric.credits_outstanding(),
            0,
            "credits leaked under {kernel}"
        );
    }
    let trace = canonicalize(&trace_to_jsonl(sink.borrow().records()));
    let summary = format!(
        "{} devices={} links={} requests={} responses={} timeouts={} \
         retries={} abandoned={} time={} counters={:?}",
        algorithm.name(),
        run.devices_found,
        run.links_found,
        run.requests_sent,
        run.responses_received,
        run.timeouts,
        run.retries,
        run.abandoned,
        run.discovery_time(),
        counters,
    );
    (trace, summary)
}

/// A fault plan that consumes per-device RNG draws and drops, corrupts
/// and duplicates live packets.
fn lossy_plan() -> FaultPlan {
    FaultPlan::none()
        .with_loss(LossModel::uniform(0.02))
        .with_corruption(0.05)
        .with_duplication(0.05)
}

/// A live churn plan: link flaps plus device remove/re-add streams,
/// exercising the control-event barrier path of the parallel kernel.
fn churny_plan(seed: u64) -> ChurnPlan {
    ChurnPlan::none()
        .with_link_flaps(1_500.0, SimDuration::from_us(200))
        .with_device_churn(300.0, SimDuration::from_ms(1))
        .with_window(SimDuration::from_ms(6), SimDuration::from_ms(4))
        .with_seed(seed)
        .with_exempt(default_churn_exempt(&mesh(3, 3).unwrap().topology))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Clean bring-up: serial and parallel runs are byte-identical at
    /// shard counts 1, 2 and 4 for every algorithm and seed.
    #[test]
    fn parallel_matches_serial_clean(
        seed in 0u64..1_000_000,
        alg_idx in 0usize..3,
    ) {
        let algorithm = Algorithm::all()[alg_idx];
        let serial = kernel_run(
            seed, algorithm, FaultPlan::none(), ChurnPlan::none(), KernelSpec::Serial,
        );
        for shards in [1u32, 2, 4] {
            let par = kernel_run(
                seed,
                algorithm,
                FaultPlan::none(),
                ChurnPlan::none(),
                KernelSpec::Parallel { shards },
            );
            prop_assert_eq!(&serial, &par, "shards={}", shards);
        }
    }

    /// Faulted runs (loss + corruption + duplication, all consuming
    /// per-device RNG draws) stay byte-identical across kernels.
    #[test]
    fn parallel_matches_serial_under_faults(
        seed in 0u64..1_000_000,
        alg_idx in 0usize..3,
    ) {
        let algorithm = Algorithm::all()[alg_idx];
        let serial = kernel_run(
            seed, algorithm, lossy_plan(), ChurnPlan::none(), KernelSpec::Serial,
        );
        for shards in [2u32, 4] {
            let par = kernel_run(
                seed,
                algorithm,
                lossy_plan(),
                ChurnPlan::none(),
                KernelSpec::Parallel { shards },
            );
            prop_assert_eq!(&serial, &par, "shards={}", shards);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Churned runs (hot remove/re-add and flap streams) stay
    /// byte-identical across kernels.
    #[test]
    fn parallel_matches_serial_under_churn(
        seed in 0u64..1_000_000,
        alg_idx in 0usize..3,
    ) {
        let algorithm = Algorithm::all()[alg_idx];
        let serial = kernel_run(
            seed, algorithm, FaultPlan::none(), churny_plan(seed), KernelSpec::Serial,
        );
        for shards in [2u32, 4] {
            let par = kernel_run(
                seed,
                algorithm,
                FaultPlan::none(),
                churny_plan(seed),
                KernelSpec::Parallel { shards },
            );
            prop_assert_eq!(&serial, &par, "shards={}", shards);
        }
    }
}

/// Shard counts beyond the device count clamp instead of panicking, and
/// still reproduce the serial run.
#[test]
fn oversubscribed_shard_count_clamps_and_matches() {
    let serial = kernel_run(
        7,
        Algorithm::Parallel,
        FaultPlan::none(),
        ChurnPlan::none(),
        KernelSpec::Serial,
    );
    let par = kernel_run(
        7,
        Algorithm::Parallel,
        FaultPlan::none(),
        ChurnPlan::none(),
        KernelSpec::Parallel { shards: 64 },
    );
    assert_eq!(serial, par);
}
