//! The cross-kernel determinism guarantee (`asi_sim::kernel`): the
//! conservative-sync parallel kernel must reproduce the serial kernel's
//! run **byte for byte** — same discovery aggregates, same fabric
//! counters, same trace events — at any shard count. The properties
//! cover any seed and algorithm on the 3x3 mesh, faulted and churned
//! plans included; fixed rows cover what a larger or different fabric
//! exercises: an 8x8 mesh, a dragonfly, an elected three-manager
//! ensemble and a whole sweep grid.
//!
//! Trace comparison is canonical: within one instant the parallel
//! kernel dispatches shard-by-shard while the serial kernel interleaves
//! devices in key order, so emission order *within a timestamp* may
//! differ while the per-instant event multiset must not. Every record
//! carries its `t_ps`, so traces are compared as sorted lines.

use asi_harness::prelude::*;
use asi_harness::{sharded_discovery, sweep, trace_to_jsonl, RingCollector};
use asi_sim::{KernelSpec, SimDuration, TraceHandle};
use asi_topo::{dragonfly, mesh, Topology};
use proptest::prelude::*;

/// A JSONL trace in canonical cross-kernel order: its lines, sorted.
fn canonicalize(jsonl: &str) -> String {
    let mut lines: Vec<&str> = jsonl.lines().collect();
    lines.sort_unstable();
    lines.join("\n")
}

fn mesh_3x3() -> Topology {
    mesh(3, 3).unwrap().topology
}

/// Runs initial discovery on `topo` under `kernel` and returns
/// everything observable: the canonicalized trace plus the whole
/// discovery run, the full fabric counters and the events of the
/// drained run by kind. Also asserts the conservation laws of a drained
/// run: no packet payload may still be live, and — when no link or
/// device went down under a packet — every flow-control credit is back
/// with its transmitter.
fn kernel_run(
    topo: &Topology,
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
    let mut bench = Bench::start(topo, &scenario, &[]);
    let run = bench.last_run();
    let counters = *bench.fabric.counters();
    bench.fabric.run_until_idle();
    assert_eq!(
        bench.fabric.packet_arena_live(),
        0,
        "packet arena leaked under {kernel:?}"
    );
    assert_eq!(
        bench.fabric.queued_packets(),
        0,
        "packets left queued under {kernel:?}"
    );
    if nothing_goes_down {
        assert_eq!(
            bench.fabric.credits_outstanding(),
            0,
            "credits leaked under {kernel:?}"
        );
    }
    let trace = canonicalize(&trace_to_jsonl(sink.borrow().records()));
    let summary = format!(
        "{run:?} counters={counters:?} events={:?}",
        bench.fabric.dispatch_counts().collect::<Vec<_>>(),
    );
    (trace, summary)
}

/// A clean Parallel-algorithm discovery of `topo`, serial against
/// `shards` shards.
fn assert_clean_run_matches(topo: &Topology, shards: u32) {
    let run = |kernel| {
        let (faults, churn) = (FaultPlan::none(), ChurnPlan::none());
        kernel_run(topo, 7, Algorithm::Parallel, faults, churn, kernel)
    };
    assert_eq!(
        run(KernelSpec::Serial),
        run(KernelSpec::Parallel { shards }),
        "{} under {shards} shards",
        topo.name
    );
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
        .with_exempt(default_churn_exempt(&mesh_3x3()))
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
            &mesh_3x3(),
            seed, algorithm, FaultPlan::none(), ChurnPlan::none(), KernelSpec::Serial,
        );
        for shards in [1u32, 2, 4] {
            let par = kernel_run(
                &mesh_3x3(),
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
            &mesh_3x3(),
            seed, algorithm, lossy_plan(), ChurnPlan::none(), KernelSpec::Serial,
        );
        for shards in [2u32, 4] {
            let par = kernel_run(
                &mesh_3x3(),
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
            &mesh_3x3(),
            seed, algorithm, FaultPlan::none(), churny_plan(seed), KernelSpec::Serial,
        );
        for shards in [2u32, 4] {
            let par = kernel_run(
                &mesh_3x3(),
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
    assert_clean_run_matches(&mesh_3x3(), 64);
}

/// An 8x8 mesh: 128 devices over four shards.
#[test]
fn parallel_matches_serial_on_an_8x8_mesh() {
    assert_clean_run_matches(&mesh(8, 8).unwrap().topology, 4);
}

/// A swapped dragonfly, whose global links join groups in different
/// shards.
#[test]
fn parallel_matches_serial_on_a_dragonfly() {
    assert_clean_run_matches(&dragonfly(2, 3).unwrap().topology, 4);
}

/// Election, claim-partitioned exploration and merge order their events
/// the same under both kernels: three managers on a 16x16 mesh.
#[test]
fn sharded_discovery_matches_serial() {
    let topo = mesh(16, 16).unwrap().topology;
    let run = |kernel| {
        let sink = RingCollector::shared(1 << 20);
        let scenario = Scenario::new(Algorithm::Parallel)
            .with_kernel(kernel)
            .with_trace(TraceHandle::to(sink.clone()));
        let (fabric, holder, outcome) = sharded_discovery(&topo, 3, &scenario);
        let summary = format!(
            "holder={holder:?} {outcome:?} counters={:?} events={:?}",
            fabric.counters(),
            fabric.dispatch_counts().collect::<Vec<_>>(),
        );
        let trace = canonicalize(&trace_to_jsonl(sink.borrow().records()));
        (trace, summary)
    };
    assert_eq!(
        run(KernelSpec::Serial),
        run(KernelSpec::Parallel { shards: 2 })
    );
}

/// A whole sweep grid's JSON, every cell through the parallel kernel.
#[test]
fn smoke_sweep_grid_matches_serial() {
    let grid = |kernel| {
        let mut spec = SweepSpec::smoke();
        spec.base = spec.base.with_kernel(kernel);
        sweep::run(&spec, 1).to_json().to_string_pretty()
    };
    assert_eq!(
        grid(KernelSpec::Serial),
        grid(KernelSpec::Parallel { shards: 4 })
    );
}
