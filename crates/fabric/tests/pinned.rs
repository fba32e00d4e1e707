//! Pinned behaviour of whole discoveries: the exact simulated discovery
//! time, the FM's request accounting and every [`FabricCounters`] field
//! of eleven runs. Nine were recorded at commit 00614c1 — the last one
//! where every switch hop went through the output queue and a `TryTx`
//! wake-up — and the two drained ones at aeb6e1d, the last one where
//! every credit came back as a `CreditReturn` event.
//!
//! The cut-through commit and the credit ledger (see the module header
//! of `fabric/port.rs`) have no runtime switch to diff against, so these
//! numbers are the reference: a change to them is a change to the
//! simulated model, not a host-side optimisation.

use asi_core::DiscoveryRun;
use asi_fabric::{Fabric, FabricCounters};
use asi_harness::prelude::*;
use asi_sim::SimDuration;
use asi_topo::{mesh, torus};

#[derive(Debug, PartialEq)]
struct Pinned {
    discovery_ps: u64,
    requests: u64,
    responses: u64,
    timeouts: u64,
    counters: FabricCounters,
}

fn observe(run: &DiscoveryRun, fabric: &Fabric) -> Pinned {
    Pinned {
        discovery_ps: run.discovery_time().as_ps(),
        requests: run.requests_sent,
        responses: run.responses_received,
        timeouts: run.timeouts,
        counters: *fabric.counters(),
    }
}

/// Runs what is left on the clock and checks that nothing is: no packet
/// body alive, no packet queued — and so no queue set out on loan.
fn drained(fabric: &mut Fabric) {
    fabric.run_until_idle();
    assert_eq!(fabric.packet_arena_live(), 0);
    assert_eq!(fabric.queued_packets(), 0);
}

/// A device's random stream is created at its first loss, corruption or
/// duplication draw: a loss-free discovery creates none.
#[test]
fn a_loss_free_discovery_creates_no_random_stream() {
    let topo = mesh(4, 4).unwrap().topology;
    let bench = Bench::start(&topo, &Scenario::new(Algorithm::Parallel), &[]);
    assert_eq!(bench.last_run().devices_found, 32);
    assert_eq!(bench.fabric.rng_streams(), 0);
}

fn start_mesh8(scenario: &Scenario) -> Pinned {
    let mut bench = Bench::start(&mesh(8, 8).unwrap().topology, scenario, &[]);
    let pinned = observe(&bench.last_run(), &bench.fabric);
    drained(&mut bench.fabric);
    pinned
}

/// A loss-free, traffic-free 8x8 discovery: 800 requests, all answered;
/// only the time and the queue peak depend on the algorithm.
fn clean_mesh8(discovery_ps: u64, mgmt_queue_peak: u64) -> Pinned {
    Pinned {
        discovery_ps,
        requests: 800,
        responses: 800,
        timeouts: 0,
        counters: FabricCounters {
            injected: 1600,
            delivered: 1600,
            forwarded: 11774,
            mgmt_bytes: 543_928,
            mgmt_queue_peak,
            ..FabricCounters::default()
        },
    }
}

#[test]
fn mesh8_serial_packet() {
    assert_eq!(
        start_mesh8(&Scenario::new(Algorithm::SerialPacket)),
        clean_mesh8(24_461_874_000, 1)
    );
}

#[test]
fn mesh8_serial_device() {
    assert_eq!(
        start_mesh8(&Scenario::new(Algorithm::SerialDevice)),
        clean_mesh8(17_450_546_000, 7)
    );
}

#[test]
fn mesh8_parallel() {
    assert_eq!(
        start_mesh8(&Scenario::new(Algorithm::Parallel)),
        clean_mesh8(10_643_408_000, 7)
    );
}

#[test]
fn mesh8_without_flow_control() {
    let scenario = Scenario::new(Algorithm::Parallel).with_flow_control(false);
    assert_eq!(start_mesh8(&scenario), clean_mesh8(10_643_408_000, 7));
}

#[test]
fn torus4_change_remove() {
    let g = torus(4, 4).unwrap();
    let mut bench = Bench::start(&g.topology, &Scenario::new(Algorithm::Parallel), &[]);
    let run = bench.remove_switch(g.switch_at(2, 2));
    assert_eq!(
        observe(&run, &bench.fabric),
        Pinned {
            discovery_ps: 2_512_440_000,
            requests: 191,
            responses: 191,
            timeouts: 0,
            counters: FabricCounters {
                injected: 1184,
                delivered: 1184,
                forwarded: 2690,
                mgmt_bytes: 146_552,
                pi5_emitted: 4,
                mgmt_queue_peak: 7,
                ..FabricCounters::default()
            },
        }
    );
    drained(&mut bench.fabric);
}

#[test]
fn torus4_change_add() {
    let g = torus(4, 4).unwrap();
    let newcomer = g.switch_at(2, 2);
    let scenario = Scenario::new(Algorithm::Parallel);
    let mut bench = Bench::start(&g.topology, &scenario, &[newcomer]);
    let run = bench.add_device(newcomer);
    assert_eq!(
        observe(&run, &bench.fabric),
        Pinned {
            discovery_ps: 2_745_760_000,
            requests: 208,
            responses: 208,
            timeouts: 0,
            counters: FabricCounters {
                injected: 1218,
                delivered: 1218,
                forwarded: 2836,
                mgmt_bytes: 153_304,
                pi5_emitted: 4,
                mgmt_queue_peak: 7,
                ..FabricCounters::default()
            },
        }
    );
    drained(&mut bench.fabric);
}

#[test]
fn mesh8_under_data_load() {
    let plan = TrafficPlan::none()
        .with_unicast(0.4, 512)
        .with_window(SimDuration::ZERO, SimDuration::from_us(2000));
    let scenario = Scenario::new(Algorithm::Parallel).with_traffic_plan(plan);
    assert_eq!(
        start_mesh8(&scenario),
        Pinned {
            discovery_ps: 10_643_400_000,
            requests: 800,
            responses: 800,
            timeouts: 0,
            counters: FabricCounters {
                injected: 25_561,
                delivered: 25_561,
                forwarded: 171_387,
                dropped_inactive: 12,
                credit_stalls: 49_978,
                mgmt_bytes: 543_928,
                data_bytes: 97_319_844,
                flow_injected: 23_961,
                flow_delivered: 23_961,
                flow_bytes: 12_268_032,
                mgmt_queue_peak: 8,
                data_queue_peak: 330,
                ..FabricCounters::default()
            },
        }
    );
}

/// Saturating load: most ports run short of credits, and go back and
/// forth between taking them by event and by ledger. Drained, so the
/// counters do not depend on the event `Bench::start` stops at.
#[test]
fn mesh8_under_heavy_data_load_drained() {
    let plan = TrafficPlan::none()
        .with_unicast(0.8, 512)
        .with_window(SimDuration::ZERO, SimDuration::from_us(2000));
    let scenario = Scenario::new(Algorithm::Parallel).with_traffic_plan(plan);
    let mut bench = Bench::start(&mesh(8, 8).unwrap().topology, &scenario, &[]);
    drained(&mut bench.fabric);
    assert_eq!(
        observe(&bench.last_run(), &bench.fabric),
        Pinned {
            discovery_ps: 10_643_392_000,
            requests: 800,
            responses: 800,
            timeouts: 0,
            counters: FabricCounters {
                injected: 49_663,
                delivered: 49_663,
                forwarded: 332_730,
                dropped_inactive: 24,
                credit_stalls: 147_147,
                mgmt_bytes: 543_928,
                data_bytes: 195_636_076,
                flow_injected: 48_063,
                flow_delivered: 48_063,
                flow_bytes: 24_608_256,
                mgmt_queue_peak: 8,
                data_queue_peak: 698,
                ..FabricCounters::default()
            },
        }
    );
    assert_eq!(bench.fabric.credits_outstanding(), 0);
}

fn lossy(loss: LossModel) -> Scenario {
    Scenario::new(Algorithm::Parallel)
        .with_seed(0x5EED)
        .with_faults(FaultPlan::none().with_loss(loss))
        .with_retry(RetryPolicy::exponential(8))
}

#[test]
fn mesh8_uniform_loss() {
    assert_eq!(
        start_mesh8(&lossy(LossModel::uniform(0.01))),
        Pinned {
            discovery_ps: 177_248_462_222,
            requests: 962,
            responses: 800,
            timeouts: 162,
            counters: FabricCounters {
                injected: 1835,
                delivered: 1673,
                forwarded: 14_783,
                dropped_corrupted: 162,
                mgmt_bytes: 676_252,
                mgmt_queue_peak: 7,
                ..FabricCounters::default()
            },
        }
    );
}

#[test]
fn mesh8_bursty_loss() {
    assert_eq!(
        start_mesh8(&lossy(LossModel::bursty(0.05))),
        Pinned {
            discovery_ps: 3_147_943_409_498,
            requests: 1849,
            responses: 778,
            timeouts: 1071,
            counters: FabricCounters {
                injected: 3031,
                delivered: 1960,
                forwarded: 21_926,
                dropped_corrupted: 1071,
                mgmt_bytes: 965_110,
                mgmt_queue_peak: 7,
                ..FabricCounters::default()
            },
        }
    );
}

/// Bursty loss bounces credits back to the transmitter, and a flap of
/// the FM switch's east link, 3 ms into the discovery, retrains two ports
/// in the thick of it.
#[test]
fn mesh8_bursty_loss_and_a_flap_drained() {
    let g = mesh(8, 8).unwrap();
    let flap = SimDuration::from_us(3000);
    let faults = FaultPlan::none()
        .with_loss(LossModel::bursty(0.05))
        .with_link_flap(flap, g.switch_at(1, 0).0, 1, SimDuration::from_us(50));
    let scenario = lossy(LossModel::None).with_faults(faults);
    let mut bench = Bench::start(&g.topology, &scenario, &[]);
    drained(&mut bench.fabric);
    assert_eq!(
        observe(&bench.last_run(), &bench.fabric),
        Pinned {
            discovery_ps: 3_095_163_528_053,
            requests: 1978,
            responses: 768,
            timeouts: 1210,
            counters: FabricCounters {
                injected: 3191,
                delivered: 1981,
                forwarded: 21_747,
                dropped_corrupted: 1210,
                mgmt_bytes: 955_456,
                link_flaps: 1,
                mgmt_queue_peak: 8,
                ..FabricCounters::default()
            },
        }
    );
}
