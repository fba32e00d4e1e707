//! Discovery over a faulty fabric: injected receiver-side CRC drops,
//! bursty loss, completion corruption/duplication and scheduled device
//! faults must not wedge the manager, and with a retry budget the full
//! topology is still found — robustness the paper's loss-free OPNET
//! links never exercised.

use asi_core::{Algorithm, FmAgent, FmConfig, RetryPolicy, TOKEN_START_DISCOVERY};
use asi_fabric::{DevId, Fabric, FabricConfig, FaultPlan, LossModel};
use asi_sim::{SimDuration, TraceEvent, TraceHandle, TraceRecord, TraceSink};
use asi_topo::mesh;
use std::cell::RefCell;
use std::rc::Rc;

fn run_faulty(faults: FaultPlan, retry: RetryPolicy, seed: u64) -> (usize, u64, u64, u64, u64) {
    let g = mesh(3, 3).unwrap();
    let config = FabricConfig {
        faults,
        seed,
        ..FabricConfig::default()
    };
    let mut fabric = Fabric::new(&g.topology, config);
    fabric.set_event_limit(50_000_000);
    fabric.activate_all(SimDuration::ZERO);
    fabric.run_until_idle();
    let fm = DevId(g.endpoint_at(0, 0).0);
    let cfg = FmConfig::new(Algorithm::Parallel)
        .with_retry(retry)
        .with_request_timeout(SimDuration::from_us(500));
    fabric.set_agent(fm, Box::new(FmAgent::new(cfg)));
    fabric.schedule_agent_timer(fm, SimDuration::ZERO, TOKEN_START_DISCOVERY);
    fabric.run_until_idle();

    let corrupted = fabric.counters().dropped_corrupted;
    let agent = fabric.agent_as::<FmAgent>(fm).unwrap();
    let run = agent.last_run().expect("run terminates even with loss");
    (
        run.devices_found,
        run.timeouts,
        corrupted,
        run.retries,
        run.abandoned,
    )
}

fn uniform(p: f64) -> FaultPlan {
    FaultPlan::none().with_loss(LossModel::uniform(p))
}

#[test]
fn lossless_fabric_injects_no_corruption() {
    let (devices, timeouts, corrupted, retries, abandoned) =
        run_faulty(FaultPlan::none(), RetryPolicy::fixed(0), 1);
    assert_eq!(devices, 18);
    assert_eq!(timeouts, 0);
    assert_eq!(corrupted, 0);
    assert_eq!(retries, 0);
    assert_eq!(abandoned, 0);
}

#[test]
fn loss_without_retries_degrades_but_terminates() {
    // 10% loss per traversal: some probes/completions vanish; the run
    // must still drain via timeouts, and every timeout is an abandon
    // under the paper's no-retry default.
    let mut any_loss_seen = false;
    for seed in 1..=5u64 {
        let (devices, timeouts, corrupted, retries, abandoned) =
            run_faulty(uniform(0.10), RetryPolicy::fixed(0), seed);
        assert!(devices <= 18);
        assert_eq!(retries, 0);
        assert_eq!(abandoned, timeouts, "seed {seed}");
        any_loss_seen |= corrupted > 0;
        if corrupted > 0 {
            assert!(timeouts > 0, "seed {seed}: losses but no timeouts");
        }
    }
    assert!(any_loss_seen, "loss injection never fired across 5 seeds");
}

#[test]
fn retries_recover_the_full_topology_under_loss() {
    // With 5% loss and a generous retry budget, every seed must converge
    // to the complete 18-device database.
    for seed in 1..=8u64 {
        let (devices, timeouts, corrupted, ..) =
            run_faulty(uniform(0.05), RetryPolicy::fixed(8), seed);
        assert_eq!(
            devices, 18,
            "seed {seed}: incomplete discovery ({corrupted} losses, {timeouts} timeouts)"
        );
    }
}

#[test]
fn exponential_backoff_recovers_under_bursty_loss() {
    // Bursty (Gilbert–Elliott) loss concentrates drops; exponential
    // backoff spreads the retries past the burst. Every seed must still
    // converge to the full topology.
    let mut any_retry_seen = false;
    for seed in 1..=8u64 {
        let plan = FaultPlan::none().with_loss(LossModel::bursty(0.05));
        let (devices, _, _, retries, _) = run_faulty(plan, RetryPolicy::exponential(10), seed);
        assert_eq!(devices, 18, "seed {seed}: incomplete discovery");
        any_retry_seen |= retries > 0;
    }
    assert!(any_retry_seen, "bursty loss never forced a retry");
}

#[test]
fn deadline_policy_terminates_and_bounds_waiting() {
    // A deadline of 4 base timeouts allows a few retries per request but
    // must always terminate; under heavy loss some requests may be
    // abandoned, which shows up in the degradation metrics.
    for seed in 1..=4u64 {
        let (devices, timeouts, _, retries, abandoned) = run_faulty(
            uniform(0.20),
            RetryPolicy::deadline(SimDuration::from_us(2_000)),
            seed,
        );
        assert!(devices <= 18);
        assert_eq!(timeouts, retries + abandoned, "seed {seed}");
    }
}

#[test]
fn corrupted_completions_are_retried_transparently() {
    // Corruption drops the completion at delivery (CRC check): the
    // request times out and the retry recovers the read.
    let mut any_corruption = false;
    for seed in 1..=6u64 {
        let plan = FaultPlan::none().with_corruption(0.05);
        let (devices, _, corrupted, ..) = run_faulty(plan, RetryPolicy::fixed(8), seed);
        assert_eq!(devices, 18, "seed {seed}");
        any_corruption |= corrupted > 0;
    }
    assert!(any_corruption, "corruption injection never fired");
}

#[test]
fn duplicated_completions_are_ignored_by_the_engine() {
    // A duplicated completion arrives with a req-id that is no longer
    // pending; the engine must discard it without perturbing the result.
    for seed in 1..=6u64 {
        let plan = FaultPlan::none().with_duplication(0.20);
        let (devices, timeouts, ..) = run_faulty(plan, RetryPolicy::fixed(0), seed);
        assert_eq!(devices, 18, "seed {seed}");
        assert_eq!(timeouts, 0, "seed {seed}: duplication caused a timeout");
    }
}

#[test]
fn retries_are_idempotent_when_the_completion_was_lost() {
    // Even when the *response* (not the request) is what got dropped,
    // the re-issued read executes again harmlessly: final database and
    // link sets must be exactly the ground truth.
    let g = mesh(3, 3).unwrap();
    for seed in [3u64, 7, 11] {
        let config = FabricConfig {
            faults: uniform(0.08),
            seed,
            ..FabricConfig::default()
        };
        let mut fabric = Fabric::new(&g.topology, config);
        fabric.set_event_limit(50_000_000);
        fabric.activate_all(SimDuration::ZERO);
        fabric.run_until_idle();
        let fm = DevId(g.endpoint_at(0, 0).0);
        let cfg = FmConfig::new(Algorithm::SerialDevice)
            .with_retry(RetryPolicy::fixed(10))
            .with_request_timeout(SimDuration::from_us(500));
        fabric.set_agent(fm, Box::new(FmAgent::new(cfg)));
        fabric.schedule_agent_timer(fm, SimDuration::ZERO, TOKEN_START_DISCOVERY);
        fabric.run_until_idle();
        let agent = fabric.agent_as::<FmAgent>(fm).unwrap();
        let db = agent.db().unwrap();
        assert_eq!(db.device_count(), 18, "seed {seed}");
        assert_eq!(db.link_count(), g.topology.links().len(), "seed {seed}");
        for d in db.devices() {
            assert!(d.ports_complete(), "seed {seed}: {:x}", d.info.dsn);
        }
    }
}

#[test]
fn device_hang_defers_but_does_not_lose_discovery() {
    // Hang a mid-fabric switch for 2 ms right as discovery starts: its
    // completions are deferred past the hang, forcing timeouts/retries,
    // but the full topology must still come back.
    let g = mesh(3, 3).unwrap();
    let hung = g.switch_at(1, 1).0;
    let plan =
        FaultPlan::none().with_device_hang(SimDuration::from_us(10), hung, SimDuration::from_ms(2));
    let (devices, timeouts, _, retries, _) = run_faulty(plan, RetryPolicy::exponential(10), 1);
    assert_eq!(devices, 18);
    assert!(timeouts > 0, "hang never forced a timeout");
    assert!(retries > 0, "hang never forced a retry");
}

#[test]
fn device_slow_stretches_but_completes_discovery() {
    let g = mesh(3, 3).unwrap();
    let slow = g.switch_at(1, 1).0;
    let plan =
        FaultPlan::none().with_device_slow(SimDuration::ZERO, slow, 20.0, SimDuration::from_ms(50));
    let (devices, ..) = run_faulty(plan, RetryPolicy::exponential(10), 1);
    assert_eq!(devices, 18);
}

#[test]
fn scheduled_link_flap_is_assimilated() {
    // Flap a link long after initial discovery: the FM sees PortDown /
    // PortUp PI-5 events and re-discovers; the database must end at the
    // full topology either way.
    let g = mesh(3, 3).unwrap();
    let dev = g.switch_at(0, 0).0;
    // Port 0 (east) of the corner switch connects to the next column.
    let plan = FaultPlan::none().with_link_flap(
        SimDuration::from_ms(40),
        dev,
        0,
        SimDuration::from_us(200),
    );
    let config = FabricConfig {
        faults: plan,
        seed: 5,
        ..FabricConfig::default()
    };
    let mut fabric = Fabric::new(&g.topology, config);
    fabric.set_event_limit(50_000_000);
    fabric.activate_all(SimDuration::ZERO);
    // Settle only up to 5 ms so the 40 ms flap fires with the FM
    // installed (run_until_idle would drain the scheduled fault too).
    fabric.run_until(asi_sim::SimTime::from_ms(5));
    let fm = DevId(g.endpoint_at(0, 0).0);
    let cfg = FmConfig::new(Algorithm::Parallel).with_request_timeout(SimDuration::from_us(500));
    fabric.set_agent(fm, Box::new(FmAgent::new(cfg)));
    fabric.schedule_agent_timer(fm, SimDuration::ZERO, TOKEN_START_DISCOVERY);
    // Let the initial discovery finish (well before the 40 ms flap),
    // then install PI-5 reporting routes from the FM's own database.
    fabric.run_until(asi_sim::SimTime::from_ms(30));
    let routes: Vec<(u64, asi_core::DeviceRoute)> = {
        let agent = fabric.agent_as::<FmAgent>(fm).unwrap();
        let db = agent.db().expect("initial discovery finished");
        db.devices()
            .filter(|d| d.info.dsn != db.host_dsn())
            .filter_map(|d| {
                db.route_between(d.info.dsn, db.host_dsn(), asi_proto::MAX_POOL_BITS)
                    .and_then(Result::ok)
                    .map(|r| (d.info.dsn, r))
            })
            .collect()
    };
    for (dsn, r) in routes {
        fabric.set_fm_route(
            DevId((dsn & 0xFFFF_FFFF) as u32),
            asi_fabric::FmRoute {
                egress: r.egress,
                pool: r.pool,
            },
        );
    }
    fabric.run_until_idle();
    assert!(fabric.counters().link_flaps > 0, "flap never fired");
    let agent = fabric.agent_as::<FmAgent>(fm).unwrap();
    assert!(agent.runs().len() >= 2, "flap did not trigger re-discovery");
    let db = agent.db().unwrap();
    assert_eq!(db.device_count(), 18);
    assert_eq!(db.link_count(), g.topology.links().len());
}

/// `(t_ps, req_id)` of every `request-timed-out` record.
#[derive(Default)]
struct TimedOut(Vec<(u64, u32)>);

impl TraceSink for TimedOut {
    fn record(&mut self, record: TraceRecord) {
        if let TraceEvent::RequestTimedOut { req_id } = record.event {
            self.0.push((record.time.as_ps(), req_id));
        }
    }
}

/// FNV-1a over `words`, little-endian.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let step = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    (words.into_iter())
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, step)
}

/// A 4x4 mesh discovered under bursty loss with retries, once per
/// algorithm. After every kernel step from the discovery's start on,
/// the manager's pending timers are its requests in flight, one each:
/// an answered request's timeout is cancelled, a timed-out one's has
/// fired. And every timeout that fires, fires at the instant and in the
/// order it did when each timeout was a kernel event of its own: the
/// `(t_ps, req_id)` of the `request-timed-out` records hash to the
/// digests recorded then.
#[test]
fn pending_timers_are_the_requests_in_flight_and_fire_where_they_did() {
    let g = mesh(4, 4).unwrap();
    let fm = DevId(g.endpoint_at(0, 0).0);
    for (algorithm, timeouts, digest) in [
        (Algorithm::SerialPacket, 66, 0x164a_e104_fcc2_70f9),
        (Algorithm::SerialDevice, 80, 0x02ed_e59f_5db7_4037),
        (Algorithm::Parallel, 71, 0x79d2_91a1_3ddc_02a2),
    ] {
        let config = FabricConfig {
            faults: FaultPlan::none().with_loss(LossModel::bursty(0.05)),
            seed: 3,
            ..FabricConfig::default()
        };
        let mut fabric = Fabric::new(&g.topology, config);
        fabric.activate_all(SimDuration::ZERO);
        fabric.run_until_idle();
        let sink = Rc::new(RefCell::new(TimedOut::default()));
        let cfg = FmConfig::new(algorithm)
            .with_retry(RetryPolicy::fixed(8))
            .with_request_timeout(SimDuration::from_us(500))
            .with_trace(TraceHandle::to(sink.clone()));
        fabric.set_agent(fm, Box::new(FmAgent::new(cfg)));
        fabric.schedule_agent_timer(fm, SimDuration::ZERO, TOKEN_START_DISCOVERY);
        let mut began = false;
        while fabric.step() {
            let agent = fabric.agent_as::<FmAgent>(fm).unwrap();
            began |= agent.discovering();
            if began {
                let in_flight = agent.discovery_progress().map_or(0, |(_, n)| n);
                let at = fabric.now();
                assert_eq!(fabric.agent_timers(fm), in_flight, "{algorithm:?} at {at}");
            }
        }
        let run = fabric.agent_as::<FmAgent>(fm).unwrap().last_run().unwrap();
        assert_eq!(run.devices_found, 32, "{algorithm:?}");
        let fired = &sink.borrow().0;
        assert_eq!(fired.len() as u64, run.timeouts, "{algorithm:?}");
        let words = fired.iter().flat_map(|&(t, id)| [t, u64::from(id)]);
        assert_eq!(
            (fired.len(), fnv(words)),
            (timeouts, digest),
            "{algorithm:?}"
        );
    }
}
