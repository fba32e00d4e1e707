//! Warm-start discovery end to end: a cold run's database is frozen into
//! an `asi-state` snapshot, a fresh manager seeds from it, verifies the
//! cached topology with one targeted probe per device, and escalates —
//! scoped re-discovery around mismatches, full cold fallback past the
//! threshold — when the fabric changed behind its back.

use asi_core::{
    snapshot_db, Algorithm, DiscoveryTrigger, FmAgent, FmConfig, RetryPolicy, TOKEN_CONFIGURE_PI5,
    TOKEN_START_DISCOVERY,
};
use asi_fabric::{DevId, Fabric, FabricConfig, FaultPlan, LossModel, DSN_BASE};
use asi_sim::SimDuration;
use asi_state::Snapshot;
use asi_topo::{mesh, Table1, Topology};
use std::collections::BTreeSet;

fn bring_up(topo: &Topology, skip: Option<DevId>) -> Fabric {
    let mut fabric = Fabric::new(topo, FabricConfig::default());
    fabric.set_event_limit(50_000_000);
    match skip {
        None => fabric.activate_all(SimDuration::ZERO),
        Some(victim) => {
            for (id, _) in topo.nodes() {
                if DevId(id.0) != victim {
                    fabric.schedule_activate(DevId(id.0), SimDuration::ZERO);
                }
            }
        }
    }
    fabric.run_until_idle();
    fabric
}

/// Runs one discovery to completion and returns the fabric.
fn run_fm(mut fabric: Fabric, topo: &Topology, cfg: FmConfig) -> (Fabric, DevId) {
    let fm_node = asi_topo::default_fm_endpoint(topo).expect("an endpoint exists");
    let fm = DevId(fm_node.0);
    fabric.set_agent(fm, Box::new(FmAgent::new(cfg)));
    fabric.schedule_agent_timer(fm, SimDuration::ZERO, TOKEN_START_DISCOVERY);
    fabric.run_until_idle();
    (fabric, fm)
}

fn snapshot_of(fabric: &Fabric, fm: DevId) -> Snapshot {
    let agent = fabric.agent_as::<FmAgent>(fm).expect("FM installed");
    snapshot_db(agent.db().expect("discovery completed"))
}

fn device_set(fabric: &Fabric, fm: DevId) -> BTreeSet<u64> {
    let agent = fabric.agent_as::<FmAgent>(fm).unwrap();
    agent.db().unwrap().devices().map(|d| d.info.dsn).collect()
}

fn link_set(fabric: &Fabric, fm: DevId) -> BTreeSet<(u64, u8, u64, u8)> {
    let agent = fabric.agent_as::<FmAgent>(fm).unwrap();
    agent
        .db()
        .unwrap()
        .links()
        .map(|((a, ap), (b, bp))| {
            if (a, ap) <= (b, bp) {
                (a, ap, b, bp)
            } else {
                (b, bp, a, ap)
            }
        })
        .collect()
}

#[test]
fn warm_start_verifies_unchanged_topologies_cheaply() {
    for spec in Table1::quick() {
        let topo = spec.build();
        let n = topo.nodes().count() as u64;

        let (cold_fabric, cold_fm) = run_fm(
            bring_up(&topo, None),
            &topo,
            FmConfig::new(Algorithm::Parallel),
        );
        let cold_run = *cold_fabric
            .agent_as::<FmAgent>(cold_fm)
            .unwrap()
            .last_run()
            .unwrap();
        let snapshot = snapshot_of(&cold_fabric, cold_fm);
        assert_eq!(snapshot.device_count() as u64, n, "{}", spec.name());

        let warm_cfg = FmConfig::new(Algorithm::Parallel).with_warm_start(snapshot);
        let (warm_fabric, warm_fm) = run_fm(bring_up(&topo, None), &topo, warm_cfg);
        let agent = warm_fabric.agent_as::<FmAgent>(warm_fm).unwrap();
        let run = agent.last_run().expect("warm run finished");

        assert_eq!(run.trigger, DiscoveryTrigger::WarmStart, "{}", spec.name());
        assert_eq!(run.probes_verified, n - 1, "{}", spec.name());
        assert_eq!(run.verify_mismatches, 0, "{}", spec.name());
        assert!(!run.warm_fallback, "{}", spec.name());
        // O(devices) probes: exactly one per non-host device — far fewer
        // than the cold run's probe + port-read traffic.
        assert_eq!(run.requests_sent, n - 1, "{}", spec.name());
        assert!(
            run.requests_sent < cold_run.requests_sent,
            "{}: warm sent {} vs cold {}",
            spec.name(),
            run.requests_sent,
            cold_run.requests_sent
        );
        assert!(
            run.discovery_time() < cold_run.discovery_time(),
            "{}: warm {} not faster than cold {}",
            spec.name(),
            run.discovery_time(),
            cold_run.discovery_time()
        );
        // The verified database is the cold database.
        assert_eq!(
            device_set(&warm_fabric, warm_fm),
            device_set(&cold_fabric, cold_fm)
        );
        assert_eq!(
            link_set(&warm_fabric, warm_fm),
            link_set(&cold_fabric, cold_fm)
        );
    }
}

#[test]
fn warm_start_after_switch_removal_converges_to_cold_database() {
    let g = mesh(3, 3).unwrap();
    let topo = &g.topology;
    let victim = DevId(g.switch_at(1, 1).0);

    // Snapshot the intact fabric.
    let (full_fabric, full_fm) = run_fm(
        bring_up(topo, None),
        topo,
        FmConfig::new(Algorithm::Parallel),
    );
    let snapshot = snapshot_of(&full_fabric, full_fm);

    // Cold baseline on the degraded fabric.
    let (cold_fabric, cold_fm) = run_fm(
        bring_up(topo, Some(victim)),
        topo,
        FmConfig::new(Algorithm::Parallel),
    );

    // Warm start with the stale snapshot on the same degraded fabric;
    // threshold 1.0 forbids the cold fallback, forcing the scoped path.
    let warm_cfg = FmConfig::new(Algorithm::Parallel)
        .with_warm_start(snapshot)
        .with_warm_fallback_threshold(1.0);
    let (warm_fabric, warm_fm) = run_fm(bring_up(topo, Some(victim)), topo, warm_cfg);

    let agent = warm_fabric.agent_as::<FmAgent>(warm_fm).unwrap();
    assert_eq!(agent.runs().len(), 1, "one run spanning all phases");
    let run = agent.last_run().unwrap();
    assert_eq!(run.trigger, DiscoveryTrigger::WarmStart);
    assert!(run.verify_mismatches >= 1, "removal went unnoticed");
    assert!(!run.warm_fallback, "threshold 1.0 must never fall back");
    assert!(run.probes_verified > 0, "untouched devices must verify");

    // Same database as the cold run on the same fabric.
    assert_eq!(
        device_set(&warm_fabric, warm_fm),
        device_set(&cold_fabric, cold_fm)
    );
    assert_eq!(
        link_set(&warm_fabric, warm_fm),
        link_set(&cold_fabric, cold_fm)
    );
    assert!(!device_set(&warm_fabric, warm_fm).contains(&(DSN_BASE | u64::from(victim.0))));
    for d in agent.db().unwrap().devices() {
        assert!(d.ports_complete(), "ports of {:x} incomplete", d.info.dsn);
    }
}

#[test]
fn warm_start_falls_back_when_snapshot_is_too_wrong() {
    let g = mesh(3, 3).unwrap();
    let topo = &g.topology;
    let victim = DevId(g.switch_at(1, 1).0);

    let (full_fabric, full_fm) = run_fm(
        bring_up(topo, None),
        topo,
        FmConfig::new(Algorithm::Parallel),
    );
    let snapshot = snapshot_of(&full_fabric, full_fm);

    // Threshold 0.0: a single mismatch abandons the snapshot.
    let warm_cfg = FmConfig::new(Algorithm::Parallel)
        .with_warm_start(snapshot)
        .with_warm_fallback_threshold(0.0);
    let (warm_fabric, warm_fm) = run_fm(bring_up(topo, Some(victim)), topo, warm_cfg);
    let (cold_fabric, cold_fm) = run_fm(
        bring_up(topo, Some(victim)),
        topo,
        FmConfig::new(Algorithm::Parallel),
    );

    let agent = warm_fabric.agent_as::<FmAgent>(warm_fm).unwrap();
    let run = agent.last_run().unwrap();
    assert!(
        run.warm_fallback,
        "mismatches above threshold must fall back"
    );
    assert_eq!(run.trigger, DiscoveryTrigger::WarmStart);
    assert!(run.verify_mismatches >= 1);
    assert_eq!(
        device_set(&warm_fabric, warm_fm),
        device_set(&cold_fabric, cold_fm)
    );
    assert_eq!(
        link_set(&warm_fabric, warm_fm),
        link_set(&cold_fabric, cold_fm)
    );
}

#[test]
fn foreign_snapshot_is_rejected_and_discovery_runs_cold() {
    let g = mesh(3, 3).unwrap();
    let topo = &g.topology;
    // A snapshot rooted at a host this manager is not.
    let snapshot = Snapshot::new(0xDEAD_BEEF);
    let cfg = FmConfig::new(Algorithm::Parallel).with_warm_start(snapshot);
    let (fabric, fm) = run_fm(bring_up(topo, None), topo, cfg);
    let agent = fabric.agent_as::<FmAgent>(fm).unwrap();
    let run = agent.last_run().unwrap();
    assert_eq!(run.trigger, DiscoveryTrigger::Initial, "must run cold");
    assert_eq!(run.probes_verified, 0);
    assert_eq!(agent.db().unwrap().device_count(), 18);
}

#[test]
fn warm_start_converges_under_loss() {
    // Lossy fabric: verification probes can vanish; with a retry budget
    // the warm run must still end at the full 18-device database, via
    // retries or via scoped re-discovery of falsely-mismatched devices.
    let g = mesh(3, 3).unwrap();
    let topo = &g.topology;
    let (full_fabric, full_fm) = run_fm(
        bring_up(topo, None),
        topo,
        FmConfig::new(Algorithm::Parallel),
    );
    let snapshot = snapshot_of(&full_fabric, full_fm);
    let truth_devices = device_set(&full_fabric, full_fm);
    let truth_links = link_set(&full_fabric, full_fm);

    for seed in 1..=5u64 {
        let config = FabricConfig {
            faults: FaultPlan::none().with_loss(LossModel::uniform(0.05)),
            seed,
            ..FabricConfig::default()
        };
        let mut fabric = Fabric::new(topo, config);
        fabric.set_event_limit(50_000_000);
        fabric.activate_all(SimDuration::ZERO);
        fabric.run_until_idle();
        let fm = DevId(asi_topo::default_fm_endpoint(topo).unwrap().0);
        let cfg = FmConfig::new(Algorithm::Parallel)
            .with_warm_start(snapshot.clone())
            .with_warm_fallback_threshold(1.0)
            .with_retry(RetryPolicy::fixed(8))
            .with_request_timeout(SimDuration::from_us(500));
        fabric.set_agent(fm, Box::new(FmAgent::new(cfg)));
        fabric.schedule_agent_timer(fm, SimDuration::ZERO, TOKEN_START_DISCOVERY);
        fabric.run_until_idle();

        let agent = fabric.agent_as::<FmAgent>(fm).unwrap();
        let run = agent.last_run().expect("run terminates under loss");
        assert_eq!(run.trigger, DiscoveryTrigger::WarmStart, "seed {seed}");
        assert_eq!(device_set(&fabric, fm), truth_devices, "seed {seed}");
        assert_eq!(link_set(&fabric, fm), truth_links, "seed {seed}");
        for d in agent.db().unwrap().devices() {
            assert!(d.ports_complete(), "seed {seed}: {:x}", d.info.dsn);
        }
    }
}

#[test]
fn warm_start_then_partial_assimilation_of_a_change() {
    // A warm-started manager must still assimilate later PI-5 changes;
    // with partial assimilation on, the change run is the scoped kind.
    let g = mesh(3, 3).unwrap();
    let topo = &g.topology;
    let (full_fabric, full_fm) = run_fm(
        bring_up(topo, None),
        topo,
        FmConfig::new(Algorithm::Parallel),
    );
    let snapshot = snapshot_of(&full_fabric, full_fm);

    let mut fabric = bring_up(topo, None);
    let fm = DevId(asi_topo::default_fm_endpoint(topo).unwrap().0);
    let cfg = FmConfig::new(Algorithm::Parallel)
        .with_warm_start(snapshot)
        .with_warm_fallback_threshold(1.0)
        .with_partial_assimilation(true);
    fabric.set_agent(fm, Box::new(FmAgent::new(cfg)));
    fabric.schedule_agent_timer(fm, SimDuration::ZERO, TOKEN_START_DISCOVERY);
    fabric.run_until_idle();

    // The FM writes the PI-5 reporting routes of its warm-started
    // database.
    let agent = fabric.agent_as::<FmAgent>(fm).unwrap();
    let db = agent.db().expect("warm run finished");
    assert_eq!(db.device_count(), 18, "warm start incomplete");
    fabric.schedule_agent_timer(fm, SimDuration::ZERO, TOKEN_CONFIGURE_PI5);
    fabric.run_until_idle();
    let victim = DevId(g.switch_at(1, 1).0);
    fabric.schedule_deactivate(victim, SimDuration::from_us(50));
    fabric.run_until_idle();

    let agent = fabric.agent_as::<FmAgent>(fm).unwrap();
    assert!(agent.pi5_events > 0, "no PI-5 reached the FM");
    assert!(agent.runs().len() >= 2, "change was not assimilated");
    assert_eq!(agent.runs()[0].trigger, DiscoveryTrigger::WarmStart);
    assert_eq!(
        agent.last_run().unwrap().trigger,
        DiscoveryTrigger::Partial,
        "assimilation should be the partial kind"
    );
    let expected: BTreeSet<u64> = fabric
        .active_reachable(fm)
        .into_iter()
        .map(|d| DSN_BASE | u64::from(d.0))
        .collect();
    assert_eq!(device_set(&fabric, fm), expected);
    assert_eq!(agent.db().unwrap().device_count(), 16);
}
