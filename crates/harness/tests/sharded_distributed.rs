//! End-to-end guarantees of the election-based sharded discovery
//! (`docs/DISTRIBUTED.md`): the certified merge canonicalizes to the
//! exact same bytes as a classic single-manager discovery, and a
//! primary that dies mid-run fails over to the watching secondary
//! without losing any of the fabric view.

use asi_core::snapshot_db;
use asi_harness::prelude::*;
use asi_sim::SimDuration;
use asi_state::checksum_of;
use asi_topo::{mesh, Topology};

/// Canonical checksum of a classic single-manager discovery, with the
/// routes normalized the same way the distributed merge normalizes
/// them: cold runs keep their exploration routes, while the merge
/// re-derives shortest routes before certifying, so both sides must be
/// refreshed for a byte-level comparison.
fn classic_checksum(topo: &Topology, scenario: &Scenario) -> u64 {
    let bench = Bench::start(topo, scenario, &[]);
    let mut db = bench.db().clone();
    db.refresh_routes(asi_proto::MAX_POOL_BITS);
    checksum_of(&snapshot_db(&db))
}

/// The tentpole equivalence guarantee: sharding the discovery over 2
/// or 4 elected managers produces a merged database whose canonical
/// snapshot is byte-identical (same checksum) to the single-manager
/// view of the same fabric — partitioning changes who walks each
/// region, never what the fabric looks like.
#[test]
fn sharded_merge_is_byte_identical_to_a_single_manager_discovery() {
    let topo = mesh(4, 4).unwrap().topology;
    let scenario = Scenario::new(Algorithm::Parallel);
    let classic = classic_checksum(&topo, &scenario);
    for fms in [1usize, 2, 4] {
        let (_fabric, _holder, out) = sharded_discovery(&topo, fms, &scenario);
        assert_eq!(
            out.devices,
            topo.node_count(),
            "{fms} manager(s) must find the whole fabric"
        );
        assert_eq!(
            out.checksum, classic,
            "{fms}-manager merge must canonicalize to the classic view"
        );
        assert_eq!(out.failovers, 0, "healthy run must not fail over");
    }
}

/// The serial algorithms go through the same partition/merge path.
#[test]
fn sharded_merge_equivalence_holds_for_serial_device_too() {
    let topo = mesh(3, 3).unwrap().topology;
    let scenario = Scenario::new(Algorithm::SerialDevice);
    let classic = classic_checksum(&topo, &scenario);
    let (_fabric, _holder, out) = sharded_discovery(&topo, 2, &scenario);
    assert_eq!(out.devices, topo.node_count());
    assert_eq!(out.checksum, classic);
}

/// Guards the O(K²) transmit-wakeup blowup: while collaborators stream
/// their report backlogs into the primary's ingress port, every packet
/// parked behind the busy serializer used to schedule its own `TryTx`
/// retry, and each transmission made all K pending retries re-fire and
/// re-arm. On a 16×16 mesh with 4 managers that cost ~1.8M events
/// (and effectively froze 64×64 runs); with wakeups coalesced to one
/// per port it costs ~315k. The bound sits between the two regimes.
#[test]
fn report_streaming_does_not_blow_up_the_event_count() {
    let topo = mesh(16, 16).unwrap().topology;
    let scenario = Scenario::new(Algorithm::Parallel);
    let (fabric, _holder, out) = sharded_discovery(&topo, 4, &scenario);
    assert_eq!(out.devices, topo.node_count());
    assert!(
        fabric.events_processed() < 900_000,
        "sharded run burned {} events — transmit wakeups are storming again",
        fabric.events_processed()
    );
}

/// Kill the elected primary mid-discovery (a device-hang freezes its
/// PI-4 responder, so keepalive reads stop completing while its own
/// agent keeps exploring): the watching secondary misses three probes,
/// promotes itself, re-explores the whole fabric solo, and reaches the
/// ex-primary once the hang expires via retries. The run must still
/// end with the full topology — held by the secondary, with exactly
/// one failover on record.
#[test]
fn a_primary_killed_mid_discovery_fails_over_to_the_secondary() {
    let topo = mesh(8, 8).unwrap().topology;
    let primary = topo.endpoints()[0];
    // A small request timeout tightens the scaled keepalive cadence
    // (timeout = 2x request, interval = 2x that), so the secondary's
    // three misses land while the managers are still exploring their
    // regions rather than after the merge already completed.
    let scenario = Scenario::new(Algorithm::Parallel)
        .with_request_timeout(SimDuration::from_us(50))
        .with_retry(RetryPolicy::exponential(10))
        .with_faults(FaultPlan::none().with_device_hang(
            SimDuration::from_us(500),
            primary.0,
            SimDuration::from_ms(5),
        ));
    let (fabric, holder, out) = sharded_discovery(&topo, 2, &scenario);
    assert_ne!(
        holder.0, primary.0,
        "the merged view must live on the promoted secondary"
    );
    assert_eq!(out.failovers, 1, "exactly one takeover on record");
    assert_eq!(
        out.devices,
        topo.node_count(),
        "the takeover run must still find the whole fabric"
    );
    let agent = fabric
        .agent_as::<asi_core::FmAgent>(holder)
        .expect("promoted manager still installed");
    assert!(agent.promoted(), "holder must be the promoted secondary");
    // Configuration is input, role is state: election, collaborator run
    // and promotion left the config exactly as the harness passed it in.
    let ensemble = agent.config().distributed_config.as_ref();
    assert_eq!(
        ensemble.map(|dc| (dc.priority, dc.peers.len())),
        Some((1, 1))
    );
}
