//! FM failover: the election's runner-up watches the primary with
//! keepalive reads and takes over discovery when the primary endpoint
//! dies — the "fabric management failover" feature the ASI spec requires
//! (paper §2). Both managers are elected by `sharded_discovery`.

use asi_core::{Algorithm, DiscoveryTrigger, FmAgent};
use asi_fabric::{DevId, Fabric};
use asi_harness::{dev_of_dsn, dsn_of_dev, sharded_discovery, Scenario};
use asi_sim::SimDuration;
use asi_topo::mesh;
use std::collections::BTreeSet;

/// Two managers elected on a 3×3 mesh, merge done: the fabric, the
/// primary and the watching runner-up.
fn elected_pair(algorithm: Algorithm) -> (Fabric, DevId, DevId) {
    let topo = mesh(3, 3).unwrap().topology;
    let (fabric, primary, out) = sharded_discovery(&topo, 2, &Scenario::new(algorithm));
    assert_eq!((out.devices, out.failovers), (18, 0));
    let elected = agent(&fabric, primary).elected().expect("decided");
    let runner_up = dev_of_dsn(elected.secondary.expect("two managers").dsn);
    (fabric, primary, runner_up)
}

fn agent(fabric: &Fabric, dev: DevId) -> &FmAgent {
    fabric.agent_as::<FmAgent>(dev).expect("a manager")
}

#[test]
fn secondary_takes_over_when_primary_dies() {
    let (mut fabric, primary, secondary) = elected_pair(Algorithm::Parallel);
    // Kill the primary endpoint. Keepalives start missing; after the
    // threshold the runner-up promotes and discovers the fabric itself,
    // and stops probing, so the queue drains.
    fabric.schedule_deactivate(primary, SimDuration::ZERO);
    fabric.run_until_idle();

    let s = agent(&fabric, secondary);
    assert!(s.promoted(), "secondary never took over");
    let run = s.last_run().expect("failover discovery ran");
    assert_eq!(run.trigger, DiscoveryTrigger::Failover);

    // The secondary's database covers exactly the surviving fabric (the
    // dead primary endpoint is absent).
    let expected: BTreeSet<u64> = fabric
        .active_reachable(secondary)
        .into_iter()
        .map(dsn_of_dev)
        .collect();
    let found: BTreeSet<u64> = s.db().unwrap().devices().map(|d| d.info.dsn).collect();
    assert_eq!(found, expected);
    assert_eq!(found.len(), 17, "only the primary endpoint disappeared");
    assert!(!found.contains(&dsn_of_dev(primary)));
}

#[test]
fn keepalives_do_not_disturb_a_healthy_primary() {
    let (mut fabric, primary, secondary) = elected_pair(Algorithm::SerialDevice);
    // Run a long stretch: keepalives flow the whole time.
    fabric.run_until(fabric.now() + SimDuration::from_ms(20));
    assert!(fabric.step(), "the runner-up stopped watching");
    let s = agent(&fabric, secondary);
    assert!(!s.promoted(), "false takeover");
    assert_eq!(s.runs().len(), 1, "only its collaborator run");
    let p = agent(&fabric, primary);
    assert_eq!(p.runs().len(), 1);
    assert_eq!(p.db().unwrap().device_count(), 18);
}
