//! Packet-level FM election: managers broadcast PI-9 claims, the
//! higher claim wins, and the elected managers partition the fabric with
//! claim-and-hold ownership writes, each ceding to the other where their
//! walks meet.

use asi_core::{Algorithm, FmAgent};
use asi_fabric::{DevId, Fabric};
use asi_harness::{dsn_of_dev, sharded_discovery, Scenario};
use asi_topo::mesh;

fn agent(fabric: &Fabric, dev: DevId) -> &FmAgent {
    fabric.agent_as::<FmAgent>(dev).expect("a manager")
}

#[test]
fn elected_contenders_cede_to_each_other_and_the_higher_claim_wins() {
    let g = mesh(4, 4).unwrap();
    let scenario = Scenario::new(Algorithm::Parallel);
    let (fabric, primary, out) = sharded_discovery(&g.topology, 2, &scenario);
    // Contenders at opposite corners; the first endpoint claims the
    // higher priority.
    let (a, b) = (DevId(g.endpoint_at(0, 0).0), DevId(g.endpoint_at(3, 3).0));
    assert_eq!(primary, a, "the higher claim wins");
    for (me, rival) in [(a, b), (b, a)] {
        let fm = agent(&fabric, me);
        let elected = fm.elected().expect("decided");
        assert_eq!(elected.primary.dsn, dsn_of_dev(a));
        assert_eq!(elected.secondary.map(|c| c.dsn), Some(dsn_of_dev(b)));
        // Simultaneous walkers collide in the middle: each cedes devices
        // to the other.
        assert_eq!(
            fm.rivals.iter().copied().collect::<Vec<_>>(),
            [dsn_of_dev(rival)]
        );
        assert!(
            fm.last_run().unwrap().boundary_conflicts > 0,
            "{me:?} ceded nothing"
        );
    }
    assert_eq!(out.devices, 32);
}

#[test]
fn lone_contender_becomes_primary_without_rivals() {
    let topo = mesh(3, 3).unwrap().topology;
    let (fabric, primary, out) = sharded_discovery(&topo, 1, &Scenario::new(Algorithm::Parallel));
    let fm = agent(&fabric, primary);
    assert!(fm.rivals.is_empty());
    let elected = fm.elected().expect("decided");
    assert_eq!(
        (elected.primary.dsn, elected.secondary),
        (dsn_of_dev(primary), None)
    );
    // The claim walk still discovered the whole fabric.
    assert_eq!(fm.db().unwrap().device_count(), 18);
    assert_eq!(out.devices, 18);
}
