//! Distributed-discovery experiment (the paper's future-work item):
//! discovery time with 1, 2 and 3 collaborative fabric managers, the
//! ensembles formed by the PI-9 election ([`sharded_discovery`]).

use crate::report::{trim_float, TableOut};
use crate::scenario::{sharded_discovery, Bench, Scenario};
use asi_core::Algorithm;
use asi_topo::Table1;

/// Compares single-manager Parallel discovery against elected ensembles
/// of 2 and 3 managers; their times include the election window.
pub fn run(quick: bool) -> TableOut {
    let topos = if quick {
        vec![Table1::Mesh(4)]
    } else {
        vec![Table1::Mesh(6), Table1::Mesh(8), Table1::Torus(8)]
    };
    let mut t = TableOut::new(
        "extension_distributed",
        "Distributed discovery: time to the primary's merged database",
        &[
            "Topology",
            "Single FM (ms)",
            "2 FMs (ms)",
            "3 FMs (ms)",
            "Devices",
        ],
    );
    for spec in topos {
        let topo = spec.build();
        let scenario = Scenario::new(Algorithm::Parallel);
        let single = Bench::start(&topo, &scenario, &[])
            .last_run()
            .discovery_time();
        let (_, _, two) = sharded_discovery(&topo, 2, &scenario);
        let (_, _, three) = sharded_discovery(&topo, 3, &scenario);
        assert_eq!(
            two.devices,
            topo.node_count(),
            "{}: 2-FM merge incomplete",
            spec.name()
        );
        assert_eq!(
            three.devices,
            topo.node_count(),
            "{}: 3-FM merge incomplete",
            spec.name()
        );
        t.push_row(vec![
            spec.name(),
            trim_float(single.as_millis_f64()),
            trim_float(two.merged_time.as_millis_f64()),
            trim_float(three.merged_time.as_millis_f64()),
            topo.node_count().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use asi_topo::mesh;

    #[test]
    fn two_managers_merge_the_full_fabric() {
        let g = mesh(4, 4).expect("known-good grid");
        let scenario = Scenario::new(Algorithm::Parallel);
        let (fabric, primary, outcome) = sharded_discovery(&g.topology, 2, &scenario);
        assert_eq!(outcome.devices, 32);
        assert_eq!(outcome.links, g.topology.links().len());
        // Claim partitioning split the exploration: neither manager did
        // everything alone.
        assert_eq!(outcome.per_fm_devices.len(), 2);
        for (i, &n) in outcome.per_fm_devices.iter().enumerate() {
            assert!(n < 32, "manager {i} explored the whole fabric ({n})");
            assert!(n > 2, "manager {i} explored almost nothing ({n})");
        }
        // The merged database computes valid routes to every device.
        let agent = fabric
            .agent_as::<asi_core::FmAgent>(primary)
            .expect("primary agent");
        let db = agent.db().unwrap();
        let host = db.host_dsn();
        let mut reachable = 0;
        for d in db.devices() {
            if d.info.dsn == host {
                continue;
            }
            if matches!(
                db.route_between(host, d.info.dsn, asi_proto::MAX_POOL_BITS),
                Some(Ok(_))
            ) {
                reachable += 1;
            }
        }
        assert_eq!(reachable, 31, "merged routes incomplete");
    }

    #[test]
    fn distributed_beats_single_manager_on_big_fabrics() {
        let g = mesh(6, 6).expect("known-good grid");
        let scenario = Scenario::new(Algorithm::Parallel);
        let single = Bench::start(&g.topology, &scenario, &[])
            .last_run()
            .discovery_time();
        let (_, _, out) = sharded_discovery(&g.topology, 2, &scenario);
        assert_eq!(out.devices, 72);
        assert!(
            out.merged_time < single,
            "distributed ({}) should beat single ({single})",
            out.merged_time
        );
    }
}
