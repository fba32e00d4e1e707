//! Structural diffing between two topologies: two snapshots, or two live
//! databases reduced to the same sets.

use crate::snapshot::{link_key, Snapshot};
use std::collections::BTreeSet;

/// What changed between two snapshots of the same fabric.
///
/// All lists are sorted, so two deltas over the same pair of snapshots
/// compare equal however the snapshots were built.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TopologyDelta {
    /// DSNs present only in the newer snapshot.
    pub added_devices: Vec<u64>,
    /// DSNs present only in the older snapshot.
    pub removed_devices: Vec<u64>,
    /// DSNs present in both whose incident link set changed — the device
    /// survived but was re-cabled (moved port, new neighbour, lost link).
    pub recabled_devices: Vec<u64>,
    /// Links present only in the newer snapshot (canonical keys).
    pub added_links: Vec<(u64, u8, u64, u8)>,
    /// Links present only in the older snapshot (canonical keys).
    pub removed_links: Vec<(u64, u8, u64, u8)>,
}

impl TopologyDelta {
    /// Computes the delta from `older` to `newer`.
    pub fn between(older: &Snapshot, newer: &Snapshot) -> TopologyDelta {
        let dsns = |s: &Snapshot| s.devices.iter().map(|d| d.info.dsn).collect();
        let links = |s: &Snapshot| s.links.iter().map(|&l| link_key(l)).collect();
        TopologyDelta::of_sets(dsns(older), dsns(newer), links(older), links(newer))
    }

    /// The delta between two topologies given as their device DSNs and
    /// their canonical link keys: what both [`TopologyDelta::between`]
    /// and the live database's diff reduce to.
    pub fn of_sets(
        old_dsns: BTreeSet<u64>,
        new_dsns: BTreeSet<u64>,
        old_links: BTreeSet<(u64, u8, u64, u8)>,
        new_links: BTreeSet<(u64, u8, u64, u8)>,
    ) -> TopologyDelta {
        let added_links: Vec<_> = new_links.difference(&old_links).copied().collect();
        let removed_links: Vec<_> = old_links.difference(&new_links).copied().collect();
        // A surviving device is "re-cabled" when any link touching it
        // appeared or disappeared.
        let mut recabled: BTreeSet<u64> = BTreeSet::new();
        for &(a, _, b, _) in added_links.iter().chain(removed_links.iter()) {
            for dsn in [a, b] {
                if old_dsns.contains(&dsn) && new_dsns.contains(&dsn) {
                    recabled.insert(dsn);
                }
            }
        }
        TopologyDelta {
            added_devices: new_dsns.difference(&old_dsns).copied().collect(),
            removed_devices: old_dsns.difference(&new_dsns).copied().collect(),
            recabled_devices: recabled.into_iter().collect(),
            added_links,
            removed_links,
        }
    }

    /// True when the snapshots describe the same topology.
    pub fn is_empty(&self) -> bool {
        self.added_devices.is_empty()
            && self.removed_devices.is_empty()
            && self.recabled_devices.is_empty()
            && self.added_links.is_empty()
            && self.removed_links.is_empty()
    }

    /// Total number of device + link changes (re-cablings not counted
    /// separately: they are derived from the link changes).
    pub fn change_count(&self) -> usize {
        self.added_devices.len()
            + self.removed_devices.len()
            + self.added_links.len()
            + self.removed_links.len()
    }
}

impl std::fmt::Display for TopologyDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "+{} -{} devices, +{} -{} links, {} re-cabled",
            self.added_devices.len(),
            self.removed_devices.len(),
            self.added_links.len(),
            self.removed_links.len(),
            self.recabled_devices.len()
        )
    }
}
