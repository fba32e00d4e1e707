//! Conversions between the live [`TopologyDb`] and the serializable
//! [`Snapshot`] from `asi-state`.
//!
//! The snapshot is the warm-start seed: a cold run's database is frozen
//! with [`snapshot_db`], persisted through `Snapshot::to_bytes`, and fed
//! back to a later fabric manager via `FmConfig::with_warm_start`, which
//! rebuilds a database with [`db_from_snapshot`] and verifies it against
//! the real fabric instead of re-walking it.

use crate::db::TopologyDb;
use asi_state::Snapshot;

/// Freezes a topology database into a snapshot. The result is already
/// canonical (the database iterates in sorted order).
pub fn snapshot_db(db: &TopologyDb) -> Snapshot {
    let mut snap = Snapshot::new(db.host_dsn());
    snap.devices.extend(db.devices().cloned());
    for ((a, ap), (b, bp)) in db.links() {
        snap.links.push((a, ap, b, bp));
    }
    snap.canonicalize();
    snap
}

/// Rebuilds a topology database from a snapshot. Routes are restored as
/// recorded; callers that distrust them (warm start does) should follow
/// with [`TopologyDb::refresh_routes`].
pub fn db_from_snapshot(snap: &Snapshot) -> TopologyDb {
    let mut db = TopologyDb::new(snap.host_dsn);
    for d in &snap.devices {
        db.insert_device(d.info, d.route.clone());
        for (idx, port) in d.ports.iter().enumerate() {
            if let Some(p) = port {
                db.set_port(d.info.dsn, idx as u16, *p);
            }
        }
    }
    for &(a, ap, b, bp) in &snap.links {
        db.add_link((a, ap), (b, bp));
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DeviceRoute;
    use asi_proto::{DeviceInfo, DeviceType, PortInfo, PortState, TurnPool};

    fn info(dsn: u64, device_type: DeviceType, ports: u16) -> DeviceInfo {
        DeviceInfo {
            device_type,
            dsn,
            port_count: ports,
            max_packet_size: 2048,
            fm_capable: device_type == DeviceType::Endpoint,
            fm_priority: 3,
        }
    }

    fn sample_db() -> TopologyDb {
        let mut db = TopologyDb::new(1);
        let route = |entry: u8, hops: u16| DeviceRoute {
            egress: 0,
            pool: TurnPool::with_capacity(64),
            entry_port: entry,
            hops,
        };
        db.insert_device(info(1, DeviceType::Endpoint, 1), route(0, 0));
        db.insert_device(info(2, DeviceType::Switch, 16), route(4, 0));
        db.insert_device(info(3, DeviceType::Endpoint, 1), route(0, 1));
        db.add_link((1, 0), (2, 4));
        db.add_link((2, 5), (3, 0));
        db.set_port(
            2,
            4,
            PortInfo {
                state: PortState::Active,
                link_width: 1,
                link_speed: 10,
                peer_port: 0,
            },
        );
        db
    }

    #[test]
    fn snapshot_round_trips_through_db() {
        let db = sample_db();
        let snap = snapshot_db(&db);
        assert_eq!(snap.host_dsn, 1);
        assert_eq!(snap.device_count(), 3);
        assert_eq!(snap.link_count(), 2);
        assert_eq!(snap.device(2).unwrap().ports[4].unwrap().link_speed, 10);

        let rebuilt = db_from_snapshot(&snap);
        assert_eq!(rebuilt.host_dsn(), db.host_dsn());
        assert_eq!(rebuilt.device_count(), db.device_count());
        assert_eq!(rebuilt.link_count(), db.link_count());
        assert!(snapshot_db(&rebuilt).diff(&snap).is_empty());
        // Stronger: the canonical snapshots (including routes and ports)
        // are structurally identical.
        assert_eq!(snapshot_db(&rebuilt), snap);
    }

    #[test]
    fn snapshot_survives_binary_encoding() {
        let snap = snapshot_db(&sample_db());
        let decoded = asi_state::Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(decoded, snap);
        let rebuilt = db_from_snapshot(&decoded);
        assert_eq!(snapshot_db(&rebuilt), snap);
    }
}
