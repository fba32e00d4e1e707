//! Snapshot types: the serializable form of a discovered topology.

use crate::compact::{PackedPool, PortBlocks};
use crate::delta::TopologyDelta;
use asi_proto::{DeviceInfo, TurnPool};

/// How the fabric manager reaches a device: inject on `egress` (the FM
/// endpoint's port), follow `pool`, arrive at the device's `entry_port`.
///
/// A route to send on holds a full [`TurnPool`]; a device record holds
/// the same route with its pool packed ([`PackedPool`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceRoute<P = TurnPool> {
    /// Egress port at the FM's endpoint.
    pub egress: u8,
    /// Turns for the switches along the path.
    pub pool: P,
    /// Port at which packets enter the target device.
    pub entry_port: u8,
    /// Switch hops from the FM.
    pub hops: u16,
}

impl From<DeviceRoute> for DeviceRoute<PackedPool> {
    fn from(route: DeviceRoute) -> DeviceRoute<PackedPool> {
        DeviceRoute {
            egress: route.egress,
            pool: PackedPool::from(&route.pool),
            entry_port: route.entry_port,
            hops: route.hops,
        }
    }
}

impl DeviceRoute<PackedPool> {
    /// The route with its full pool, to send on.
    pub fn unpack(&self) -> DeviceRoute {
        DeviceRoute {
            egress: self.egress,
            pool: self.pool.to_pool(),
            entry_port: self.entry_port,
            hops: self.hops,
        }
    }
}

/// One device record, in the topology database and in a snapshot alike:
/// general information, route, per-port attributes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceRecord {
    /// The six general-information words, decoded.
    pub info: DeviceInfo,
    /// Route the FM uses to reach it.
    pub route: DeviceRoute<PackedPool>,
    /// Per-port attributes; `None` until the port block has been read.
    pub ports: PortBlocks,
}

impl DeviceRecord {
    /// Number of active ports among those read so far.
    pub fn active_ports(&self) -> usize {
        self.ports
            .iter()
            .flatten()
            .filter(|p| p.state.is_active())
            .count()
    }

    /// True once every port block has been read.
    pub fn ports_complete(&self) -> bool {
        self.ports.iter().all(Option::is_some)
    }
}

/// A versioned snapshot of one discovered topology.
///
/// Build with [`Snapshot::new`] plus pushes into the public fields, or
/// decode with [`Snapshot::from_bytes`]. Encoding via
/// [`Snapshot::to_bytes`] always canonicalizes first (devices sorted by
/// DSN, links by canonical key), so equality of encodings is equality of
/// topologies regardless of construction order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// DSN of the FM endpoint the snapshot is rooted at.
    pub host_dsn: u64,
    /// Every device the discovery recorded (including the host).
    pub devices: Vec<DeviceRecord>,
    /// Every link, as `(dsn_a, port_a, dsn_b, port_b)`.
    pub links: Vec<(u64, u8, u64, u8)>,
}

/// Canonicalized link key (lower endpoint first).
pub(crate) fn link_key(l: (u64, u8, u64, u8)) -> (u64, u8, u64, u8) {
    if (l.0, l.1) <= (l.2, l.3) {
        l
    } else {
        (l.2, l.3, l.0, l.1)
    }
}

impl Snapshot {
    /// Empty snapshot rooted at `host_dsn`.
    pub fn new(host_dsn: u64) -> Snapshot {
        Snapshot {
            host_dsn,
            devices: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Number of devices recorded.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Number of links recorded.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Looks up a device by DSN.
    pub fn device(&self, dsn: u64) -> Option<&DeviceRecord> {
        self.devices.iter().find(|d| d.info.dsn == dsn)
    }

    /// Sorts devices by DSN and links by canonical key, deduplicating
    /// both. [`Snapshot::to_bytes`] calls this on a copy, so callers only
    /// need it when comparing in-memory snapshots structurally.
    pub fn canonicalize(&mut self) {
        self.devices.sort_by_key(|d| d.info.dsn);
        self.devices.dedup_by_key(|d| d.info.dsn);
        for l in self.links.iter_mut() {
            *l = link_key(*l);
        }
        self.links.sort_unstable();
        self.links.dedup();
    }

    /// Structural differences from `self` (the older state) to `newer`:
    /// devices/links added and removed, plus devices present in both
    /// whose incident cabling changed.
    pub fn diff(&self, newer: &Snapshot) -> TopologyDelta {
        TopologyDelta::between(self, newer)
    }
}
