//! Distributed discovery (the paper's first future-work item, §5):
//! several collaborative fabric managers elect a primary, explore the
//! fabric simultaneously, partition it with claim-and-hold ownership
//! writes, and stream their partial databases to the primary for merging.
//!
//! ## Protocol
//!
//! 1. Every manager holds a [`DistributedConfig`] — its election
//!    priority and its peers' addresses. On
//!    [`crate::fm::TOKEN_START_ELECTION`] it broadcasts an
//!    [`FmMessage::Claim`], collects rival claims for one election
//!    window, and resolves the winner with [`crate::election::elect`].
//!    The winner is the primary; everyone else reports to it, and the
//!    runner-up also watches the primary with keepalive reads so it can
//!    take over if the primary dies. The election is the only way a
//!    manager gets a role.
//! 2. Every manager then runs its algorithm with *claim partitioning*:
//!    after inserting a newly probed device it writes its own DSN to the
//!    device's ownership register (claim-and-hold: the first write
//!    sticks) and reads it back. If the read-back shows a rival, the
//!    manager keeps the device and the link in its database but cedes
//!    the device's region — it does not read the ports or probe beyond.
//! 3. When a collaborator's exploration drains, it streams its database
//!    to the primary as [`asi_proto::FmMessage`] packets (`Device`,
//!    `Link`, then `Complete`).
//! 4. The primary merges records as they arrive (each occupying the FM
//!    for [`crate::timing::FmTiming::merge_time`]), and finishes once its
//!    own exploration is done and every expected `Complete` has arrived;
//!    it then recomputes all routes from its own endpoint.
//!
//! Routes from collaborators are relative to *their* endpoints, so only
//! device/link facts are transferred; the primary re-derives routes.

use crate::db::{DeviceRoute, TopologyDb};
use crate::snapshot::snapshot_db;
use asi_proto::{FmMessage, TurnPool};
use asi_sim::SimTime;
use asi_state::checksum_of;
use asi_topo::{Topology, TopologyError, ValidationError};
use std::collections::{BTreeMap, HashSet};
use std::fmt;

/// The role an election gives a manager in a distributed discovery.
#[derive(Clone, Debug)]
pub(crate) enum DistributedRole {
    /// Merges collaborator reports; owns the final database.
    Primary,
    /// Explores its claimed region, then reports to the primary at this
    /// address.
    Collaborator(FmPeer),
}

/// Address of one peer fabric manager: where to send FM-exchange packets
/// so they arrive at that manager's endpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FmPeer {
    /// The peer endpoint's device serial number.
    pub dsn: u64,
    /// Egress port (on this manager's endpoint) toward the peer.
    pub egress: u8,
    /// Turn-pool route from this manager's endpoint to the peer.
    pub pool: TurnPool,
}

/// Configuration for election-based distributed discovery: this
/// manager's election priority and the addresses of every peer manager.
///
/// Attach one to an [`crate::fm::FmConfig`] with
/// [`crate::fm::FmConfig::with_distributed_config`] and kick the agent
/// with [`crate::fm::TOKEN_START_ELECTION`] instead of
/// [`crate::fm::TOKEN_START_DISCOVERY`]; the agents then elect a
/// primary over PI-9 and take their roles from the result.
///
/// ```
/// use asi_core::DistributedConfig;
/// use asi_proto::TurnPool;
/// use asi_sim::SimDuration;
///
/// let dc = DistributedConfig::new(3)
///     .with_peer(0x42, 0, TurnPool::new_spec())
///     .with_election_window(SimDuration::from_us(80));
/// assert_eq!(dc.priority, 3);
/// assert_eq!(dc.peers.len(), 1);
/// assert_eq!(dc.election_window, SimDuration::from_us(80));
/// ```
#[derive(Clone, Debug)]
pub struct DistributedConfig {
    /// This manager's election priority (higher wins; DSN breaks ties).
    pub priority: u8,
    /// Every *other* manager taking part in the election.
    pub peers: Vec<FmPeer>,
    /// How long the manager collects rival claims before resolving the
    /// election (default 50 µs — generous against worst-case claim
    /// propagation on every fabric in the test suite).
    pub election_window: asi_sim::SimDuration,
}

impl DistributedConfig {
    /// A config with the given election priority and no peers yet.
    pub fn new(priority: u8) -> Self {
        DistributedConfig {
            priority,
            peers: Vec::new(),
            election_window: asi_sim::SimDuration::from_us(50),
        }
    }

    /// Adds a peer manager (builder style).
    #[must_use]
    pub fn with_peer(mut self, dsn: u64, egress: u8, pool: TurnPool) -> Self {
        self.peers.push(FmPeer { dsn, egress, pool });
        self
    }

    /// Sets the claim-collection window (builder style).
    #[must_use]
    pub fn with_election_window(mut self, window: asi_sim::SimDuration) -> Self {
        self.election_window = window;
        self
    }
}

/// Merge-side state kept by the primary.
#[derive(Debug, Default)]
pub struct MergeState {
    /// Device records received.
    pub devices_received: u64,
    /// Link records received.
    pub links_received: u64,
    /// Collaborators whose `Complete` arrived.
    pub completed: HashSet<u64>,
    /// Messages that arrived while the primary's own exploration still
    /// owned the database.
    pub backlog: Vec<FmMessage>,
    /// When the merged database became final.
    pub finished_at: Option<SimTime>,
}

impl MergeState {
    /// Applies one FM message to the database. Returns `true` when the
    /// message was a `Complete`.
    pub fn apply(&mut self, db: &mut TopologyDb, msg: FmMessage) -> bool {
        match msg {
            FmMessage::Hello { .. }
            | FmMessage::Claim { .. }
            | FmMessage::Elected { .. }
            | FmMessage::Yield { .. } => false,
            FmMessage::Device { info, ports } => {
                self.devices_received += 1;
                if !db.contains(info.dsn) {
                    db.insert_device(
                        info,
                        DeviceRoute {
                            egress: 0,
                            pool: TurnPool::new_spec(),
                            entry_port: 0,
                            hops: 0,
                        },
                    );
                }
                // Union in port attributes the primary lacks (ceded
                // regions). Per-slot, so the merged database is the same
                // whichever order collaborator reports arrive in.
                for (p, port) in ports {
                    let unknown = db
                        .device(info.dsn)
                        .and_then(|d| d.ports.get(p as usize))
                        .is_some_and(|slot| slot.is_none());
                    if unknown {
                        db.set_port(info.dsn, p, port);
                    }
                }
                false
            }
            FmMessage::Link { a, b } => {
                self.links_received += 1;
                db.add_link(a, b);
                false
            }
            FmMessage::Complete { sender, .. } => {
                self.completed.insert(sender);
                true
            }
        }
    }
}

/// Serializes a database into the message stream a collaborator sends to
/// the primary (devices first, then links, then `Complete`).
pub fn report_messages(db: &TopologyDb) -> Vec<FmMessage> {
    let mut out = Vec::new();
    let mut dsns: Vec<u64> = db.devices().map(|d| d.info.dsn).collect();
    dsns.sort_unstable();
    for dsn in dsns {
        let d = db.device(dsn).expect("listed");
        out.push(FmMessage::Device {
            info: d.info,
            ports: d
                .ports
                .iter()
                .enumerate()
                .filter_map(|(i, p)| p.map(|p| (i as u16, p)))
                .collect(),
        });
    }
    let mut links: Vec<((u64, u8), (u64, u8))> = db.links().collect();
    links.sort_unstable();
    let nlinks = links.len();
    for (a, b) in links {
        out.push(FmMessage::Link { a, b });
    }
    out.push(FmMessage::Complete {
        sender: db.host_dsn(),
        devices: db.device_count() as u32,
        links: nlinks as u32,
    });
    out
}

/// Proof that a merged database passed certification: it rebuilt into a
/// structurally valid [`asi_topo::Topology`] and produced a canonical
/// snapshot whose checksum any manager can compare against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergeCertificate {
    /// Devices in the certified view.
    pub devices: u64,
    /// Links in the certified view.
    pub links: u64,
    /// [`asi_state::checksum_of`] over the canonical snapshot — equal
    /// checksums mean byte-identical topologies.
    pub checksum: u64,
}

/// Why [`certify_merge`] rejected a merged database.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MergeCertError {
    /// A device carries more ports than the graph layer models.
    PortCount {
        /// The offending device.
        dsn: u64,
        /// Its advertised port count.
        ports: u16,
    },
    /// A link references a device absent from the database.
    UnknownDevice {
        /// The missing device's DSN.
        dsn: u64,
    },
    /// Rebuilding the link graph failed (port reuse, self-loop, …).
    Rebuild(TopologyError),
    /// The rebuilt graph failed [`Topology::validate`].
    Invalid(ValidationError),
}

impl fmt::Display for MergeCertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeCertError::PortCount { dsn, ports } => {
                write!(f, "device {dsn:#x} claims {ports} ports (max 255)")
            }
            MergeCertError::UnknownDevice { dsn } => {
                write!(f, "link references unknown device {dsn:#x}")
            }
            MergeCertError::Rebuild(e) => write!(f, "graph rebuild failed: {e}"),
            MergeCertError::Invalid(e) => write!(f, "merged graph invalid: {e}"),
        }
    }
}

impl std::error::Error for MergeCertError {}

/// Certifies a merged database: rebuilds an [`asi_topo::Topology`] from
/// the device and link facts, runs [`Topology::validate`] (symmetry,
/// port double-use, connectivity), and stamps the canonical
/// [`asi_state`] snapshot checksum.
///
/// This is the merge check the primary runs after the last collaborator
/// report lands: a database stitched together from N partial views must
/// describe one coherent, fully connected fabric, and its canonical
/// bytes must match what a single-manager discovery would have found.
pub fn certify_merge(db: &TopologyDb) -> Result<MergeCertificate, MergeCertError> {
    let mut topo = Topology::new("merged");
    let mut ids = BTreeMap::new();
    for d in db.devices() {
        let ports = u8::try_from(d.info.port_count).map_err(|_| MergeCertError::PortCount {
            dsn: d.info.dsn,
            ports: d.info.port_count,
        })?;
        let label = format!("dsn-{:x}", d.info.dsn);
        let id = match d.info.device_type {
            asi_proto::DeviceType::Switch => topo.add_switch(ports, label),
            asi_proto::DeviceType::Endpoint => topo.add_endpoint_with_ports(ports, label),
        };
        ids.insert(d.info.dsn, id);
    }
    for ((da, pa), (db_, pb)) in db.links() {
        let a = *ids
            .get(&da)
            .ok_or(MergeCertError::UnknownDevice { dsn: da })?;
        let b = *ids
            .get(&db_)
            .ok_or(MergeCertError::UnknownDevice { dsn: db_ })?;
        topo.connect(a, pa, b, pb)
            .map_err(MergeCertError::Rebuild)?;
    }
    topo.validate().map_err(MergeCertError::Invalid)?;
    let snap = snapshot_db(db);
    Ok(MergeCertificate {
        devices: db.device_count() as u64,
        links: db.link_count() as u64,
        checksum: checksum_of(&snap),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use asi_proto::{DeviceInfo, DeviceType, PortInfo, PortState};

    fn info(dsn: u64, ports: u16) -> DeviceInfo {
        DeviceInfo {
            device_type: if ports > 4 {
                DeviceType::Switch
            } else {
                DeviceType::Endpoint
            },
            dsn,
            port_count: ports,
            max_packet_size: 2048,
            fm_capable: ports <= 4,
            fm_priority: 0,
        }
    }

    fn sample_db(host: u64) -> TopologyDb {
        let mut db = TopologyDb::new(host);
        db.insert_device(
            info(host, 1),
            DeviceRoute {
                egress: 0,
                pool: TurnPool::new_spec(),
                entry_port: 0,
                hops: 0,
            },
        );
        db.insert_device(
            info(100, 16),
            DeviceRoute {
                egress: 0,
                pool: TurnPool::new_spec(),
                entry_port: 0,
                hops: 1,
            },
        );
        for p in 0..16 {
            db.set_port(
                100,
                p,
                PortInfo {
                    state: if p == 0 {
                        PortState::Active
                    } else {
                        PortState::Down
                    },
                    link_width: 1,
                    link_speed: 10,
                    peer_port: 0,
                },
            );
        }
        db.add_link((host, 0), (100, 0));
        db
    }

    #[test]
    fn report_has_devices_links_complete_in_order() {
        let db = sample_db(1);
        let msgs = report_messages(&db);
        assert_eq!(msgs.len(), 2 + 1 + 1);
        assert!(matches!(msgs[0], FmMessage::Device { .. }));
        assert!(matches!(msgs[1], FmMessage::Device { .. }));
        assert!(matches!(msgs[2], FmMessage::Link { .. }));
        assert!(
            matches!(
                msgs[3],
                FmMessage::Complete {
                    sender: 1,
                    devices: 2,
                    links: 1
                }
            ),
            "{:?}",
            msgs[3]
        );
    }

    #[test]
    fn merge_reconstructs_the_database() {
        let src = sample_db(1);
        let mut dst = TopologyDb::new(99);
        dst.insert_device(
            info(99, 1),
            DeviceRoute {
                egress: 0,
                pool: TurnPool::new_spec(),
                entry_port: 0,
                hops: 0,
            },
        );
        let mut merge = MergeState::default();
        let mut completes = 0;
        for msg in report_messages(&src) {
            if merge.apply(&mut dst, msg) {
                completes += 1;
            }
        }
        assert_eq!(completes, 1);
        assert_eq!(merge.devices_received, 2);
        assert_eq!(merge.links_received, 1);
        assert!(dst.contains(1) && dst.contains(100));
        assert_eq!(dst.link_count(), 1);
        assert!(merge.completed.contains(&1));
        // Port attributes came across.
        assert!(dst.device(100).unwrap().ports_complete());
        assert_eq!(dst.device(100).unwrap().active_ports(), 1);
    }

    #[test]
    fn merge_does_not_clobber_known_ports() {
        let src = sample_db(1);
        let mut dst = sample_db(2); // already knows device 100 fully
        dst.set_port(
            100,
            3,
            PortInfo {
                state: PortState::Active,
                link_width: 1,
                link_speed: 10,
                peer_port: 9,
            },
        );
        let known = *dst.device(100).unwrap().ports[3].as_ref().unwrap();
        let mut merge = MergeState::default();
        for msg in report_messages(&src) {
            merge.apply(&mut dst, msg);
        }
        assert_eq!(*dst.device(100).unwrap().ports[3].as_ref().unwrap(), known);
    }

    #[test]
    fn duplicate_links_merge_idempotently() {
        let src = sample_db(1);
        let mut dst = TopologyDb::new(99);
        dst.insert_device(
            info(99, 1),
            DeviceRoute {
                egress: 0,
                pool: TurnPool::new_spec(),
                entry_port: 0,
                hops: 0,
            },
        );
        let mut merge = MergeState::default();
        for _ in 0..2 {
            for msg in report_messages(&src) {
                merge.apply(&mut dst, msg);
            }
        }
        assert_eq!(dst.link_count(), 1);
        assert_eq!(dst.device_count(), 3);
    }

    #[test]
    fn certify_accepts_a_coherent_merge_and_stamps_a_stable_checksum() {
        let db = sample_db(1);
        let cert = certify_merge(&db).expect("coherent database certifies");
        assert_eq!(cert.devices, 2);
        assert_eq!(cert.links, 1);
        assert_eq!(
            cert.checksum,
            certify_merge(&sample_db(1)).unwrap().checksum
        );
    }

    #[test]
    fn certify_rejects_a_disconnected_merge() {
        let mut db = sample_db(1);
        db.insert_device(
            info(500, 8),
            DeviceRoute {
                egress: 0,
                pool: TurnPool::new_spec(),
                entry_port: 0,
                hops: 2,
            },
        );
        // Device 500 has no link to the rest: an incoherent merge.
        assert!(matches!(
            certify_merge(&db),
            Err(MergeCertError::Invalid(
                ValidationError::Disconnected { .. }
            ))
        ));
    }

    #[test]
    fn report_carries_only_known_ports() {
        let mut db = sample_db(1);
        // Forget one port of the switch: a ceded boundary device.
        db.device_mut(100).unwrap().ports[7] = None;
        let msgs = report_messages(&db);
        let FmMessage::Device { ports, .. } = &msgs[1] else {
            panic!("expected device record, got {:?}", msgs[1]);
        };
        assert_eq!(ports.len(), 15);
        assert!(ports.iter().all(|(i, _)| *i != 7));
    }
}
