//! Multicast group management (an FM function the paper lists in §2:
//! "multicast group management", with MVC virtual channels and per-switch
//! multicast forwarding tables in the architecture).
//!
//! Given a member set, the manager derives a distribution tree over its
//! discovered topology — the union of BFS shortest paths from the first
//! member to every other member — and turns it into per-device multicast
//! table writes:
//!
//! - each switch on the tree gets the bitmask of its tree ports for the
//!   group (a packet entering on one tree port is replicated to all the
//!   others, so any member can be the source);
//! - each member endpoint gets a non-zero membership flag, which its NIC
//!   filter uses to accept the group's packets.

use crate::db::TopologyDb;
use asi_proto::{CapabilityAddr, DeviceType, CAP_MCAST_TABLE, MCAST_GROUPS};
use std::collections::{HashMap, HashSet, VecDeque};

/// Errors planning a multicast group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McastError {
    /// Group id beyond the devices' table size.
    GroupOutOfRange(u16),
    /// Fewer than two members.
    TooFewMembers,
    /// A member DSN is not in the database.
    UnknownMember(u64),
    /// A member is not an endpoint.
    NotAnEndpoint(u64),
    /// Members are not mutually reachable over discovered links.
    Unreachable(u64),
}

impl core::fmt::Display for McastError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            McastError::GroupOutOfRange(g) => write!(f, "group {g} out of range"),
            McastError::TooFewMembers => write!(f, "a group needs at least two members"),
            McastError::UnknownMember(d) => write!(f, "member {d:#x} not in the database"),
            McastError::NotAnEndpoint(d) => write!(f, "member {d:#x} is not an endpoint"),
            McastError::Unreachable(d) => write!(f, "member {d:#x} unreachable"),
        }
    }
}

impl std::error::Error for McastError {}

/// One multicast-table write: `(target dsn, group offset, mask word)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct McastWrite {
    /// Device whose table is written.
    pub target_dsn: u64,
    /// The group id (capability offset).
    pub group: u16,
    /// Output-port bitmask (switch) or membership flag (endpoint).
    pub mask: u32,
}

impl McastWrite {
    /// The PI-4 address this write targets.
    pub fn addr(&self) -> CapabilityAddr {
        CapabilityAddr {
            capability: CAP_MCAST_TABLE,
            offset: self.group,
        }
    }
}

/// Plans the distribution tree for `group` covering `members`
/// (endpoint DSNs). Returns the table writes, including membership flags
/// for the member endpoints.
pub fn plan_multicast(
    db: &TopologyDb,
    group: u16,
    members: &[u64],
) -> Result<Vec<McastWrite>, McastError> {
    if group >= MCAST_GROUPS {
        return Err(McastError::GroupOutOfRange(group));
    }
    let mut members: Vec<u64> = members.to_vec();
    members.sort_unstable();
    members.dedup();
    if members.len() < 2 {
        return Err(McastError::TooFewMembers);
    }
    for &m in &members {
        let d = db.device(m).ok_or(McastError::UnknownMember(m))?;
        if d.info.device_type != DeviceType::Endpoint {
            return Err(McastError::NotAnEndpoint(m));
        }
    }

    // Adjacency over discovered links a tree can use: a table entry is
    // one dword, bit `p` for port `p`, so a port past 31 cannot be named
    // in one (a member behind such a port comes out `Unreachable`).
    let mut adj: HashMap<u64, Vec<(u8, u64, u8)>> = HashMap::new();
    for ((a, ap), (b, bp)) in db.links() {
        if u32::from(ap.max(bp)) >= u32::BITS {
            continue;
        }
        adj.entry(a).or_default().push((ap, b, bp));
        adj.entry(b).or_default().push((bp, a, ap));
    }
    for v in adj.values_mut() {
        v.sort_unstable();
    }

    // BFS tree from the first member.
    let root = members[0];
    let mut prev: HashMap<u64, (u64, u8, u8)> = HashMap::new(); // node -> (parent, parent_port, entry_port)
    let mut seen: HashSet<u64> = HashSet::new();
    seen.insert(root);
    let mut queue = VecDeque::new();
    queue.push_back(root);
    while let Some(n) = queue.pop_front() {
        for &(p, m, mp) in adj.get(&n).into_iter().flatten() {
            if db.contains(m) && seen.insert(m) {
                prev.insert(m, (n, p, mp));
                queue.push_back(m);
            }
        }
    }

    // Union of root→member paths: collect tree ports per device.
    let mut ports: HashMap<u64, u32> = HashMap::new();
    for &m in &members[1..] {
        if !prev.contains_key(&m) {
            return Err(McastError::Unreachable(m));
        }
        let mut cur = m;
        while cur != root {
            let &(parent, parent_port, entry_port) = prev.get(&cur).expect("on tree");
            *ports.entry(parent).or_default() |= 1u32 << parent_port;
            *ports.entry(cur).or_default() |= 1u32 << entry_port;
            cur = parent;
        }
    }

    let mut writes = Vec::new();
    for (&dsn, &mask) in &ports {
        let device = db.device(dsn).expect("tree node known");
        match device.info.device_type {
            DeviceType::Switch => writes.push(McastWrite {
                target_dsn: dsn,
                group,
                mask,
            }),
            DeviceType::Endpoint => {
                // Endpoints get a membership flag rather than a mask.
                if members.contains(&dsn) {
                    writes.push(McastWrite {
                        target_dsn: dsn,
                        group,
                        mask: 1,
                    });
                }
            }
        }
    }
    // Members whose tree port map is empty (the root when it is a lone
    // leaf) still need their membership flag.
    for &m in &members {
        if !writes.iter().any(|w| w.target_dsn == m) {
            writes.push(McastWrite {
                target_dsn: m,
                group,
                mask: 1,
            });
        }
    }
    writes.sort_by_key(|w| w.target_dsn);
    Ok(writes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DeviceRoute;
    use asi_proto::{DeviceInfo, TurnPool};

    fn info(dsn: u64, device_type: DeviceType, ports: u16) -> DeviceInfo {
        DeviceInfo {
            device_type,
            dsn,
            port_count: ports,
            max_packet_size: 2048,
            fm_capable: device_type == DeviceType::Endpoint,
            fm_priority: 0,
        }
    }

    fn route0() -> DeviceRoute {
        DeviceRoute {
            egress: 0,
            pool: TurnPool::with_capacity(64),
            entry_port: 0,
            hops: 0,
        }
    }

    /// ep1 -(sw10)- sw11 - ep2; sw10 also has ep3.
    ///
    /// ```text
    ///   ep1 --0 sw10 1-- 0 sw11 1-- ep2
    ///            2
    ///            |
    ///           ep3
    /// ```
    fn db() -> TopologyDb {
        let mut db = TopologyDb::new(1);
        db.insert_device(info(1, DeviceType::Endpoint, 1), route0());
        db.insert_device(info(2, DeviceType::Endpoint, 1), route0());
        db.insert_device(info(3, DeviceType::Endpoint, 1), route0());
        db.insert_device(info(10, DeviceType::Switch, 16), route0());
        db.insert_device(info(11, DeviceType::Switch, 16), route0());
        db.add_link((1, 0), (10, 0));
        db.add_link((10, 1), (11, 0));
        db.add_link((11, 1), (2, 0));
        db.add_link((10, 2), (3, 0));
        db
    }

    #[test]
    fn two_member_tree_is_the_path() {
        let writes = plan_multicast(&db(), 5, &[1, 2]).unwrap();
        let find = |dsn: u64| writes.iter().find(|w| w.target_dsn == dsn);
        // sw10 bridges ports 0 (to ep1) and 1 (to sw11).
        assert_eq!(find(10).unwrap().mask, 0b11);
        // sw11 bridges ports 0 and 1.
        assert_eq!(find(11).unwrap().mask, 0b11);
        // Members flagged; ep3 untouched.
        assert_eq!(find(1).unwrap().mask, 1);
        assert_eq!(find(2).unwrap().mask, 1);
        assert!(find(3).is_none());
        assert!(writes.iter().all(|w| w.group == 5));
    }

    #[test]
    fn three_member_tree_branches_at_the_switch() {
        let writes = plan_multicast(&db(), 0, &[1, 2, 3]).unwrap();
        let find = |dsn: u64| writes.iter().find(|w| w.target_dsn == dsn).unwrap();
        // sw10 now bridges ports 0 (ep1), 1 (toward ep2) and 2 (ep3).
        assert_eq!(find(10).mask, 0b111);
        assert_eq!(find(3).mask, 1);
    }

    #[test]
    fn validation_errors() {
        let d = db();
        assert_eq!(
            plan_multicast(&d, MCAST_GROUPS, &[1, 2]),
            Err(McastError::GroupOutOfRange(MCAST_GROUPS))
        );
        assert_eq!(plan_multicast(&d, 0, &[1]), Err(McastError::TooFewMembers));
        assert_eq!(
            plan_multicast(&d, 0, &[1, 99]),
            Err(McastError::UnknownMember(99))
        );
        assert_eq!(
            plan_multicast(&d, 0, &[1, 10]),
            Err(McastError::NotAnEndpoint(10))
        );
        let mut disconnected = d.clone();
        disconnected.insert_device(info(4, DeviceType::Endpoint, 1), route0());
        assert_eq!(
            plan_multicast(&disconnected, 0, &[1, 4]),
            Err(McastError::Unreachable(4))
        );
    }

    #[test]
    fn a_member_behind_a_port_past_31_is_unreachable() {
        let mut wide = TopologyDb::new(1);
        wide.insert_device(info(20, DeviceType::Switch, 40), route0());
        for (dsn, port) in [(1, 0), (2, 33), (3, 31)] {
            wide.insert_device(info(dsn, DeviceType::Endpoint, 1), route0());
            wide.add_link((dsn, 0), (20, port));
        }
        let writes = plan_multicast(&wide, 0, &[1, 3]).unwrap();
        let switch = writes.iter().find(|w| w.target_dsn == 20).unwrap();
        assert_eq!(switch.mask, 1 | 1 << 31);
        assert_eq!(
            plan_multicast(&wide, 0, &[1, 2, 3]),
            Err(McastError::Unreachable(2))
        );
    }

    #[test]
    fn duplicate_members_collapse() {
        let writes = plan_multicast(&db(), 1, &[2, 1, 2, 1]).unwrap();
        assert_eq!(writes.iter().filter(|w| w.mask == 1).count(), 2);
    }
}
