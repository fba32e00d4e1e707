//! Path distribution (the paper's third future-work item, §5): after a
//! topological change is assimilated, the manager must "dynamically
//! distribute new paths to fabric endpoints". The FM computes, for every
//! endpoint, a route table with a source route to every other endpoint,
//! and writes it into the endpoint's route-table capability with PI-4
//! writes.
//!
//! ## Entry format (six 32-bit words, one PI-4 write per entry)
//!
//! | word | contents |
//! |------|----------|
//! | 0    | destination DSN, high 32 bits |
//! | 1    | destination DSN, low 32 bits |
//! | 2    | `egress << 16 \| pool bit-length` |
//! | 3–5  | turn pool bits 0..96 |
//!
//! Routes needing more than 96 turn bits do not fit an entry and are
//! reported back to the caller (none of the paper's topologies exceed 68
//! bits end to end).

use crate::db::TopologyDb;
use asi_proto::{Dwords, TurnPool, CAP_ROUTE_TABLE};

/// Words per route-table entry.
pub const ENTRY_WORDS: u16 = 6;
/// Largest turn pool an entry can carry.
pub const ENTRY_POOL_BITS: u16 = 96;

/// One distributed route: how `owner` reaches `dest_dsn`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteTableEntry {
    /// Destination endpoint's DSN.
    pub dest_dsn: u64,
    /// Egress port at the owning endpoint.
    pub egress: u8,
    /// Turn pool to the destination.
    pub pool: TurnPool,
}

impl RouteTableEntry {
    /// Encodes the entry into its six words.
    pub fn to_words(&self) -> Option<[u32; ENTRY_WORDS as usize]> {
        if self.pool.len_bits() > ENTRY_POOL_BITS {
            return None;
        }
        let w = self.pool.words();
        Some([
            (self.dest_dsn >> 32) as u32,
            self.dest_dsn as u32,
            (u32::from(self.egress) << 16) | u32::from(self.pool.len_bits()),
            w[0] as u32,
            (w[0] >> 32) as u32,
            w[1] as u32,
        ])
    }

    /// Decodes an entry from its six words. All-zero words mean "no
    /// entry" and decode to `None`.
    pub fn from_words(words: &[u32]) -> Option<RouteTableEntry> {
        if words.len() < ENTRY_WORDS as usize {
            return None;
        }
        let dest_dsn = (u64::from(words[0]) << 32) | u64::from(words[1]);
        if dest_dsn == 0 {
            return None;
        }
        let egress = ((words[2] >> 16) & 0xFF) as u8;
        let len = (words[2] & 0xFFFF) as u16;
        if len > ENTRY_POOL_BITS {
            return None;
        }
        let w0 = u64::from(words[3]) | (u64::from(words[4]) << 32);
        let w1 = u64::from(words[5]);
        let mut pool_words = [0u64; asi_proto::POOL_WORDS];
        pool_words[0] = w0;
        pool_words[1] = w1;
        let pool = TurnPool::from_words(pool_words, len, ENTRY_POOL_BITS).ok()?;
        Some(RouteTableEntry {
            dest_dsn,
            egress,
            pool,
        })
    }

    /// The capability-offset of entry `index` in the route table.
    pub fn offset(index: u16) -> u16 {
        index * ENTRY_WORDS
    }
}

/// A planned PI-4 write distributing one entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlannedWrite {
    /// The endpoint whose table is written.
    pub target_dsn: u64,
    /// Offset within `CAP_ROUTE_TABLE`.
    pub offset: u16,
    /// The six entry words.
    pub data: Dwords,
}

impl PlannedWrite {
    /// The PI-4 address this write targets.
    pub fn addr(&self) -> asi_proto::CapabilityAddr {
        asi_proto::CapabilityAddr {
            capability: CAP_ROUTE_TABLE,
            offset: self.offset,
        }
    }
}

/// Computes the full distribution plan: for every endpoint in `db`
/// (except the host, which computes its own routes locally), a route to
/// every other endpoint. Returns the writes plus the `(owner, dest)`
/// pairs whose routes could not be expressed (unreachable or pool too
/// long).
pub fn plan_distribution(
    db: &TopologyDb,
    pool_capacity: u16,
) -> (Vec<PlannedWrite>, Vec<(u64, u64)>) {
    let mut writes = Vec::new();
    let mut failed = Vec::new();
    let endpoints = db.endpoints();
    for &owner in &endpoints {
        if owner == db.host_dsn() {
            continue;
        }
        // One BFS per owner; per-(owner, dest) route_between calls would
        // be cubic in the endpoint count.
        let mut owner_routes = db.routes_from(owner, pool_capacity.min(ENTRY_POOL_BITS));
        let mut index = 0u16;
        for &dest in &endpoints {
            if dest == owner {
                continue;
            }
            let entry = owner_routes
                .remove(&dest)
                .and_then(Result::ok)
                .map(|r| RouteTableEntry {
                    dest_dsn: dest,
                    egress: r.egress,
                    pool: r.pool,
                });
            match entry.as_ref().and_then(RouteTableEntry::to_words) {
                Some(words) => {
                    writes.push(PlannedWrite {
                        target_dsn: owner,
                        offset: RouteTableEntry::offset(index),
                        data: words[..].into(),
                    });
                    index += 1;
                }
                None => failed.push((owner, dest)),
            }
        }
    }
    (writes, failed)
}

/// Decodes a route table read back from an endpoint's capability words.
pub fn decode_route_table(words: &[u32]) -> Vec<RouteTableEntry> {
    words
        .chunks(ENTRY_WORDS as usize)
        .map_while(RouteTableEntry::from_words)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DeviceRoute;
    use asi_proto::{DeviceInfo, DeviceType};

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
            pool: TurnPool::with_capacity(96),
            entry_port: 0,
            hops: 0,
        }
    }

    /// host(1) -- sw(2) -- ep(3), ep(4)
    fn db() -> TopologyDb {
        let mut db = TopologyDb::new(1);
        db.insert_device(info(1, DeviceType::Endpoint, 1), route0());
        db.insert_device(info(2, DeviceType::Switch, 16), route0());
        db.insert_device(info(3, DeviceType::Endpoint, 1), route0());
        db.insert_device(info(4, DeviceType::Endpoint, 1), route0());
        db.add_link((1, 0), (2, 0));
        db.add_link((2, 1), (3, 0));
        db.add_link((2, 2), (4, 0));
        db
    }

    #[test]
    fn entry_words_round_trip() {
        let mut pool = TurnPool::with_capacity(96);
        for i in 0..20u8 {
            pool.push_turn(i % 16, 4).unwrap();
        }
        let entry = RouteTableEntry {
            dest_dsn: 0xABCD_0000_1234,
            egress: 2,
            pool,
        };
        let words = entry.to_words().unwrap();
        assert_eq!(RouteTableEntry::from_words(&words), Some(entry));
    }

    #[test]
    fn oversized_pool_cannot_encode() {
        let mut pool = TurnPool::with_capacity(256);
        for _ in 0..25 {
            pool.push_turn(1, 4).unwrap(); // 100 bits
        }
        let entry = RouteTableEntry {
            dest_dsn: 1,
            egress: 0,
            pool,
        };
        assert!(entry.to_words().is_none());
    }

    #[test]
    fn empty_words_decode_to_none() {
        assert_eq!(RouteTableEntry::from_words(&[0; 6]), None);
        assert_eq!(RouteTableEntry::from_words(&[0; 3]), None);
    }

    #[test]
    fn plan_covers_every_endpoint_pair() {
        let (writes, failed) = plan_distribution(&db(), 96);
        assert!(failed.is_empty(), "{failed:?}");
        // Owners: 3 and 4 (host 1 excluded). Each gets 2 entries
        // (to the two other endpoints).
        assert_eq!(writes.len(), 4);
        let to_ep3: Vec<_> = writes.iter().filter(|w| w.target_dsn == 3).collect();
        assert_eq!(to_ep3.len(), 2);
        assert_eq!(to_ep3[0].offset, 0);
        assert_eq!(to_ep3[1].offset, ENTRY_WORDS);
        // Entries decode back and point at real endpoints.
        for w in &writes {
            let entry = RouteTableEntry::from_words(&w.data).unwrap();
            assert!([1u64, 3, 4].contains(&entry.dest_dsn));
            assert_ne!(entry.dest_dsn, w.target_dsn);
        }
    }

    #[test]
    fn planned_routes_match_db_routes() {
        let d = db();
        let (writes, _) = plan_distribution(&d, 96);
        for w in &writes {
            let entry = RouteTableEntry::from_words(&w.data).unwrap();
            let expected = d
                .route_between(w.target_dsn, entry.dest_dsn, 96)
                .unwrap()
                .unwrap();
            assert_eq!(entry.egress, expected.egress);
            assert_eq!(entry.pool, expected.pool);
        }
    }

    #[test]
    fn decode_route_table_stops_at_empty_entry() {
        let d = db();
        let (writes, _) = plan_distribution(&d, 96);
        let mut table = vec![0u32; 18];
        for w in writes.iter().filter(|w| w.target_dsn == 3) {
            table[usize::from(w.offset)..usize::from(w.offset) + 6].copy_from_slice(&w.data);
        }
        let entries = decode_route_table(&table);
        assert_eq!(entries.len(), 2);
    }
}
