//! Compact binary encoding: magic + version + records + FNV-1a checksum.
//!
//! All integers are little-endian. The trailing checksum covers every
//! preceding byte, so truncation, bit rot and version skew are all caught
//! before any record is trusted.

use crate::snapshot::{DeviceRecord, DeviceRoute, Snapshot};
use asi_proto::{DeviceInfo, DeviceType, PortInfo, PortState, TurnPool};

/// First four bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"ASIS";
/// Current format version. Version 2 widened the per-device turn-pool
/// record from four to [`asi_proto::POOL_WORDS`] 64-bit words when the
/// maximum pool grew to 512 bits for large-fabric routes.
pub const SNAPSHOT_VERSION: u16 = 2;

/// Why a snapshot failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the record structure did.
    Truncated,
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The file's version is not [`SNAPSHOT_VERSION`].
    BadVersion(u16),
    /// The trailing checksum does not match the body.
    BadChecksum {
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum computed over the body.
        computed: u64,
    },
    /// A record decoded to an impossible value.
    Malformed(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::BadChecksum { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot record: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Checksum of a snapshot's canonical encoded body (what the trailing
/// checksum of [`Snapshot::to_bytes`] stores). The JSONL rendering in
/// `asi-harness` embeds the same value, so both formats cross-check.
pub fn checksum_of(snapshot: &Snapshot) -> u64 {
    let bytes = snapshot.to_bytes();
    fnv1a(&bytes[..bytes.len() - 8])
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn device_type_tag(t: DeviceType) -> u8 {
    match t {
        DeviceType::Switch => 1,
        DeviceType::Endpoint => 2,
    }
}

fn port_state_tag(s: PortState) -> u8 {
    match s {
        PortState::Down => 0,
        PortState::Training => 1,
        PortState::Active => 2,
    }
}

fn encode_device(out: &mut Vec<u8>, d: &DeviceRecord) {
    put_u64(out, d.info.dsn);
    out.push(device_type_tag(d.info.device_type));
    put_u16(out, d.info.port_count);
    put_u16(out, d.info.max_packet_size);
    out.push(u8::from(d.info.fm_capable));
    out.push(d.info.fm_priority);
    out.push(d.route.egress);
    out.push(d.route.entry_port);
    put_u16(out, d.route.hops);
    put_u16(out, d.route.pool.len_bits());
    put_u16(out, d.route.pool.capacity());
    for w in d.route.pool.to_pool().words() {
        put_u64(out, *w);
    }
    put_u16(out, d.ports.len() as u16);
    for p in &d.ports {
        match p {
            None => out.push(0),
            Some(p) => {
                out.push(1);
                out.push(port_state_tag(p.state));
                out.push(p.link_width);
                out.push(p.link_speed);
                out.push(p.peer_port);
            }
        }
    }
}

/// Byte-stream reader with uniform truncation errors.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }
}

fn decode_device(r: &mut Reader<'_>) -> Result<DeviceRecord, SnapshotError> {
    let dsn = r.u64()?;
    let device_type = match r.u8()? {
        1 => DeviceType::Switch,
        2 => DeviceType::Endpoint,
        _ => return Err(SnapshotError::Malformed("device type")),
    };
    let port_count = r.u16()?;
    let max_packet_size = r.u16()?;
    let fm_capable = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(SnapshotError::Malformed("fm-capable flag")),
    };
    let fm_priority = r.u8()?;
    let egress = r.u8()?;
    let entry_port = r.u8()?;
    let hops = r.u16()?;
    let pool_len = r.u16()?;
    let pool_capacity = r.u16()?;
    let mut words = [0u64; asi_proto::POOL_WORDS];
    for w in words.iter_mut() {
        *w = r.u64()?;
    }
    let pool = TurnPool::from_words(words, pool_len, pool_capacity)
        .map_err(|_| SnapshotError::Malformed("turn pool"))?;
    let nports = r.u16()?;
    let mut ports = Vec::with_capacity(usize::from(nports));
    for _ in 0..nports {
        match r.u8()? {
            0 => ports.push(None),
            1 => {
                let state = match r.u8()? {
                    0 => PortState::Down,
                    1 => PortState::Training,
                    2 => PortState::Active,
                    _ => return Err(SnapshotError::Malformed("port state")),
                };
                ports.push(Some(PortInfo {
                    state,
                    link_width: r.u8()?,
                    link_speed: r.u8()?,
                    peer_port: r.u8()?,
                }));
            }
            _ => return Err(SnapshotError::Malformed("port presence tag")),
        }
    }
    Ok(DeviceRecord {
        info: DeviceInfo {
            device_type,
            dsn,
            port_count,
            max_packet_size,
            fm_capable,
            fm_priority,
        },
        route: DeviceRoute {
            egress,
            entry_port,
            hops,
            pool,
        }
        .into(),
        ports: ports.into(),
    })
}

impl Snapshot {
    /// Encodes the snapshot canonically (devices sorted by DSN, links by
    /// canonical key) with a trailing FNV-1a checksum. `to_bytes` of a
    /// decoded snapshot reproduces the original bytes exactly.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut canon = self.clone();
        canon.canonicalize();
        let mut out = Vec::new();
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        put_u16(&mut out, SNAPSHOT_VERSION);
        put_u64(&mut out, canon.host_dsn);
        put_u32(&mut out, canon.devices.len() as u32);
        put_u32(&mut out, canon.links.len() as u32);
        for d in &canon.devices {
            encode_device(&mut out, d);
        }
        for &(a, ap, b, bp) in &canon.links {
            put_u64(&mut out, a);
            out.push(ap);
            put_u64(&mut out, b);
            out.push(bp);
        }
        let checksum = fnv1a(&out);
        put_u64(&mut out, checksum);
        out
    }

    /// Decodes a snapshot, verifying magic, version, structure and the
    /// trailing checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < SNAPSHOT_MAGIC.len() + 2 {
            return Err(
                if bytes.starts_with(&SNAPSHOT_MAGIC) || SNAPSHOT_MAGIC.starts_with(bytes) {
                    SnapshotError::Truncated
                } else {
                    SnapshotError::BadMagic
                },
            );
        }
        if bytes[..4] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < 8 {
            return Err(SnapshotError::Truncated);
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("len 8"));
        let computed = fnv1a(body);
        if stored != computed {
            return Err(SnapshotError::BadChecksum { stored, computed });
        }
        let mut r = Reader {
            bytes: body,
            pos: 4,
        };
        let version = r.u16()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let host_dsn = r.u64()?;
        let ndev = r.u32()? as usize;
        let nlink = r.u32()? as usize;
        let mut snapshot = Snapshot::new(host_dsn);
        snapshot.devices.reserve(ndev.min(1 << 16));
        for _ in 0..ndev {
            snapshot.devices.push(decode_device(&mut r)?);
        }
        snapshot.links.reserve(nlink.min(1 << 16));
        for _ in 0..nlink {
            let a = r.u64()?;
            let ap = r.u8()?;
            let b = r.u64()?;
            let bp = r.u8()?;
            snapshot.links.push((a, ap, b, bp));
        }
        if r.pos != body.len() {
            return Err(SnapshotError::Malformed("trailing bytes"));
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::link_key;

    fn device(dsn: u64, switch: bool, nports: u16) -> DeviceRecord {
        let mut pool = TurnPool::with_capacity(64);
        if switch {
            pool.push_turn(3, 4).unwrap();
        }
        DeviceRecord {
            info: DeviceInfo {
                device_type: if switch {
                    DeviceType::Switch
                } else {
                    DeviceType::Endpoint
                },
                dsn,
                port_count: nports,
                max_packet_size: 2048,
                fm_capable: !switch,
                fm_priority: 7,
            },
            route: DeviceRoute {
                egress: 0,
                entry_port: (dsn % 4) as u8,
                hops: (dsn % 3) as u16,
                pool,
            }
            .into(),
            ports: (0..nports)
                .map(|p| {
                    if p % 3 == 2 {
                        None
                    } else {
                        Some(PortInfo {
                            state: if p % 2 == 0 {
                                PortState::Active
                            } else {
                                PortState::Down
                            },
                            link_width: 1,
                            link_speed: 10,
                            peer_port: (p % 5) as u8,
                        })
                    }
                })
                .collect(),
        }
    }

    fn sample() -> Snapshot {
        let mut s = Snapshot::new(1);
        s.devices.push(device(2, true, 16));
        s.devices.push(device(1, false, 1));
        s.devices.push(device(3, false, 1));
        s.links.push((2, 5, 1, 0));
        s.links.push((2, 6, 3, 0));
        s
    }

    #[test]
    fn round_trip_preserves_canonical_form() {
        let s = sample();
        let bytes = s.to_bytes();
        let decoded = Snapshot::from_bytes(&bytes).unwrap();
        let mut canon = s.clone();
        canon.canonicalize();
        assert_eq!(decoded, canon);
        // Canonical: devices sorted by DSN, links canonicalized.
        assert_eq!(
            decoded
                .devices
                .iter()
                .map(|d| d.info.dsn)
                .collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(decoded.links[0], link_key((2, 5, 1, 0)));
    }

    #[test]
    fn resave_is_byte_identical() {
        let bytes = sample().to_bytes();
        let resaved = Snapshot::from_bytes(&bytes).unwrap().to_bytes();
        assert_eq!(bytes, resaved);
    }

    #[test]
    fn construction_order_does_not_change_encoding() {
        let a = sample();
        let mut b = Snapshot::new(1);
        let mut devs = a.devices.clone();
        devs.reverse();
        b.devices = devs;
        b.links = vec![(3, 0, 2, 6), (1, 0, 2, 5)]; // reversed + flipped
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert_eq!(Snapshot::from_bytes(&bytes), Err(SnapshotError::BadMagic));
        assert_eq!(
            Snapshot::from_bytes(b"garbage!"),
            Err(SnapshotError::BadMagic)
        );
    }

    #[test]
    fn corruption_caught_by_checksum() {
        let good = sample().to_bytes();
        for at in [7, good.len() / 2, good.len() - 9] {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            assert!(
                matches!(
                    Snapshot::from_bytes(&bad),
                    Err(SnapshotError::BadChecksum { .. })
                ),
                "flip at {at} must fail the checksum"
            );
        }
    }

    #[test]
    fn wrong_version_rejected() {
        // Re-stamp the version and fix the checksum so only the version
        // check can object.
        let mut bytes = sample().to_bytes();
        bytes[4..6].copy_from_slice(&99u16.to_le_bytes());
        let body_len = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::BadVersion(99))
        );
    }

    #[test]
    fn truncation_rejected_cleanly() {
        let bytes = sample().to_bytes();
        for end in 0..bytes.len() {
            let err = Snapshot::from_bytes(&bytes[..end]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated
                        | SnapshotError::BadMagic
                        | SnapshotError::BadChecksum { .. }
                ),
                "prefix of {end} bytes: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn checksum_of_matches_trailer() {
        let s = sample();
        let bytes = s.to_bytes();
        let trailer = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        assert_eq!(checksum_of(&s), trailer);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let s = Snapshot::new(42);
        let decoded = Snapshot::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(decoded, s);
        assert_eq!(decoded.device_count(), 0);
        assert_eq!(decoded.link_count(), 0);
    }

    #[test]
    fn delta_between_snapshots() {
        let old = sample();
        let mut new = sample();
        // Remove endpoint 3 (and its link), add endpoint 4 on a new port.
        new.devices.retain(|d| d.info.dsn != 3);
        new.links.retain(|&l| link_key(l) != link_key((2, 6, 3, 0)));
        new.devices.push(device(4, false, 1));
        new.links.push((2, 7, 4, 0));
        let delta = old.diff(&new);
        assert_eq!(delta.added_devices, vec![4]);
        assert_eq!(delta.removed_devices, vec![3]);
        assert_eq!(
            delta.recabled_devices,
            vec![2],
            "switch 2 lost and gained a link"
        );
        assert_eq!(delta.added_links, vec![link_key((2, 7, 4, 0))]);
        assert_eq!(delta.removed_links, vec![link_key((2, 6, 3, 0))]);
        assert!(!delta.is_empty());
        assert_eq!(delta.change_count(), 4);
        assert_eq!(delta.to_string(), "+1 -1 devices, +1 -1 links, 1 re-cabled");
        assert!(old.diff(&old).is_empty());
    }

    #[test]
    fn error_messages_render() {
        assert!(SnapshotError::Truncated.to_string().contains("truncated"));
        assert!(SnapshotError::BadVersion(9).to_string().contains('9'));
        assert!(SnapshotError::BadChecksum {
            stored: 1,
            computed: 2
        }
        .to_string()
        .contains("mismatch"));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use proptest::{Rejected, TestRng};

        /// Arbitrary snapshot: a host endpoint, up to 8 extra devices
        /// with random routes/ports, and random links among them.
        struct ArbSnapshot;

        fn arb_device(rng: &mut TestRng, dsn: u64) -> Result<DeviceRecord, Rejected> {
            let switch = (0u8..2).generate(rng)? == 1;
            let nports: u16 = if switch { (2u16..17).generate(rng)? } else { 1 };
            // Up to 94 bits: both sides of a record's inline word.
            let mut pool = TurnPool::with_capacity(128);
            for _ in 0..(0u8..48).generate(rng)? {
                let turn = (0u8..4).generate(rng)?;
                pool.push_turn(turn, 2).map_err(|_| Rejected)?;
            }
            let mut ports = Vec::new();
            for _ in 0..nports {
                ports.push(if (0u8..4).generate(rng)? == 0 {
                    None
                } else {
                    Some(PortInfo {
                        state: match (0u8..3).generate(rng)? {
                            0 => PortState::Down,
                            1 => PortState::Training,
                            _ => PortState::Active,
                        },
                        link_width: (1u8..5).generate(rng)?,
                        link_speed: (1u8..32).generate(rng)?,
                        peer_port: (0u8..16).generate(rng)?,
                    })
                });
            }
            Ok(DeviceRecord {
                info: DeviceInfo {
                    device_type: if switch {
                        DeviceType::Switch
                    } else {
                        DeviceType::Endpoint
                    },
                    dsn,
                    port_count: nports,
                    max_packet_size: (64u16..4096).generate(rng)?,
                    fm_capable: (0u8..2).generate(rng)? == 1,
                    fm_priority: (0u8..=255u8).generate(rng).unwrap_or(0),
                },
                route: DeviceRoute {
                    egress: (0u8..4).generate(rng)?,
                    entry_port: (0u8..16).generate(rng)?,
                    hops: (0u16..12).generate(rng)?,
                    pool,
                }
                .into(),
                ports: ports.into(),
            })
        }

        impl Strategy for ArbSnapshot {
            type Value = Snapshot;

            fn generate(&self, rng: &mut TestRng) -> Result<Snapshot, Rejected> {
                let base: u64 = (1u64..1 << 40).generate(rng)?;
                let extra = (0usize..8).generate(rng)?;
                let mut s = Snapshot::new(base);
                s.devices.push(arb_device(rng, base)?);
                for i in 0..extra {
                    s.devices.push(arb_device(rng, base + 1 + i as u64)?);
                }
                let nlinks = (0usize..12).generate(rng)?;
                for _ in 0..nlinks {
                    let a = (0usize..s.devices.len()).generate(rng)?;
                    let b = (0usize..s.devices.len()).generate(rng)?;
                    s.links.push((
                        s.devices[a].info.dsn,
                        (0u8..16).generate(rng)?,
                        s.devices[b].info.dsn,
                        (0u8..16).generate(rng)?,
                    ));
                }
                Ok(s)
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(192))]

            /// Encode → decode is the canonical identity, and a second
            /// save of the decoded snapshot is byte-identical.
            #[test]
            fn arbitrary_snapshots_round_trip(s in ArbSnapshot) {
                let bytes = s.to_bytes();
                let decoded = Snapshot::from_bytes(&bytes).unwrap();
                let mut canon = s.clone();
                canon.canonicalize();
                prop_assert_eq!(&decoded, &canon);
                prop_assert_eq!(decoded.to_bytes(), bytes);
            }

            /// Any strict prefix errors cleanly (never panics, never
            /// yields a snapshot).
            #[test]
            fn truncated_snapshots_error(
                s in ArbSnapshot,
                cut in any::<prop::sample::Index>(),
            ) {
                let bytes = s.to_bytes();
                let end = cut.index(bytes.len());
                prop_assert!(Snapshot::from_bytes(&bytes[..end]).is_err());
            }

            /// diff(x, x) is empty; diff is antisymmetric in its
            /// added/removed lists.
            #[test]
            fn diff_properties(a in ArbSnapshot, b in ArbSnapshot) {
                prop_assert!(a.diff(&a).is_empty());
                let fwd = a.diff(&b);
                let rev = b.diff(&a);
                prop_assert_eq!(&fwd.added_devices, &rev.removed_devices);
                prop_assert_eq!(&fwd.removed_devices, &rev.added_devices);
                prop_assert_eq!(&fwd.added_links, &rev.removed_links);
                prop_assert_eq!(&fwd.removed_links, &rev.added_links);
                prop_assert_eq!(&fwd.recabled_devices, &rev.recabled_devices);
            }
        }
    }
}
