//! Decoding never panics: `Snapshot::from_bytes` is fed arbitrary bytes,
//! truncations of a valid encoding and bit flips of one, the flips
//! resealed under a valid FNV-1a trailer so that they get past the
//! checksum to the record parser. Whatever decodes must decode back to
//! itself from its own encoding. (The shape of `asi-proto`'s
//! `tests/properties.rs`.)

use asi_proto::{DeviceInfo, DeviceType, PortInfo, PortState, TurnPool};
use asi_state::{DeviceRecord, DeviceRoute, Snapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use proptest::prelude::*;

/// A valid snapshot of `devices` devices, its records filled from `a`:
/// switches and endpoints, routes of up to three turns, present and
/// absent port blocks in every state, and a star of links to the host.
fn snapshot_of(devices: u64, a: u64) -> Snapshot {
    let mut s = Snapshot::new(a);
    for i in 0..devices {
        let switch = i % 2 == 1;
        let port_count = if switch { 2 + (a >> i) as u16 % 15 } else { 1 };
        let mut pool = TurnPool::with_capacity(64);
        for t in 0..i % 4 {
            pool.push_turn((a >> (2 * t)) as u8 % 4, 2).unwrap();
        }
        let port = |p: u16| {
            let state = [PortState::Down, PortState::Training, PortState::Active];
            (p % 3 != 2).then(|| PortInfo {
                state: state[(a >> p) as usize % 3],
                link_width: 1,
                link_speed: 10,
                peer_port: (p % 5) as u8,
            })
        };
        s.devices.push(DeviceRecord {
            info: DeviceInfo {
                device_type: [DeviceType::Endpoint, DeviceType::Switch][usize::from(switch)],
                dsn: a.wrapping_add(i),
                port_count,
                max_packet_size: 2048,
                fm_capable: !switch,
                fm_priority: (a >> 8) as u8,
            },
            route: DeviceRoute {
                egress: 0,
                entry_port: (i % 4) as u8,
                hops: i as u16,
                pool,
            }
            .into(),
            ports: (0..port_count).map(port).collect(),
        });
        if i > 0 {
            s.links.push((a, i as u8, a.wrapping_add(i), 0));
        }
    }
    s
}

/// FNV-1a, 64-bit: the snapshot trailer's checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let fnv = |h: u64, b: &u8| (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, fnv)
}

/// Replaces the last eight bytes with the checksum of the rest.
fn reseal(bytes: &mut Vec<u8>) {
    bytes.truncate(bytes.len().saturating_sub(8));
    let sum = fnv1a(bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
}

/// Decodes `input`, which must not panic; a decoded snapshot encodes to
/// bytes that decode to its canonical form.
fn survives(input: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(decoded) = Snapshot::from_bytes(input) {
        let mut canon = decoded.clone();
        canon.canonicalize();
        prop_assert_eq!(Snapshot::from_bytes(&decoded.to_bytes()), Ok(canon));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, raw or behind a valid magic and version and
    /// sealed, so that the record parser sees the noise.
    #[test]
    fn arbitrary_bytes_never_panic(
        noise in proptest::collection::vec(any::<u8>(), 0..160),
        framed in any::<bool>(),
    ) {
        let mut input = noise;
        if framed {
            let header = [SNAPSHOT_MAGIC.as_slice(), &SNAPSHOT_VERSION.to_le_bytes()].concat();
            input.splice(0..0, header);
            input.extend_from_slice(&[0; 8]);
            reseal(&mut input);
        }
        survives(&input)?;
    }

    #[test]
    fn truncations_never_panic(devices in 0u64..6, a in any::<u64>(), cut in any::<prop::sample::Index>()) {
        let bytes = snapshot_of(devices, a).to_bytes();
        survives(&bytes[..cut.index(bytes.len() + 1)])?;
    }

    /// One to three flipped bits, resealed.
    #[test]
    fn resealed_bit_flips_never_panic(
        devices in 0u64..6,
        a in any::<u64>(),
        flips in proptest::collection::vec(any::<prop::sample::Index>(), 1..4),
    ) {
        let mut bytes = snapshot_of(devices, a).to_bytes();
        let body_bits = (bytes.len() - 8) * 8;
        for at in flips {
            let bit = at.index(body_bits);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        reseal(&mut bytes);
        survives(&bytes)?;
    }
}
