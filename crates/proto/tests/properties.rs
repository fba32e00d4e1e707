//! Property-based tests for the ASI wire formats.

use asi_proto::{
    apply_backward, apply_forward, turn_for, turn_width, CapabilityAddr, DeviceInfo, DeviceType,
    Direction, FmMessage, Packet, Payload, Pi4, Pi4Status, Pi5, PortEvent, PortInfo,
    ProtocolInterface, RouteHeader, TurnCursor, TurnPool, MAX_POOL_BITS,
};
use proptest::prelude::*;
use std::fmt::Debug;

/// Strategy: a random path as (ingress, egress, ports) hops.
fn hops() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    proptest::collection::vec(
        (2u8..=16).prop_flat_map(|ports| {
            (0..ports, 0..ports, Just(ports)).prop_filter("distinct", |(i, e, _)| i != e)
        }),
        0..30,
    )
}

/// The extended-mode turn pool of a `hops()` path.
fn pool_of(path: &[(u8, u8, u8)]) -> TurnPool {
    let mut pool = TurnPool::with_capacity(MAX_POOL_BITS);
    for &(ingress, egress, ports) in path {
        let t = turn_for(ingress, egress, ports);
        pool.push_turn(t, turn_width(ports)).unwrap();
    }
    pool
}

proptest! {
    /// Encoding a path into the turn pool and walking it forward recovers
    /// exactly the intended egress ports; walking it backward retraces the
    /// ingress ports in reverse.
    #[test]
    fn turn_pool_forward_backward_inverse(path in hops()) {
        let pool = pool_of(&path);

        // Forward traversal.
        let mut c = TurnCursor::start(&pool, Direction::Forward);
        for &(ingress, egress, ports) in &path {
            let (t, next) = c.take_turn(&pool, turn_width(ports)).unwrap();
            prop_assert_eq!(apply_forward(ingress, t, ports), egress);
            c = next;
        }
        prop_assert!(c.exhausted(&pool));

        // Backward traversal: enter each switch at its forward egress and
        // leave at its forward ingress, in reverse path order.
        let mut c = TurnCursor::start(&pool, Direction::Backward);
        for &(ingress, egress, ports) in path.iter().rev() {
            let (t, next) = c.take_turn(&pool, turn_width(ports)).unwrap();
            prop_assert_eq!(apply_backward(egress, t, ports), ingress);
            c = next;
        }
        prop_assert!(c.exhausted(&pool));
    }

    /// turn_for / apply_forward are mutually inverse for all port pairs.
    #[test]
    fn turn_arithmetic_inverse(ports in 2u8..=32, ingress in 0u8..32, egress in 0u8..32) {
        prop_assume!(ingress < ports && egress < ports && ingress != egress);
        let t = turn_for(ingress, egress, ports);
        prop_assert!(u16::from(t) < u16::from(ports));
        prop_assert_eq!(apply_forward(ingress, t, ports), egress);
        prop_assert_eq!(apply_backward(egress, t, ports), ingress);
    }

    /// Route headers round-trip for arbitrary field combinations.
    #[test]
    fn header_round_trip(
        tc in 0u8..8,
        oo in any::<bool>(),
        ts in any::<bool>(),
        credits in 0u8..32,
        backward in any::<bool>(),
        path in hops(),
    ) {
        let mut hdr = RouteHeader::forward(ProtocolInterface::DeviceManagement, tc, pool_of(&path));
        hdr.oo = oo;
        hdr.ts = ts;
        hdr.credits_required = credits;
        if backward {
            hdr = hdr.reply(ProtocolInterface::DeviceManagement);
        }
        prop_assume!(hdr.turn_pointer <= 0xFF); // 8-bit pointer field
        let mut buf = Vec::new();
        hdr.encode(&mut buf);
        let (decoded, used) = RouteHeader::decode(&buf).unwrap();
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(decoded, hdr);
    }

    /// Single-bit corruption of the first header DWORDs never decodes
    /// silently into a different valid header.
    #[test]
    fn header_corruption_detected(bit in 0usize..59, path in hops()) {
        let hdr = RouteHeader::forward(ProtocolInterface::EventReporting, 7, pool_of(&path));
        let mut buf = Vec::new();
        hdr.encode(&mut buf);
        buf[bit / 8] ^= 1 << (7 - (bit % 8));
        match RouteHeader::decode(&buf) {
            Err(_) => {}
            Ok((decoded, _)) => prop_assert_ne!(decoded, hdr, "corruption undetected"),
        }
    }

    /// PI-4 PDUs round-trip for arbitrary contents.
    #[test]
    fn pi4_round_trip(
        req_id in any::<u32>(),
        capability in 0u16..4,
        offset in any::<u16>(),
        n in 1usize..=8,
        write in any::<bool>(),
    ) {
        let addr = CapabilityAddr { capability, offset };
        let pdu = if write {
            Pi4::WriteRequest {
                req_id,
                addr,
                data: (0..n as u32).collect(),
            }
        } else {
            Pi4::ReadRequest { req_id, addr, dwords: n as u8 }
        };
        let mut buf = Vec::new();
        pdu.encode(&mut buf);
        let (decoded, used) = Pi4::decode(&buf).unwrap();
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(decoded, pdu);
    }

    /// Complete packets round-trip, and wire size always matches the
    /// encoded length.
    #[test]
    fn packet_round_trip(
        req_id in any::<u32>(),
        n in 1usize..=8,
        kind in 0u8..3,
        path in hops(),
    ) {
        let hdr = RouteHeader::forward(ProtocolInterface::DeviceManagement, 7, pool_of(&path));
        let payload = match kind {
            0 => Payload::Pi4(Pi4::ReadCompletion {
                req_id,
                data: (0..n as u32).collect(),
            }),
            1 => Payload::Pi5(Pi5 {
                reporter_dsn: u64::from(req_id),
                port: (n - 1) as u8,
                event: PortEvent::PortUp,
                sequence: req_id,
            }),
            _ => Payload::Data { len: (n * 37) as u16 },
        };
        let pkt = Packet::new(hdr, payload);
        let bytes = pkt.encode();
        prop_assert_eq!(bytes.len(), pkt.wire_size());
        prop_assert_eq!(Packet::decode(&bytes).unwrap(), pkt);
    }
}

// ---------------------------------------------------------------------
// Decoding never panics. Every decoder is fed arbitrary bytes,
// truncations of a valid encoding and single bit flips of one; whatever
// decodes must fit its input and decode back from its own encoding.

/// How to spoil a valid encoding: replace it with arbitrary bytes (0),
/// cut it short (1) or flip one bit (2); the index picks the cut or bit.
type Spoil = (u8, Vec<u8>, prop::sample::Index);

fn spoil() -> impl Strategy<Value = Spoil> {
    let noise = proptest::collection::vec(any::<u8>(), 0..48);
    (0u8..3, noise, any::<prop::sample::Index>())
}

/// Spoils `valid`'s encoding and decodes what is left, which must not
/// panic; a decoded value used at most the bytes it was given, and its
/// own encoding decodes back to it.
fn survives<T: PartialEq + Debug, E>(
    valid: &T,
    (how, noise, at): Spoil,
    decode: impl Fn(&[u8]) -> Result<(T, usize), E>,
    encode: impl Fn(&T, &mut Vec<u8>),
) -> Result<(), TestCaseError> {
    let bytes = |value: &T| {
        let mut out = Vec::new();
        encode(value, &mut out);
        out
    };
    let mut input = bytes(valid);
    match how {
        0 => input = noise,
        1 => input.truncate(at.index(input.len() + 1)),
        _ => {
            let bit = at.index(input.len() * 8);
            input[bit / 8] ^= 1 << (bit % 8);
        }
    }
    if let Ok((value, used)) = decode(&input) {
        prop_assert!(used <= input.len(), "used {} of {}", used, input.len());
        prop_assert_eq!(decode(&bytes(&value)).ok().map(|(v, _)| v), Some(value));
    }
    Ok(())
}

/// A valid PDU of each shape, picked by `kind`, filled from `a` and `b`.
fn pi4_of(kind: u8, a: u64, b: u64) -> Pi4 {
    let (req_id, status) = (a as u32, Pi4Status::ConfigurationRetry);
    let addr = CapabilityAddr::baseline(b as u16);
    let data: asi_proto::Dwords = (0..1 + b % 8).map(|i| (a >> i) as u32).collect();
    let dwords = data.len() as u8;
    match kind % 5 {
        0 => Pi4::ReadRequest {
            req_id,
            addr,
            dwords,
        },
        1 => Pi4::ReadCompletion { req_id, data },
        2 => Pi4::ReadError { req_id, status },
        3 => Pi4::WriteRequest { req_id, addr, data },
        _ => Pi4::WriteCompletion { req_id },
    }
}

fn pi5_of(a: u64, b: u64) -> Pi5 {
    let (port, sequence) = (b as u8, (b >> 32) as u32);
    let event = [PortEvent::PortUp, PortEvent::PortDown][(b >> 8) as usize % 2];
    Pi5 {
        reporter_dsn: a,
        port,
        event,
        sequence,
    }
}

fn fm_of(kind: u8, a: u64, b: u64) -> FmMessage {
    let (priority, fms) = (b as u8, b as u32);
    match kind % 7 {
        0 => FmMessage::Hello {
            sender: a,
            priority,
        },
        1 => FmMessage::Claim { dsn: a, priority },
        2 => FmMessage::Elected { primary: a, fms },
        3 => FmMessage::Yield { dsn: a, to: b },
        4 => FmMessage::Link {
            a: (a, priority),
            b: (b, 0),
        },
        5 => FmMessage::Complete {
            sender: a,
            devices: fms,
            links: 3,
        },
        _ => {
            let device_type = DeviceType::Switch;
            let (port_count, max_packet_size, fm_capable) = (16, 2048, false);
            let info = DeviceInfo {
                device_type,
                dsn: a,
                port_count,
                max_packet_size,
                fm_capable,
                fm_priority: priority,
            };
            // Any first word decodes to some port block.
            let port = PortInfo::from_words(&[fms, 0, 0, 0]).unwrap();
            let ports = (0..b % 4).map(|i| (i as u16 * 3, port)).collect();
            FmMessage::Device { info, ports }
        }
    }
}

/// A packet over `path` carrying a valid payload of each kind.
fn packet_of(path: &[(u8, u8, u8)], kind: u8, a: u64, b: u64) -> Packet {
    let (group, len, hops) = (a as u16, (b % 64) as u16, 8);
    let payload = match kind % 5 {
        0 => Payload::Pi4(pi4_of(kind / 5, a, b)),
        1 => Payload::Pi5(pi5_of(a, b)),
        2 => Payload::Fm(fm_of(kind / 5, a, b)),
        3 => Payload::Mcast { group, len, hops },
        _ => Payload::Data { len },
    };
    let header = RouteHeader::forward(ProtocolInterface::Data, 7, pool_of(path));
    Packet::new(header, payload)
}

/// Recomputes the ECRC trailer, so a spoiled packet gets past the
/// checksum to the header and payload parsers.
fn reseal(bytes: &[u8]) -> Vec<u8> {
    let mut body = bytes[..bytes.len().saturating_sub(asi_proto::ECRC_BYTES)].to_vec();
    let (mut lo, mut hi) = (1u32, 0u32);
    for &x in &body {
        lo = (lo + u32::from(x)) % 65_521;
        hi = (hi + lo) % 65_521;
    }
    body.extend_from_slice(&((hi << 16) | lo).to_be_bytes());
    body
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn route_header_decode_never_panics(path in hops(), spoil in spoil()) {
        let hdr = RouteHeader::forward(ProtocolInterface::FmExchange, 7, pool_of(&path));
        survives(&hdr, spoil, RouteHeader::decode, RouteHeader::encode)?;
    }

    #[test]
    fn pi4_decode_never_panics(kind in any::<u8>(), a in any::<u64>(), b in any::<u64>(), spoil in spoil()) {
        survives(&pi4_of(kind, a, b), spoil, Pi4::decode, Pi4::encode)?;
    }

    #[test]
    fn pi5_decode_never_panics(a in any::<u64>(), b in any::<u64>(), spoil in spoil()) {
        survives(&pi5_of(a, b), spoil, Pi5::decode, Pi5::encode)?;
    }

    #[test]
    fn fm_message_decode_never_panics(kind in any::<u8>(), a in any::<u64>(), b in any::<u64>(), spoil in spoil()) {
        survives(&fm_of(kind, a, b), spoil, FmMessage::decode, FmMessage::encode)?;
    }

    /// Half the spoiled packets are resealed with a fresh ECRC.
    #[test]
    fn packet_decode_never_panics(path in hops(), kind in any::<u8>(), a in any::<u64>(), b in any::<u64>(), spoil in spoil()) {
        let seal = |bytes: &[u8]| if a & 1 == 0 { reseal(bytes) } else { bytes.to_vec() };
        let decode = |bytes: &[u8]| Packet::decode(&seal(bytes)).map(|p| (p, bytes.len()));
        let encode = |p: &Packet, out: &mut Vec<u8>| out.extend(p.encode());
        survives(&packet_of(&path, kind, a, b), spoil, decode, encode)?;
    }
}
