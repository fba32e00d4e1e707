//! Complete ASI packets: route header + protocol payload + ECRC.

use crate::header::{HeaderError, ProtocolInterface, RouteHeader};
use crate::pi4::{Pi4, Pi4Error};
use crate::pi5::{Pi5, Pi5Error};
use crate::pi_fm::{FmMessage, FmMessageError};

/// The payload carried behind the routing header.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Payload {
    /// PI-4 configuration access.
    Pi4(Pi4),
    /// PI-5 event report.
    Pi5(Pi5),
    /// FM-to-FM exchange (distributed discovery).
    Fm(FmMessage),
    /// Multicast application data: forwarded by the switches' multicast
    /// tables rather than the turn pool. `hops` is a replication-loop
    /// guard (decremented per switch, dropped at zero).
    Mcast {
        /// Multicast group id.
        group: u16,
        /// Payload length in bytes.
        len: u16,
        /// Remaining hop budget.
        hops: u8,
    },
    /// Opaque application data of the given length (background traffic);
    /// contents are irrelevant to the management plane, only the size
    /// matters for link occupancy.
    Data {
        /// Payload length in bytes.
        len: u16,
    },
}

impl Payload {
    /// The PI value matching this payload.
    pub fn pi(&self) -> ProtocolInterface {
        match self {
            Payload::Pi4(_) => ProtocolInterface::DeviceManagement,
            Payload::Pi5(_) => ProtocolInterface::EventReporting,
            Payload::Fm(_) => ProtocolInterface::FmExchange,
            Payload::Mcast { .. } => ProtocolInterface::Multicast,
            Payload::Data { .. } => ProtocolInterface::Data,
        }
    }

    /// On-wire payload size in bytes.
    pub fn wire_size(&self) -> usize {
        match self {
            Payload::Pi4(p) => p.wire_size(),
            Payload::Pi5(_) => Pi5::WIRE_SIZE,
            Payload::Fm(m) => m.wire_size(),
            Payload::Mcast { len, .. } => 5 + usize::from(*len),
            Payload::Data { len } => usize::from(*len),
        }
    }
}

/// A full packet as it travels the fabric.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Packet {
    /// Routing header (mutated hop by hop: the turn pointer advances).
    pub header: RouteHeader,
    /// Protocol payload.
    pub payload: Payload,
}

/// Size of the end-to-end CRC trailer.
pub const ECRC_BYTES: usize = 4;

/// Packet decode failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketError {
    /// Route header failed to parse.
    Header(HeaderError),
    /// PI-4 payload failed to parse.
    Pi4(Pi4Error),
    /// PI-5 payload failed to parse.
    Pi5(Pi5Error),
    /// FM exchange payload failed to parse.
    Fm(FmMessageError),
    /// Header PI does not name a payload this model carries.
    UnsupportedPi(u8),
    /// Payload shorter than its declared length.
    Truncated,
    /// Payload longer than its length field can state.
    Oversized,
}

impl core::fmt::Display for PacketError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PacketError::Header(e) => write!(f, "route header: {e}"),
            PacketError::Pi4(e) => write!(f, "PI-4 payload: {e}"),
            PacketError::Pi5(e) => write!(f, "PI-5 payload: {e}"),
            PacketError::Fm(e) => write!(f, "FM exchange payload: {e}"),
            PacketError::UnsupportedPi(pi) => write!(f, "unsupported PI {pi}"),
            PacketError::Truncated => write!(f, "truncated packet"),
            PacketError::Oversized => write!(f, "payload longer than its length field"),
        }
    }
}

impl std::error::Error for PacketError {}

impl Packet {
    /// Builds a packet, stamping the header's PI from the payload.
    pub fn new(mut header: RouteHeader, payload: Payload) -> Packet {
        header.pi = payload.pi();
        Packet { header, payload }
    }

    /// Total on-wire size: header (+ pool extension and the 4-byte
    /// length/pointer framing) + payload + ECRC.
    pub fn wire_size(&self) -> usize {
        self.header.wire_size() + 4 + self.payload.wire_size() + ECRC_BYTES
    }

    /// True for management-plane packets (PI-4/PI-5), which the paper says
    /// travel at the highest priority.
    pub fn is_management(&self) -> bool {
        matches!(
            self.payload,
            Payload::Pi4(_) | Payload::Pi5(_) | Payload::Fm(_)
        )
    }

    /// Serializes header + payload (+ placeholder ECRC) into bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_size());
        self.header.encode(&mut out);
        match &self.payload {
            Payload::Pi4(p) => p.encode(&mut out),
            Payload::Pi5(p) => p.encode(&mut out),
            Payload::Fm(m) => m.encode(&mut out),
            Payload::Mcast { group, len, hops } => {
                out.extend_from_slice(&group.to_be_bytes());
                out.extend_from_slice(&len.to_be_bytes());
                out.push(*hops);
                out.extend(std::iter::repeat_n(0u8, usize::from(*len)));
            }
            Payload::Data { len } => out.extend(std::iter::repeat_n(0u8, usize::from(*len))),
        }
        // ECRC over everything so far (simple sum-based 32-bit check; the
        // link layer's LCRC does the heavy lifting in real hardware).
        let ecrc = ecrc32(&out);
        out.extend_from_slice(&ecrc.to_be_bytes());
        out
    }

    /// Parses a packet produced by [`Packet::encode`].
    pub fn decode(input: &[u8]) -> Result<Packet, PacketError> {
        if input.len() < ECRC_BYTES {
            return Err(PacketError::Truncated);
        }
        let (body, trailer) = input.split_at(input.len() - ECRC_BYTES);
        let found = u32::from_be_bytes(trailer.try_into().unwrap());
        if ecrc32(body) != found {
            return Err(PacketError::Truncated);
        }
        let (header, used) = RouteHeader::decode(body).map_err(PacketError::Header)?;
        let rest = &body[used..];
        let payload = match header.pi {
            ProtocolInterface::DeviceManagement => {
                let (p, _) = Pi4::decode(rest).map_err(PacketError::Pi4)?;
                Payload::Pi4(p)
            }
            ProtocolInterface::EventReporting => {
                let (p, _) = Pi5::decode(rest).map_err(PacketError::Pi5)?;
                Payload::Pi5(p)
            }
            ProtocolInterface::FmExchange => {
                let (m, _) = FmMessage::decode(rest).map_err(PacketError::Fm)?;
                Payload::Fm(m)
            }
            ProtocolInterface::Multicast => {
                if rest.len() < 5 {
                    return Err(PacketError::Truncated);
                }
                let group = u16::from_be_bytes(rest[0..2].try_into().unwrap());
                let len = u16::from_be_bytes(rest[2..4].try_into().unwrap());
                let hops = rest[4];
                if rest.len() < 5 + usize::from(len) {
                    return Err(PacketError::Truncated);
                }
                Payload::Mcast { group, len, hops }
            }
            // A body the 16-bit length cannot state would re-encode to
            // other bytes.
            ProtocolInterface::Data => Payload::Data {
                len: u16::try_from(rest.len()).map_err(|_| PacketError::Oversized)?,
            },
            other => return Err(PacketError::UnsupportedPi(other.to_wire())),
        };
        Ok(Packet { header, payload })
    }
}

/// Fletcher-style 32-bit end-to-end check.
fn ecrc32(bytes: &[u8]) -> u32 {
    let mut a: u32 = 1;
    let mut b: u32 = 0;
    for &x in bytes {
        a = (a + u32::from(x)) % 65_521;
        b = (b + a) % 65_521;
    }
    (b << 16) | a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pi4::CapabilityAddr;
    use crate::pi5::PortEvent;
    use crate::turn::TurnPool;

    fn header() -> RouteHeader {
        let mut pool = TurnPool::new_spec();
        pool.push_turn(3, 4).unwrap();
        RouteHeader::forward(ProtocolInterface::DeviceManagement, 7, pool)
    }

    #[test]
    fn pi4_packet_round_trips() {
        let pkt = Packet::new(
            header(),
            Payload::Pi4(Pi4::ReadRequest {
                req_id: 77,
                addr: CapabilityAddr::baseline(0),
                dwords: 6,
            }),
        );
        let bytes = pkt.encode();
        assert_eq!(bytes.len(), pkt.wire_size());
        assert_eq!(Packet::decode(&bytes).unwrap(), pkt);
    }

    #[test]
    fn pi5_packet_round_trips() {
        let pkt = Packet::new(
            header(),
            Payload::Pi5(Pi5 {
                reporter_dsn: 5,
                port: 2,
                event: PortEvent::PortDown,
                sequence: 9,
            }),
        );
        let bytes = pkt.encode();
        let decoded = Packet::decode(&bytes).unwrap();
        assert_eq!(decoded, pkt);
        assert!(decoded.is_management());
    }

    #[test]
    fn data_packet_round_trips_and_is_not_management() {
        let pkt = Packet::new(header(), Payload::Data { len: 256 });
        let bytes = pkt.encode();
        let decoded = Packet::decode(&bytes).unwrap();
        assert_eq!(decoded.payload, Payload::Data { len: 256 });
        assert!(!decoded.is_management());
    }

    /// A PI-8 body's length is what decode sees behind the header, and
    /// `Data { len }` holds 16 bits of it: a longer body is an error, not
    /// a length that wraps (65,536 bytes used to decode as 0, 70,000 as
    /// 4,464) and re-encodes to other bytes.
    #[test]
    fn a_data_body_longer_than_its_length_field_is_rejected() {
        let data = |len: usize| {
            let mut bytes = Vec::new();
            RouteHeader::forward(ProtocolInterface::Data, 0, TurnPool::new_spec())
                .encode(&mut bytes);
            bytes.resize(bytes.len() + len, 0);
            let ecrc = ecrc32(&bytes);
            bytes.extend_from_slice(&ecrc.to_be_bytes());
            bytes
        };
        let longest = data(65_535);
        let decoded = Packet::decode(&longest).unwrap();
        assert_eq!(decoded.payload, Payload::Data { len: u16::MAX });
        assert_eq!(decoded.encode(), longest);
        for len in [65_536, 70_000] {
            assert_eq!(Packet::decode(&data(len)), Err(PacketError::Oversized));
        }
    }

    #[test]
    fn pi_is_stamped_from_payload() {
        let pkt = Packet::new(header(), Payload::Data { len: 1 });
        assert_eq!(pkt.header.pi, ProtocolInterface::Data);
    }

    #[test]
    fn corrupted_packet_is_rejected() {
        let pkt = Packet::new(header(), Payload::Pi4(Pi4::WriteCompletion { req_id: 1 }));
        let mut bytes = pkt.encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(Packet::decode(&bytes).is_err());
    }

    #[test]
    fn truncated_packet_is_rejected() {
        let pkt = Packet::new(header(), Payload::Pi4(Pi4::WriteCompletion { req_id: 1 }));
        let bytes = pkt.encode();
        for cut in 0..bytes.len() {
            assert!(Packet::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn wire_sizes_are_plausible() {
        // A PI-4 read request over a short path: ~26 bytes on the wire.
        let pkt = Packet::new(
            header(),
            Payload::Pi4(Pi4::ReadRequest {
                req_id: 1,
                addr: CapabilityAddr::baseline(0),
                dwords: 6,
            }),
        );
        assert_eq!(pkt.wire_size(), 8 + 4 + 10 + 4);

        // A full 8-word completion is 8+4+(1+4+1+32)+4 = 54 bytes.
        let completion = Packet::new(
            header(),
            Payload::Pi4(Pi4::ReadCompletion {
                req_id: 1,
                data: vec![0; 8],
            }),
        );
        assert_eq!(completion.wire_size(), 54);
    }
}
