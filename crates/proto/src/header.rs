//! The ASI packet routing header (paper Fig. 1).
//!
//! The specification's route header is two 32-bit words carrying the fields
//! shown in Fig. 1: `F`, `P`, Header CRC, Turn Pointer, `E`, Credits
//! Required, `TS`, `OO`, Traffic Class, `S`/`R`/`P`, `PI`, `NC`, `D`, and
//! the 31-bit Turn Pool. The figure gives the field inventory but not exact
//! bit offsets, so this module fixes a concrete layout (documented below)
//! and implements byte-accurate pack/unpack with a CRC-5 integrity check:
//!
//! ```text
//! DW0: [31]    D (direction)
//!      [30:0]  Turn Pool (31 bits, strict mode)
//! DW1: [31:24] Turn Pointer (8 bits; spec needs 5, extended pools need 8+)
//!      [23:17] PI — Protocol Interface (7 bits)
//!      [16:14] Traffic Class (3 bits)
//!      [13]    OO (out-of-order / bypassable)
//!      [12]    TS (turn-pool switching hint)
//!      [11:7]  Credits Required (5 bits)
//!      [6]     E (ECRC present)
//!      [5]     F (frame boundary)
//!      [4:0]   Header CRC (CRC-5, x^5 + x^2 + 1, over DW0 and DW1[31:5])
//! ```
//!
//! Extended-pool packets (beyond the 31-bit spec field) append extra
//! turn-pool DWORDs after DW1; `ext_pool_dwords` records how many. The
//! extension exists because the paper's 8×8 meshes need up to 56 turn bits
//! (DESIGN.md §2) and large-fabric stress topologies (64×64 meshes) need up
//! to 508; strict mode rejects such paths instead. Because extended pools
//! can exceed 255 bits, the 8-bit DW1 turn-pointer field is too narrow for
//! them: the explicit framing pair after DW1 therefore carries both the
//! pool bit-length and the full 16-bit turn pointer
//! (`[len u16][pointer u16]`), and DW1 keeps the low 8 pointer bits for
//! spec-mode fidelity.

use crate::turn::{Direction, TurnPool, POOL_WORDS, SPEC_POOL_BITS};

/// Protocol Interface numbers used by the management plane.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ProtocolInterface {
    /// PI-0: spanning-tree / fabric multicast management (unused here).
    Multicast,
    /// PI-4: device configuration-space access.
    DeviceManagement,
    /// PI-5: event reporting.
    EventReporting,
    /// PI-8: encapsulated application data (our background traffic).
    Data,
    /// PI-9 (vendor): FM-to-FM exchange for distributed discovery.
    FmExchange,
    /// Any other PI value, preserved verbatim.
    Other(u8),
}

impl ProtocolInterface {
    /// Wire encoding (7 bits).
    pub fn to_wire(self) -> u8 {
        match self {
            ProtocolInterface::Multicast => 0,
            ProtocolInterface::DeviceManagement => 4,
            ProtocolInterface::EventReporting => 5,
            ProtocolInterface::Data => 8,
            ProtocolInterface::FmExchange => 9,
            ProtocolInterface::Other(v) => v & 0x7F,
        }
    }

    /// Decodes a 7-bit wire value.
    pub fn from_wire(v: u8) -> Self {
        match v & 0x7F {
            0 => ProtocolInterface::Multicast,
            4 => ProtocolInterface::DeviceManagement,
            5 => ProtocolInterface::EventReporting,
            8 => ProtocolInterface::Data,
            9 => ProtocolInterface::FmExchange,
            other => ProtocolInterface::Other(other),
        }
    }
}

/// Header decode failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderError {
    /// CRC-5 mismatch: the header was corrupted in flight.
    BadCrc {
        /// CRC carried by the packet.
        found: u8,
        /// CRC recomputed over the received bits.
        expected: u8,
    },
    /// Fewer bytes than a route header.
    Truncated,
    /// The turn-pointer value exceeds the pool length.
    BadPointer,
}

impl core::fmt::Display for HeaderError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HeaderError::BadCrc { found, expected } => {
                write!(
                    f,
                    "header CRC mismatch: found {found:#x}, expected {expected:#x}"
                )
            }
            HeaderError::Truncated => write!(f, "truncated route header"),
            HeaderError::BadPointer => write!(f, "turn pointer exceeds pool length"),
        }
    }
}

impl std::error::Error for HeaderError {}

/// The unicast routing header carried by every packet in the model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteHeader {
    /// Protocol interface of the payload.
    pub pi: ProtocolInterface,
    /// Traffic class (0–7). Management traffic uses TC 7, the highest.
    pub tc: u8,
    /// Bypassable-ordering flag (`OO`): the packet may use a BVC bypass
    /// queue. `asi-fabric` carries it but queues such a packet in order.
    pub oo: bool,
    /// Turn-pool switching hint (`TS`).
    pub ts: bool,
    /// Credits the packet consumes at each hop (in 64-byte units).
    pub credits_required: u8,
    /// ECRC-present flag (`E`).
    pub ecrc: bool,
    /// Frame-boundary flag (`F`).
    pub frame: bool,
    /// Direction bit (`D`).
    pub direction: Direction,
    /// Current turn-pointer value (bits).
    pub turn_pointer: u16,
    /// The turn pool.
    pub pool: TurnPool,
}

/// CRC-5 with polynomial x^5 + x^2 + 1 (0b00101), MSB-first, init 0x1F.
pub fn crc5(bits: &[u8], nbits: usize) -> u8 {
    let mut crc: u8 = 0x1F;
    for i in 0..nbits {
        let byte = bits[i / 8];
        let bit = (byte >> (7 - (i % 8))) & 1;
        let top = (crc >> 4) & 1;
        crc = (crc << 1) & 0x1F;
        if top ^ bit == 1 {
            crc ^= 0x05;
        }
    }
    crc
}

impl RouteHeader {
    /// Builds a forward-direction management header over `pool`.
    pub fn forward(pi: ProtocolInterface, tc: u8, pool: TurnPool) -> RouteHeader {
        let ptr = pool.len_bits();
        RouteHeader {
            pi,
            tc,
            oo: false,
            ts: false,
            credits_required: 1,
            ecrc: true,
            frame: false,
            direction: Direction::Forward,
            turn_pointer: ptr,
            pool,
        }
    }

    /// Derives the completion header for a received request: same pool,
    /// same TC (the spec requires responses to retrace the request path and
    /// class), reversed direction, pointer reset for backward traversal.
    pub fn reply(&self, pi: ProtocolInterface) -> RouteHeader {
        let direction = self.direction.reversed();
        let turn_pointer = match direction {
            Direction::Forward => self.pool.len_bits(),
            Direction::Backward => 0,
        };
        RouteHeader {
            pi,
            tc: self.tc,
            oo: self.oo,
            ts: self.ts,
            credits_required: self.credits_required,
            ecrc: self.ecrc,
            frame: self.frame,
            direction,
            turn_pointer,
            pool: self.pool.clone(),
        }
    }

    /// Number of extra turn-pool DWORDs beyond the 31-bit spec field.
    pub fn ext_pool_dwords(&self) -> usize {
        let bits = self.pool.len_bits();
        if bits <= SPEC_POOL_BITS {
            0
        } else {
            ((bits - SPEC_POOL_BITS) as usize).div_ceil(32)
        }
    }

    /// On-wire size of the header in bytes (8 + extension DWORDs).
    pub fn wire_size(&self) -> usize {
        8 + 4 * self.ext_pool_dwords()
    }

    /// Serializes the header (DW0, DW1, extension DWORDs) into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let words = self.pool.words();
        let pool_low31 = (words[0] & 0x7FFF_FFFF) as u32;
        let d_bit = match self.direction {
            Direction::Forward => 0u32,
            Direction::Backward => 1u32,
        };
        let dw0: u32 = (d_bit << 31) | pool_low31;

        let mut dw1: u32 = 0;
        dw1 |= (self.turn_pointer as u32 & 0xFF) << 24;
        dw1 |= u32::from(self.pi.to_wire()) << 17;
        dw1 |= u32::from(self.tc & 0x7) << 14;
        dw1 |= u32::from(self.oo) << 13;
        dw1 |= u32::from(self.ts) << 12;
        dw1 |= u32::from(self.credits_required & 0x1F) << 7;
        dw1 |= u32::from(self.ecrc) << 6;
        dw1 |= u32::from(self.frame) << 5;

        let mut bytes = [0u8; 8];
        bytes[..4].copy_from_slice(&dw0.to_be_bytes());
        bytes[4..].copy_from_slice(&dw1.to_be_bytes());
        // CRC over DW0 plus DW1 above its CRC field: 64 - 5 = 59 bits.
        let crc = crc5(&bytes, 59);
        let dw1 = dw1 | u32::from(crc);
        bytes[4..].copy_from_slice(&dw1.to_be_bytes());
        out.extend_from_slice(&bytes);

        // Framing: pool bit-length then the full 16-bit turn pointer,
        // directly after DW1, so the receiver knows how many extension
        // DWORDs follow and can route pools longer than the 8-bit DW1
        // pointer field can address. (Real ASI infers the extension count
        // from the turn pointer; explicit fields keep our extended mode
        // unambiguous.)
        out.extend_from_slice(&self.pool.len_bits().to_be_bytes());
        out.extend_from_slice(&self.turn_pointer.to_be_bytes());

        // Extension DWORDs carry pool bits 31.. in 32-bit chunks.
        for i in 0..self.ext_pool_dwords() {
            let base = 31 + 32 * i;
            let mut dw: u32 = 0;
            for b in 0..32 {
                let bit = base + b;
                let w = bit / 64;
                let off = bit % 64;
                if w < POOL_WORDS && (words[w] >> off) & 1 == 1 {
                    dw |= 1 << b;
                }
            }
            out.extend_from_slice(&dw.to_be_bytes());
        }
    }

    /// Parses a header from `input`, returning it plus the bytes consumed.
    pub fn decode(input: &[u8]) -> Result<(RouteHeader, usize), HeaderError> {
        if input.len() < 12 {
            return Err(HeaderError::Truncated);
        }
        let dw0 = u32::from_be_bytes(input[..4].try_into().unwrap());
        let dw1 = u32::from_be_bytes(input[4..8].try_into().unwrap());
        let found_crc = (dw1 & 0x1F) as u8;
        let mut check = [0u8; 8];
        check[..4].copy_from_slice(&input[..4]);
        check[4..].copy_from_slice(&(dw1 & !0x1F).to_be_bytes());
        let expected = crc5(&check, 59);
        if expected != found_crc {
            return Err(HeaderError::BadCrc {
                found: found_crc,
                expected,
            });
        }

        let direction = if dw0 >> 31 == 1 {
            Direction::Backward
        } else {
            Direction::Forward
        };
        let pi = ProtocolInterface::from_wire(((dw1 >> 17) & 0x7F) as u8);
        let tc = ((dw1 >> 14) & 0x7) as u8;
        let oo = (dw1 >> 13) & 1 == 1;
        let ts = (dw1 >> 12) & 1 == 1;
        let credits_required = ((dw1 >> 7) & 0x1F) as u8;
        let ecrc = (dw1 >> 6) & 1 == 1;
        let frame = (dw1 >> 5) & 1 == 1;

        // Reconstruct the pool words from the spec field + extensions.
        // Layout: [DW0][DW1][len u16][pointer u16][ext DWORDs...].
        let mut words = [0u64; POOL_WORDS];
        words[0] = u64::from(dw0 & 0x7FFF_FFFF);
        let len_bits = u16::from_be_bytes(input[8..10].try_into().unwrap());
        let turn_pointer = u16::from_be_bytes(input[10..12].try_into().unwrap());
        // DW1 keeps the low 8 pointer bits; the framing field is canonical
        // and the two must agree.
        if (turn_pointer & 0xFF) as u32 != (dw1 >> 24) & 0xFF {
            return Err(HeaderError::BadPointer);
        }
        let mut consumed = 12;
        if len_bits > SPEC_POOL_BITS {
            let ext = ((len_bits - SPEC_POOL_BITS) as usize).div_ceil(32);
            let need = 12 + 4 * ext;
            if input.len() < need {
                return Err(HeaderError::Truncated);
            }
            for i in 0..ext {
                let off = 12 + 4 * i;
                let dw = u32::from_be_bytes(input[off..off + 4].try_into().unwrap());
                for b in 0..32usize {
                    if (dw >> b) & 1 == 1 {
                        let bit = 31 + 32 * i + b;
                        if bit / 64 < POOL_WORDS {
                            words[bit / 64] |= 1u64 << (bit % 64);
                        }
                    }
                }
            }
            consumed = need;
        }

        let capacity = len_bits.max(SPEC_POOL_BITS);
        let pool =
            TurnPool::from_words(words, len_bits, capacity).map_err(|_| HeaderError::BadPointer)?;
        if turn_pointer > pool.len_bits() {
            return Err(HeaderError::BadPointer);
        }

        Ok((
            RouteHeader {
                pi,
                tc,
                oo,
                ts,
                credits_required,
                ecrc,
                frame,
                direction,
                turn_pointer,
                pool,
            },
            consumed,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::turn::MAX_POOL_BITS;

    fn sample_pool() -> TurnPool {
        let mut p = TurnPool::new_spec();
        p.push_turn(5, 4).unwrap();
        p.push_turn(2, 2).unwrap();
        p
    }

    #[test]
    fn crc5_known_properties() {
        // CRC of the empty message is the init value.
        assert_eq!(crc5(&[], 0), 0x1F);
        // Flipping any single bit changes the CRC.
        let base = [0xA5u8, 0x5A, 0x00, 0xFF];
        let c0 = crc5(&base, 32);
        for i in 0..32 {
            let mut flipped = base;
            flipped[i / 8] ^= 1 << (7 - (i % 8));
            assert_ne!(crc5(&flipped, 32), c0, "bit {i} undetected");
        }
    }

    #[test]
    fn header_round_trips() {
        let hdr = RouteHeader::forward(ProtocolInterface::DeviceManagement, 7, sample_pool());
        let mut buf = Vec::new();
        hdr.encode(&mut buf);
        assert_eq!(buf.len(), hdr.wire_size() + 4);
        let (decoded, consumed) = RouteHeader::decode(&buf).unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(decoded, hdr);
    }

    #[test]
    fn extended_header_round_trips() {
        let mut pool = TurnPool::with_capacity(MAX_POOL_BITS);
        for i in 0..20 {
            pool.push_turn((i * 3 % 16) as u8, 4).unwrap(); // 80 bits
        }
        let hdr = RouteHeader::forward(ProtocolInterface::DeviceManagement, 7, pool);
        assert_eq!(hdr.ext_pool_dwords(), 2);
        assert_eq!(hdr.wire_size(), 16);
        let mut buf = Vec::new();
        hdr.encode(&mut buf);
        let (decoded, consumed) = RouteHeader::decode(&buf).unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(decoded.pool, hdr.pool);
        assert_eq!(decoded.turn_pointer, hdr.turn_pointer);
    }

    #[test]
    fn corrupted_header_is_rejected() {
        let hdr = RouteHeader::forward(ProtocolInterface::EventReporting, 7, sample_pool());
        let mut buf = Vec::new();
        hdr.encode(&mut buf);
        for i in 0..8 {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            match RouteHeader::decode(&bad) {
                Err(HeaderError::BadCrc { .. }) => {}
                other => panic!("byte {i}: corruption not caught: {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_header_is_rejected() {
        let hdr = RouteHeader::forward(ProtocolInterface::Data, 0, sample_pool());
        let mut buf = Vec::new();
        hdr.encode(&mut buf);
        for cut in 0..buf.len() {
            let r = RouteHeader::decode(&buf[..cut]);
            assert!(r.is_err(), "decode of {cut}-byte prefix must fail");
        }
    }

    #[test]
    fn reply_retraces_path() {
        let hdr = RouteHeader::forward(ProtocolInterface::DeviceManagement, 7, sample_pool());
        let rep = hdr.reply(ProtocolInterface::DeviceManagement);
        assert_eq!(rep.direction, Direction::Backward);
        assert_eq!(rep.turn_pointer, 0);
        assert_eq!(rep.pool, hdr.pool);
        assert_eq!(rep.tc, hdr.tc);
        // Replying to a reply flips back.
        let back = rep.reply(ProtocolInterface::DeviceManagement);
        assert_eq!(back.direction, Direction::Forward);
        assert_eq!(back.turn_pointer, back.pool.len_bits());
    }

    #[test]
    fn pi_wire_round_trip() {
        for pi in [
            ProtocolInterface::Multicast,
            ProtocolInterface::DeviceManagement,
            ProtocolInterface::EventReporting,
            ProtocolInterface::Data,
            ProtocolInterface::Other(33),
        ] {
            assert_eq!(ProtocolInterface::from_wire(pi.to_wire()), pi);
        }
    }

    #[test]
    fn spec_header_is_8_bytes_plus_framing() {
        let hdr = RouteHeader::forward(ProtocolInterface::Data, 3, sample_pool());
        assert_eq!(hdr.ext_pool_dwords(), 0);
        assert_eq!(hdr.wire_size(), 8);
    }

    #[test]
    fn forward_header_pointer_is_pool_length() {
        let pool = sample_pool();
        let bits = pool.len_bits();
        let hdr = RouteHeader::forward(ProtocolInterface::Data, 1, pool);
        assert_eq!(hdr.turn_pointer, bits);
    }
}
