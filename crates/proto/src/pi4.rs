//! PI-4: the ASI device configuration and control protocol.
//!
//! The fabric manager reads a device's configuration space with *PI-4 read
//! request* packets; the device answers with a *read completion with data*
//! carrying **up to eight 32-bit blocks**, or a *read completion with
//! error*. The completion retraces the request's path and traffic class
//! (handled by [`crate::header::RouteHeader::reply`]). Writes (used by the
//! path-distribution extension) mirror the same shapes.

use std::ops::Deref;

/// Largest number of 32-bit blocks one completion may carry (per the spec).
pub const MAX_COMPLETION_DWORDS: usize = 8;

/// The data blocks of a read completion or a write request, at most
/// [`MAX_COMPLETION_DWORDS`] of them, held inline so that a PDU owns no
/// heap buffer. It reads as the `[u32]` of its blocks, and is built by
/// collecting them (more than eight panics).
#[derive(Clone, Default)]
pub struct Dwords {
    len: u8,
    words: [u32; MAX_COMPLETION_DWORDS],
}

impl Deref for Dwords {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.words[..usize::from(self.len)]
    }
}

impl FromIterator<u32> for Dwords {
    fn from_iter<I: IntoIterator<Item = u32>>(words: I) -> Dwords {
        let mut out = Dwords::default();
        for word in words {
            out.words[usize::from(out.len)] = word;
            out.len += 1;
        }
        out
    }
}

impl IntoIterator for Dwords {
    type Item = u32;
    type IntoIter = std::iter::Take<std::array::IntoIter<u32, MAX_COMPLETION_DWORDS>>;

    fn into_iter(self) -> Self::IntoIter {
        self.words.into_iter().take(usize::from(self.len))
    }
}

impl From<&[u32]> for Dwords {
    fn from(words: &[u32]) -> Dwords {
        words.iter().copied().collect()
    }
}

impl PartialEq for Dwords {
    fn eq(&self, other: &Dwords) -> bool {
        **self == **other
    }
}

impl Eq for Dwords {}

impl core::fmt::Debug for Dwords {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        (**self).fmt(f)
    }
}

/// Identifies a region of a device's configuration space.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CapabilityAddr {
    /// Capability identifier (0 = baseline capability).
    pub capability: u16,
    /// 32-bit-block offset within the capability.
    pub offset: u16,
}

impl CapabilityAddr {
    /// Address within the baseline capability.
    pub fn baseline(offset: u16) -> CapabilityAddr {
        CapabilityAddr {
            capability: 0,
            offset,
        }
    }
}

/// Completion status for failed accesses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Pi4Status {
    /// The addressed capability or offset does not exist.
    UnsupportedRequest,
    /// The device is not ready to answer (e.g. mid-reset).
    ConfigurationRetry,
    /// The device aborted the access.
    Abort,
}

/// A PI-4 protocol data unit.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Pi4 {
    /// Read `dwords` 32-bit blocks starting at `addr`.
    ReadRequest {
        /// Request identifier, echoed by the completion so the FM can match
        /// responses to its pending-packet table.
        req_id: u32,
        /// Target region.
        addr: CapabilityAddr,
        /// Number of blocks to read (1..=8).
        dwords: u8,
    },
    /// Successful read completion.
    ReadCompletion {
        /// Echo of the request identifier.
        req_id: u32,
        /// The data blocks (1..=8).
        data: Dwords,
    },
    /// Failed read completion.
    ReadError {
        /// Echo of the request identifier.
        req_id: u32,
        /// Failure reason.
        status: Pi4Status,
    },
    /// Write `data` starting at `addr` (path-distribution extension).
    WriteRequest {
        /// Request identifier.
        req_id: u32,
        /// Target region.
        addr: CapabilityAddr,
        /// Blocks to write (1..=8).
        data: Dwords,
    },
    /// Write acknowledgement.
    WriteCompletion {
        /// Echo of the request identifier.
        req_id: u32,
    },
}

/// PI-4 wire-format decode failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pi4Error {
    /// Not enough bytes for the declared shape.
    Truncated,
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Block count outside 1..=8.
    BadLength(u8),
}

impl core::fmt::Display for Pi4Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Pi4Error::Truncated => write!(f, "truncated PI-4 packet"),
            Pi4Error::BadOpcode(op) => write!(f, "unknown PI-4 opcode {op:#x}"),
            Pi4Error::BadLength(n) => write!(f, "PI-4 block count {n} outside 1..=8"),
        }
    }
}

impl std::error::Error for Pi4Error {}

const OP_READ_REQ: u8 = 0x01;
const OP_READ_DATA: u8 = 0x02;
const OP_READ_ERR: u8 = 0x03;
const OP_WRITE_REQ: u8 = 0x04;
const OP_WRITE_ACK: u8 = 0x05;

impl Pi4 {
    /// The request identifier carried by any PI-4 PDU.
    pub fn req_id(&self) -> u32 {
        match *self {
            Pi4::ReadRequest { req_id, .. }
            | Pi4::ReadCompletion { req_id, .. }
            | Pi4::ReadError { req_id, .. }
            | Pi4::WriteRequest { req_id, .. }
            | Pi4::WriteCompletion { req_id } => req_id,
        }
    }

    /// True for the two request shapes (they expect a completion).
    pub fn is_request(&self) -> bool {
        matches!(self, Pi4::ReadRequest { .. } | Pi4::WriteRequest { .. })
    }

    /// On-wire payload size in bytes (excluding route header and ECRC).
    pub fn wire_size(&self) -> usize {
        match self {
            // opcode + req_id + capability + offset + dwords
            Pi4::ReadRequest { .. } => 1 + 4 + 2 + 2 + 1,
            Pi4::ReadCompletion { data, .. } => 1 + 4 + 1 + 4 * data.len(),
            Pi4::ReadError { .. } => 1 + 4 + 1,
            Pi4::WriteRequest { data, .. } => 1 + 4 + 2 + 2 + 1 + 4 * data.len(),
            Pi4::WriteCompletion { .. } => 1 + 4,
        }
    }

    /// Serializes the PDU into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Pi4::ReadRequest {
                req_id,
                addr,
                dwords,
            } => {
                out.push(OP_READ_REQ);
                out.extend_from_slice(&req_id.to_be_bytes());
                out.extend_from_slice(&addr.capability.to_be_bytes());
                out.extend_from_slice(&addr.offset.to_be_bytes());
                out.push(*dwords);
            }
            Pi4::ReadCompletion { req_id, data } => {
                debug_assert!((1..=MAX_COMPLETION_DWORDS).contains(&data.len()));
                out.push(OP_READ_DATA);
                out.extend_from_slice(&req_id.to_be_bytes());
                out.push(data.len() as u8);
                for d in data.iter() {
                    out.extend_from_slice(&d.to_be_bytes());
                }
            }
            Pi4::ReadError { req_id, status } => {
                out.push(OP_READ_ERR);
                out.extend_from_slice(&req_id.to_be_bytes());
                out.push(match status {
                    Pi4Status::UnsupportedRequest => 0,
                    Pi4Status::ConfigurationRetry => 1,
                    Pi4Status::Abort => 2,
                });
            }
            Pi4::WriteRequest { req_id, addr, data } => {
                debug_assert!((1..=MAX_COMPLETION_DWORDS).contains(&data.len()));
                out.push(OP_WRITE_REQ);
                out.extend_from_slice(&req_id.to_be_bytes());
                out.extend_from_slice(&addr.capability.to_be_bytes());
                out.extend_from_slice(&addr.offset.to_be_bytes());
                out.push(data.len() as u8);
                for d in data.iter() {
                    out.extend_from_slice(&d.to_be_bytes());
                }
            }
            Pi4::WriteCompletion { req_id } => {
                out.push(OP_WRITE_ACK);
                out.extend_from_slice(&req_id.to_be_bytes());
            }
        }
    }

    /// Parses a PDU, returning it and the bytes consumed.
    pub fn decode(input: &[u8]) -> Result<(Pi4, usize), Pi4Error> {
        let op = *input.first().ok_or(Pi4Error::Truncated)?;
        let take = |from: usize, n: usize| input.get(from..from + n).ok_or(Pi4Error::Truncated);
        let be32 = |from: usize| -> Result<u32, Pi4Error> {
            Ok(u32::from_be_bytes(take(from, 4)?.try_into().unwrap()))
        };
        let be16 = |from: usize| -> Result<u16, Pi4Error> {
            Ok(u16::from_be_bytes(take(from, 2)?.try_into().unwrap()))
        };
        match op {
            OP_READ_REQ => {
                let req_id = be32(1)?;
                let capability = be16(5)?;
                let offset = be16(7)?;
                let dwords = *take(9, 1)?.first().unwrap();
                if !(1..=MAX_COMPLETION_DWORDS as u8).contains(&dwords) {
                    return Err(Pi4Error::BadLength(dwords));
                }
                Ok((
                    Pi4::ReadRequest {
                        req_id,
                        addr: CapabilityAddr { capability, offset },
                        dwords,
                    },
                    10,
                ))
            }
            OP_READ_DATA => {
                let req_id = be32(1)?;
                let n = *take(5, 1)?.first().unwrap();
                if !(1..=MAX_COMPLETION_DWORDS as u8).contains(&n) {
                    return Err(Pi4Error::BadLength(n));
                }
                let data = (0..n as usize)
                    .map(|i| be32(6 + 4 * i))
                    .collect::<Result<_, _>>()?;
                Ok((Pi4::ReadCompletion { req_id, data }, 6 + 4 * n as usize))
            }
            OP_READ_ERR => {
                let req_id = be32(1)?;
                let status = match *take(5, 1)?.first().unwrap() {
                    0 => Pi4Status::UnsupportedRequest,
                    1 => Pi4Status::ConfigurationRetry,
                    _ => Pi4Status::Abort,
                };
                Ok((Pi4::ReadError { req_id, status }, 6))
            }
            OP_WRITE_REQ => {
                let req_id = be32(1)?;
                let capability = be16(5)?;
                let offset = be16(7)?;
                let n = *take(9, 1)?.first().unwrap();
                if !(1..=MAX_COMPLETION_DWORDS as u8).contains(&n) {
                    return Err(Pi4Error::BadLength(n));
                }
                let data = (0..n as usize)
                    .map(|i| be32(10 + 4 * i))
                    .collect::<Result<_, _>>()?;
                Ok((
                    Pi4::WriteRequest {
                        req_id,
                        addr: CapabilityAddr { capability, offset },
                        data,
                    },
                    10 + 4 * n as usize,
                ))
            }
            OP_WRITE_ACK => {
                let req_id = be32(1)?;
                Ok((Pi4::WriteCompletion { req_id }, 5))
            }
            other => Err(Pi4Error::BadOpcode(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(pdu: Pi4) {
        let mut buf = Vec::new();
        pdu.encode(&mut buf);
        assert_eq!(buf.len(), pdu.wire_size(), "wire_size mismatch for {pdu:?}");
        let (decoded, consumed) = Pi4::decode(&buf).unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(decoded, pdu);
    }

    #[test]
    fn read_request_round_trips() {
        round_trip(Pi4::ReadRequest {
            req_id: 0xDEAD_BEEF,
            addr: CapabilityAddr {
                capability: 0,
                offset: 6,
            },
            dwords: 8,
        });
    }

    #[test]
    fn read_completion_round_trips() {
        for n in 1..=MAX_COMPLETION_DWORDS {
            round_trip(Pi4::ReadCompletion {
                req_id: n as u32,
                data: (0..n as u32).map(|i| i * 0x0101_0101).collect(),
            });
        }
    }

    #[test]
    fn read_error_round_trips() {
        for status in [
            Pi4Status::UnsupportedRequest,
            Pi4Status::ConfigurationRetry,
            Pi4Status::Abort,
        ] {
            round_trip(Pi4::ReadError { req_id: 7, status });
        }
    }

    #[test]
    fn write_round_trips() {
        round_trip(Pi4::WriteRequest {
            req_id: 9,
            addr: CapabilityAddr::baseline(100),
            data: [1, 2, 3][..].into(),
        });
        round_trip(Pi4::WriteCompletion { req_id: 9 });
    }

    #[test]
    fn rejects_zero_and_oversized_lengths() {
        let mut buf = Vec::new();
        Pi4::ReadRequest {
            req_id: 1,
            addr: CapabilityAddr::baseline(0),
            dwords: 1,
        }
        .encode(&mut buf);
        buf[9] = 0;
        assert_eq!(Pi4::decode(&buf), Err(Pi4Error::BadLength(0)));
        buf[9] = 9;
        assert_eq!(Pi4::decode(&buf), Err(Pi4Error::BadLength(9)));
    }

    #[test]
    fn rejects_unknown_opcode() {
        assert_eq!(
            Pi4::decode(&[0xFF, 0, 0, 0, 0]),
            Err(Pi4Error::BadOpcode(0xFF))
        );
    }

    #[test]
    fn rejects_truncation_at_every_cut() {
        let pdu = Pi4::ReadCompletion {
            req_id: 3,
            data: [10, 20, 30][..].into(),
        };
        let mut buf = Vec::new();
        pdu.encode(&mut buf);
        for cut in 0..buf.len() {
            assert!(Pi4::decode(&buf[..cut]).is_err(), "cut {cut} accepted");
        }
    }

    #[test]
    fn req_id_accessor_covers_all_shapes() {
        let shapes = [
            Pi4::ReadRequest {
                req_id: 1,
                addr: CapabilityAddr::baseline(0),
                dwords: 1,
            },
            Pi4::ReadCompletion {
                req_id: 2,
                data: [0][..].into(),
            },
            Pi4::ReadError {
                req_id: 3,
                status: Pi4Status::Abort,
            },
            Pi4::WriteRequest {
                req_id: 4,
                addr: CapabilityAddr::baseline(0),
                data: [0][..].into(),
            },
            Pi4::WriteCompletion { req_id: 5 },
        ];
        let ids: Vec<u32> = shapes.iter().map(Pi4::req_id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        assert!(shapes[0].is_request());
        assert!(!shapes[1].is_request());
        assert!(!shapes[2].is_request());
        assert!(shapes[3].is_request());
        assert!(!shapes[4].is_request());
    }

    #[test]
    fn completion_is_larger_with_more_data() {
        let small = Pi4::ReadCompletion {
            req_id: 1,
            data: [0][..].into(),
        };
        let big = Pi4::ReadCompletion {
            req_id: 1,
            data: [0; 8][..].into(),
        };
        assert_eq!(big.wire_size() - small.wire_size(), 28);
    }
}
