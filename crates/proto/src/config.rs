//! Device configuration space: the storage area the FM reads with PI-4.
//!
//! The ASI specification organizes per-device control/status data into
//! *capability structures*. The **baseline capability** starts with six
//! 32-bit blocks of general device information (type, serial number, number
//! of ports, maximum packet size, …) followed by per-port blocks describing
//! each port (state, link width, link speed).
//!
//! We fix the per-port block at **4 words**, so a PI-4 completion (≤ 8
//! words) carries the attributes of **two ports per read**: a 16-port
//! switch needs 1 general read + 8 port reads, which reproduces the paper's
//! packet-count regime (DESIGN.md §2). Writable capabilities follow: the
//! endpoint route table of the path-distribution extension (id 1), the
//! ownership claim (id 2), the multicast table (id 3) and the PI-5
//! reporting route (id 4).
//!
//! The baseline capability is read-only, and everything in it is state
//! the device keeps anyway: its [`DeviceInfo`] and its ports. So a
//! [`ConfigSpace`] does not store it. A read takes the device's info and
//! a function from port number to [`PortInfo`] from the caller, and
//! encodes them on the spot. What a `ConfigSpace` stores is only what a
//! PI-4 write can change, in three words: the reporting route, which
//! every configured device holds, and one box for the three registers
//! few devices ever have written.

use crate::pi4::{CapabilityAddr, Pi4Status, MAX_COMPLETION_DWORDS};
use crate::turn::{TurnPool, MAX_POOL_BITS, POOL_WORDS};
use std::ops::Range;

/// Words of general information at the head of the baseline capability.
pub const GENERAL_INFO_WORDS: u16 = 6;
/// Words per port block in the baseline capability.
pub const PORT_BLOCK_WORDS: u16 = 4;
/// Ports whose attributes fit in a single PI-4 completion.
pub const PORTS_PER_READ: u8 = (MAX_COMPLETION_DWORDS as u16 / PORT_BLOCK_WORDS) as u8;
/// Capability id of the baseline capability.
pub const CAP_BASELINE: u16 = 0;
/// Capability id of the (writable) endpoint route-table capability.
pub const CAP_ROUTE_TABLE: u16 = 1;
/// Words in the route-table capability.
pub const ROUTE_TABLE_WORDS: u16 = 512;
/// Capability id of the (writable) fabric-ownership claim register used by
/// FM election and by the distributed-discovery extension. Two words: the
/// claiming manager's DSN (hi, lo). Present on every device.
pub const CAP_OWNERSHIP: u16 = 2;
/// Words in the ownership capability.
pub const OWNERSHIP_WORDS: u16 = 2;
/// Capability id of the (writable) multicast forwarding table: one word
/// per multicast group holding the output-port bitmask (switches) or the
/// membership flag (endpoints). Configured by the FM's multicast group
/// management (paper §2).
pub const CAP_MCAST_TABLE: u16 = 3;
/// Number of multicast groups the table supports.
pub const MCAST_GROUPS: u16 = 64;
/// Capability id of the (writable) PI-5 reporting route: the egress port
/// and turn pool a device's port-change events take to the FM, written by
/// the FM's configuration step after discovery (paper §4.1). Word 0 is
/// the header — [`EVENT_ROUTE_VALID`], the egress port in bits 16..24,
/// the pool length in bits in bits 0..10 — and the pool's
/// [`TurnPool::words`] follow, low half first. Present on every device.
pub const CAP_EVENT_ROUTE: u16 = 4;
/// Words in the reporting-route capability: the header and a full pool.
pub const EVENT_ROUTE_WORDS: u16 = 1 + MAX_POOL_BITS / 32;
/// The header bit that makes a reporting route usable. A write that
/// leaves the header out clears it, and the header write sets it as
/// written, so a device never reports along a half-written route
/// ([`event_route_writes`]).
pub const EVENT_ROUTE_VALID: u32 = 1 << 31;
/// The header's pool-length field.
const EVENT_ROUTE_BITS: u32 = 0x3FF;

/// What kind of fabric device this is.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DeviceType {
    /// A multi-port switch element.
    Switch,
    /// A fabric endpoint (hosts protocol interfaces, may host the FM).
    Endpoint,
}

impl DeviceType {
    fn to_wire(self) -> u32 {
        match self {
            DeviceType::Switch => 1,
            DeviceType::Endpoint => 2,
        }
    }

    fn from_wire(v: u32) -> Option<DeviceType> {
        match v {
            1 => Some(DeviceType::Switch),
            2 => Some(DeviceType::Endpoint),
            _ => None,
        }
    }
}

/// Operational state of a port.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum PortState {
    /// No link partner (or partner powered off).
    #[default]
    Down,
    /// Link training in progress.
    Training,
    /// Link up: a live device is attached at the other end.
    Active,
}

impl PortState {
    fn to_wire(self) -> u32 {
        match self {
            PortState::Down => 0,
            PortState::Training => 1,
            PortState::Active => 2,
        }
    }

    fn from_wire(v: u32) -> PortState {
        match v {
            1 => PortState::Training,
            2 => PortState::Active,
            _ => PortState::Down,
        }
    }

    /// True when a live device is attached.
    pub fn is_active(self) -> bool {
        matches!(self, PortState::Active)
    }
}

/// The general-information block (first six words of the baseline
/// capability).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DeviceInfo {
    /// Switch or endpoint.
    pub device_type: DeviceType,
    /// Device serial number: globally unique, the FM's dedup key.
    pub dsn: u64,
    /// Number of ports the device supports (≤ 4 for endpoints, ≤ 256 for
    /// switches; our model's switches default to 16).
    pub port_count: u16,
    /// Maximum packet payload in bytes.
    pub max_packet_size: u16,
    /// True if this endpoint can host a fabric manager.
    pub fm_capable: bool,
    /// FM election priority (higher wins; DSN breaks ties).
    pub fm_priority: u8,
}

impl DeviceInfo {
    /// Encodes the six general-information words.
    pub fn to_words(&self) -> [u32; GENERAL_INFO_WORDS as usize] {
        let mut w = [0u32; GENERAL_INFO_WORDS as usize];
        w[0] = (self.device_type.to_wire() << 24)
            | ((self.port_count as u32 & 0x1FF) << 15)
            | (u32::from(self.fm_capable) << 14)
            | (u32::from(self.fm_priority) << 6);
        w[1] = (self.dsn >> 32) as u32;
        w[2] = self.dsn as u32;
        w[3] = u32::from(self.max_packet_size) << 16;
        // w[4], w[5]: status / reserved.
        w
    }

    /// Decodes the general-information words (the FM side of a read).
    pub fn from_words(w: &[u32]) -> Option<DeviceInfo> {
        if w.len() < GENERAL_INFO_WORDS as usize {
            return None;
        }
        Some(DeviceInfo {
            device_type: DeviceType::from_wire(w[0] >> 24)?,
            port_count: ((w[0] >> 15) & 0x1FF) as u16,
            fm_capable: (w[0] >> 14) & 1 == 1,
            fm_priority: ((w[0] >> 6) & 0xFF) as u8,
            dsn: (u64::from(w[1]) << 32) | u64::from(w[2]),
            max_packet_size: (w[3] >> 16) as u16,
        })
    }
}

/// A per-port attribute block.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PortInfo {
    /// Current state.
    pub state: PortState,
    /// Negotiated lane count (x1 in the paper's model).
    pub link_width: u8,
    /// Signalling rate in units of 250 Mb/s (10 = 2.5 Gb/s).
    pub link_speed: u8,
    /// The link partner's port number, exchanged during link training
    /// (as PCI Express training sequences exchange link/lane identity).
    /// Only meaningful while the port is [`PortState::Active`]. The FM
    /// uses it to extend turn-pool routes through newly found devices.
    pub peer_port: u8,
}

impl PortInfo {
    /// Encodes the four-word port block.
    pub fn to_words(&self) -> [u32; PORT_BLOCK_WORDS as usize] {
        let mut w = [0u32; PORT_BLOCK_WORDS as usize];
        w[0] = self.state.to_wire()
            | (u32::from(self.link_width) << 8)
            | (u32::from(self.link_speed) << 16)
            | (u32::from(self.peer_port) << 24);
        w
    }

    /// Decodes a four-word port block.
    pub fn from_words(w: &[u32]) -> Option<PortInfo> {
        if w.len() < PORT_BLOCK_WORDS as usize {
            return None;
        }
        Some(PortInfo {
            state: PortState::from_wire(w[0] & 0xFF),
            link_width: ((w[0] >> 8) & 0xFF) as u8,
            link_speed: ((w[0] >> 16) & 0xFF) as u8,
            peer_port: ((w[0] >> 24) & 0xFF) as u8,
        })
    }
}

/// Offset of port `p`'s block within the baseline capability.
pub fn port_block_offset(port: u16) -> u16 {
    GENERAL_INFO_WORDS + PORT_BLOCK_WORDS * port
}

/// The PI-4 read that fetches general device information.
pub fn general_info_read() -> (CapabilityAddr, u8) {
    (CapabilityAddr::baseline(0), GENERAL_INFO_WORDS as u8)
}

/// First-port indices of the PI-4 reads that fetch all port blocks of a
/// device with `port_count` ports, [`PORTS_PER_READ`] ports per read.
pub fn port_info_reads(port_count: u16) -> impl DoubleEndedIterator<Item = u16> {
    (0..port_count).step_by(usize::from(PORTS_PER_READ))
}

/// The PI-4 read that fetches the blocks of up to [`PORTS_PER_READ`]
/// ports starting at `first_port` of a device with `port_count` ports;
/// `None` when the device has no such port.
pub fn port_info_read(first_port: u16, port_count: u16) -> Option<(CapabilityAddr, u8)> {
    let ports = port_count.checked_sub(first_port)?;
    let n = ports.min(u16::from(PORTS_PER_READ));
    (n > 0).then(|| {
        (
            CapabilityAddr::baseline(port_block_offset(first_port)),
            (n * PORT_BLOCK_WORDS) as u8,
        )
    })
}

/// The PI-4 writes that install the reporting route `egress` + `pool`
/// ([`CAP_EVENT_ROUTE`]), at most [`MAX_COMPLETION_DWORDS`] words each,
/// in the order they must take effect: the pool words past the first
/// write's, then the write that carries the header and makes the route
/// valid. A route of up to 224 pool bits is that one write. The header
/// write must leave only once the others are acknowledged: a tail write
/// that lands after it, or is lost before it, would leave a route that
/// is neither the old one nor the new one.
pub fn event_route_writes(egress: u8, pool: &TurnPool) -> Vec<(CapabilityAddr, Vec<u32>)> {
    let bits = pool.len_bits();
    let pool_words =
        (0..usize::from(bits.div_ceil(32))).map(|i| (pool.words()[i / 2] >> (32 * (i % 2))) as u32);
    let header = EVENT_ROUTE_VALID | (u32::from(egress) << 16) | u32::from(bits);
    let words: Vec<u32> = std::iter::once(header).chain(pool_words).collect();
    let at = |i: usize| CapabilityAddr {
        capability: CAP_EVENT_ROUTE,
        offset: (i * MAX_COMPLETION_DWORDS) as u16,
    };
    let mut writes: Vec<_> = (words.chunks(MAX_COMPLETION_DWORDS).enumerate())
        .map(|(i, chunk)| (at(i), chunk.to_vec()))
        .collect();
    writes.rotate_left(1);
    writes
}

/// The reporting route that register words `words` (header first) hold:
/// `(egress, pool)`, or `None` unless the header is valid and the pool
/// words it names are all there.
pub fn event_route_from_words(words: &[u32]) -> Option<(u8, TurnPool)> {
    let (&header, pool_words) = words.split_first()?;
    let bits = (header & EVENT_ROUTE_BITS) as u16;
    let n = usize::from(bits.div_ceil(32));
    if header & EVENT_ROUTE_VALID == 0 || bits > MAX_POOL_BITS || pool_words.len() < n {
        return None;
    }
    let mut raw = [0u64; POOL_WORDS];
    for (i, &w) in pool_words[..n].iter().enumerate() {
        raw[i / 2] |= u64::from(w) << (32 * (i % 2));
    }
    let pool = TurnPool::from_words(raw, bits, MAX_POOL_BITS).ok()?;
    Some(((header >> 16) as u8, pool))
}

/// Words `offset..offset + len` of a register of `bound` words, or
/// `UnsupportedRequest` past its end.
fn span(bound: u16, offset: u16, len: usize) -> Result<Range<usize>, Pi4Status> {
    let start = usize::from(offset);
    let end = start + len;
    if end > usize::from(bound) {
        return Err(Pi4Status::UnsupportedRequest);
    }
    Ok(start..end)
}

/// `range` of a register that stores only its first `words`: the rest
/// reads as zero.
fn zero_filled(words: &[u32], range: Range<usize>) -> Vec<u32> {
    range.map(|i| words.get(i).copied().unwrap_or(0)).collect()
}

/// Stores `data` at `range` of a register that grows as far as its
/// highest word written so far.
fn store(words: &mut Vec<u32>, range: Range<usize>, data: &[u32]) {
    if words.len() < range.end {
        words.resize(range.end, 0);
    }
    words[range].copy_from_slice(data);
}

/// The registers few devices ever have written: a switch rejects
/// route-table access outright, only group members have multicast
/// entries, and only a sharded discovery claims ownership. Each table
/// stores words only as far as the highest written so far.
#[derive(Clone, Debug, Default)]
struct Rare {
    /// [`ROUTE_TABLE_WORDS`] words.
    route_table: Vec<u32>,
    ownership: [u32; OWNERSHIP_WORDS as usize],
    /// [`MCAST_GROUPS`] words.
    mcast_table: Vec<u32>,
}

/// What every [`Rare`] register reads before its first write.
static UNWRITTEN: Rare = Rare {
    route_table: Vec::new(),
    ownership: [0; OWNERSHIP_WORDS as usize],
    mcast_table: Vec::new(),
};

/// The writable registers of a device's configuration space, three
/// words; the baseline capability comes from the device itself (module
/// header). A fabric of tens of thousands of devices pays a word for
/// the registers few of them have written, and the reporting route is
/// one allocation exactly as long as the route, from its first write.
#[derive(Clone, Debug, Default)]
pub struct ConfigSpace {
    /// From the first write to any of them.
    rare: Option<Box<Rare>>,
    /// [`CAP_EVENT_ROUTE`]: the header, then as many pool words as the
    /// header names (more while a multi-write update is under way).
    event_route: Option<Box<[u32]>>,
}

impl ConfigSpace {
    fn rare(&self) -> &Rare {
        self.rare.as_deref().unwrap_or(&UNWRITTEN)
    }

    fn rare_mut(&mut self) -> &mut Rare {
        self.rare.get_or_insert_with(Box::default)
    }

    /// Output-port bitmask (switch) or membership flag (endpoint) for a
    /// multicast group.
    pub fn mcast_entry(&self, group: u16) -> u32 {
        let table = &self.rare().mcast_table;
        table.get(usize::from(group)).copied().unwrap_or(0)
    }

    /// DSN of the manager currently claiming this device (0 = unclaimed).
    pub fn owner_dsn(&self) -> u64 {
        let ownership = self.rare().ownership;
        (u64::from(ownership[0]) << 32) | u64::from(ownership[1])
    }

    /// The valid PI-5 reporting route, `(egress, pool)`; `None` before
    /// the FM has written one, and while an update is under way.
    pub fn event_route(&self) -> Option<(u8, TurnPool)> {
        event_route_from_words(self.event_route.as_deref()?)
    }

    /// Services a PI-4 read of the device `info` describes, whose port
    /// `p` is `port(p)` right now.
    pub fn read(
        &self,
        info: &DeviceInfo,
        port: impl Fn(u16) -> PortInfo,
        addr: CapabilityAddr,
        dwords: u8,
    ) -> Result<Vec<u32>, Pi4Status> {
        if dwords == 0 || usize::from(dwords) > MAX_COMPLETION_DWORDS {
            return Err(Pi4Status::UnsupportedRequest);
        }
        let (offset, len) = (addr.offset, usize::from(dwords));
        let rare = self.rare();
        match addr.capability {
            CAP_BASELINE => read_baseline(info, port, offset, dwords),
            CAP_ROUTE_TABLE => {
                if info.device_type != DeviceType::Endpoint {
                    return Err(Pi4Status::UnsupportedRequest);
                }
                let range = span(ROUTE_TABLE_WORDS, offset, len)?;
                Ok(zero_filled(&rare.route_table, range))
            }
            CAP_OWNERSHIP => Ok(zero_filled(
                &rare.ownership,
                span(OWNERSHIP_WORDS, offset, len)?,
            )),
            CAP_MCAST_TABLE => Ok(zero_filled(
                &rare.mcast_table,
                span(MCAST_GROUPS, offset, len)?,
            )),
            CAP_EVENT_ROUTE => {
                let words = self.event_route.as_deref().unwrap_or(&[]);
                Ok(zero_filled(words, span(EVENT_ROUTE_WORDS, offset, len)?))
            }
            _ => Err(Pi4Status::UnsupportedRequest),
        }
    }

    /// Services a PI-4 write to the device `info` describes. The baseline
    /// capability is read-only; a write that fails changes nothing.
    pub fn write(
        &mut self,
        info: &DeviceInfo,
        addr: CapabilityAddr,
        data: &[u32],
    ) -> Result<(), Pi4Status> {
        if data.is_empty() || data.len() > MAX_COMPLETION_DWORDS {
            return Err(Pi4Status::UnsupportedRequest);
        }
        let offset = addr.offset;
        match addr.capability {
            CAP_ROUTE_TABLE => {
                if info.device_type != DeviceType::Endpoint {
                    return Err(Pi4Status::UnsupportedRequest);
                }
                let range = span(ROUTE_TABLE_WORDS, offset, data.len())?;
                store(&mut self.rare_mut().route_table, range, data);
            }
            CAP_OWNERSHIP => {
                let range = span(OWNERSHIP_WORDS, offset, data.len())?;
                // Claim-and-hold semantics: a non-zero owner can only be
                // overwritten by zeros (release). This gives racing
                // managers a deterministic winner: the first write sticks,
                // rivals observe it on read-back and cede the region.
                let releasing = data.iter().all(|&w| w == 0);
                if self.owner_dsn() != 0 && !releasing {
                    return Ok(()); // write ignored, completion still OK
                }
                self.rare_mut().ownership[range].copy_from_slice(data);
            }
            CAP_MCAST_TABLE => {
                let range = span(MCAST_GROUPS, offset, data.len())?;
                store(&mut self.rare_mut().mcast_table, range, data);
            }
            CAP_EVENT_ROUTE => self.write_event_route(offset, data)?,
            _ => return Err(Pi4Status::UnsupportedRequest),
        }
        Ok(())
    }

    /// A write of the reporting route. One that carries the header sizes
    /// the register to the route the header names, keeping pool words
    /// written before it; one that does not stores its pool words and
    /// clears the valid bit. So a route written as
    /// [`event_route_writes`] orders it is never usable half-written.
    fn write_event_route(&mut self, offset: u16, data: &[u32]) -> Result<(), Pi4Status> {
        let range = span(EVENT_ROUTE_WORDS, offset, data.len())?;
        let old = self.event_route.as_deref().unwrap_or(&[]);
        let len = if offset == 0 {
            let bits = data[0] & EVENT_ROUTE_BITS;
            if bits > u32::from(MAX_POOL_BITS) {
                return Err(Pi4Status::UnsupportedRequest);
            }
            1 + bits.div_ceil(32) as usize
        } else {
            old.len().max(range.end)
        };
        let mut words = zero_filled(old, 0..len);
        for (i, &w) in range.zip(data).filter(|&(i, _)| i < len) {
            words[i] = w;
        }
        if offset != 0 {
            words[0] &= !EVENT_ROUTE_VALID;
        }
        self.event_route = Some(words.into_boxed_slice());
        Ok(())
    }
}

/// `dwords` words from `offset` of the baseline capability of the device
/// `info` describes, its ports' blocks from `port`.
fn read_baseline(
    info: &DeviceInfo,
    port: impl Fn(u16) -> PortInfo,
    offset: u16,
    dwords: u8,
) -> Result<Vec<u32>, Pi4Status> {
    let end = (offset.checked_add(u16::from(dwords)))
        .filter(|&end| end <= port_block_offset(info.port_count))
        .ok_or(Pi4Status::UnsupportedRequest)?;
    let general = info.to_words();
    let word = |off: u16| match off.checked_sub(GENERAL_INFO_WORDS) {
        None => general[usize::from(off)],
        Some(rel) => {
            let block = port(rel / PORT_BLOCK_WORDS).to_words();
            block[usize::from(rel % PORT_BLOCK_WORDS)]
        }
    };
    Ok((offset..end).map(word).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn switch_info() -> DeviceInfo {
        DeviceInfo {
            device_type: DeviceType::Switch,
            dsn: 0xABCD_EF01_2345_6789,
            port_count: 16,
            max_packet_size: 2048,
            fm_capable: false,
            fm_priority: 0,
        }
    }

    fn endpoint_info() -> DeviceInfo {
        DeviceInfo {
            device_type: DeviceType::Endpoint,
            dsn: 42,
            port_count: 1,
            max_packet_size: 2048,
            fm_capable: true,
            fm_priority: 200,
        }
    }

    /// A device as a fabric holds one: its info and its ports, beside the
    /// writable registers it dereferences to.
    struct Device {
        info: DeviceInfo,
        ports: Vec<PortInfo>,
        cs: ConfigSpace,
    }

    impl Device {
        /// All ports down.
        fn new(info: DeviceInfo) -> Device {
            let ports = vec![PortInfo::default(); usize::from(info.port_count)];
            let cs = ConfigSpace::default();
            Device { info, ports, cs }
        }

        fn read(&self, addr: CapabilityAddr, dwords: u8) -> Result<Vec<u32>, Pi4Status> {
            let port = |p: u16| self.ports[usize::from(p)];
            self.cs.read(&self.info, port, addr, dwords)
        }

        fn write(&mut self, addr: CapabilityAddr, data: &[u32]) -> Result<(), Pi4Status> {
            self.cs.write(&self.info, addr, data)
        }
    }

    impl std::ops::Deref for Device {
        type Target = ConfigSpace;
        fn deref(&self) -> &ConfigSpace {
            &self.cs
        }
    }

    impl std::ops::DerefMut for Device {
        fn deref_mut(&mut self) -> &mut ConfigSpace {
            &mut self.cs
        }
    }

    #[test]
    fn mcast_write_round_trips_and_refuses_out_of_range() {
        let mut cfg = Device::new(switch_info());
        let group = |offset| CapabilityAddr {
            capability: CAP_MCAST_TABLE,
            offset,
        };
        assert_eq!(cfg.mcast_entry(5), 0);
        cfg.write(group(5), &[0b1010]).unwrap();
        assert_eq!(cfg.mcast_entry(5), 0b1010);
        // Matches what a PI-4 read of the multicast capability sees.
        assert_eq!(cfg.read(group(5), 1).unwrap(), vec![0b1010]);
        assert_eq!(
            cfg.write(group(MCAST_GROUPS), &[0xFFFF]),
            Err(Pi4Status::UnsupportedRequest)
        );
        assert_eq!(cfg.mcast_entry(MCAST_GROUPS), 0);
    }

    #[test]
    fn device_info_words_round_trip() {
        for info in [switch_info(), endpoint_info()] {
            let words = info.to_words();
            assert_eq!(DeviceInfo::from_words(&words), Some(info));
        }
    }

    #[test]
    fn device_info_from_short_slice_fails() {
        assert_eq!(DeviceInfo::from_words(&[0; 5]), None);
    }

    #[test]
    fn device_info_bad_type_fails() {
        let mut words = switch_info().to_words();
        words[0] &= 0x00FF_FFFF; // type = 0
        assert_eq!(DeviceInfo::from_words(&words), None);
    }

    #[test]
    fn port_info_words_round_trip() {
        let p = PortInfo {
            state: PortState::Active,
            link_width: 1,
            link_speed: 10,
            peer_port: 13,
        };
        assert_eq!(PortInfo::from_words(&p.to_words()), Some(p));
        assert_eq!(PortInfo::from_words(&[0]), None);
    }

    #[test]
    fn ownership_register_is_writable_everywhere() {
        for info in [switch_info(), endpoint_info()] {
            let mut cs = Device::new(info);
            assert_eq!(cs.owner_dsn(), 0);
            let addr = CapabilityAddr {
                capability: CAP_OWNERSHIP,
                offset: 0,
            };
            let dsn: u64 = 0x0123_4567_89AB_CDEF;
            cs.write(addr, &[(dsn >> 32) as u32, dsn as u32]).unwrap();
            assert_eq!(cs.owner_dsn(), dsn);
            assert_eq!(
                cs.read(addr, 2).unwrap(),
                vec![(dsn >> 32) as u32, dsn as u32]
            );
            // Out-of-range access fails.
            assert_eq!(cs.read(addr, 3), Err(Pi4Status::UnsupportedRequest));
            assert_eq!(
                cs.write(
                    CapabilityAddr {
                        capability: CAP_OWNERSHIP,
                        offset: 2
                    },
                    &[1]
                ),
                Err(Pi4Status::UnsupportedRequest)
            );
        }
    }

    #[test]
    fn ports_per_read_is_two() {
        assert_eq!(PORTS_PER_READ, 2);
    }

    /// Every fabric device carries one, tens of thousands on the large
    /// fabrics: three words, the writable registers only — the reporting
    /// route's slice, and a word for the rest until one is written.
    #[test]
    fn a_configuration_space_is_at_most_three_words() {
        let size = std::mem::size_of::<ConfigSpace>();
        assert!(size <= 24, "{size}");
    }

    /// Every read of a device, in port order.
    fn all_reads(port_count: u16) -> Vec<(CapabilityAddr, u8)> {
        port_info_reads(port_count)
            .map(|first| port_info_read(first, port_count).unwrap())
            .collect()
    }

    #[test]
    fn port_reads_cover_sixteen_port_switch_in_eight() {
        let reads = all_reads(16);
        assert_eq!(reads.len(), 8);
        assert_eq!(reads[0], (CapabilityAddr::baseline(6), 8));
        assert_eq!(reads[7], (CapabilityAddr::baseline(6 + 14 * 4), 8));
    }

    #[test]
    fn port_reads_for_one_port_endpoint() {
        let reads = all_reads(1);
        assert_eq!(reads.len(), 1);
        assert_eq!(reads[0], (CapabilityAddr::baseline(6), 4));
    }

    #[test]
    fn port_reads_for_odd_port_count() {
        let reads = all_reads(5);
        assert_eq!(reads.len(), 3);
        // Last read covers a single port.
        assert_eq!(reads[2].1, 4);
        // No read starts past the last port.
        assert_eq!(port_info_read(5, 5), None);
        assert_eq!(port_info_read(6, 5), None);
    }

    #[test]
    fn read_general_info_through_pi4() {
        let cs = Device::new(switch_info());
        let (addr, n) = general_info_read();
        let words = cs.read(addr, n).unwrap();
        assert_eq!(DeviceInfo::from_words(&words), Some(switch_info()));
    }

    #[test]
    fn read_port_blocks_through_pi4() {
        let mut cs = Device::new(switch_info());
        cs.ports[3] = PortInfo {
            state: PortState::Active,
            link_width: 1,
            link_speed: 10,
            peer_port: 2,
        };
        // Port 3 lives in the second two-port read (ports 2..4).
        let (addr, dwords) = port_info_read(2, 16).unwrap();
        let words = cs.read(addr, dwords).unwrap();
        let p2 = PortInfo::from_words(&words[..4]).unwrap();
        let p3 = PortInfo::from_words(&words[4..]).unwrap();
        assert_eq!(p2.state, PortState::Down);
        assert_eq!(p3.state, PortState::Active);
    }

    #[test]
    fn out_of_range_reads_fail() {
        let cs = Device::new(endpoint_info());
        // Endpoint baseline = 6 + 4 = 10 words.
        assert!(cs.read(CapabilityAddr::baseline(9), 1).is_ok());
        assert_eq!(
            cs.read(CapabilityAddr::baseline(9), 2),
            Err(Pi4Status::UnsupportedRequest)
        );
        assert_eq!(
            cs.read(CapabilityAddr::baseline(u16::MAX), 8),
            Err(Pi4Status::UnsupportedRequest)
        );
        assert_eq!(
            cs.read(CapabilityAddr::baseline(0), 0),
            Err(Pi4Status::UnsupportedRequest)
        );
    }

    #[test]
    fn unknown_capability_fails() {
        let cs = Device::new(switch_info());
        assert_eq!(
            cs.read(
                CapabilityAddr {
                    capability: 99,
                    offset: 0
                },
                1
            ),
            Err(Pi4Status::UnsupportedRequest)
        );
    }

    #[test]
    fn route_table_write_read_round_trip() {
        let mut cs = Device::new(endpoint_info());
        let addr = CapabilityAddr {
            capability: CAP_ROUTE_TABLE,
            offset: 8,
        };
        cs.write(addr, &[0xAA, 0xBB, 0xCC]).unwrap();
        assert_eq!(cs.read(addr, 3).unwrap(), vec![0xAA, 0xBB, 0xCC]);
    }

    /// The tables start without storage and grow on write; nothing a
    /// PI-4 access can see tells.
    #[test]
    fn unwritten_table_words_read_as_zero_within_the_same_bounds() {
        let table = |capability, offset| CapabilityAddr { capability, offset };
        let mut cs = Device::new(endpoint_info());
        // Read before any write: zeros, up to the last word and no further.
        for (cap, bound) in [
            (CAP_ROUTE_TABLE, ROUTE_TABLE_WORDS),
            (CAP_MCAST_TABLE, MCAST_GROUPS),
        ] {
            assert_eq!(cs.read(table(cap, 0), 4).unwrap(), vec![0; 4]);
            assert_eq!(cs.read(table(cap, bound - 2), 2).unwrap(), vec![0; 2]);
            assert_eq!(
                cs.read(table(cap, bound - 1), 2),
                Err(Pi4Status::UnsupportedRequest)
            );
            assert_eq!(
                cs.write(table(cap, bound - 1), &[1, 2]),
                Err(Pi4Status::UnsupportedRequest)
            );
            assert_eq!(cs.read(table(cap, bound - 1), 1).unwrap(), vec![0]);
        }
        // Write at an offset, then read below, across and above it.
        cs.write(table(CAP_ROUTE_TABLE, 40), &[7, 8]).unwrap();
        assert_eq!(cs.read(table(CAP_ROUTE_TABLE, 0), 3).unwrap(), vec![0; 3]);
        assert_eq!(
            cs.read(table(CAP_ROUTE_TABLE, 38), 6).unwrap(),
            vec![0, 0, 7, 8, 0, 0]
        );
        // A lower write afterwards leaves the higher words alone.
        cs.write(table(CAP_ROUTE_TABLE, 2), &[9]).unwrap();
        assert_eq!(cs.read(table(CAP_ROUTE_TABLE, 40), 2).unwrap(), vec![7, 8]);
        // The last word of either table is writable.
        cs.write(table(CAP_ROUTE_TABLE, ROUTE_TABLE_WORDS - 1), &[5])
            .unwrap();
        assert_eq!(
            cs.read(table(CAP_ROUTE_TABLE, ROUTE_TABLE_WORDS - 1), 1)
                .unwrap(),
            vec![5]
        );
        cs.write(table(CAP_MCAST_TABLE, MCAST_GROUPS - 1), &[3])
            .unwrap();
        cs.write(table(CAP_MCAST_TABLE, 1), &[6]).unwrap();
        assert_eq!(cs.mcast_entry(MCAST_GROUPS - 1), 3);
        assert_eq!(cs.mcast_entry(1), 6);
        assert_eq!(cs.mcast_entry(0), 0);
    }

    #[test]
    fn route_table_rejected_on_switches() {
        let mut cs = Device::new(switch_info());
        let addr = CapabilityAddr {
            capability: CAP_ROUTE_TABLE,
            offset: 0,
        };
        assert_eq!(cs.write(addr, &[1]), Err(Pi4Status::UnsupportedRequest));
        assert_eq!(cs.read(addr, 1), Err(Pi4Status::UnsupportedRequest));
    }

    /// A pool of `turns` four-bit turns, each a function of its index
    /// and `salt`.
    fn pool(turns: u16, salt: u8) -> TurnPool {
        let mut pool = TurnPool::with_capacity(MAX_POOL_BITS);
        for i in 0..turns {
            pool.push_turn((i as u8).wrapping_mul(7).wrapping_add(salt) & 0xF, 4)
                .unwrap();
        }
        pool
    }

    fn install(cs: &mut Device, egress: u8, pool: &TurnPool) {
        for (addr, data) in event_route_writes(egress, pool) {
            cs.write(addr, &data).unwrap();
        }
    }

    /// The whole register, read over PI-4 as the FM would.
    fn read_event_route(cs: &Device) -> Vec<u32> {
        let mut words = Vec::new();
        for offset in (0..EVENT_ROUTE_WORDS).step_by(MAX_COMPLETION_DWORDS) {
            let n = (EVENT_ROUTE_WORDS - offset).min(MAX_COMPLETION_DWORDS as u16);
            let addr = CapabilityAddr {
                capability: CAP_EVENT_ROUTE,
                offset,
            };
            words.extend(cs.read(addr, n as u8).unwrap());
        }
        words
    }

    #[test]
    fn the_event_route_round_trips_through_pi4_up_to_a_full_pool() {
        for info in [switch_info(), endpoint_info()] {
            // Empty (the FM's own switch), one write, the longest single
            // write, and a full 512-bit pool over three offset writes.
            for turns in [0, 5, 56, 128] {
                let mut cs = Device::new(info);
                let p = pool(turns, 3);
                let writes = event_route_writes(9, &p);
                let words = 1 + usize::from(p.len_bits().div_ceil(32));
                assert_eq!(writes.len(), words.div_ceil(MAX_COMPLETION_DWORDS));
                assert_eq!(writes.last().unwrap().0.offset, 0, "the header goes last");
                install(&mut cs, 9, &p);
                assert_eq!(cs.event_route(), Some((9, p.clone())), "{turns} turns");
                let read = read_event_route(&cs);
                assert_eq!(event_route_from_words(&read), Some((9, p)));
                assert!(read[words..].iter().all(|&w| w == 0));
            }
        }
    }

    #[test]
    fn an_unwritten_event_route_reads_zero_and_yields_no_route() {
        let cs = Device::new(switch_info());
        assert_eq!(cs.event_route(), None);
        assert_eq!(read_event_route(&cs), vec![0; EVENT_ROUTE_WORDS as usize]);
        assert_eq!(event_route_from_words(&[]), None);
    }

    #[test]
    fn a_refused_event_route_write_leaves_the_register_unchanged() {
        let mut cs = Device::new(switch_info());
        let p = pool(40, 1);
        install(&mut cs, 2, &p);
        let before = read_event_route(&cs);
        let at = |offset| CapabilityAddr {
            capability: CAP_EVENT_ROUTE,
            offset,
        };
        let header = EVENT_ROUTE_VALID | u32::from(MAX_POOL_BITS + 1);
        for (addr, data) in [
            (at(0), vec![1; MAX_COMPLETION_DWORDS + 1]), // oversize
            (at(EVENT_ROUTE_WORDS - 1), vec![1, 2]),     // past the end
            (at(EVENT_ROUTE_WORDS), vec![1]),
            (at(0), vec![header]), // a pool longer than any
        ] {
            assert_eq!(cs.write(addr, &data), Err(Pi4Status::UnsupportedRequest));
            assert_eq!(read_event_route(&cs), before);
        }
        assert_eq!(
            cs.read(at(EVENT_ROUTE_WORDS - 1), 2),
            Err(Pi4Status::UnsupportedRequest)
        );
        assert_eq!(cs.event_route(), Some((2, p)));
    }

    /// After every prefix of an update's writes the device reports along
    /// the old route, the new one, or none: never a mix of the two.
    #[test]
    fn no_state_of_a_multi_write_update_is_a_third_route() {
        let routes = [
            (1, pool(128, 0)),
            (4, pool(70, 5)),
            (6, pool(3, 9)),
            (8, pool(100, 2)),
            (1, pool(128, 11)),
        ];
        let mut cs = Device::new(switch_info());
        install(&mut cs, routes[0].0, &routes[0].1);
        for pair in routes.windows(2) {
            let [old, new] = [&pair[0], &pair[1]].map(|(e, p)| Some((*e, p.clone())));
            for (addr, data) in event_route_writes(pair[1].0, &pair[1].1) {
                cs.write(addr, &data).unwrap();
                let now = cs.event_route();
                assert!(now.is_none() || now == old || now == new, "{now:?}");
            }
            assert_eq!(cs.event_route(), new);
        }
    }

    #[test]
    fn baseline_is_read_only() {
        let mut cs = Device::new(endpoint_info());
        assert_eq!(
            cs.write(CapabilityAddr::baseline(0), &[0]),
            Err(Pi4Status::UnsupportedRequest)
        );
    }
}
