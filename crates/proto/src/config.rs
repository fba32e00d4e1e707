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
//! packet-count regime (DESIGN.md §2). A second, writable capability (id 1)
//! stores endpoint route tables for the path-distribution extension.
//!
//! The baseline capability is read-only, and everything in it is state
//! the device keeps anyway: its [`DeviceInfo`] and its ports. So a
//! [`ConfigSpace`] does not store it. A read takes the device's info and
//! a function from port number to [`PortInfo`] from the caller, and
//! encodes them on the spot. What a `ConfigSpace` stores is only what a
//! PI-4 write can change: the route table, the ownership claim and the
//! multicast table, three words.

use crate::pi4::{CapabilityAddr, Pi4Status, MAX_COMPLETION_DWORDS};

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

/// A writable table of a fixed number of words that is all zero until
/// written: it has no storage before its first write, and then only as
/// far as the highest word written so far; reads past it are
/// zero-filled. Most devices never have either of their tables written —
/// a switch rejects route-table access outright — so a fabric of tens of
/// thousands of devices pays a word per table for them, not 2.3 KB of
/// zeros, nor an empty `Vec`'s three words.
#[derive(Clone, Debug, Default)]
// The box is the point: one word where a bare `Vec` is three.
#[allow(clippy::box_collection)]
struct Table(Option<Box<Vec<u32>>>);

impl Table {
    /// Word `index`; zero if never written (or past any bound).
    fn word(&self, index: usize) -> u32 {
        let words = self.0.as_deref().map_or(&[][..], Vec::as_slice);
        words.get(index).copied().unwrap_or(0)
    }

    /// `dwords` words from `offset` of a table of `bound` words.
    fn read(&self, bound: u16, offset: u16, dwords: u8) -> Result<Vec<u32>, Pi4Status> {
        let start = usize::from(offset);
        let end = start + usize::from(dwords);
        if end > usize::from(bound) {
            return Err(Pi4Status::UnsupportedRequest);
        }
        Ok((start..end).map(|i| self.word(i)).collect())
    }

    /// Stores `data` from `offset` of a table of `bound` words.
    fn write(&mut self, bound: u16, offset: u16, data: &[u32]) -> Result<(), Pi4Status> {
        let start = usize::from(offset);
        let end = start + data.len();
        if end > usize::from(bound) {
            return Err(Pi4Status::UnsupportedRequest);
        }
        let words = self.0.get_or_insert_with(Box::default);
        if words.len() < end {
            words.resize(end, 0);
        }
        words[start..end].copy_from_slice(data);
        Ok(())
    }
}

/// The writable registers of a device's configuration space, three
/// words; the baseline capability comes from the device itself (module
/// header).
#[derive(Clone, Debug, Default)]
pub struct ConfigSpace {
    /// [`ROUTE_TABLE_WORDS`] words.
    route_table: Table,
    ownership: [u32; OWNERSHIP_WORDS as usize],
    /// [`MCAST_GROUPS`] words.
    mcast_table: Table,
}

impl ConfigSpace {
    /// Output-port bitmask (switch) or membership flag (endpoint) for a
    /// multicast group.
    pub fn mcast_entry(&self, group: u16) -> u32 {
        self.mcast_table.word(usize::from(group))
    }

    /// DSN of the manager currently claiming this device (0 = unclaimed).
    pub fn owner_dsn(&self) -> u64 {
        (u64::from(self.ownership[0]) << 32) | u64::from(self.ownership[1])
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
        match addr.capability {
            CAP_BASELINE => read_baseline(info, port, addr.offset, dwords),
            CAP_ROUTE_TABLE => {
                if info.device_type != DeviceType::Endpoint {
                    return Err(Pi4Status::UnsupportedRequest);
                }
                self.route_table
                    .read(ROUTE_TABLE_WORDS, addr.offset, dwords)
            }
            CAP_OWNERSHIP => {
                let end = usize::from(addr.offset) + usize::from(dwords);
                if end > self.ownership.len() {
                    return Err(Pi4Status::UnsupportedRequest);
                }
                Ok(self.ownership[usize::from(addr.offset)..end].to_vec())
            }
            CAP_MCAST_TABLE => self.mcast_table.read(MCAST_GROUPS, addr.offset, dwords),
            _ => Err(Pi4Status::UnsupportedRequest),
        }
    }

    /// Services a PI-4 write to the device `info` describes. The baseline
    /// capability is read-only.
    pub fn write(
        &mut self,
        info: &DeviceInfo,
        addr: CapabilityAddr,
        data: &[u32],
    ) -> Result<(), Pi4Status> {
        if data.is_empty() || data.len() > MAX_COMPLETION_DWORDS {
            return Err(Pi4Status::UnsupportedRequest);
        }
        match addr.capability {
            CAP_ROUTE_TABLE => {
                if info.device_type != DeviceType::Endpoint {
                    return Err(Pi4Status::UnsupportedRequest);
                }
                self.route_table.write(ROUTE_TABLE_WORDS, addr.offset, data)
            }
            CAP_OWNERSHIP => {
                let start = usize::from(addr.offset);
                let end = start + data.len();
                if end > self.ownership.len() {
                    return Err(Pi4Status::UnsupportedRequest);
                }
                // Claim-and-hold semantics: a non-zero owner can only be
                // overwritten by zeros (release). This gives racing
                // managers a deterministic winner: the first write sticks,
                // rivals observe it on read-back and cede the region.
                let releasing = data.iter().all(|&w| w == 0);
                if self.owner_dsn() != 0 && !releasing {
                    return Ok(()); // write ignored, completion still OK
                }
                self.ownership[start..end].copy_from_slice(data);
                Ok(())
            }
            CAP_MCAST_TABLE => self.mcast_table.write(MCAST_GROUPS, addr.offset, data),
            _ => Err(Pi4Status::UnsupportedRequest),
        }
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
    /// fabrics: three words, the writable registers only, an unwritten
    /// table one word.
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

    #[test]
    fn baseline_is_read_only() {
        let mut cs = Device::new(endpoint_info());
        assert_eq!(
            cs.write(CapabilityAddr::baseline(0), &[0]),
            Err(Pi4Status::UnsupportedRequest)
        );
    }
}
