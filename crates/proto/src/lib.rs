//! `asi-proto` — Advanced Switching wire formats and protocol types.
//!
//! Everything the fabric and the fabric manager exchange is defined here:
//!
//! - [`turn`] — the turn pool / turn pointer / direction source-routing
//!   machinery (paper Fig. 1 fields `Turn Pool`, `Turn Pointer`, `D`);
//! - [`header`] — the two-DWORD route header with CRC-5 protection;
//! - [`pi4`] — the PI-4 device configuration protocol (read request, read
//!   completion with data, read completion with error, plus writes for the
//!   path-distribution extension);
//! - [`pi5`] — the PI-5 event-reporting protocol used to detect topology
//!   changes;
//! - [`config`] — device configuration space: the baseline capability's
//!   general-information block and per-port blocks, and the writable
//!   registers (route and multicast tables, ownership claim, PI-5
//!   reporting route);
//! - [`packet`] — complete packets (header + payload + ECRC) with
//!   byte-accurate sizes, which the fabric model uses for serialization
//!   timing;
//! - [`vc`] — virtual channels (BVC/OVC/MVC) and TC→VC mapping.
//!
//! All formats round-trip through `encode`/`decode` and are covered by
//! unit and property tests; the fabric simulation itself passes typed
//! [`packet::Packet`] values around and uses `wire_size()` for timing, so
//! serialization fidelity is testable without paying encode costs on the
//! hot path.

#![deny(missing_docs)]

pub mod config;
pub mod header;
pub mod packet;
pub mod pi4;
pub mod pi5;
pub mod pi_fm;
pub mod turn;
pub mod vc;

pub use config::{
    ConfigSpace, DeviceInfo, DeviceType, PortInfo, PortState, CAP_BASELINE, CAP_EVENT_ROUTE,
    CAP_MCAST_TABLE, CAP_OWNERSHIP, CAP_ROUTE_TABLE, EVENT_ROUTE_WORDS, GENERAL_INFO_WORDS,
    MCAST_GROUPS, PORTS_PER_READ, PORT_BLOCK_WORDS,
};
pub use header::{HeaderError, ProtocolInterface, RouteHeader};
pub use packet::{Packet, PacketError, Payload, ECRC_BYTES};
pub use pi4::{CapabilityAddr, Pi4, Pi4Error, Pi4Status, MAX_COMPLETION_DWORDS};
pub use pi5::{Pi5, Pi5Error, PortEvent};
pub use pi_fm::{FmMessage, FmMessageError};
pub use turn::{
    apply_backward, apply_forward, turn_for, turn_width, Direction, TurnCursor, TurnError,
    TurnPool, MAX_POOL_BITS, POOL_WORDS, SPEC_POOL_BITS,
};
pub use vc::{TcMapError, TcVcMap, VcConfig, VcId, VcKind, MANAGEMENT_TC};
