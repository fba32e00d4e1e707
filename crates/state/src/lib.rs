//! `asi-state` — persistent discovered-topology state.
//!
//! The paper's fabric manager is always *cold*: after power-up and after
//! every topological change it re-walks the fabric with PI-4 reads. Real
//! managers cache what they learned. This crate defines the cached form:
//! a versioned, checksummed **snapshot** of everything discovery produces
//! (devices, per-port attributes, links, turn-pool routes), a compact
//! binary encoding with save/load, and a structural [`TopologyDelta`]
//! diff between two snapshots (devices/links added, removed, re-cabled).
//!
//! `asi-core` consumes a [`Snapshot`] as the seed of its warm-start
//! discovery mode (verify the cached topology with one targeted probe per
//! known device instead of re-walking the fabric); `asi-harness` adds a
//! JSONL rendering on top of the same types.
//!
//! The binary encoding is canonical: devices are sorted by DSN and links
//! by their canonical key before writing, so `save → load → save` is
//! byte-identical whatever order the in-memory snapshot was built in.

#![warn(missing_docs)]

mod codec;
mod compact;
mod delta;
mod snapshot;

pub use codec::{checksum_of, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use compact::{PackedPool, PortBlocks};
pub use delta::TopologyDelta;
pub use snapshot::{DeviceRecord, DeviceRoute, Snapshot};
