//! `asi-sim` — discrete-event simulation kernel for the Advanced Switching
//! reproduction.
//!
//! This crate replaces the OPNET Modeler substrate used by the paper with a
//! small, deterministic discrete-event engine:
//!
//! - [`SimTime`]/[`SimDuration`] — picosecond-resolution simulated time;
//! - [`Simulator`] — clock + pending-event store, generic over a pluggable
//!   scheduling [`Kernel`]: the default timing-wheel [`SerialKernel`] or
//!   the conservative-synchronization [`ParallelKernel`] (sharded lookahead
//!   windows with batch exchange at barriers — see `docs/PARALLEL.md`);
//! - [`wheel`]/[`arena`] — the storage layer: a bucketed calendar queue
//!   keyed by the deterministic [`EventKey`], and a slab arena with `u32`
//!   handles that replaces per-event payload boxes;
//! - [`SimRng`] — seedable xoshiro256** generator so every experiment is
//!   reproducible from a single seed;
//! - [`stats`] — online statistics used by the measurement harness;
//! - [`trace`] — the structured observability layer: typed, sim-timestamped
//!   [`TraceEvent`]s emitted through a zero-cost-when-disabled
//!   [`TraceHandle`] by the kernel, the fabric model and the fabric manager.
//!
//! The engine is deliberately generic: the ASI fabric model (crate
//! `asi-fabric`) owns the event payload type and the dispatch loop.

#![warn(missing_docs)]

pub mod arena;
mod engine;
pub mod kernel;
mod rng;
pub mod stats;
mod time;
pub mod trace;
pub mod wheel;

pub use arena::Arena;
pub use engine::{Fired, Simulator};
pub use kernel::{
    AnyKernel, EventKey, Kernel, KernelSpec, ParallelKernel, ParallelStats, SerialKernel, Target,
    EXTERNAL_RANK,
};
pub use rng::SimRng;
pub use stats::OnlineStats;
pub use time::{SimDuration, SimTime, MICROSECOND, MILLISECOND, NANOSECOND, PICOSECOND, SECOND};
pub use trace::{
    FieldType, TraceEvent, TraceHandle, TraceKind, TraceRecord, TraceSink, TraceValue,
};
