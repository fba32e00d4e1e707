//! `asi-core` — the paper's contribution: the Advanced Switching fabric
//! manager and its topology-discovery implementations.
//!
//! The crate provides:
//!
//! - [`Algorithm`] — the three discovery variants the paper compares:
//!   **Serial Packet** (ASI-SIG's serialized proposal, one request in
//!   flight), **Serial Device** (port reads of the current device in
//!   parallel), and **Parallel** (propagation-order exploration);
//! - [`Engine`] — the I/O-free discovery state machine;
//! - [`FmAgent`] — the fabric-manager agent that runs on a simulated
//!   endpoint (`asi-fabric`), including PI-5 change assimilation (full
//!   re-discovery, as the paper assumes, or the affected-region
//!   extension), request timeouts, and per-run measurements;
//! - [`TopologyDb`] — the discovered-topology database with DSN dedup and
//!   route computation;
//! - [`FmTiming`] — the calibrated per-packet FM processing-time model
//!   (paper Fig. 4) with the speed factors of Figs. 8–9;
//! - [`RetryPolicy`] — pluggable retry/backoff for timed-out requests
//!   (fixed, exponential with deterministic jitter, or deadline-bounded);
//! - [`election`] — FM election claims, the ballot and the resolution rule.

#![deny(missing_docs)]

pub mod db;
pub mod distributed;
pub mod election;
pub mod engine;
pub mod fm;
pub mod mcast;
pub mod metrics;
pub mod pathdist;
pub mod retry;
pub mod snapshot;
pub mod timing;

pub use db::{DeviceRecord, DeviceRoute, TopologyDb};
pub use distributed::{
    certify_merge, report_messages, DistributedConfig, FmPeer, MergeCertError, MergeCertificate,
    MergeState,
};
pub use election::{elect, Ballot, Claim, ElectionResult};
pub use engine::{Engine, EngineConfig, EngineStats, OutOp, OutRequest, REQUEST_WINDOW};
pub use fm::{
    DiscoveryMode, FmAgent, FmConfig, TOKEN_CONFIGURE_MCAST, TOKEN_START_DISCOVERY,
    TOKEN_START_ELECTION,
};
pub use mcast::{plan_multicast, McastError, McastWrite};
pub use metrics::{Algorithm, DiscoveryRun, DiscoveryTrigger, DistributionRun, TrafficSummary};
pub use pathdist::{decode_route_table, plan_distribution, PlannedWrite, RouteTableEntry};
pub use retry::RetryPolicy;
pub use snapshot::{db_from_snapshot, snapshot_db};
pub use timing::{ideal, FmTiming};
