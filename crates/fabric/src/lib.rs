//! `asi-fabric` — the simulated Advanced Switching fabric.
//!
//! This crate is the substrate the paper built in OPNET (their reference
//! \[8\]): x1 links, 16-port multiplexed virtual cut-through switches,
//! 1-port endpoints, credit-based flow control, management-priority
//! arbitration, PI-4 device responders, PI-5 event generation, device hot
//! addition/removal, and an agent interface on endpoints where the fabric
//! manager (crate `asi-core`) and background-traffic generators run.
//!
//! The public surface:
//!
//! - [`Fabric`] — build from an `asi_topo::Topology`, activate devices,
//!   run the event loop;
//! - [`FabricConfig`] — link/switch/device timing parameters, including
//!   the device processing-speed factor of the paper's Figs. 8–9;
//! - [`FaultPlan`]/[`LossModel`] — deterministic fault injection
//!   (per-link loss, link flaps, device hangs, completion corruption);
//! - [`ChurnPlan`] — deterministic continuous-churn workloads
//!   (Poisson link flaps and device hot-remove/re-add streams);
//! - [`FabricAgent`]/[`AgentCtx`] — endpoint management software hooks;
//! - [`TrafficPlan`] — deterministic data-plane workloads (offered-load
//!   unicast and switch-sourced flows) with per-flow goodput and latency
//!   instrumentation.

#![warn(missing_docs)]

mod agent;
mod churn;
mod config;
mod counters;
mod fabric;
mod faults;
mod traffic;

pub use agent::{AgentCommand, AgentCtx, DevId, FabricAgent};
pub use churn::{ChurnAction, ChurnEvent, ChurnPlan};
pub use config::{FabricConfig, CREDIT_UNIT};
pub use counters::FabricCounters;
pub use fabric::{Fabric, FlowStats, DSN_BASE};
pub use faults::{FaultEvent, FaultKind, FaultPlan, LossModel};
pub use traffic::{Arrivals, FlowClock, FlowSpec, Shot, TrafficPlan, TrafficSchedule};
