//! # advanced-switching
//!
//! A full reproduction of *"Implementing the Advanced Switching Fabric
//! Discovery Process"* (Robles-Gómez, Bermúdez, Casado, Quiles — IPPS
//! 2007 / TR DIAB-06-09-2): an Advanced Switching Interconnect (ASI)
//! fabric simulator plus the fabric-manager topology-discovery
//! implementations the paper compares.
//!
//! ## Layout
//!
//! | crate | contents |
//! |---|---|
//! | [`sim`] | deterministic discrete-event kernel (time, events, RNG, stats) |
//! | [`proto`] | ASI wire formats: turn-pool source routing, route header, PI-4/PI-5, config space, VCs |
//! | [`topo`] | topology generators (meshes, tori, *m*-port *n*-trees, irregular) and ground-truth paths |
//! | [`fabric`] | the packet-level fabric: cut-through switches, credit flow control, device responders, PI-5, hot add/remove |
//! | [`core`] | **the paper's contribution**: the fabric manager with Serial Packet / Serial Device / Parallel discovery, change assimilation, election |
//! | [`state`] | versioned topology snapshots (binary + JSONL), structural diffing, warm-start seeds |
//! | [`harness`] | scenario runner + regenerators for every table and figure |
//!
//! ## Quickstart
//!
//! ```
//! use advanced_switching::prelude::*;
//!
//! // Build the paper's 3x3 mesh, bring it up, discover it.
//! let grid = mesh(3, 3).unwrap();
//! let bench = Bench::start(&grid.topology, &Scenario::new(Algorithm::Parallel), &[]);
//! let run = bench.last_run();
//! assert_eq!(run.devices_found, 18);
//! println!("discovered 18 devices in {}", run.discovery_time());
//! ```

pub use asi_core as core;
pub use asi_fabric as fabric;
pub use asi_harness as harness;
pub use asi_proto as proto;
pub use asi_sim as sim;
pub use asi_state as state;
pub use asi_topo as topo;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use asi_core::{db_from_snapshot, snapshot_db};
    pub use asi_core::{
        Algorithm, DiscoveryRun, DiscoveryTrigger, Engine, EngineConfig, FmAgent, FmConfig,
        FmTiming, RetryPolicy, TopologyDb, TOKEN_START_DISCOVERY,
    };
    pub use asi_fabric::{
        AgentCtx, ChurnPlan, DevId, Fabric, FabricAgent, FabricConfig, FaultPlan, FmRoute,
        LossModel, TrafficPlan,
    };
    pub use asi_harness::{
        change_experiment, churn_experiment, default_churn_exempt, load_snapshot, save_snapshot,
        summarize_traffic, Bench, ChurnOutcome, Scenario, SnapshotFormat,
    };
    pub use asi_proto::{
        DeviceInfo, DeviceType, Packet, Payload, Pi4, Pi5, PortEvent, PortInfo, PortState, TurnPool,
    };
    pub use asi_sim::{SimDuration, SimRng, SimTime, Simulator};
    pub use asi_state::{Snapshot, TopologyDelta};
    pub use asi_topo::{fat_tree, mesh, torus, NodeId, Table1, Topology};
}
