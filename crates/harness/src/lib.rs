//! `asi-harness` — the experiment harness that regenerates every table
//! and figure of the paper's evaluation (§4).
//!
//! - [`scenario`] — fabric bring-up, FM installation, PI-5 route
//!   configuration, and random switch addition/removal injection (the
//!   paper's §4.1 methodology);
//! - [`churn`] — the continuous-churn runner: Poisson link-flap and
//!   device remove/re-add streams disturbing a live fabric while the
//!   FM assimilates the PI-5 event storm incrementally;
//! - [`sweep`] — the deterministic multi-threaded sweep runner: a
//!   [`SweepSpec`] grid (topology × algorithm × seed) executed across a
//!   scoped worker pool with per-cell seeding, so results are
//!   byte-identical for any `--jobs` count;
//! - [`experiments`] — one module per table/figure plus ablations;
//! - [`report`] — markdown/CSV renderers for the reproduced outputs,
//!   plus the discovery-trace collector and JSONL exporters for the
//!   `asi_sim::trace` observability layer.
//!
//! The `experiments` binary drives everything:
//!
//! ```text
//! cargo run --release -p asi-harness --bin experiments -- all
//! cargo run --release -p asi-harness --bin experiments -- fig6 --quick
//! ```

#![warn(missing_docs)]

pub mod churn;
pub mod experiments;
pub mod json;
pub mod report;
pub mod scenario;
pub mod snapshot;
pub mod sweep;

pub use churn::{churn_experiment, default_churn_exempt, ChurnOutcome};
pub use json::Json;
pub use report::{
    save_trace_jsonl, trace_from_jsonl, trace_to_jsonl, Chart, RingCollector, Series, TableOut,
    TraceSummary,
};
pub use scenario::{
    change_experiment, db_matches_fabric, db_routes_execute, dev_of_dsn, dsn_of_dev,
    removable_switches, sharded_discovery, summarize_traffic, Bench, Scenario, ShardedOutcome,
    TrafficSummary,
};
pub use snapshot::{
    load_snapshot, save_snapshot, snapshot_from_jsonl, snapshot_to_jsonl, SnapshotFormat,
};
pub use sweep::{ChangeMode, SweepResult, SweepSpec};

/// One-stop imports for writing experiments: the scenario builder with
/// its fault/retry vocabulary, the sweep grid types, and the algorithm
/// enum.
///
/// ```
/// use asi_harness::prelude::*;
///
/// let scenario = Scenario::new(Algorithm::Parallel)
///     .with_faults(FaultPlan::none().with_loss(LossModel::uniform(0.02)))
///     .with_retry(RetryPolicy::fixed(4));
/// assert_eq!(scenario.faults.loss.mean_loss(), 0.02);
/// ```
pub mod prelude {
    pub use crate::churn::{churn_experiment, default_churn_exempt, ChurnOutcome};
    pub use crate::scenario::{
        change_experiment, sharded_discovery, summarize_traffic, Bench, Scenario, ShardedOutcome,
    };
    pub use crate::snapshot::{load_snapshot, save_snapshot, SnapshotFormat};
    pub use crate::sweep::{ChangeMode, SweepResult, SweepSpec};
    pub use asi_core::{Algorithm, RetryPolicy};
    pub use asi_fabric::{ChurnPlan, FaultPlan, LossModel, TrafficPlan};
    pub use asi_state::Snapshot;
}
