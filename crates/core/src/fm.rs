//! The fabric manager agent: glues the discovery [`Engine`] to the
//! simulated fabric, implements change assimilation (full re-discovery on
//! PI-5, as the paper assumes, or the affected-region extension), request
//! timeouts, and the measurement plumbing behind every figure.
//!
//! Configuration, state and event entry points live here; behaviour in
//! one submodule per seam of the state machine (`docs/ARCHITECTURE.md`):
//! `run` (how discovery runs begin — PI-5 assimilation included —
//! proceed and finish), `ensemble` (election, merge, watch, promotion),
//! `side` (the manager's own requests: path distribution, multicast and
//! PI-5 reporting-route writes, and keepalive reads).

mod ensemble;
mod run;
mod side;

use crate::db::TopologyDb;
use crate::distributed::{DistributedConfig, MergeState};
use crate::engine::{Engine, EngineConfig, OutRequest};
use crate::metrics::{Algorithm, DiscoveryRun, DistributionRun};
use crate::retry::RetryPolicy;
use crate::timing::FmTiming;
use asi_fabric::{AgentCtx, FabricAgent};
use asi_proto::{
    Packet, Payload, Pi4, Pi5, ProtocolInterface, RouteHeader, TurnPool, MANAGEMENT_TC,
};
use asi_sim::{SimDuration, SimTime, TraceEvent, TraceHandle};
use asi_state::Snapshot;
use ensemble::{Role, Watch, TOKEN_KEEPALIVE_CHECK, TOKEN_START_STANDBY};
use run::RunAcc;
use side::{Reporting, Requests, OWN_REQ_BASE};
use std::any::Any;
use std::collections::{BTreeSet, HashMap};

/// Timer token that kicks off the initial discovery. (`+ 1` and `+ 2`
/// are the watch's keepalive tokens, private to `fm/ensemble.rs`.)
pub const TOKEN_START_DISCOVERY: u64 = 1 << 62;
/// Timer token that flushes multicast group requests queued with
/// [`FmAgent::queue_multicast`].
pub const TOKEN_CONFIGURE_MCAST: u64 = (1 << 62) + 3;
/// Timer token that starts a distributed discovery via PI-9 election:
/// the manager broadcasts its claim to every
/// [`DistributedConfig::peers`] entry, collects rival claims for the
/// election window, resolves roles, and only then begins discovery.
/// Without a [`FmConfig::distributed_config`] this degenerates to
/// [`TOKEN_START_DISCOVERY`].
pub const TOKEN_START_ELECTION: u64 = (1 << 62) + 4;
const TOKEN_ELECTION_DECIDE: u64 = (1 << 62) + 5;
/// Timer token that configures PI-5 reporting: the manager writes every
/// device's reporting route over PI-4 (now, or when the run in flight
/// finishes), and from then on, after every run, the routes that
/// changed. Re-arming it writes only what changed.
pub const TOKEN_CONFIGURE_PI5: u64 = (1 << 62) + 6;
/// Request-timeout tokens: this flag, the sending engine's launch epoch
/// in bits 32.. (zero for the manager's own requests, `fm/side.rs`), the
/// request id in the low 32.
const TIMEOUT_FLAG: u64 = 1 << 63;

/// The timeout token of request `req_id`, sent under `epoch`. Unique
/// among the manager's pending timers, so it can be cancelled: engine
/// ids are unique within an epoch, the own table's never repeat.
fn timeout_token(epoch: u64, req_id: u32) -> u64 {
    TIMEOUT_FLAG | (epoch << 32) | u64::from(req_id)
}

/// How the manager's *initial* discovery runs.
#[derive(Clone, Debug, Default)]
pub enum DiscoveryMode {
    /// Full cold discovery — the paper's flow.
    #[default]
    Cold,
    /// Warm start from a cached topology snapshot: one targeted
    /// verification probe per known device, escalating to a scoped
    /// re-discovery around mismatches and to a full cold run when the
    /// snapshot is too wrong (see `FmConfig::warm_fallback_threshold`).
    WarmStart(Box<Snapshot>),
}

/// Fabric-manager configuration.
///
/// Construct with [`FmConfig::new`] and refine with the `with_*`
/// builder methods; the struct is `#[non_exhaustive]`, so new knobs can
/// be added without breaking callers. Fields stay public for reading
/// and in-place mutation by the caller; the agent treats its copy as
/// input and never writes to it.
///
/// ```
/// use asi_core::{Algorithm, FmConfig, RetryPolicy};
/// use asi_sim::SimDuration;
///
/// let cfg = FmConfig::new(Algorithm::Parallel)
///     .with_request_timeout(SimDuration::from_ms(2))
///     .with_retry(RetryPolicy::exponential(4))
///     .with_auto_rediscover(false);
/// assert_eq!(cfg.request_timeout, SimDuration::from_ms(2));
/// assert!(!cfg.auto_rediscover);
/// ```
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct FmConfig {
    /// Discovery algorithm to run.
    pub algorithm: Algorithm,
    /// Per-packet processing-time model.
    pub timing: FmTiming,
    /// Turn-pool capacity for computed routes.
    pub pool_capacity: u16,
    /// Base timeout for a request's *first* attempt; the retry policy
    /// derives every later attempt's timeout from it.
    pub request_timeout: SimDuration,
    /// Re-discover automatically when PI-5 events arrive.
    pub auto_rediscover: bool,
    /// Use partial (affected-region) assimilation instead of the paper's
    /// full re-discovery.
    pub partial_assimilation: bool,
    /// When (and for how long) timed-out requests are re-issued. The
    /// default never retries — the paper's loss-free assumption.
    pub retry: RetryPolicy,
    /// Distributed discovery: peers and our election priority. The
    /// manager takes its role from the PI-9 election and partitions the
    /// fabric by ownership claims; kick it with [`TOKEN_START_ELECTION`].
    pub distributed_config: Option<DistributedConfig>,
    /// Distribute per-endpoint route tables after every discovery
    /// (the paper's path-distribution future-work item).
    pub distribute_paths: bool,
    /// Observability sink shared with the discovery engine. Disabled by
    /// default; see `asi_sim::trace` and `docs/TRACE_FORMAT.md`.
    pub trace: TraceHandle,
    /// How the initial discovery runs (cold, or warm from a snapshot).
    pub mode: DiscoveryMode,
    /// A run falls back to a full cold discovery when the devices a
    /// verifying phase (warm start, PI-5 storm) could not confirm
    /// outnumber this fraction of the database it verified, host
    /// included (default 0.25).
    pub warm_fallback_threshold: f64,
    /// Partial assimilation only: when the coalesced backlog holds more
    /// than this many distinct `(reporter, port)` net changes, the
    /// partial run's region also verifies every device of the database
    /// (a storm); at most that many, it only re-reads and probes: 8, and
    /// 0 in the tests that storm on any change.
    pub(crate) storm_threshold: usize,
}

impl FmConfig {
    /// Defaults matching the paper's primary setup for `algorithm`.
    pub fn new(algorithm: Algorithm) -> FmConfig {
        FmConfig {
            algorithm,
            timing: FmTiming::default(),
            pool_capacity: asi_proto::MAX_POOL_BITS,
            request_timeout: SimDuration::from_ms(5),
            auto_rediscover: true,
            partial_assimilation: false,
            retry: RetryPolicy::default(),
            distributed_config: None,
            distribute_paths: false,
            trace: TraceHandle::disabled(),
            mode: DiscoveryMode::Cold,
            warm_fallback_threshold: 0.25,
            storm_threshold: 8,
        }
    }

    /// Makes the initial discovery a warm start from `snapshot`.
    pub fn with_warm_start(mut self, snapshot: Snapshot) -> FmConfig {
        self.mode = DiscoveryMode::WarmStart(Box::new(snapshot));
        self
    }

    /// Sets the warm-start fallback threshold (fraction of snapshot
    /// devices that may fail verification before the snapshot is
    /// abandoned for a full cold discovery).
    pub fn with_warm_fallback_threshold(mut self, fraction: f64) -> FmConfig {
        self.warm_fallback_threshold = fraction;
        self
    }

    /// Configures distributed discovery: the manager learns its role
    /// (primary, collaborator, or watching secondary) from a PI-9 claim
    /// exchange and partitions the fabric by ownership claims; arm
    /// [`TOKEN_START_ELECTION`] to run.
    pub fn with_distributed_config(mut self, config: DistributedConfig) -> FmConfig {
        self.distributed_config = Some(config);
        self
    }

    /// Sets the per-packet processing-time model.
    pub fn with_timing(mut self, timing: FmTiming) -> FmConfig {
        self.timing = timing;
        self
    }

    /// Sets the base timeout for a request's first attempt.
    pub fn with_request_timeout(mut self, timeout: SimDuration) -> FmConfig {
        self.request_timeout = timeout;
        self
    }

    /// Sets the retry/backoff policy for timed-out requests.
    pub fn with_retry(mut self, retry: RetryPolicy) -> FmConfig {
        self.retry = retry;
        self
    }

    /// Enables or disables automatic re-discovery on PI-5 events.
    pub fn with_auto_rediscover(mut self, on: bool) -> FmConfig {
        self.auto_rediscover = on;
        self
    }

    /// Enables partial (affected-region) assimilation.
    pub fn with_partial_assimilation(mut self, on: bool) -> FmConfig {
        self.partial_assimilation = on;
        self
    }

    /// Attaches a trace sink to the manager.
    pub fn with_trace(mut self, trace: TraceHandle) -> FmConfig {
        self.trace = trace;
        self
    }
}

/// The fabric manager. `cfg` is input; what the manager learns or decides
/// at run time is state: the run phase (`engine` + `acc`), the ensemble
/// `role` and its `watch`, the manager's own `requests` in flight and the
/// `reporting` routes written.
pub struct FmAgent {
    cfg: FmConfig,
    engine: Option<Engine>,
    /// The requests the engine wants sent: it fills the buffer,
    /// [`FmAgent::dispatch`] drains it and keeps it for the next call.
    outbox: Vec<OutRequest>,
    acc: Option<RunAcc>,
    runs: Vec<DiscoveryRun>,
    db: Option<TopologyDb>,
    restart_pending: bool,
    /// PI-5 events waiting for partial assimilation.
    partial_backlog: Vec<Pi5>,
    pi5_seen: HashMap<u64, u32>,
    /// PI-5 events accepted (deduplicated).
    pub pi5_events: u64,
    /// Bumped per engine launch; stamps request timeouts.
    epoch: u64,
    role: Role,
    /// The watch on the primary, while this manager is its standby.
    watch: Option<Watch>,
    /// Merge-side state (primary of a distributed discovery).
    pub merge: MergeState,
    requests: Requests,
    /// `None` until [`TOKEN_CONFIGURE_PI5`] arms it.
    reporting: Option<Box<Reporting>>,
    /// Completed path-distribution phases.
    pub distributions: Vec<DistributionRun>,
    /// Rival manager DSNs observed via ownership claims across all runs.
    pub rivals: BTreeSet<u64>,
    /// Multicast groups awaiting configuration.
    mcast_queue: Vec<(u16, Vec<u64>)>,
    /// Groups whose table writes have all been acknowledged.
    pub mcast_configured: Vec<u16>,
    /// Multicast-table writes that failed or were rejected at planning.
    pub mcast_failures: u64,
    /// Occupancy of the most recent packet (for busy/idle trace spans).
    last_processing: SimDuration,
    /// Instant the FM last finished processing a packet.
    busy_until: SimTime,
}

/// Sends one PI-4 request along `pool`; returns its wire size.
fn send_pi4(ctx: &mut AgentCtx, egress: u8, pool: TurnPool, request: Pi4) -> u64 {
    let header = RouteHeader::forward(ProtocolInterface::DeviceManagement, MANAGEMENT_TC, pool);
    let packet = Packet::new(header, Payload::Pi4(request));
    let bytes = packet.wire_size() as u64;
    ctx.send(egress, packet);
    bytes
}

impl FmAgent {
    /// Creates an idle manager; arm [`TOKEN_START_DISCOVERY`] to begin.
    pub fn new(cfg: FmConfig) -> FmAgent {
        FmAgent {
            engine: None,
            outbox: Vec::new(),
            acc: None,
            runs: Vec::new(),
            db: None,
            restart_pending: false,
            partial_backlog: Vec::new(),
            pi5_seen: HashMap::new(),
            pi5_events: 0,
            epoch: 0,
            role: Role::Solo,
            watch: None,
            merge: MergeState::default(),
            requests: Requests::default(),
            reporting: None,
            distributions: Vec::new(),
            rivals: BTreeSet::new(),
            mcast_queue: Vec::new(),
            mcast_configured: Vec::new(),
            mcast_failures: 0,
            last_processing: SimDuration::ZERO,
            busy_until: SimTime::ZERO,
            cfg,
        }
    }

    /// The latest completed topology database.
    pub fn db(&self) -> Option<&TopologyDb> {
        self.db.as_ref()
    }

    /// The most recent completed run.
    pub fn last_run(&self) -> Option<&DiscoveryRun> {
        self.runs.last()
    }

    /// Every completed run, in order.
    pub fn runs(&self) -> &[DiscoveryRun] {
        &self.runs
    }

    /// True while a discovery is in flight.
    pub fn discovering(&self) -> bool {
        self.engine.is_some()
    }

    /// Mid-discovery progress: `(devices known so far, requests in
    /// flight)` while a discovery is running, `None` between runs.
    pub fn discovery_progress(&self) -> Option<(usize, usize)> {
        self.engine
            .as_ref()
            .map(|e| (e.db.device_count(), e.outstanding()))
    }

    /// The manager's configuration, exactly as passed to [`FmAgent::new`].
    pub fn config(&self) -> &FmConfig {
        &self.cfg
    }

    fn engine_cfg(&self) -> EngineConfig {
        EngineConfig {
            algorithm: self.cfg.algorithm,
            pool_capacity: self.cfg.pool_capacity,
            claim_partitioning: self.cfg.distributed_config.is_some() && !self.promoted(),
            retry: self.cfg.retry,
            base_timeout: self.cfg.request_timeout,
        }
    }

    fn on_pi4(&mut self, ctx: &mut AgentCtx, packet: &Packet, pi4: &Pi4) {
        if let Some(acc) = self.acc.as_mut() {
            acc.bytes_received += packet.wire_size() as u64;
        }
        if pi4.req_id() >= OWN_REQ_BASE {
            let ok = !matches!(pi4, Pi4::ReadError { .. });
            return self.complete_own(ctx, pi4.req_id(), ok);
        }
        let Some(engine) = self.engine.as_mut() else {
            return; // completion for an abandoned run
        };
        engine.set_trace_time(ctx.now);
        // The request leaves the pending table: its timeout with it.
        if engine.is_pending(pi4.req_id()) {
            ctx.cancel_timer(timeout_token(self.epoch, pi4.req_id()));
        }
        let out = &mut self.outbox;
        match pi4 {
            Pi4::ReadCompletion { req_id, data } => {
                engine.handle_completion(*req_id, Ok(data), out)
            }
            Pi4::ReadError { req_id, status } => {
                engine.handle_completion(*req_id, Err(*status), out)
            }
            Pi4::WriteCompletion { req_id } => engine.handle_completion(*req_id, Ok(&[]), out),
            // Requests are serviced by the fabric's device responder, not
            // the manager.
            Pi4::ReadRequest { .. } | Pi4::WriteRequest { .. } => {}
        }
        self.dispatch(ctx);
        self.maybe_finish(ctx);
    }
}

impl FabricAgent for FmAgent {
    fn processing_time(&mut self, packet: &Packet) -> SimDuration {
        let t = match &packet.payload {
            Payload::Pi4(_) => {
                let known = self
                    .engine
                    .as_ref()
                    .map(|e| e.db.device_count())
                    .or_else(|| self.db.as_ref().map(TopologyDb::device_count))
                    .unwrap_or(0);
                self.cfg.timing.pi4_time(self.cfg.algorithm, known)
            }
            Payload::Pi5(_) => self.cfg.timing.pi5_time(),
            Payload::Fm(_) => self.cfg.timing.merge_time(),
            Payload::Mcast { .. } | Payload::Data { .. } => SimDuration::from_ns(100),
        };
        if let Some(acc) = self.acc.as_mut() {
            acc.fm_busy += t;
        }
        self.last_processing = t;
        t
    }

    fn on_packet(&mut self, ctx: &mut AgentCtx, packet: Packet) {
        // Busy/idle spans: the fabric calls `on_packet` when the
        // per-packet occupancy ends, so `[now - last_processing, now]`
        // was busy and any gap back to the previous completion was idle.
        if self.cfg.trace.is_enabled() {
            let busy = self.last_processing;
            let started = SimTime::from_ps(ctx.now.as_ps().saturating_sub(busy.as_ps()));
            if started > self.busy_until {
                let idle = started.saturating_since(self.busy_until);
                self.cfg.trace.emit(started, || TraceEvent::FmIdle { idle });
            }
            self.cfg.trace.emit(ctx.now, || TraceEvent::FmBusy { busy });
            self.busy_until = ctx.now;
        }
        match packet.payload {
            Payload::Pi4(ref pi4) => self.on_pi4(ctx, &packet, pi4),
            Payload::Pi5(event) => self.on_pi5(ctx, event),
            Payload::Fm(msg) => self.on_fm_message(ctx, msg),
            Payload::Mcast { .. } | Payload::Data { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx, token: u64) {
        match token {
            TOKEN_START_DISCOVERY => self.begin_initial(ctx),
            // A no-op unless this manager holds a watch.
            TOKEN_START_STANDBY => self.send_keepalive(ctx),
            TOKEN_KEEPALIVE_CHECK => self.on_keepalive_check(ctx),
            TOKEN_CONFIGURE_MCAST => self.flush_mcast(ctx),
            TOKEN_CONFIGURE_PI5 => self.configure_pi5(ctx),
            TOKEN_START_ELECTION => self.start_election(ctx),
            TOKEN_ELECTION_DECIDE => self.decide_election(ctx),
            _ if token & TIMEOUT_FLAG != 0 => {
                let (epoch, req_id) = ((token >> 32) & 0x3FFF_FFFF, token as u32);
                // The own table's timeouts outlive re-discoveries; an
                // engine request's is void once a later engine launched.
                if req_id >= OWN_REQ_BASE {
                    return self.complete_own(ctx, req_id, false);
                }
                if epoch != self.epoch {
                    return;
                }
                if let Some(engine) = self.engine.as_mut() {
                    if engine.is_pending(req_id) {
                        engine.set_trace_time(ctx.now);
                        engine.handle_timeout(req_id, &mut self.outbox);
                        self.dispatch(ctx);
                        self.maybe_finish(ctx);
                    }
                }
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::REQUEST_WINDOW;
    use crate::metrics::DiscoveryTrigger;
    use asi_fabric::DevId;
    use asi_proto::{DeviceType, FmMessage, PortEvent, TurnPool};
    use asi_sim::SimTime;

    fn ctx() -> AgentCtx {
        AgentCtx::detached(SimTime::from_us(100), DevId(0))
    }

    fn pi5(reporter: u64, seq: u32) -> Pi5 {
        Pi5 {
            reporter_dsn: reporter,
            port: 0,
            event: PortEvent::PortDown,
            sequence: seq,
        }
    }

    #[test]
    fn pi5_duplicates_and_stale_sequences_are_dropped() {
        let mut cfg = FmConfig::new(Algorithm::Parallel);
        cfg.auto_rediscover = false;
        let mut fm = FmAgent::new(cfg);
        let mut c = ctx();
        fm.on_pi5(&mut c, pi5(9, 1));
        fm.on_pi5(&mut c, pi5(9, 1)); // duplicate
        fm.on_pi5(&mut c, pi5(9, 1)); // duplicate
        fm.on_pi5(&mut c, pi5(9, 2)); // fresh
        fm.on_pi5(&mut c, pi5(8, 1)); // different reporter
        assert_eq!(fm.pi5_events, 3);
    }

    #[test]
    fn pi5_sequence_survives_u32_wraparound() {
        let mut cfg = FmConfig::new(Algorithm::Parallel);
        cfg.auto_rediscover = false;
        let mut fm = FmAgent::new(cfg);
        let mut c = ctx();
        fm.on_pi5(&mut c, pi5(9, u32::MAX - 1));
        fm.on_pi5(&mut c, pi5(9, u32::MAX));
        // The reporter's counter wraps: 0 then 1 are *newer* than
        // u32::MAX in RFC-1982 serial order and must be accepted.
        fm.on_pi5(&mut c, pi5(9, 0));
        fm.on_pi5(&mut c, pi5(9, 1));
        // A genuinely stale replay from before the wrap stays dropped.
        fm.on_pi5(&mut c, pi5(9, u32::MAX));
        assert_eq!(fm.pi5_events, 4);
    }

    #[test]
    fn readded_reporter_restarts_its_sequence_after_leaving_the_db() {
        let mut cfg = FmConfig::new(Algorithm::Parallel);
        cfg.auto_rediscover = false;
        let mut fm = FmAgent::new(cfg);
        let mut c = ctx();
        // Run 1: the (trivial) database holds only the host.
        fm.on_timer(&mut c, TOKEN_START_DISCOVERY);
        fm.on_pi5(&mut c, pi5(9, 5));
        assert_eq!(fm.pi5_events, 1);
        // Run 2 finishes without reporter 9 in the database: its
        // high-water mark must be dropped, not kept forever.
        fm.on_timer(&mut c, TOKEN_START_DISCOVERY);
        assert!(
            !fm.pi5_seen.contains_key(&9),
            "marks of reporters outside the database are cleared"
        );
        // The device re-added at the same DSN restarts at sequence 1;
        // with a stale mark of 5 this event would be silently dropped.
        fm.on_pi5(&mut c, pi5(9, 1));
        assert_eq!(fm.pi5_events, 2);
    }

    /// Records device `dsn`, entered through `entry_port` after `hops`
    /// switch hops.
    fn insert(
        db: &mut TopologyDb,
        dsn: u64,
        kind: DeviceType,
        ports: u16,
        entry_port: u8,
        hops: u16,
    ) {
        let info = asi_proto::DeviceInfo {
            device_type: kind,
            dsn,
            port_count: ports,
            max_packet_size: 2048,
            fm_capable: dsn == 0,
            fm_priority: 0,
        };
        let route = crate::db::DeviceRoute {
            egress: 0,
            pool: TurnPool::with_capacity(64),
            entry_port,
            hops,
        };
        db.insert_device(info, route);
    }

    /// Baseline database for the partial-assimilation tests: host
    /// endpoint 0 linked to 4-port switch 7 via switch port 2, with
    /// switch port 1 active but unexplored (a hot-added neighbour).
    fn seeded_db() -> TopologyDb {
        use asi_proto::{PortInfo, PortState};
        let mut db = TopologyDb::new(0);
        insert(&mut db, 0, DeviceType::Endpoint, 1, 0, 0);
        insert(&mut db, 7, DeviceType::Switch, 4, 2, 1);
        db.add_link((0, 0), (7, 2));
        for p in 0..4 {
            let info = if p == 1 || p == 2 {
                PortInfo {
                    state: PortState::Active,
                    link_width: 1,
                    link_speed: 10,
                    peer_port: 0,
                }
            } else {
                PortInfo::default()
            };
            db.set_port(7, p, info);
        }
        db
    }

    /// Sends carrying a PI-4 read, general-information (the packet shape
    /// of a discovery probe and of a verification read) or not (a
    /// port-block read).
    fn reads(commands: &[asi_fabric::AgentCommand], general: bool) -> usize {
        let (general_addr, _) = asi_proto::config::general_info_read();
        commands
            .iter()
            .filter(|cmd| {
                matches!(cmd, asi_fabric::AgentCommand::Send { packet, .. }
                    if matches!(&packet.payload,
                        Payload::Pi4(Pi4::ReadRequest { addr, .. })
                            if (*addr == general_addr) == general))
            })
            .count()
    }

    #[test]
    fn partial_port_up_probes_through_the_reported_port() {
        let mut cfg = FmConfig::new(Algorithm::Parallel);
        cfg.partial_assimilation = true;
        let mut fm = FmAgent::new(cfg);
        let mut c = ctx();
        fm.db = Some(seeded_db());
        fm.on_pi5(
            &mut c,
            Pi5 {
                reporter_dsn: 7,
                port: 1,
                event: PortEvent::PortUp,
                sequence: 1,
            },
        );
        assert!(fm.discovering(), "a partial run started");
        // The scoped run re-reads the reporter's port blocks *and*
        // probes straight through the reported port — without the
        // probe-via seed, whatever sits behind port 1 is only found if
        // the re-read happens to escalate.
        let commands = c.take_commands();
        assert_eq!(
            reads(&commands, true),
            1,
            "the reported port-up is probed directly"
        );
    }

    /// The kinds of the trace records a manager emits.
    #[derive(Default)]
    struct Kinds(Vec<&'static str>);

    impl asi_sim::TraceSink for Kinds {
        fn record(&mut self, record: asi_sim::TraceRecord) {
            self.0.push(record.event.kind());
        }
    }

    /// A partial-assimilation manager on which any coalesced change is a
    /// storm, and the kinds it traces.
    fn storming() -> (FmAgent, std::rc::Rc<std::cell::RefCell<Kinds>>) {
        let kinds = std::rc::Rc::new(std::cell::RefCell::new(Kinds::default()));
        let mut cfg = FmConfig::new(Algorithm::Parallel).with_trace(TraceHandle::to(kinds.clone()));
        cfg.partial_assimilation = true;
        cfg.storm_threshold = 0;
        (FmAgent::new(cfg), kinds)
    }

    /// The storm was escalated once, to a verification of a `devices`
    /// database.
    fn assert_storm(fm: &FmAgent, kinds: &std::cell::RefCell<Kinds>, devices: usize) {
        let escalated = kinds
            .borrow()
            .0
            .iter()
            .filter(|&&k| k == "pi5-storm-escalated")
            .count();
        assert_eq!(escalated, 1);
        let engine = fm.engine.as_ref().expect("run in flight");
        assert_eq!(engine.reconciled_devices(), devices);
    }

    #[test]
    fn pi5_storm_escalates_to_one_verification_pass() {
        let (mut fm, kinds) = storming();
        let mut c = ctx();
        fm.db = Some(seeded_db());
        fm.on_pi5(
            &mut c,
            Pi5 {
                reporter_dsn: 7,
                port: 1,
                event: PortEvent::PortUp,
                sequence: 1,
            },
        );
        assert!(fm.discovering());
        assert_storm(&fm, &kinds, 2);
        // One verify read for switch 7 plus one probe through its
        // reported port; a scoped run would issue the probe alone.
        assert_eq!(reads(&c.take_commands(), true), 2);
    }

    /// A storm also probes through every active port the database holds
    /// no link for, reported or not: there a device was forgotten after
    /// a lost request, or a port-up report was lost.
    #[test]
    fn pi5_storm_probes_an_active_port_without_a_link() {
        let (mut fm, kinds) = storming();
        let mut c = ctx();
        fm.db = Some(seeded_db());
        // Switch 7 reports its idle port 3; its port 1 is active, with
        // no link and no report.
        fm.on_pi5(
            &mut c,
            Pi5 {
                reporter_dsn: 7,
                port: 3,
                event: PortEvent::PortDown,
                sequence: 1,
            },
        );
        assert_storm(&fm, &kinds, 2);
        // One verify read for switch 7 and one probe through its port 1.
        assert_eq!(reads(&c.take_commands(), true), 2);
    }

    #[test]
    fn pi5_storm_rereads_a_live_neighbour_of_a_forgotten_device() {
        let (mut fm, kinds) = storming();
        let mut c = ctx();
        // Switch 8 hangs off switch 7's port 3. The device behind 8's
        // port 1 was forgotten when its reads timed out, so the
        // database records no link there, and 8 now reports that port.
        let mut db = seeded_db();
        insert(&mut db, 8, DeviceType::Switch, 4, 0, 2);
        db.add_link((7, 3), (8, 0));
        fm.db = Some(db);
        fm.on_pi5(
            &mut c,
            Pi5 {
                reporter_dsn: 8,
                port: 1,
                event: PortEvent::PortDown,
                sequence: 1,
            },
        );
        assert_storm(&fm, &kinds, 3);
        // One verify read each for switches 7 and 8, one probe through
        // 7's unlinked port 1, and the reporter's port blocks re-read:
        // only they show what its ports now carry.
        let commands = c.take_commands();
        assert_eq!(reads(&commands, true), 3);
        let blocks = asi_proto::config::port_info_reads(4).count();
        assert_eq!(
            reads(&commands, false),
            blocks,
            "switch 8's port blocks are re-read"
        );
    }

    #[test]
    fn pi5_without_auto_rediscover_never_starts_a_run() {
        let mut cfg = FmConfig::new(Algorithm::Parallel);
        cfg.auto_rediscover = false;
        let mut fm = FmAgent::new(cfg);
        let mut c = ctx();
        fm.on_pi5(&mut c, pi5(9, 1));
        assert!(!fm.discovering());
        assert!(c.take_commands().is_empty());
    }

    #[test]
    fn start_token_begins_discovery_from_host_ports() {
        let mut fm = FmAgent::new(FmConfig::new(Algorithm::Parallel));
        let mut c = ctx();
        // The detached host has one down port: discovery completes with
        // just the host in the database.
        fm.on_timer(&mut c, TOKEN_START_DISCOVERY);
        assert!(!fm.discovering(), "no active ports: run finishes at once");
        assert_eq!(fm.runs.len(), 1);
        assert_eq!(fm.runs[0].devices_found, 1);
        assert_eq!(fm.runs[0].trigger, DiscoveryTrigger::Initial);
    }

    #[test]
    fn unknown_timer_tokens_are_ignored() {
        let mut fm = FmAgent::new(FmConfig::new(Algorithm::SerialPacket));
        let mut c = ctx();
        fm.on_timer(&mut c, 0xDEAD);
        assert!(c.take_commands().is_empty());
        assert!(fm.runs.is_empty());
    }

    #[test]
    fn stale_epoch_timeouts_are_ignored() {
        let mut fm = FmAgent::new(FmConfig::new(Algorithm::Parallel));
        let mut c = ctx();
        fm.on_timer(&mut c, TOKEN_START_DISCOVERY); // epoch 1, finishes
        let _ = c.take_commands();
        // A timeout stamped with epoch 0 must be discarded silently.
        fm.on_timer(&mut c, TIMEOUT_FLAG | /* epoch 0 */ 7);
        assert!(c.take_commands().is_empty());
    }

    #[test]
    fn processing_time_matches_payload_kind() {
        let mut fm = FmAgent::new(FmConfig::new(Algorithm::SerialPacket));
        let hdr = RouteHeader::forward(
            ProtocolInterface::DeviceManagement,
            MANAGEMENT_TC,
            TurnPool::new_spec(),
        );
        let pi4_pkt = Packet::new(
            hdr.clone(),
            Payload::Pi4(Pi4::WriteCompletion { req_id: 1 }),
        );
        let pi5_pkt = Packet::new(hdr.clone(), Payload::Pi5(pi5(1, 1)));
        let data_pkt = Packet::new(hdr, Payload::Data { len: 9 });
        let t4 = fm.processing_time(&pi4_pkt);
        let t5 = fm.processing_time(&pi5_pkt);
        let td = fm.processing_time(&data_pkt);
        assert_eq!(t4, fm.cfg.timing.pi4_time(Algorithm::SerialPacket, 0));
        assert_eq!(t5, fm.cfg.timing.pi5_time());
        assert_eq!(td, SimDuration::from_ns(100));
        assert!(t4 > t5 && t5 > td);
    }

    #[test]
    fn queue_multicast_waits_for_a_database() {
        let mut fm = FmAgent::new(FmConfig::new(Algorithm::Parallel));
        fm.queue_multicast(1, vec![1, 2]);
        assert!(!fm.mcast_settled());
        let mut c = ctx();
        // No database yet: flush is a no-op that keeps the queue.
        fm.on_timer(&mut c, TOKEN_CONFIGURE_MCAST);
        assert!(!fm.mcast_settled());
        // After a (trivial) discovery, flushing plans and fails the group
        // (members unknown in a 1-device database) rather than hanging.
        fm.on_timer(&mut c, TOKEN_START_DISCOVERY);
        fm.on_timer(&mut c, TOKEN_CONFIGURE_MCAST);
        assert!(fm.mcast_settled());
        assert_eq!(fm.mcast_failures, 1);
    }

    /// Side-write timeouts carry no epoch: a re-discovery that starts
    /// while table writes are in flight must not orphan their timers,
    /// and a group whose writes failed is not listed as configured.
    #[test]
    fn lost_mcast_writes_time_out_across_a_rediscovery() {
        let mut db = seeded_db();
        insert(&mut db, 9, DeviceType::Endpoint, 1, 0, 2);
        db.add_link((7, 3), (9, 0));
        let mut fm = FmAgent::new(FmConfig::new(Algorithm::Parallel));
        fm.db = Some(db);
        fm.queue_multicast(1, vec![0, 9]);
        let mut c = ctx();
        fm.on_timer(&mut c, TOKEN_CONFIGURE_MCAST);
        let writes = c.take_commands();
        assert!(fm.mcast_configured.is_empty(), "nothing acknowledged yet");
        // A PI-5 starts a re-discovery (fresh epoch); the writes to switch
        // 7 and endpoint 9 are both lost.
        fm.on_pi5(&mut c, pi5(7, 1));
        for cmd in writes {
            if let asi_fabric::AgentCommand::Timer { token, .. } = cmd {
                fm.on_timer(&mut c, token);
            }
        }
        assert!(fm.mcast_settled(), "the lost writes timed out");
        assert_eq!(fm.mcast_failures, 2);
        assert!(fm.mcast_configured.is_empty(), "a failed group is not");
    }

    /// An acknowledged side write leaves its batch, and its timeout is
    /// cancelled under the token it was armed with.
    #[test]
    fn acknowledged_mcast_writes_cancel_their_timeouts() {
        let mut db = seeded_db();
        insert(&mut db, 9, DeviceType::Endpoint, 1, 0, 2);
        db.add_link((7, 3), (9, 0));
        let mut fm = FmAgent::new(FmConfig::new(Algorithm::Parallel));
        fm.db = Some(db);
        fm.queue_multicast(1, vec![0, 9]);
        let mut c = ctx();
        fm.on_timer(&mut c, TOKEN_CONFIGURE_MCAST);
        let (mut armed, mut writes) = (Vec::new(), Vec::new());
        for cmd in c.take_commands() {
            match cmd {
                asi_fabric::AgentCommand::Timer { token, .. } => armed.push(token),
                asi_fabric::AgentCommand::Send { packet, .. } => {
                    if let Payload::Pi4(Pi4::WriteRequest { req_id, .. }) = packet.payload {
                        writes.push(req_id);
                    }
                }
                asi_fabric::AgentCommand::CancelTimer { .. } => {}
            }
        }
        assert_eq!(writes.len(), 2);
        for req_id in writes {
            fm.complete_own(&mut c, req_id, true);
        }
        let cancelled = c.take_commands().into_iter().filter_map(|cmd| match cmd {
            asi_fabric::AgentCommand::CancelTimer { token } => Some(token),
            _ => None,
        });
        assert_eq!(cancelled.collect::<Vec<_>>(), armed);
        assert_eq!(fm.mcast_configured, [1]);
    }

    /// The reporting-route writes `commands` send, `(req_id, addr,
    /// words)`, and the timeout token each armed.
    fn route_writes(
        commands: Vec<asi_fabric::AgentCommand>,
    ) -> Vec<(u32, asi_proto::CapabilityAddr, asi_proto::Dwords)> {
        let mut writes = Vec::new();
        for cmd in commands {
            if let asi_fabric::AgentCommand::Send { packet, .. } = cmd {
                if let Payload::Pi4(Pi4::WriteRequest { req_id, addr, data }) = packet.payload {
                    assert_eq!(addr.capability, asi_proto::CAP_EVENT_ROUTE);
                    writes.push((req_id, addr, data));
                }
            }
        }
        writes
    }

    /// The egress port a reporting-route write's header names.
    fn egress(data: &[u32]) -> u8 {
        asi_proto::config::event_route_from_words(data).unwrap().0
    }

    /// Host 0, switch 7 and endpoint 9 behind 7's port 3: the database
    /// the reporting-route tests configure.
    fn reporting_db() -> TopologyDb {
        let mut db = seeded_db();
        insert(&mut db, 9, DeviceType::Endpoint, 1, 0, 2);
        db.add_link((7, 3), (9, 0));
        db
    }

    /// Acknowledges, or with `ok` false times out, every write in `writes`.
    fn drain(
        fm: &mut FmAgent,
        c: &mut AgentCtx,
        writes: &[(u32, asi_proto::CapabilityAddr, asi_proto::Dwords)],
        ok: bool,
    ) {
        for (req_id, ..) in writes {
            match ok {
                true => fm.complete_own(c, *req_id, true),
                false => fm.on_timer(c, timeout_token(0, *req_id)),
            }
        }
    }

    /// Armed, the manager writes every device's route; re-armed, only
    /// the one whose write timed out; then nothing. A run whose
    /// database lost the devices forgets their routes, so they are
    /// written afresh when they return.
    #[test]
    fn reporting_routes_are_written_once_and_retried_after_a_failure() {
        let db = reporting_db();
        let mut fm = FmAgent::new(FmConfig::new(Algorithm::Parallel));
        fm.db = Some(db.clone());
        let mut c = ctx();
        assert!(fm.pi5_routes_settled() && fm.pi5_routes_configured_at().is_none());
        fm.on_timer(&mut c, TOKEN_CONFIGURE_PI5);
        let writes = route_writes(c.take_commands());
        // Switch 7 reports out of its port 2, to the host; endpoint 9
        // out of its only port, through 7.
        let mut egresses: Vec<u8> = writes.iter().map(|(.., data)| egress(data)).collect();
        egresses.sort();
        assert_eq!(egresses, [0, 2]);
        assert!(!fm.pi5_routes_settled());
        // 7 acknowledges; 9's write is lost and times out, and the
        // paper's retry policy allows no second attempt.
        let (to_7, to_9): (Vec<_>, Vec<_>) = writes.into_iter().partition(|w| egress(&w.2) == 2);
        drain(&mut fm, &mut c, &to_7, true);
        drain(&mut fm, &mut c, &to_9, false);
        assert!(route_writes(c.take_commands()).is_empty());
        assert!(fm.pi5_routes_settled());
        assert_eq!(fm.pi5_routes_configured_at(), Some(c.now));
        assert_eq!(fm.pi5_route_failures(), 1);
        fm.on_timer(&mut c, TOKEN_CONFIGURE_PI5);
        let retry = route_writes(c.take_commands());
        assert_eq!(retry.len(), 1);
        assert_eq!(egress(&retry[0].2), 0, "only endpoint 9 again");
        drain(&mut fm, &mut c, &retry, true);
        fm.on_timer(&mut c, TOKEN_CONFIGURE_PI5);
        assert!(route_writes(c.take_commands()).is_empty());
        // A (trivial) run finds only the host: nothing to write, and the
        // routes of 7 and 9 are forgotten.
        fm.on_timer(&mut c, TOKEN_START_DISCOVERY);
        assert!(route_writes(c.take_commands()).is_empty());
        fm.db = Some(db);
        fm.on_timer(&mut c, TOKEN_CONFIGURE_PI5);
        assert_eq!(route_writes(c.take_commands()).len(), 2);
    }

    /// Under a retry policy a lost write goes again, with the policy's
    /// timeout, until the budget is spent; then it counts as failed.
    #[test]
    fn a_lost_reporting_write_is_retried_under_the_retry_policy() {
        let cfg = FmConfig::new(Algorithm::Parallel).with_retry(RetryPolicy::fixed(2));
        let mut fm = FmAgent::new(cfg);
        fm.db = Some(reporting_db());
        let mut c = ctx();
        fm.on_timer(&mut c, TOKEN_CONFIGURE_PI5);
        let writes = route_writes(c.take_commands());
        let (to_7, mut to_9): (Vec<_>, Vec<_>) =
            writes.into_iter().partition(|w| egress(&w.2) == 2);
        drain(&mut fm, &mut c, &to_7, true);
        for _ in 0..2 {
            drain(&mut fm, &mut c, &to_9, false);
            let again = route_writes(c.take_commands());
            assert_eq!(again.len(), 1);
            assert_eq!(again[0].2, to_9[0].2, "the same route");
            assert!(!fm.pi5_routes_settled());
            to_9 = again;
        }
        drain(&mut fm, &mut c, &to_9, false);
        assert!(route_writes(c.take_commands()).is_empty());
        assert!(fm.pi5_routes_settled());
        assert_eq!(fm.pi5_route_failures(), 1);
    }

    /// Two walks back to back, the second over a database in which
    /// endpoint 9 moved to switch 7's port 0, before any write is
    /// acknowledged: 7's unchanged one-write route goes again beside
    /// the first copy, but 9's new route waits for its old one to drain
    /// and only then goes, so the two can never land out of order.
    #[test]
    fn a_changed_route_waits_for_the_write_in_flight() {
        let mut fm = FmAgent::new(FmConfig::new(Algorithm::Parallel));
        let mut db = reporting_db();
        fm.db = Some(db.clone());
        let mut c = ctx();
        fm.on_timer(&mut c, TOKEN_CONFIGURE_PI5);
        let first = route_writes(c.take_commands());
        assert_eq!(first.len(), 2);
        db.remove_link((7, 3), (9, 0));
        db.add_link((7, 0), (9, 0));
        fm.db = Some(db);
        fm.on_timer(&mut c, TOKEN_CONFIGURE_PI5);
        let second = route_writes(c.take_commands());
        assert_eq!(second.len(), 1);
        assert_eq!(egress(&second[0].2), 2, "switch 7's route again");
        let (to_7, to_9): (Vec<_>, Vec<_>) = first.into_iter().partition(|w| egress(&w.2) == 2);
        drain(&mut fm, &mut c, &to_7, true);
        drain(&mut fm, &mut c, &second, true);
        assert!(route_writes(c.take_commands()).is_empty());
        assert!(!fm.pi5_routes_settled());
        drain(&mut fm, &mut c, &to_9, true);
        let third = route_writes(c.take_commands());
        assert_eq!(third.len(), 1);
        assert_eq!(egress(&third[0].2), 0);
        assert_ne!(third[0].2, to_9[0].2, "9's new route");
        drain(&mut fm, &mut c, &third, true);
        assert!(fm.pi5_routes_settled());
        fm.on_timer(&mut c, TOKEN_CONFIGURE_PI5);
        assert!(route_writes(c.take_commands()).is_empty());
        assert_eq!(fm.pi5_route_failures(), 0);
    }

    /// A route too long for one write goes as its pool words first and
    /// its header only once they are acknowledged: the device never
    /// holds a valid mix of two routes.
    #[test]
    fn a_long_reporting_route_sends_its_header_last() {
        // The host, then a chain of 60 sixteen-port switches: the far
        // end's route to the host turns at 59 switches, 236 bits.
        let mut db = TopologyDb::new(0);
        insert(&mut db, 0, DeviceType::Endpoint, 1, 0, 0);
        for dsn in 1..=60 {
            insert(&mut db, dsn, DeviceType::Switch, 16, 0, dsn as u16 - 1);
            db.add_link((dsn - 1, u8::from(dsn > 1)), (dsn, 0));
        }
        let mut fm = FmAgent::new(FmConfig::new(Algorithm::Parallel));
        fm.db = Some(db);
        let mut c = ctx();
        fm.on_timer(&mut c, TOKEN_CONFIGURE_PI5);
        let first = route_writes(c.take_commands());
        // Switches 58-60 turn at 57-59 switches, over 224 bits: their
        // pool tails go first, the other 57 routes in one write each.
        let (tails, whole): (Vec<_>, Vec<_>) = first.iter().partition(|(_, a, _)| a.offset > 0);
        assert_eq!((tails.len(), whole.len()), (3, 57));
        assert!(tails.iter().all(|(_, a, d)| a.offset == 8 && d.len() == 1));
        for (req_id, ..) in &whole {
            fm.complete_own(&mut c, *req_id, true);
        }
        assert!(route_writes(c.take_commands()).is_empty());
        for (req_id, ..) in &tails {
            fm.complete_own(&mut c, *req_id, true);
        }
        let headers = route_writes(c.take_commands());
        assert_eq!(headers.len(), 3);
        assert!(headers
            .iter()
            .all(|(_, a, d)| a.offset == 0 && d.len() == 8));
        assert!(!fm.pi5_routes_settled());
        for (req_id, ..) in &headers {
            fm.complete_own(&mut c, *req_id, true);
        }
        assert!(fm.pi5_routes_settled());
        fm.on_timer(&mut c, TOKEN_CONFIGURE_PI5);
        assert!(route_writes(c.take_commands()).is_empty());
    }

    /// More devices than [`REQUEST_WINDOW`]: the first configuration
    /// keeps at most a window of writes in flight, each acknowledgement
    /// sends the next waiting one, and the configuration drains once.
    #[test]
    fn reporting_writes_issue_through_the_request_window() {
        // The host, then a tree of sixteen-port switches under switch 1:
        // switch `n` hangs off port `(n - 2) % 15 + 1` of `(n - 2) / 15 + 1`.
        let devices = REQUEST_WINDOW as u64 + 100;
        let mut db = TopologyDb::new(0);
        insert(&mut db, 0, DeviceType::Endpoint, 1, 0, 0);
        insert(&mut db, 1, DeviceType::Switch, 16, 0, 1);
        db.add_link((0, 0), (1, 0));
        let mut hops = vec![0, 1];
        for dsn in 2..devices {
            let parent = (dsn - 2) / 15 + 1;
            hops.push(hops[parent as usize] + 1);
            insert(&mut db, dsn, DeviceType::Switch, 16, 0, hops[dsn as usize]);
            db.add_link((parent, ((dsn - 2) % 15 + 1) as u8), (dsn, 0));
        }
        let mut fm = FmAgent::new(FmConfig::new(Algorithm::Parallel));
        fm.db = Some(db);
        let mut c = ctx();
        fm.on_timer(&mut c, TOKEN_CONFIGURE_PI5);
        let mut in_flight: std::collections::VecDeque<u32> = route_writes(c.take_commands())
            .iter()
            .map(|w| w.0)
            .collect();
        let mut written = in_flight.len();
        assert_eq!(written, REQUEST_WINDOW);
        while let Some(req_id) = in_flight.pop_front() {
            assert!(fm.pi5_routes_configured_at().is_none());
            fm.complete_own(&mut c, req_id, true);
            let sent = route_writes(c.take_commands());
            written += sent.len();
            in_flight.extend(sent.iter().map(|w| w.0));
            assert!(in_flight.len() <= REQUEST_WINDOW);
        }
        assert_eq!(written as u64, devices - 1, "every switch's route");
        assert!(fm.pi5_routes_settled());
        assert_eq!(fm.pi5_routes_configured_at(), Some(c.now));
        assert_eq!(fm.pi5_route_failures(), 0);
    }

    /// One event of a role walk: a timer, [`RIVAL`]'s claim at a
    /// priority, or the answer to the `n`-th request of the manager's
    /// own table (its `n`-th keepalive, in a walk that writes nothing).
    enum Ev {
        Timer(u64),
        Heard(u8),
        Answer(u32),
    }
    use Ev::{Answer, Heard, Timer};
    const RIVAL: u64 = 0xFFFF_0000_0001;

    /// An ensemble of this manager, at `priority`, and [`RIVAL`].
    fn paired(priority: u8) -> DistributedConfig {
        let mut pool = TurnPool::new_spec();
        pool.push_turn(1, 4).unwrap();
        DistributedConfig::new(priority).with_peer(RIVAL, 0, pool)
    }

    /// Drives a manager through `(event, role after it, watch armed after
    /// it)` steps — the role given as a prefix of its `Debug` form — and
    /// checks that no transition wrote to the configuration.
    fn walk_roles(
        c: &mut AgentCtx,
        ensemble: DistributedConfig,
        steps: &[(Ev, &str, bool)],
    ) -> FmAgent {
        let mut fm =
            FmAgent::new(FmConfig::new(Algorithm::Parallel).with_distributed_config(ensemble));
        let input = format!("{:?}", fm.config());
        for (i, (event, role, watching)) in steps.iter().enumerate() {
            match *event {
                Timer(token) => fm.on_timer(c, token),
                Heard(priority) => {
                    let dsn = RIVAL;
                    fm.on_fm_message(c, FmMessage::Claim { dsn, priority });
                }
                Answer(n) => {
                    let req_id = OWN_REQ_BASE + n;
                    let pi4 = Pi4::ReadCompletion {
                        req_id,
                        data: [0; 8][..].into(),
                    };
                    let pool = TurnPool::new_spec();
                    let header = RouteHeader::forward(
                        ProtocolInterface::DeviceManagement,
                        MANAGEMENT_TC,
                        pool,
                    );
                    fm.on_packet(c, Packet::new(header, Payload::Pi4(pi4)));
                }
            }
            let now = format!("{:?}", fm.role);
            assert!(now.starts_with(role), "step {i}: {now}, not {role}");
            assert_eq!(fm.watch.is_some(), *watching, "step {i}");
        }
        assert_eq!(format!("{:?}", fm.config()), input);
        fm
    }

    #[test]
    fn lone_election_elects_self_and_completes_merge() {
        let steps = [
            (Timer(TOKEN_START_ELECTION), "Electing", false), // waits for the window
            (Timer(TOKEN_ELECTION_DECIDE), "Sharded(Primary", false),
        ];
        let fm = walk_roles(&mut ctx(), DistributedConfig::new(5), &steps);
        let result = fm.elected().expect("window closed: resolved");
        assert_eq!(result.primary.dsn, ctx().host_info.dsn);
        assert!(
            fm.merged_at().is_some(),
            "no collaborators: the merge completes with our own run"
        );
        assert_eq!(fm.runs[0].fm_count, 1);
    }

    #[test]
    fn stronger_rival_claim_makes_us_the_watching_secondary() {
        let steps = [
            // The rival's claim lands before our own kickoff: still counted.
            (Heard(9), "Electing", false),
            (Timer(TOKEN_START_ELECTION), "Electing", false),
            // Two claims, we lost: as the runner-up we watch the primary.
            (Timer(TOKEN_ELECTION_DECIDE), "Sharded(Collaborator", true),
        ];
        let fm = walk_roles(&mut ctx(), paired(1), &steps);
        assert_eq!(fm.elected().unwrap().primary.dsn, RIVAL);
        assert_eq!(fm.runs[0].fm_count, 2);
    }

    #[test]
    fn stale_claims_after_the_decision_change_nothing() {
        let steps = [
            (Timer(TOKEN_START_ELECTION), "Electing", false),
            (Timer(TOKEN_ELECTION_DECIDE), "Sharded(Primary", false),
            (Heard(255), "Sharded(Primary", false),
            (Timer(TOKEN_START_ELECTION), "Sharded(Primary", false),
        ];
        let fm = walk_roles(&mut ctx(), DistributedConfig::new(5), &steps);
        assert_eq!(fm.elected().unwrap().primary.dsn, ctx().host_info.dsn);
        assert_eq!(fm.runs[0].fm_count, 1);
    }

    /// The remaining legal transitions: winning against a routable rival,
    /// promotion of the watching runner-up at its third missed keepalive
    /// (an answer that comes after its window closed counts nothing), and
    /// standing down when the winner is not a routable peer.
    #[test]
    fn role_transitions_follow_the_table() {
        let winning = [
            (Timer(TOKEN_START_ELECTION), "Electing", false),
            (Heard(1), "Electing", false),
            (Timer(TOKEN_ELECTION_DECIDE), "Sharded(Primary", false),
        ];
        assert_eq!(
            walk_roles(&mut ctx(), paired(9), &winning).runs[0].fm_count,
            2
        );
        let failover = [
            (Timer(TOKEN_START_ELECTION), "Electing", false),
            (Heard(9), "Electing", false),
            (Timer(TOKEN_ELECTION_DECIDE), "Sharded(Collaborator", true),
            (Timer(TOKEN_KEEPALIVE_CHECK), "Sharded(Collaborator", true),
            (Timer(TOKEN_START_STANDBY), "Sharded(Collaborator", true),
            (Answer(1), "Sharded(Collaborator", true),
            (Timer(TOKEN_KEEPALIVE_CHECK), "Sharded(Collaborator", true),
            (Timer(TOKEN_START_STANDBY), "Sharded(Collaborator", true),
            (Timer(TOKEN_KEEPALIVE_CHECK), "Promoted", false),
            (Heard(255), "Promoted", false),
            (Timer(TOKEN_START_ELECTION), "Promoted", false),
        ];
        let fm = walk_roles(&mut ctx(), paired(1), &failover);
        assert!(fm.promoted() && fm.elected().is_some());
        assert_eq!(fm.last_run().unwrap().trigger, DiscoveryTrigger::Failover);
        let outvoted = [
            (Heard(9), "Electing", false),
            (Timer(TOKEN_ELECTION_DECIDE), "Bystander", false),
            (Heard(255), "Bystander", false),
        ];
        let fm = walk_roles(&mut ctx(), DistributedConfig::new(1), &outvoted);
        assert!(fm.runs.is_empty(), "a bystander does not discover");
    }

    /// A promotion abandons the collaborator run in flight, and its
    /// requests leave the pending table with it: their timeouts are
    /// cancelled, under the epoch they were armed in.
    #[test]
    fn failover_cancels_the_abandoned_runs_timeouts() {
        let mut c = ctx();
        // An active host port: the collaborator's run waits on its probe.
        c.host_ports[0].state = asi_proto::PortState::Active;
        let lost = [
            (Heard(9), "Electing", false),
            (Timer(TOKEN_START_ELECTION), "Electing", false),
            (Timer(TOKEN_ELECTION_DECIDE), "Sharded(Collaborator", true),
        ];
        let mut fm = walk_roles(&mut c, paired(1), &lost);
        assert!(fm.discovering());
        let timeouts = |commands: Vec<asi_fabric::AgentCommand>, cancelled: bool| {
            let tokens = commands.into_iter().filter_map(|cmd| match cmd {
                asi_fabric::AgentCommand::Timer { token, .. } if !cancelled => Some(token),
                asi_fabric::AgentCommand::CancelTimer { token } if cancelled => Some(token),
                _ => None,
            });
            tokens.filter(|t| t & TIMEOUT_FLAG != 0).collect::<Vec<_>>()
        };
        let armed = timeouts(c.take_commands(), false);
        assert_eq!(armed.len(), 1, "the probe through the host port");
        for token in [
            TOKEN_KEEPALIVE_CHECK,
            TOKEN_START_STANDBY,
            TOKEN_KEEPALIVE_CHECK,
            TOKEN_START_STANDBY,
            TOKEN_KEEPALIVE_CHECK,
        ] {
            fm.on_timer(&mut c, token);
        }
        assert!(fm.promoted());
        assert_eq!(timeouts(c.take_commands(), true), armed);
    }

    #[test]
    fn collaborator_reports_after_discovery() {
        let mut c = ctx();
        let lost = [
            (Heard(9), "Electing", false),
            (Timer(TOKEN_START_ELECTION), "Electing", false),
            (Timer(TOKEN_ELECTION_DECIDE), "Sharded(Collaborator", true),
        ];
        walk_roles(&mut c, paired(1), &lost);
        // Trivial fabric (host only): the report is host Device + Complete.
        let reports = c
            .take_commands()
            .into_iter()
            .filter(|cmd| {
                matches!(cmd, asi_fabric::AgentCommand::Send { packet, .. }
                    if matches!(packet.payload,
                        Payload::Fm(FmMessage::Device { .. } | FmMessage::Complete { .. })))
            })
            .count();
        assert_eq!(reports, 2, "device record + completion marker");
    }

    #[test]
    fn primary_buffers_reports_until_its_own_run_finishes() {
        let mut c = ctx();
        // An active host port: the primary's own run waits on its probe.
        c.host_ports[0].state = asi_proto::PortState::Active;
        let won = [
            (Timer(TOKEN_START_ELECTION), "Electing", false),
            (Heard(1), "Electing", false),
            (Timer(TOKEN_ELECTION_DECIDE), "Sharded(Primary", false),
        ];
        let mut fm = walk_roles(&mut c, paired(9), &won);
        assert!(fm.discovering());
        // The rival's report lands while our own exploration still owns
        // the database: buffered.
        let report = FmMessage::Complete {
            sender: RIVAL,
            devices: 1,
            links: 0,
        };
        fm.on_fm_message(&mut c, report);
        assert!(fm.merged_at().is_none());
        // The probe times out and the primary's run finishes; the backlog
        // drains and the merge completes.
        for cmd in c.take_commands() {
            match cmd {
                asi_fabric::AgentCommand::Timer { token, .. } if token & TIMEOUT_FLAG != 0 => {
                    fm.on_timer(&mut c, token)
                }
                _ => {}
            }
        }
        assert!(fm.merged_at().is_some());
        assert!(fm.merge.completed.contains(&RIVAL));
    }
}
