//! The discovery-run driver: begins runs (initially, and to assimilate
//! PI-5 reports), launches their engines, sends their requests, and turns
//! a drained engine into a [`DiscoveryRun`]. A run is one [`RunAcc`] over
//! one or more engine phases: cold; partial; or verify (warm start, PI-5
//! storm) → done | scoped | cold fallback.

use super::*;
use crate::engine::{EngineStats, OutOp};
use crate::metrics::{DiscoveryTrigger, TrafficSummary};
use crate::snapshot::db_from_snapshot;
use asi_proto::{DeviceType, FmMessage, PortEvent};
use std::collections::hash_map::Entry;

/// Request backlog above which armed timeouts add a congestion term
/// covering the manager's serial response processing. Paper-scale
/// fabrics (every Table 1 topology floods fewer requests than this)
/// stay on the caller's base timeout alone.
const CONGESTION_BACKLOG_FLOOR: usize = 512;

/// Accumulates per-run measurements while a discovery is in flight. A
/// warm-start run spans up to three engine phases (verify → scoped
/// re-discovery → cold fallback); `base` folds in the stats of phases
/// already finished so the final [`DiscoveryRun`] covers the whole run.
pub(super) struct RunAcc {
    trigger: DiscoveryTrigger,
    started_at: SimTime,
    bytes_sent: u64,
    pub(super) bytes_received: u64,
    pub(super) timeline: Vec<SimTime>,
    pub(super) fm_busy: SimDuration,
    /// While the current engine is a verification pass: the device count
    /// of the database it verifies (the fallback-threshold denominator).
    pub(super) verifying: Option<u64>,
    /// Engine stats of completed phases of this run.
    base: EngineStats,
    probes_verified: u64,
    verify_mismatches: u64,
    warm_fallback: bool,
}

impl RunAcc {
    pub(super) fn new(
        trigger: DiscoveryTrigger,
        started_at: SimTime,
        verifying: Option<u64>,
    ) -> RunAcc {
        RunAcc {
            trigger,
            started_at,
            bytes_sent: 0,
            bytes_received: 0,
            timeline: Vec::new(),
            fm_busy: SimDuration::ZERO,
            verifying,
            base: EngineStats::default(),
            probes_verified: 0,
            verify_mismatches: 0,
            warm_fallback: false,
        }
    }
}

/// RFC-1982 serial-number comparison for PI-5 sequence numbers: `seq`
/// is newer than `last` when it lies in the half of the modular u32
/// space ahead of `last`. A plain `seq <= last` check would drop every
/// event from a reporter forever once its sequence wraps.
fn pi5_newer(seq: u32, last: u32) -> bool {
    seq != last && seq.wrapping_sub(last) < 0x8000_0000
}

/// Canonical re-discovery scope: sorted, de-duplicated, and restricted
/// to devices still in `db`.
fn scope(db: &TopologyDb, rereads: &mut Vec<u64>, probe_via: &mut Vec<(u64, u8)>) {
    rereads.sort_unstable();
    rereads.dedup();
    rereads.retain(|d| db.contains(*d));
    probe_via.sort_unstable();
    probe_via.dedup();
    probe_via.retain(|(d, _)| db.contains(*d));
}

impl FmAgent {
    /// Installs a freshly built engine as the current phase and sends
    /// the opening requests it left in the outbox. `acc` is `Some` when
    /// the engine opens a new run (traced as `RunStarted`, `extra`,
    /// pending-table size), `None` when it continues the run in flight.
    /// Every engine numbers its requests from 1; the fresh epoch keeps
    /// its timeout tokens apart from every earlier engine's.
    pub(super) fn launch(
        &mut self,
        ctx: &mut AgentCtx,
        mut engine: Engine,
        acc: Option<RunAcc>,
        extra: Option<TraceEvent>,
    ) {
        self.epoch += 1;
        engine.set_trace(self.cfg.trace.clone());
        engine.set_trace_time(ctx.now);
        if let Some(acc) = acc {
            let (algorithm, trigger) = (self.cfg.algorithm.name(), acc.trigger.tag());
            self.cfg
                .trace
                .emit(ctx.now, || TraceEvent::RunStarted { algorithm, trigger });
            if let Some(event) = extra {
                self.cfg.trace.emit(ctx.now, || event);
            }
            let size = engine.outstanding() as u32;
            self.cfg
                .trace
                .emit(ctx.now, || TraceEvent::PendingTableSize { size });
            self.acc = Some(acc);
        }
        self.engine = Some(engine);
        self.dispatch(ctx);
        self.maybe_finish(ctx);
    }

    /// Starts the initial discovery per the configured mode: cold, or
    /// warm — seed a database from the snapshot and verify it with one
    /// targeted probe per device. Escalation (scoped re-discovery, cold
    /// fallback) happens in [`FmAgent::maybe_finish`] when the verify
    /// phase drains.
    pub(super) fn begin_initial(&mut self, ctx: &mut AgentCtx) {
        if self.engine.is_some() {
            return;
        }
        let DiscoveryMode::WarmStart(snapshot) = &self.cfg.mode else {
            self.begin_full(ctx, DiscoveryTrigger::Initial);
            return;
        };
        if snapshot.host_dsn != ctx.host_info.dsn || snapshot.device(snapshot.host_dsn).is_none() {
            // The snapshot was taken on a different host: useless here.
            self.begin_full(ctx, DiscoveryTrigger::Initial);
            return;
        }
        let mut db = db_from_snapshot(snapshot);
        // The live host record is authoritative over the cached one.
        for (p, info) in ctx.host_ports.iter().enumerate() {
            db.set_port(db.host_dsn(), p as u16, *info);
        }
        // Recompute routes over the snapshot's link set so stale stored
        // routes cannot mask an intact topology.
        db.refresh_routes(self.cfg.pool_capacity);
        let (devices, links) = (snapshot.device_count() as u64, snapshot.link_count() as u64);
        let engine = Engine::verify(self.engine_cfg(), db, &mut self.outbox);
        let acc = RunAcc::new(DiscoveryTrigger::WarmStart, ctx.now, Some(devices));
        let loaded = TraceEvent::SnapshotLoaded { devices, links };
        self.launch(ctx, engine, Some(acc), Some(loaded));
    }

    pub(super) fn begin_full(&mut self, ctx: &mut AgentCtx, trigger: DiscoveryTrigger) {
        // The host endpoint enters the database locally, not through a
        // traced completion: emit its discovery here so the
        // device-discovered count reconciles with `devices_found`.
        let host = ctx.host_info;
        let host_discovered = TraceEvent::DeviceDiscovered {
            dsn: host.dsn,
            switch: host.device_type == DeviceType::Switch,
            ports: host.port_count,
        };
        let engine = Engine::start(self.engine_cfg(), host, &ctx.host_ports, &mut self.outbox);
        let acc = RunAcc::new(trigger, ctx.now, None);
        self.launch(ctx, engine, Some(acc), Some(host_discovered));
    }

    pub(super) fn on_pi5(&mut self, ctx: &mut AgentCtx, event: Pi5) {
        // Drop duplicate/stale reports. Sequences are modular (RFC-1982
        // serial-number order), so a long-lived reporter keeps reporting
        // straight through the u32 wraparound; the first event from an
        // unknown reporter is accepted at whatever sequence it carries.
        match self.pi5_seen.entry(event.reporter_dsn) {
            Entry::Occupied(mut seen) => {
                if !pi5_newer(event.sequence, *seen.get()) {
                    return;
                }
                seen.insert(event.sequence);
            }
            Entry::Vacant(slot) => {
                slot.insert(event.sequence);
            }
        }
        self.pi5_events += 1;
        let (dsn, port, up) = (
            event.reporter_dsn,
            u16::from(event.port),
            event.event == PortEvent::PortUp,
        );
        self.cfg
            .trace
            .emit(ctx.now, || TraceEvent::Pi5Received { dsn, port, up });
        if !self.cfg.auto_rediscover {
            return;
        }
        if self.cfg.partial_assimilation {
            self.partial_backlog.push(event);
        }
        if self.engine.is_some() {
            // Assimilate once the current run finishes (the paper's FM
            // discards everything and starts over; we let the in-flight
            // run drain first, then restart).
            self.restart_pending = true;
        } else {
            self.assimilate(ctx);
        }
    }

    /// Re-discovers after accepted PI-5 events: scoped to the backlog
    /// under partial assimilation (given a database to patch), else fully.
    pub(super) fn assimilate(&mut self, ctx: &mut AgentCtx) {
        let scoped = self.cfg.partial_assimilation && !self.partial_backlog.is_empty();
        let Some(mut db) = self.db.as_ref().filter(|_| scoped).cloned() else {
            self.partial_backlog.clear();
            self.begin_full(ctx, DiscoveryTrigger::ChangeAssimilation);
            return;
        };
        let events = std::mem::take(&mut self.partial_backlog);
        // Coalesce the backlog per (reporter, port): a flap is a
        // down+up pair and a storm repeats both, but only the *net*
        // change decides the re-discovery scope. A down anywhere in the
        // burst may have invalidated the recorded link even when the
        // port ended back up, so "saw a down" survives coalescing.
        let mut order: Vec<(u64, u8)> = Vec::new();
        let mut net: HashMap<(u64, u8), (bool, PortEvent)> = HashMap::new();
        for e in &events {
            let key = (e.reporter_dsn, e.port);
            let entry = net.entry(key).or_insert_with(|| {
                order.push(key);
                (false, e.event)
            });
            if e.event == PortEvent::PortDown {
                entry.0 = true;
            }
            entry.1 = e.event;
        }
        let (raw, coalesced) = (events.len() as u64, order.len() as u64);
        self.cfg
            .trace
            .emit(ctx.now, || TraceEvent::Pi5Coalesced { raw, coalesced });
        let mut rereads: Vec<u64> = Vec::new();
        let mut probe_via: Vec<(u64, u8)> = Vec::new();
        for key in &order {
            let (saw_down, last) = net[key];
            if saw_down {
                if let Some((x, xp)) = db.neighbor(key.0, key.1) {
                    db.remove_link((key.0, key.1), (x, xp));
                    rereads.push(x);
                }
                rereads.push(key.0);
            }
            if last == PortEvent::PortUp {
                // Probe straight through the reported port so a
                // genuinely new neighbor is explored directly, instead
                // of hoping the reporter re-read escalates to it.
                rereads.push(key.0);
                probe_via.push(*key);
            }
        }
        // The pruning of now-unreachable devices happens as probes time
        // out; links already removed may strand devices immediately.
        db.prune_unreachable();
        scope(&db, &mut rereads, &mut probe_via);
        let mut verifying = None;
        let engine = if order.len() > self.cfg.storm_threshold {
            // A correlated PI-5 storm: instead of N scoped re-reads, run
            // one warm-start-style verification of the whole database —
            // plus the scoped re-reads, which catch links that moved
            // between devices still known (live neighbours of a device
            // a timeout forgot among them), and probes through reported
            // port-ups, which catch genuine hot-adds — and let the
            // ordinary warm escalation repair whatever fails to verify.
            let threshold = self.cfg.storm_threshold as u64;
            self.cfg
                .trace
                .emit(ctx.now, || TraceEvent::Pi5StormEscalated {
                    events: coalesced,
                    threshold,
                });
            db.refresh_routes(self.cfg.pool_capacity);
            verifying = Some(db.device_count() as u64);
            Engine::verify_with_probes(
                self.engine_cfg(),
                db,
                &rereads,
                &probe_via,
                &mut self.outbox,
            )
        } else {
            Engine::seeded(
                self.engine_cfg(),
                db,
                &rereads,
                &probe_via,
                &mut self.outbox,
            )
        };
        let acc = RunAcc::new(DiscoveryTrigger::Partial, ctx.now, verifying);
        self.launch(ctx, engine, Some(acc), None);
    }

    /// Sends the requests in the outbox, arms their timeouts, and keeps
    /// the emptied buffer for the engine's next call.
    pub(super) fn dispatch(&mut self, ctx: &mut AgentCtx) {
        // A response is processed only after every response already in
        // flight ahead of it: under the parallel algorithm's flood the
        // FM's serial per-response processing dominates the round trip
        // on large fabrics, so the armed timeout must cover that
        // queueing, not just one quiet round trip — the same bound the
        // distribution path applies to its pipelined writes. The request
        // window caps that backlog near `REQUEST_WINDOW`, but a full
        // window still outlasts a small base timeout: 1,024 responses at
        // ~15 µs each exceed the 15 ms a 4-manager scale cell arms.
        // `outstanding` already includes the requests in the outbox. Each
        // queued response can grow the database by at most one device,
        // so per-response cost while the backlog drains is bounded by
        // the cost at `known + outstanding` devices — pricing it at
        // today's `known` alone under-arms early requests on 100k-device
        // fabrics, where the per-response cost grows ~30x mid-drain.
        //
        // Backlogs that a paper-scale fabric can produce are already
        // covered by the caller's base timeout; the congestion term only
        // applies past that, so small-fabric timing (and the retry
        // dynamics the robustness suite pins down) is untouched.
        let engine = self.engine.as_ref().expect("requests come from an engine");
        let (outstanding, known) = (engine.outstanding(), engine.db.device_count());
        let congestion = if outstanding > CONGESTION_BACKLOG_FLOOR {
            let per_response = self
                .cfg
                .timing
                .pi4_time(self.cfg.algorithm, known + outstanding);
            per_response * (outstanding as u64 + 1) * 2
        } else {
            SimDuration::ZERO
        };
        let mut out = std::mem::take(&mut self.outbox);
        for req in out.drain(..) {
            let (req_id, write) = (req.req_id, matches!(req.op, OutOp::Write { .. }));
            self.cfg
                .trace
                .emit(ctx.now, || TraceEvent::RequestInjected { req_id, write });
            let payload = match req.op {
                OutOp::Read { addr, dwords } => Pi4::ReadRequest {
                    req_id,
                    addr,
                    dwords,
                },
                OutOp::Write { addr, data } => Pi4::WriteRequest { req_id, addr, data },
            };
            let bytes = send_pi4(ctx, req.egress, req.pool, payload);
            if let Some(acc) = self.acc.as_mut() {
                acc.bytes_sent += bytes;
            }
            ctx.set_timer(req.timeout + congestion, timeout_token(self.epoch, req_id));
        }
        self.outbox = out;
    }

    /// The verify phase over a `devices`-device database drained. Returns
    /// `Some(db)` when every device verified (the run is finished);
    /// `None` when a scoped re-discovery or cold fallback engine took
    /// over — its own drain re-enters [`FmAgent::maybe_finish`].
    fn escalate(&mut self, ctx: &mut AgentCtx, engine: Engine, devices: u64) -> Option<TopologyDb> {
        let mismatched: Vec<u64> = engine.mismatched().to_vec();
        let mismatches = mismatched.len() as u64;
        let acc = self.acc.as_mut().expect("run accumulator present");
        acc.probes_verified += engine.verified().len() as u64;
        acc.verify_mismatches += mismatches;
        let mut db = engine.db;
        if mismatched.is_empty() {
            return Some(db);
        }
        let threshold = (self.cfg.warm_fallback_threshold * devices as f64).floor() as u64;
        if mismatches > threshold {
            // The snapshot is too wrong to patch: full cold discovery,
            // accounted to the same run.
            acc.warm_fallback = true;
            self.cfg.trace.emit(ctx.now, || TraceEvent::WarmFallback {
                mismatches,
                threshold,
            });
            let (host, ports) = (ctx.host_info, &ctx.host_ports);
            let engine = Engine::start(self.engine_cfg(), host, ports, &mut self.outbox);
            self.launch(ctx, engine, None, None);
            return None;
        }
        // Scoped re-discovery: drop the mismatching devices, re-read
        // their surviving neighbours' port blocks (which re-probes
        // whatever actually sits behind those ports), and probe straight
        // through host ports that faced a mismatching device.
        let host = db.host_dsn();
        let mut rereads: Vec<u64> = Vec::new();
        let mut probe_via: Vec<(u64, u8)> = Vec::new();
        let links: Vec<_> = db.links().collect();
        for &dsn in &mismatched {
            for &((a, ap), (b, bp)) in &links {
                let (n, np) = if a == dsn {
                    (b, bp)
                } else if b == dsn {
                    (a, ap)
                } else {
                    continue;
                };
                if n == host {
                    probe_via.push((n, np));
                } else {
                    rereads.push(n);
                }
            }
        }
        for &dsn in &mismatched {
            db.remove_device(dsn);
        }
        db.prune_unreachable();
        scope(&db, &mut rereads, &mut probe_via);
        let engine = Engine::seeded(
            self.engine_cfg(),
            db,
            &rereads,
            &probe_via,
            &mut self.outbox,
        );
        self.launch(ctx, engine, None, None);
        None
    }

    /// Turns a drained engine into the next phase of its run or, when
    /// the run is complete, into a [`DiscoveryRun`] and the new database.
    pub(super) fn maybe_finish(&mut self, ctx: &mut AgentCtx) {
        let Some(mut engine) = self.engine.take_if(|e| e.is_done()) else {
            return;
        };
        self.rivals.extend(engine.rivals.iter().copied());
        let ceded = std::mem::take(&mut engine.ceded);
        let acc = self.acc.as_mut().expect("run accumulator present");
        acc.base += engine.stats();
        let db = match acc.verifying.take() {
            None => engine.db,
            Some(devices) => match self.escalate(ctx, engine, devices) {
                Some(db) => db,
                None => return,
            },
        };
        let acc = self.acc.take().expect("run accumulator present");
        let run = DiscoveryRun {
            algorithm: self.cfg.algorithm,
            trigger: acc.trigger,
            started_at: acc.started_at,
            finished_at: ctx.now,
            requests_sent: acc.base.requests,
            responses_received: acc.base.responses,
            timeouts: acc.base.timeouts,
            retries: acc.base.retries,
            abandoned: acc.base.abandoned,
            peak_outstanding: acc.base.max_outstanding,
            bytes_sent: acc.bytes_sent,
            bytes_received: acc.bytes_received,
            devices_found: db.device_count(),
            links_found: db.link_count(),
            fm_timeline: acc.timeline,
            fm_busy: acc.fm_busy,
            probes_verified: acc.probes_verified,
            verify_mismatches: acc.verify_mismatches,
            warm_fallback: acc.warm_fallback,
            fm_count: self.fm_ensemble_size(),
            boundary_conflicts: acc.base.ceded_devices,
            // Only a promotion starts a failover run.
            failovers: u32::from(acc.trigger == DiscoveryTrigger::Failover),
            merge_time: SimDuration::ZERO,
            traffic: TrafficSummary::default(),
        };
        self.cfg.trace.emit(ctx.now, || TraceEvent::RunFinished {
            devices_found: run.devices_found as u64,
            links_found: run.links_found as u64,
            requests_sent: run.requests_sent,
            timeouts: run.timeouts,
        });
        self.runs.push(run);
        // Drop high-water marks of reporters that left the database: a
        // hot-removed device re-added at the same DSN restarts its
        // sequence, and a stale mark would silently swallow every report
        // it sends (the map would also grow without bound under churn).
        self.pi5_seen.retain(|dsn, _| db.contains(*dsn));
        self.db = Some(db);
        // Notify each rival of the boundary devices we ceded to it (the
        // ownership registers already settled the outcome; this puts it
        // on the wire for observability and symmetry with real fabrics).
        if let Some(dc) = &self.cfg.distributed_config {
            for (dsn, owner) in ceded {
                if let Some(peer) = dc.peers.iter().find(|p| p.dsn == owner) {
                    let msg = FmMessage::Yield { dsn, to: owner };
                    self.send_fm(ctx, peer.egress, peer.pool.clone(), msg);
                }
            }
        }
        self.share_database(ctx);
        if std::mem::take(&mut self.restart_pending) {
            self.assimilate(ctx);
        } else if self.cfg.distribute_paths {
            self.begin_distribution(ctx);
        }
    }
}
