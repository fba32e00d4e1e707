//! The discovery-run driver: begins runs (initially, and to assimilate
//! PI-5 reports), launches their engines, sends their requests, and turns
//! a drained engine into a [`DiscoveryRun`]. Every phase is one
//! [`Engine::reconcile`] over a [`Region`] — cold, warm start, partial,
//! or PI-5 storm — and every drained phase goes through one escalation
//! rule ([`FmAgent::escalate`]): done, scoped re-discovery, or cold.

use super::*;
use crate::engine::{EngineStats, OutOp, Region};
use crate::metrics::DiscoveryTrigger;
use crate::snapshot::db_from_snapshot;
use asi_proto::{DeviceType, FmMessage, PortEvent};
use std::collections::hash_map::Entry;

/// Request backlog above which armed timeouts add a congestion term
/// covering the manager's serial response processing. Paper-scale
/// fabrics (every Table 1 topology floods fewer requests than this)
/// stay on the caller's base timeout alone.
const CONGESTION_BACKLOG_FLOOR: usize = 512;

/// Accumulates per-run measurements while a discovery is in flight. A
/// run spans at most two engine phases (a verifying one, then a scoped
/// re-discovery or a cold fallback); `base` folds in the stats of phases
/// already finished so the final [`DiscoveryRun`] covers the whole run.
pub(super) struct RunAcc {
    trigger: DiscoveryTrigger,
    started_at: SimTime,
    bytes_sent: u64,
    pub(super) bytes_received: u64,
    pub(super) fm_busy: SimDuration,
    /// Engine stats of completed phases of this run.
    base: EngineStats,
    probes_verified: u64,
    verify_mismatches: u64,
    warm_fallback: bool,
}

impl RunAcc {
    fn new(trigger: DiscoveryTrigger, started_at: SimTime) -> RunAcc {
        RunAcc {
            trigger,
            started_at,
            bytes_sent: 0,
            bytes_received: 0,
            fm_busy: SimDuration::ZERO,
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

impl FmAgent {
    /// Reconciles `db` over `region` as the current phase and sends the
    /// opening requests. `trigger` is `Some` when the phase opens a new
    /// run (traced as `RunStarted`, `extra`, pending-table size), `None`
    /// when it continues the run in flight. The engine's trace is
    /// installed only after construction, so its opening requests emit
    /// no engine records. Every engine numbers its requests from 1; the
    /// fresh epoch keeps its timeout tokens apart from every earlier
    /// engine's.
    fn launch(
        &mut self,
        ctx: &mut AgentCtx,
        db: TopologyDb,
        region: Region,
        trigger: Option<DiscoveryTrigger>,
        extra: Option<TraceEvent>,
    ) {
        let mut engine = Engine::reconcile(self.engine_cfg(), db, region, &mut self.outbox);
        self.epoch += 1;
        engine.set_trace(self.cfg.trace.clone());
        engine.set_trace_time(ctx.now);
        if let Some(trigger) = trigger {
            let acc = RunAcc::new(trigger, ctx.now);
            let (algorithm, trigger) = (self.cfg.algorithm.name(), trigger.tag());
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
    /// targeted probe per device. What follows the verify phase is
    /// [`FmAgent::escalate`]'s to decide.
    pub(super) fn begin_initial(&mut self, ctx: &mut AgentCtx) {
        if self.engine.is_some() {
            return;
        }
        let DiscoveryMode::WarmStart(snapshot) = &self.cfg.mode else {
            self.begin_full(ctx, Some(DiscoveryTrigger::Initial));
            return;
        };
        if snapshot.host_dsn != ctx.host_info.dsn || snapshot.device(snapshot.host_dsn).is_none() {
            // The snapshot was taken on a different host: useless here.
            self.begin_full(ctx, Some(DiscoveryTrigger::Initial));
            return;
        }
        let mut db = db_from_snapshot(snapshot);
        // The live host record is authoritative over the cached one.
        for (p, info) in ctx.host_ports.iter().enumerate() {
            db.set_port(db.host_dsn(), p as u16, *info);
        }
        let (devices, links) = (snapshot.device_count() as u64, snapshot.link_count() as u64);
        let loaded = TraceEvent::SnapshotLoaded { devices, links };
        let verify = db.devices().map(|d| d.info.dsn).collect();
        let region = Region {
            verify,
            ..Region::default()
        };
        let warm = Some(DiscoveryTrigger::WarmStart);
        self.launch(ctx, db, region, warm, Some(loaded));
    }

    /// A cold start: opens a run under `trigger`, or with `None`
    /// continues the run in flight (a warm fallback).
    pub(super) fn begin_full(&mut self, ctx: &mut AgentCtx, trigger: Option<DiscoveryTrigger>) {
        // The host endpoint enters the database locally, not through a
        // traced completion: emit its discovery here so the
        // device-discovered count reconciles with `devices_found`.
        let host = ctx.host_info;
        let host_discovered = TraceEvent::DeviceDiscovered {
            dsn: host.dsn,
            switch: host.device_type == DeviceType::Switch,
            ports: host.port_count,
        };
        let (db, region) = Region::cold(host, &ctx.host_ports, self.cfg.pool_capacity);
        self.launch(ctx, db, region, trigger, Some(host_discovered));
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
            self.begin_full(ctx, Some(DiscoveryTrigger::ChangeAssimilation));
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
        let mut region = Region::default();
        for key in &order {
            let (saw_down, last) = net[key];
            if saw_down {
                if let Some((x, xp)) = db.neighbor(key.0, key.1) {
                    db.remove_link((key.0, key.1), (x, xp));
                    region.reread.push(x);
                }
                region.reread.push(key.0);
            }
            if last == PortEvent::PortUp {
                // Probe straight through the reported port so a
                // genuinely new neighbor is explored directly, instead
                // of hoping the reporter re-read escalates to it.
                region.reread.push(key.0);
                region.probe_via.push(*key);
            }
        }
        // The pruning of now-unreachable devices happens as probes time
        // out; links already removed may strand devices immediately.
        db.prune_unreachable();
        if order.len() > self.cfg.storm_threshold {
            // A correlated PI-5 storm: the same region verifies the
            // whole database as well. The re-reads still catch links that
            // moved between devices still known (live neighbours of a
            // device a timeout forgot among them), the probes genuine
            // hot-adds, and the escalation rule repairs whatever fails
            // to verify.
            let threshold = self.cfg.storm_threshold as u64;
            self.cfg
                .trace
                .emit(ctx.now, || TraceEvent::Pi5StormEscalated {
                    events: coalesced,
                    threshold,
                });
            region.verify = db.devices().map(|d| d.info.dsn).collect();
            // A device forgotten after a lost request leaves the port it
            // was found through active with no link, and no report names
            // that port: probe through every such port as well.
            for d in db.devices() {
                let dsn = d.info.dsn;
                for (port, info) in (0..).zip(&d.ports) {
                    let active = info.is_some_and(|i| i.state.is_active());
                    if active && db.neighbor(dsn, port).is_none() && !net.contains_key(&(dsn, port))
                    {
                        region.probe_via.push((dsn, port));
                    }
                }
            }
        }
        self.launch(ctx, db, region, Some(DiscoveryTrigger::Partial), None);
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

    /// The one escalation rule, for every drained phase, after its stats
    /// join the run's. No mismatch ends the run: `Some(db)`. More than
    /// `warm_fallback_threshold` of the devices reconciled continue the
    /// run cold (the snapshot is too wrong to patch); fewer drop the
    /// mismatched devices and continue over a region that re-reads
    /// their surviving neighbours (which re-probes whatever now sits
    /// behind those ports) and probes through the host ports that faced
    /// them. Either way a new phase took over: `None`, and its own drain
    /// comes back here.
    fn escalate(&mut self, ctx: &mut AgentCtx, engine: Engine) -> Option<TopologyDb> {
        let mismatched = engine.mismatched().to_vec();
        let mismatches = mismatched.len() as u64;
        let acc = self.acc.as_mut().expect("run accumulator present");
        acc.base += engine.stats();
        acc.probes_verified += engine.verified().len() as u64;
        acc.verify_mismatches += mismatches;
        if mismatched.is_empty() {
            return Some(engine.db);
        }
        let devices = engine.reconciled_devices() as f64;
        let threshold = (self.cfg.warm_fallback_threshold * devices).floor() as u64;
        if mismatches > threshold {
            acc.warm_fallback = true;
            self.cfg.trace.emit(ctx.now, || TraceEvent::WarmFallback {
                mismatches,
                threshold,
            });
            self.begin_full(ctx, None);
            return None;
        }
        let mut db = engine.db;
        let host = db.host_dsn();
        let mut region = Region::default();
        for &dsn in &mismatched {
            for (n, np) in db.peers(dsn) {
                if n == host {
                    region.probe_via.push((n, np));
                } else {
                    region.reread.push(n);
                }
            }
            db.remove_device(dsn);
        }
        db.prune_unreachable();
        self.launch(ctx, db, region, None, None);
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
        let Some(db) = self.escalate(ctx, engine) else {
            return;
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
            fm_busy: acc.fm_busy,
            probes_verified: acc.probes_verified,
            verify_mismatches: acc.verify_mismatches,
            warm_fallback: acc.warm_fallback,
            fm_count: self.fm_ensemble_size(),
            boundary_conflicts: acc.base.ceded_devices,
            // Only a promotion starts a failover run.
            failovers: u32::from(acc.trigger == DiscoveryTrigger::Failover),
            merge_time: SimDuration::ZERO,
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
            // The next run's database supersedes this one's routes.
            self.assimilate(ctx);
            return;
        }
        self.write_pi5_routes(ctx);
        if self.cfg.distribute_paths {
            self.begin_distribution(ctx);
        }
    }
}
