//! The manager ensemble: PI-9 election, the primary's merge, and the
//! runner-up's watch on the primary. Role transitions:
//! `Solo → Electing → Sharded(primary | collaborator) | Bystander`, and
//! for the runner-up, which holds a [`Watch`], at the miss threshold,
//! `→ Promoted`.

use super::*;
use crate::distributed::{report_messages, DistributedRole, FmPeer};
use crate::election::{Ballot, Claim, ElectionResult};
use crate::metrics::DiscoveryTrigger;
use asi_proto::{config::general_info_read, FmMessage};

/// Timer token of the watch's next keepalive read.
pub(super) const TOKEN_START_STANDBY: u64 = (1 << 62) + 1;
/// Timer token closing one keepalive's answer window.
pub(super) const TOKEN_KEEPALIVE_CHECK: u64 = (1 << 62) + 2;
/// Consecutive missed keepalives that promote the watching runner-up.
const MISS_THRESHOLD: u32 = 3;

/// A resolved election, remembered by every role it leads to.
#[derive(Clone, Copy, Debug)]
pub(super) struct Decided {
    result: ElectionResult,
    /// Managers that took part, self included.
    fms: u32,
}

/// The part this manager plays among the fabric's managers: state, set
/// by the election, never written back to the configuration.
#[derive(Debug)]
pub(super) enum Role {
    /// The paper's setup: one manager discovers the whole fabric.
    Solo,
    /// Collecting claims until the election window closes.
    Electing(Ballot),
    /// Primary or collaborator of a sharded discovery.
    Sharded(DistributedRole, Decided),
    /// Outvoted by a manager it cannot route to: stands down.
    Bystander(Decided),
    /// A secondary that took over from a dead primary: discovers solo,
    /// with claim partitioning off so the dead primary's stale ownership
    /// claims cannot carve holes out of the takeover view.
    Promoted(Decided),
}

impl Role {
    fn decided(&self) -> Option<Decided> {
        match self {
            Role::Solo | Role::Electing(_) => None,
            Role::Sharded(_, decided) | Role::Bystander(decided) | Role::Promoted(decided) => {
                Some(*decided)
            }
        }
    }
}

/// The runner-up's watch on the primary: keepalive reads, and the count
/// of consecutive misses that ends in promotion.
#[derive(Debug)]
pub(super) struct Watch {
    primary: FmPeer,
    /// How long each keepalive may take to complete.
    timeout: SimDuration,
    /// Gap between keepalive reads.
    interval: SimDuration,
    /// Consecutive keepalives not answered inside their window.
    pub(super) misses: u32,
}

impl Watch {
    /// A primary mid-discovery answers keepalive reads only after
    /// draining its response backlog, which by design can approach the
    /// request timeout: a fixed 80 µs window would misread busy for dead
    /// and usurp a live primary. So the cadence (at least an 80 µs
    /// window every 100 µs) scales with `request_timeout`.
    fn new(primary: FmPeer, request_timeout: SimDuration) -> Watch {
        let timeout = SimDuration::from_us(80).max(request_timeout * 2);
        Watch {
            primary,
            timeout,
            interval: SimDuration::from_us(100).max(timeout * 2),
            misses: 0,
        }
    }
}

impl FmAgent {
    /// True once a standby secondary has promoted itself to primary.
    pub fn promoted(&self) -> bool {
        matches!(self.role, Role::Promoted(_))
    }

    /// The resolved election outcome, once the decision timer fired.
    pub fn elected(&self) -> Option<ElectionResult> {
        self.role.decided().map(|d| d.result)
    }

    /// When the distributed discovery produced the final merged database.
    pub fn merged_at(&self) -> Option<SimTime> {
        self.merge.finished_at
    }

    /// Managers known to be part of this discovery, self included.
    pub(super) fn fm_ensemble_size(&self) -> u32 {
        match &self.role {
            Role::Electing(ballot) => ballot.claims().len() as u32,
            role => role.decided().map_or(1, |d| d.fms),
        }
    }

    /// Sends one FM-exchange message toward a peer manager.
    pub(super) fn send_fm(&self, ctx: &mut AgentCtx, egress: u8, pool: TurnPool, msg: FmMessage) {
        let header = RouteHeader::forward(ProtocolInterface::FmExchange, MANAGEMENT_TC, pool);
        ctx.send(egress, Packet::new(header, Payload::Fm(msg)));
    }

    /// Election kickoff: broadcast our claim and arm the decision timer.
    pub(super) fn start_election(&mut self, ctx: &mut AgentCtx) {
        let Some(dc) = &self.cfg.distributed_config else {
            // No ensemble configured: a lone manager discovers solo.
            self.begin_initial(ctx);
            return;
        };
        let own = Claim::new(dc.priority, ctx.host_info.dsn);
        match self.role {
            Role::Solo => self.role = Role::Electing(Ballot::new(own)),
            Role::Electing(_) => {}
            // Decided roles are not up for election.
            _ => return,
        }
        let (dsn, priority) = (own.dsn, own.priority);
        self.cfg
            .trace
            .emit(ctx.now, || TraceEvent::FmClaim { dsn, priority });
        for peer in &dc.peers {
            let claim = FmMessage::Claim { dsn, priority };
            self.send_fm(ctx, peer.egress, peer.pool.clone(), claim);
        }
        ctx.set_timer(dc.election_window, TOKEN_ELECTION_DECIDE);
    }

    /// The election window closed: resolve roles and begin discovery.
    ///
    /// Every manager heard the same claim set (each claim was broadcast
    /// to every peer), so local resolution is globally consistent: one
    /// manager becomes the primary, the rest become collaborators
    /// reporting to it, and the runner-up additionally arms a [`Watch`]
    /// on the primary so a mid-discovery primary death triggers failover.
    pub(super) fn decide_election(&mut self, ctx: &mut AgentCtx) {
        let (Role::Electing(ballot), Some(dc)) = (&self.role, &self.cfg.distributed_config) else {
            return;
        };
        let result = ballot.resolve().expect("ballot holds our own claim");
        let (own, fms) = (ballot.own(), ballot.claims().len() as u32);
        let decided = Decided { result, fms };
        let primary = result.primary.dsn;
        self.cfg
            .trace
            .emit(ctx.now, || TraceEvent::FmElected { primary, fms });
        if result.primary == own {
            self.role = Role::Sharded(DistributedRole::Primary, decided);
            // Confirm the outcome on the wire (informational: every
            // manager resolved the same ballot already).
            for peer in &dc.peers {
                let elected = FmMessage::Elected { primary, fms };
                self.send_fm(ctx, peer.egress, peer.pool.clone(), elected);
            }
        } else {
            let Some(peer) = dc.peers.iter().find(|p| p.dsn == primary) else {
                self.role = Role::Bystander(decided);
                return;
            };
            self.role = Role::Sharded(DistributedRole::Collaborator(peer.clone()), decided);
            if result.secondary == Some(own) {
                self.watch = Some(Watch::new(peer.clone(), self.cfg.request_timeout));
                self.send_keepalive(ctx);
            }
        }
        self.begin_initial(ctx);
    }

    /// Handling of one FM-exchange message: election traffic first (any
    /// role), then the primary-side merge stream.
    pub(super) fn on_fm_message(&mut self, ctx: &mut AgentCtx, msg: FmMessage) {
        match msg {
            FmMessage::Claim { dsn, priority } => {
                // A rival's candidacy; it may land before our own
                // kickoff. Claims arriving after the decision are stale
                // (e.g. re-delivered) and change nothing.
                let Some(dc) = &self.cfg.distributed_config else {
                    return;
                };
                if matches!(self.role, Role::Solo) {
                    let own = Claim::new(dc.priority, ctx.host_info.dsn);
                    self.role = Role::Electing(Ballot::new(own));
                }
                if let Role::Electing(ballot) = &mut self.role {
                    ballot.record(Claim::new(priority, dsn));
                }
            }
            // The winner's confirmation (our resolution of the same
            // ballot already agrees) and a rival's notice that it ceded us
            // a device (the ownership register says so) need no action.
            FmMessage::Elected { .. } | FmMessage::Yield { .. } => {}
            // The merge stream; collaborators only send it.
            report if matches!(self.role, Role::Sharded(DistributedRole::Primary, _)) => {
                match self.db.as_mut() {
                    Some(db) if self.engine.is_none() => {
                        self.merge.apply(db, report);
                        self.finish_merge(ctx);
                    }
                    // Our own exploration still owns the database: buffer.
                    _ => self.merge.backlog.push(report),
                }
            }
            _ => {}
        }
    }

    /// A run finished: a collaborator streams the new database to the
    /// primary; the primary applies the reports that arrived while its
    /// own exploration was still running and may now complete the merge.
    pub(super) fn share_database(&mut self, ctx: &mut AgentCtx) {
        match &self.role {
            Role::Sharded(DistributedRole::Collaborator(primary), _) => {
                for msg in report_messages(self.db.as_ref().expect("run just finished")) {
                    self.send_fm(ctx, primary.egress, primary.pool.clone(), msg);
                }
            }
            Role::Sharded(DistributedRole::Primary, _) => {
                if let Some(db) = self.db.as_mut() {
                    for msg in std::mem::take(&mut self.merge.backlog) {
                        self.merge.apply(db, msg);
                    }
                }
            }
            _ => {}
        }
        self.finish_merge(ctx);
    }

    /// Declares the database the final merged view once nothing is
    /// missing from it, at most once.
    fn finish_merge(&mut self, ctx: &mut AgentCtx) {
        let expected_reports = match self.role {
            Role::Sharded(DistributedRole::Primary, decided) => decided.fms as usize - 1,
            // A promoted secondary runs its takeover solo: its own
            // completed database IS the final view of the sharded run.
            Role::Promoted(_) => 0,
            _ => return,
        };
        if self.merge.finished_at.is_some()
            || self.engine.is_some()
            || self.merge.completed.len() < expected_reports
        {
            return;
        }
        let Some(db) = self.db.as_mut() else {
            return;
        };
        db.refresh_routes(self.cfg.pool_capacity);
        self.merge.finished_at = Some(ctx.now);
        let (devices, links) = (db.device_count() as u64, db.link_count() as u64);
        let reports = self.merge.completed.len() as u32;
        self.cfg.trace.emit(ctx.now, || TraceEvent::MergeComplete {
            devices,
            links,
            reports,
        });
        // Stamp how long the merge tail took onto the last run (its
        // devices_found/links_found keep describing the manager's *own*
        // exploration; the merged view lives in the database).
        if let Some(run) = self.runs.last_mut() {
            run.merge_time = ctx.now.saturating_since(run.finished_at);
        }
    }

    /// Watching: issue one keepalive read of the primary's general info,
    /// a request of the manager's own table.
    pub(super) fn send_keepalive(&mut self, ctx: &mut AgentCtx) {
        let Some(watch) = self.watch.as_ref() else {
            return;
        };
        let req_id = self.requests.open_keepalive();
        let (addr, dwords) = general_info_read();
        let read = Pi4::ReadRequest {
            req_id,
            addr,
            dwords,
        };
        send_pi4(ctx, watch.primary.egress, watch.primary.pool.clone(), read);
        ctx.set_timer(watch.timeout, TOKEN_KEEPALIVE_CHECK);
    }

    /// Watching: the keepalive window elapsed; count the miss or re-arm.
    pub(super) fn on_keepalive_check(&mut self, ctx: &mut AgentCtx) {
        let Some(watch) = self.watch.as_mut() else {
            return;
        };
        if self.requests.close_keepalive() {
            watch.misses += 1;
            if watch.misses >= MISS_THRESHOLD {
                // The primary is gone: take over the fabric, abandoning
                // any in-flight collaborator run to re-discover solo.
                let (dsn, misses) = (ctx.host_info.dsn, watch.misses);
                self.cfg
                    .trace
                    .emit(ctx.now, || TraceEvent::FmFailover { dsn, misses });
                self.watch = None;
                let decided = self.role.decided().expect("only an election arms a watch");
                self.role = Role::Promoted(decided);
                // The run's requests leave the pending table with it.
                let dropped = self.engine.take();
                for req_id in dropped.iter().flat_map(Engine::pending_ids) {
                    ctx.cancel_timer(timeout_token(self.epoch, req_id));
                }
                self.acc = None;
                self.begin_full(ctx, Some(DiscoveryTrigger::Failover));
                return;
            }
        }
        // Next probe after the remainder of the interval.
        let gap = watch.interval.saturating_sub(watch.timeout);
        ctx.set_timer(gap.max(SimDuration::from_us(1)), TOKEN_START_STANDBY);
    }
}
