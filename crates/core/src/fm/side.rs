//! Side-channel configuration writes — path distribution and multicast
//! tables — behind one tracker: issue a batch of pipelined writes, hold
//! each until it is acknowledged, rejected or timed out, and tell the
//! batch's owner when the last one drains.

use super::*;
use crate::db::DeviceRoute;
use crate::mcast::plan_multicast;
use crate::pathdist::plan_distribution;
use asi_proto::CapabilityAddr;
use std::collections::HashSet;

/// Side-write request ids live in their own range so they can never
/// collide with engine request ids. They are never reused, which is why
/// their timeout tokens need no epoch.
const SIDE_REQ_BASE: u32 = 0xD000_0000;

/// Who hears that a batch of writes has drained.
enum SideOwner {
    /// A path-distribution phase, recorded in `distributions`.
    Distribution(DistributionRun),
    /// One multicast group, recorded in `mcast_configured` unless a
    /// write failed.
    Multicast { group: u16, failed: bool },
}

struct Batch {
    owner: SideOwner,
    pending: HashSet<u32>,
}

/// In-flight side writes, by batch.
#[derive(Default)]
pub(super) struct SideWrites {
    batches: Vec<Batch>,
    /// Writes issued so far; the next id is `SIDE_REQ_BASE` plus this.
    issued: u32,
}

impl FmAgent {
    /// Queues a multicast group for configuration; arm
    /// [`TOKEN_CONFIGURE_MCAST`] to flush.
    pub fn queue_multicast(&mut self, group: u16, members: Vec<u64>) {
        self.mcast_queue.push((group, members));
    }

    /// True once every injected multicast-table write has completed.
    pub fn mcast_settled(&self) -> bool {
        let writing = |b: &Batch| matches!(b.owner, SideOwner::Multicast { .. });
        self.mcast_queue.is_empty() && !self.side.batches.iter().any(writing)
    }

    /// Injects `writes` — delivery route, target region, blocks — as one
    /// pipelined batch.
    fn issue_batch(
        &mut self,
        ctx: &mut AgentCtx,
        mut owner: SideOwner,
        timeout: SimDuration,
        writes: Vec<(DeviceRoute, CapabilityAddr, Vec<u32>)>,
    ) {
        let mut pending = HashSet::new();
        for (route, addr, data) in writes {
            self.side.issued += 1;
            let req_id = SIDE_REQ_BASE + self.side.issued;
            let write = Pi4::WriteRequest { req_id, addr, data };
            let bytes = send_pi4(ctx, route.egress, route.pool, write);
            if let SideOwner::Distribution(run) = &mut owner {
                run.writes += 1;
                run.bytes_sent += bytes;
            }
            pending.insert(req_id);
            ctx.set_timer(timeout, timeout_token(0, req_id));
        }
        if pending.is_empty() {
            self.batch_drained(ctx.now, owner);
        } else {
            self.side.batches.push(Batch { owner, pending });
        }
    }

    /// A side write finished: acknowledged (`ok`), or rejected / timed
    /// out; its timeout is cancelled (a no-op if that is what fired).
    /// Returns false when `req_id` is not an in-flight side write.
    pub(super) fn side_complete(&mut self, ctx: &mut AgentCtx, req_id: u32, ok: bool) -> bool {
        if req_id < SIDE_REQ_BASE {
            return false;
        }
        let holds = |b: &mut Batch| b.pending.remove(&req_id);
        let Some(i) = self.side.batches.iter_mut().position(holds) else {
            return false;
        };
        ctx.cancel_timer(timeout_token(0, req_id));
        let now = ctx.now;
        let batch = &mut self.side.batches[i];
        if !ok {
            match &mut batch.owner {
                SideOwner::Distribution(run) => run.failures += 1,
                SideOwner::Multicast { failed, .. } => {
                    *failed = true;
                    self.mcast_failures += 1;
                }
            }
        }
        if batch.pending.is_empty() {
            let owner = self.side.batches.swap_remove(i).owner;
            self.batch_drained(now, owner);
        }
        true
    }

    fn batch_drained(&mut self, now: SimTime, owner: SideOwner) {
        match owner {
            SideOwner::Distribution(mut run) => {
                run.finished_at = now;
                self.distributions.push(run);
            }
            SideOwner::Multicast { group, failed } if !failed => self.mcast_configured.push(group),
            SideOwner::Multicast { .. } => {}
        }
    }

    /// Injects the route-table writes for every endpoint (pipelined).
    pub(super) fn begin_distribution(&mut self, ctx: &mut AgentCtx) {
        let Some(db) = self.db.as_ref() else { return };
        let (writes, unencodable) = plan_distribution(db, self.cfg.pool_capacity);
        let mut run = DistributionRun {
            started_at: ctx.now,
            finished_at: ctx.now,
            writes: 0,
            failures: 0,
            unencodable: unencodable.len() as u64,
            bytes_sent: 0,
        };
        // One BFS from the host serves every write's delivery route.
        let host_routes = db.routes_from(db.host_dsn(), self.cfg.pool_capacity);
        let mut planned = Vec::new();
        for w in writes {
            match host_routes.get(&w.target_dsn) {
                Some(Ok(route)) => planned.push((route.clone(), w.addr(), w.data)),
                _ => run.failures += 1,
            }
        }
        // The writes are fully pipelined, so the *last* completion sits
        // behind every earlier one in the FM's inbound queue: the timeout
        // must cover that queueing, not just one round trip.
        let per_packet = self
            .cfg
            .timing
            .pi4_time(self.cfg.algorithm, db.device_count());
        let timeout = self.cfg.request_timeout + per_packet * (planned.len() as u64 + 1) * 2;
        self.issue_batch(ctx, SideOwner::Distribution(run), timeout, planned);
    }

    /// Plans and injects the writes for every queued multicast group.
    pub(super) fn flush_mcast(&mut self, ctx: &mut AgentCtx) {
        let Some(db) = self.db.as_ref() else {
            return; // no topology yet; caller may re-arm after discovery
        };
        // One batched BFS covers every write target across all queued
        // groups; per-target `route_between` calls would re-run BFS per
        // switch and the results are documented-identical.
        let host = db.host_dsn();
        let host_routes = db.routes_from(host, self.cfg.pool_capacity);
        let mut batches = Vec::new();
        for (group, members) in std::mem::take(&mut self.mcast_queue) {
            let Ok(writes) = plan_multicast(db, group, &members) else {
                self.mcast_failures += 1;
                continue;
            };
            let mut planned = Vec::new();
            let mut failed = false;
            for w in &writes {
                match host_routes.get(&w.target_dsn) {
                    Some(Ok(route)) => planned.push((route.clone(), w.addr(), vec![w.mask])),
                    // The manager's own table needs no packet (the FM
                    // endpoint rarely joins groups in these experiments).
                    _ if w.target_dsn == host => {}
                    _ => {
                        failed = true;
                        self.mcast_failures += 1;
                    }
                }
            }
            if !planned.is_empty() {
                batches.push((SideOwner::Multicast { group, failed }, planned));
            }
        }
        for (owner, planned) in batches {
            self.issue_batch(ctx, owner, self.cfg.request_timeout * 4, planned);
        }
    }
}
