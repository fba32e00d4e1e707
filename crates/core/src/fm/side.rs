//! Side-channel configuration writes — path distribution, multicast
//! tables and PI-5 reporting routes — behind one tracker: issue a batch
//! of pipelined writes, hold each until it is acknowledged, rejected or
//! timed out, and tell the batch's owner when the last one drains.

use super::*;
use crate::db::DeviceRoute;
use crate::mcast::plan_multicast;
use crate::pathdist::plan_distribution;
use asi_proto::config::event_route_writes;
use asi_proto::{CapabilityAddr, MAX_COMPLETION_DWORDS};
use std::hash::{DefaultHasher, Hash, Hasher};

/// Side-write request ids live in their own range so they can never
/// collide with engine request ids. They are never reused, which is why
/// their timeout tokens need no epoch.
const SIDE_REQ_BASE: u32 = 0xD000_0000;

/// One write: delivery route, target region, blocks.
type SideWrite = (DeviceRoute, CapabilityAddr, Vec<u32>);

/// Who hears that a batch of writes has drained.
enum SideOwner {
    /// A path-distribution phase, recorded in `distributions`.
    Distribution(DistributionRun),
    /// One multicast group, recorded in `mcast_configured` unless a
    /// write failed.
    Multicast { group: u16, failed: bool },
    /// One device's PI-5 reporting route, recorded in `Reporting` unless
    /// a write failed; `attempt` counts the retries before this one, and
    /// `route` is kept only while the retry policy allows another.
    /// `header` holds back the write that makes a route valid, with its
    /// timeout, while the pool words of a route too long for one write
    /// are in flight: it leaves only once they are all acknowledged.
    Reporting {
        dsn: u64,
        route: Option<Box<EventRoute>>,
        header: Option<Box<(SideWrite, SimDuration)>>,
        attempt: u32,
        failed: bool,
    },
}

struct Batch {
    owner: SideOwner,
    /// Writes still in flight.
    pending: usize,
}

/// In-flight side writes, by batch.
#[derive(Default)]
pub(super) struct SideWrites {
    /// Each in-flight batch, under the id of its first write.
    batches: HashMap<u32, Batch>,
    /// The batch of each in-flight write.
    pending: HashMap<u32, u32>,
    /// Writes issued so far; the next id is `SIDE_REQ_BASE` plus this.
    issued: u32,
}

/// A PI-5 reporting route: the egress port and the turn pool.
type EventRoute = (u8, TurnPool);

/// The PI-5 reporting routes the manager keeps written, from
/// [`TOKEN_CONFIGURE_PI5`] on. A device has at most one route in flight:
/// a second route could land first, or mix its words with the first's.
/// The same route may go again while a copy is in flight, when it is
/// one write: whichever copy lands last, the register holds that route.
#[derive(Default)]
pub(super) struct Reporting {
    /// A digest of the route each device last acknowledged; a device
    /// whose write is in flight, failed or timed out has none.
    written: HashMap<u64, u64>,
    /// A digest of the route each device with a write in flight is
    /// being sent, and the copies of it in flight.
    writing: HashMap<u64, (u64, u32)>,
    /// The route to write once a device's write in flight drains: a
    /// walk found the device's route changed meanwhile.
    next: HashMap<u64, EventRoute>,
    /// Writes that failed with no retry left: each left its device
    /// without a valid route until a later walk writes it again.
    failures: u64,
    /// When the first configuration drained: every device had
    /// acknowledged its route, or failed to.
    configured_at: Option<SimTime>,
}

/// What the reporting-route diff compares: not the route, a digest of it.
fn route_digest((egress, pool): &EventRoute) -> u64 {
    let mut h = DefaultHasher::new();
    (egress, pool).hash(&mut h);
    h.finish()
}

/// True when `route` fits one write: its header and every pool word.
fn one_write((_, pool): &EventRoute) -> bool {
    usize::from(pool.len_bits().div_ceil(32)) < MAX_COMPLETION_DWORDS
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
        self.mcast_queue.is_empty() && !self.side.batches.values().any(writing)
    }

    /// True while no reporting-route write is in flight.
    pub fn pi5_routes_settled(&self) -> bool {
        self.reporting.as_ref().is_none_or(|r| r.writing.is_empty())
    }

    /// When the first PI-5 configuration drained: every device in the
    /// database had acknowledged its reporting route, or failed to.
    /// `None` until then.
    pub fn pi5_routes_configured_at(&self) -> Option<SimTime> {
        self.reporting.as_ref().and_then(|r| r.configured_at)
    }

    /// Reporting-route writes that failed with no retry left under the
    /// configured [`RetryPolicy`]: each left its device without a valid
    /// route until a later run's walk wrote it again.
    pub fn pi5_route_failures(&self) -> u64 {
        self.reporting.as_ref().map_or(0, |r| r.failures)
    }

    /// Injects `writes` as one pipelined batch.
    fn issue_batch(
        &mut self,
        ctx: &mut AgentCtx,
        mut owner: SideOwner,
        timeout: SimDuration,
        writes: Vec<SideWrite>,
    ) {
        let first = SIDE_REQ_BASE + self.side.issued + 1;
        let pending = writes.len();
        for (route, addr, data) in writes {
            self.side.issued += 1;
            let req_id = SIDE_REQ_BASE + self.side.issued;
            let write = Pi4::WriteRequest { req_id, addr, data };
            let bytes = send_pi4(ctx, route.egress, route.pool, write);
            if let SideOwner::Distribution(run) = &mut owner {
                run.writes += 1;
                run.bytes_sent += bytes;
            }
            self.side.pending.insert(req_id, first);
            ctx.set_timer(timeout, timeout_token(0, req_id));
        }
        if pending == 0 {
            self.batch_drained(ctx, owner);
        } else {
            self.side.batches.insert(first, Batch { owner, pending });
        }
    }

    /// A side write finished: acknowledged (`ok`), or rejected / timed
    /// out; its timeout is cancelled (a no-op if that is what fired).
    /// Returns false when `req_id` is not an in-flight side write.
    pub(super) fn side_complete(&mut self, ctx: &mut AgentCtx, req_id: u32, ok: bool) -> bool {
        let Some(id) = self.side.pending.remove(&req_id) else {
            return false;
        };
        ctx.cancel_timer(timeout_token(0, req_id));
        let batch = self
            .side
            .batches
            .get_mut(&id)
            .expect("a pending write's batch");
        batch.pending -= 1;
        if !ok {
            match &mut batch.owner {
                SideOwner::Distribution(run) => run.failures += 1,
                SideOwner::Multicast { failed, .. } => {
                    *failed = true;
                    self.mcast_failures += 1;
                }
                SideOwner::Reporting { failed, .. } => *failed = true,
            }
        }
        if batch.pending == 0 {
            let owner = self.side.batches.remove(&id).expect("present").owner;
            self.batch_drained(ctx, owner);
            if self.side.batches.is_empty() {
                // A burst of writes sized these maps; do not hold that
                // for the rest of the run.
                self.side.batches.shrink_to_fit();
                self.side.pending.shrink_to_fit();
            }
        }
        true
    }

    fn batch_drained(&mut self, ctx: &mut AgentCtx, owner: SideOwner) {
        match owner {
            SideOwner::Distribution(mut run) => {
                run.finished_at = ctx.now;
                self.distributions.push(run);
            }
            SideOwner::Multicast { group, failed } if !failed => self.mcast_configured.push(group),
            SideOwner::Multicast { .. } => {}
            SideOwner::Reporting {
                header: Some(header),
                failed: false,
                dsn,
                route,
                attempt,
            } => {
                let (write, timeout) = *header;
                let owner = SideOwner::Reporting {
                    dsn,
                    route,
                    header: None,
                    attempt,
                    failed: false,
                };
                self.issue_batch(ctx, owner, timeout, vec![write]);
            }
            SideOwner::Reporting {
                dsn,
                route,
                attempt,
                failed,
                ..
            } => {
                let reporting = self.reporting.as_mut().expect("armed before writing");
                let (digest, copies) = reporting.writing.get_mut(&dsn).expect("in flight");
                let digest = *digest;
                *copies -= 1;
                if !failed {
                    reporting.written.insert(dsn, digest);
                }
                if *copies > 0 {
                    return;
                }
                reporting.writing.remove(&dsn);
                let failed = reporting.written.get(&dsn) != Some(&digest);
                let follow = match (reporting.next.remove(&dsn), route.filter(|_| failed)) {
                    (Some(next), _) => Some((next, 0)),
                    (None, Some(route)) => Some((*route, attempt + 1)),
                    (None, None) => {
                        reporting.failures += u64::from(failed);
                        None
                    }
                };
                if let Some((route, attempt)) = follow {
                    self.write_route(ctx, dsn, route, attempt);
                }
                let reporting = self.reporting.as_mut().expect("armed before writing");
                if reporting.writing.is_empty() {
                    reporting.writing.shrink_to_fit();
                    reporting.next.shrink_to_fit();
                    reporting.configured_at.get_or_insert(ctx.now);
                }
            }
        }
    }

    /// The timeout of the last of `writes` fully pipelined writes: its
    /// completion sits behind every earlier one in the FM's inbound
    /// queue, so the timeout must cover that queueing, not just one
    /// round trip.
    fn pipelined_timeout(&self, db: &TopologyDb, writes: usize) -> SimDuration {
        let per_packet = (self.cfg.timing).pi4_time(self.cfg.algorithm, db.device_count());
        self.cfg.request_timeout + per_packet * (writes as u64 + 1) * 2
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
        let timeout = self.pipelined_timeout(db, planned.len());
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

    /// Arms the reporting routes: every device's is written now, or when
    /// the run in flight finishes, and after every later run the ones
    /// that changed ([`FmAgent::write_pi5_routes`]).
    pub(super) fn configure_pi5(&mut self, ctx: &mut AgentCtx) {
        self.reporting.get_or_insert_with(Box::default);
        if self.engine.is_none() {
            self.write_pi5_routes(ctx);
        }
    }

    /// Once armed, writes the PI-5 reporting route of every device whose
    /// route to the host differs from the one it last acknowledged —
    /// every device the first time. A device whose write is still in
    /// flight gets its new route once that write drains, never beside
    /// it. A device that left the database is forgotten.
    pub(super) fn write_pi5_routes(&mut self, ctx: &mut AgentCtx) {
        let (Some(db), Some(reporting)) = (self.db.as_ref(), self.reporting.as_mut()) else {
            return;
        };
        reporting.written.retain(|dsn, _| db.contains(*dsn));
        let mut planned = Vec::new();
        db.for_each_route_to(db.host_dsn(), self.cfg.pool_capacity, |dsn, route| {
            let Ok(route) = route else { return };
            let route = (route.egress, route.pool);
            let digest = route_digest(&route);
            if reporting.written.get(&dsn) == Some(&digest) {
                reporting.next.remove(&dsn);
                return;
            }
            match reporting.writing.get(&dsn) {
                None => planned.push((dsn, route)),
                // Again along today's route to the device: the copy in
                // flight may be lost on the one it took.
                Some(&(sent, _)) if sent == digest => {
                    reporting.next.remove(&dsn);
                    if one_write(&route) {
                        planned.push((dsn, route));
                    }
                }
                Some(_) => _ = reporting.next.insert(dsn, route),
            }
        });
        if planned.is_empty() && reporting.writing.is_empty() {
            reporting.configured_at.get_or_insert(ctx.now);
        }
        for (dsn, route) in planned {
            self.write_route(ctx, dsn, route, 0);
        }
    }

    /// Writes `route` into device `dsn`'s reporting register, along the
    /// database's route to the device — the one its own reads used. The
    /// timeout covers every side write already in flight ahead of this
    /// device's, and grows per `attempt` as the retry policy says.
    fn write_route(&mut self, ctx: &mut AgentCtx, dsn: u64, route: EventRoute, attempt: u32) {
        let (Some(db), Some(reporting)) = (self.db.as_ref(), self.reporting.as_mut()) else {
            return;
        };
        let Some(device) = db.device(dsn) else { return };
        reporting.written.remove(&dsn);
        reporting
            .writing
            .entry(dsn)
            .or_insert((route_digest(&route), 0))
            .1 += 1;
        let to = device.route.unpack();
        let mut writes: Vec<SideWrite> = event_route_writes(route.0, &route.1)
            .into_iter()
            .map(|(addr, data)| (to.clone(), addr, data))
            .collect();
        let queued = self.side.pending.len() + writes.len();
        let timeout = self.pipelined_timeout(db, queued);
        let timeout = (self.cfg.retry).attempt_timeout(timeout, attempt, dsn as u32);
        let header = writes.pop().expect("a route has a header");
        let (header, writes) = match writes.is_empty() {
            true => (None, vec![header]),
            false => (Some(Box::new((header, timeout))), writes),
        };
        let retries = (self.cfg.retry).allows_retry(self.cfg.request_timeout, attempt);
        let owner = SideOwner::Reporting {
            dsn,
            route: retries.then(|| Box::new(route)),
            header,
            attempt,
            failed: false,
        };
        self.issue_batch(ctx, owner, timeout, writes);
    }
}
