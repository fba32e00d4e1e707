//! The discovery engine: the paper's three algorithms as one state
//! machine; they differ in a single admission rule.
//!
//! The engine is deliberately I/O-free: it consumes completions/timeouts
//! and appends the [`OutRequest`]s they enable to a caller's buffer. The
//! [`crate::fm::FmAgent`] adapts it to the fabric's agent interface;
//! unit tests drive it directly.
//!
//! ## One admission rule (paper §3)
//!
//! The three algorithms are three answers to one question — *when may
//! the FM inject the next PI-4 request*. An exploration operation that
//! arises from a completion either waits until no request is outstanding
//! or is issued at once, which means while fewer than [`REQUEST_WINDOW`]
//! requests are outstanding:
//!
//! | algorithm      | port-block reads of a newly discovered device | probes (general-info reads) |
//! |----------------|-----------------------------------------------|-----------------------------|
//! | Serial Packet  | wait                                          | wait                        |
//! | Serial Device  | at once                                       | wait                        |
//! | Parallel       | at once                                       | at once                     |
//!
//! Only Parallel's flood ever reaches the window (one device has at most
//! 128 port-block reads), and only on fabrics far above the paper's:
//! Table 1 peaks at 271 outstanding. Past it, the extra requests would
//! only queue behind the FM's serial response processing (Figs. 7–8)
//! while host memory grew with the fabric's fan-out.
//!
//! The claim exchange (ownership write, then its read-back), the verify
//! reads and port-block re-reads a [`Region`] lists, and retries belong
//! to an operation already in flight and never wait, under any
//! algorithm.
//!
//! ## One queue, one pump
//!
//! Exploration that arises is put on one queue of waiting operations:
//! probes at the back (breadth-first). Where probes wait (the serial
//! algorithms), a new device's port reads go to the front in port order,
//! ahead of every probe already waiting; under Parallel they go to the
//! back too, so that a queue held by the window drains in the order the
//! unbounded flood would have issued it. After every completion or
//! timeout the *pump* issues from the front until it meets an operation
//! the table above tells to wait. The pending table is the only scheduler
//! state: Serial Packet's "one request at a time" and Serial Device's
//! "one device at a time" are both "the table is empty", Parallel's
//! window is "the table holds [`REQUEST_WINDOW`]". A waiting read whose
//! device has been forgotten in the meantime finds nothing to address
//! and is skipped. The run is done when the table and the queue are both
//! empty.
//!
//! A waiting operation is an 8-byte record, not a route: a port read
//! names its device by database slot and its first port, a probe the
//! slot and port it looks through plus the peer port it will enter by
//! (captured when queued, because a re-read may change it while the
//! probe waits). The probe's route is rebuilt when it is issued — the via
//! device's stored route plus one turn — which is the route it had when
//! queued, because inside one engine a stored route, a device type and a
//! port count never change while the device is known. Only forgetting a
//! device ends that, and frees its slot for reuse. So before the engine
//! forgets anything it detaches every waiting probe, with the route it
//! was queued with, and after, every waiting read of a device it forgot,
//! by DSN, into a side table: no waiting operation names a slot that no
//! longer holds its device, and each is issued (or skipped) exactly as
//! before. Requests in flight keep their full operation, so retries and
//! completions read it unchanged.
//!
//! ## Exploration bookkeeping
//!
//! The FM starts from its host endpoint (a local configuration-space
//! access, no packets). Each *probe* — a general-information read of the
//! device at the far end of a known active port — either discovers a new
//! device (insert, then read its port blocks, then probe beyond its other
//! active ports if it is a switch) or hits a DSN already in the database
//! (record the alternate-path link and stop, the dedup step of Fig. 2).

use crate::db::{DeviceRoute, TopologyDb};
use crate::metrics::Algorithm;
use crate::retry::RetryPolicy;
use asi_proto::{
    config::{general_info_read, port_info_read, port_info_reads, CAP_OWNERSHIP, OWNERSHIP_WORDS},
    turn_for, turn_width, CapabilityAddr, DeviceInfo, DeviceType, Dwords, Pi4Status, PortInfo,
    TurnPool, PORT_BLOCK_WORDS,
};
use asi_sim::{Arena, SimDuration, SimTime, TraceEvent, TraceHandle};
use std::collections::{BTreeSet, VecDeque};

/// The ownership claim register every device carries.
const OWNERSHIP: CapabilityAddr = CapabilityAddr {
    capability: CAP_OWNERSHIP,
    offset: 0,
};

/// The request window: exploration is issued only while fewer than this
/// many requests are outstanding, and otherwise waits on the queue
/// (module header).
pub const REQUEST_WINDOW: usize = 1024;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Which of the paper's algorithms to run.
    pub algorithm: Algorithm,
    /// Turn-pool capacity for computed routes.
    pub pool_capacity: u16,
    /// Distributed-discovery extension: claim each new device's ownership
    /// register and stop exploring past devices claimed by a rival FM.
    pub claim_partitioning: bool,
    /// When (and for how long) a timed-out request is re-issued before
    /// the engine gives up on its target (the default never retries —
    /// the paper's loss-free assumption).
    pub retry: RetryPolicy,
    /// Base per-request timeout the retry policy scales from; the FM
    /// copies its `request_timeout` here.
    pub base_timeout: SimDuration,
}

impl EngineConfig {
    /// Plain single-FM configuration.
    pub fn new(algorithm: Algorithm, pool_capacity: u16) -> EngineConfig {
        EngineConfig {
            algorithm,
            pool_capacity,
            claim_partitioning: false,
            retry: RetryPolicy::default(),
            base_timeout: SimDuration::from_ms(5),
        }
    }
}

/// A PI-4 request the engine wants injected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutRequest {
    /// Request id (echoed by the completion).
    pub req_id: u32,
    /// Egress port at the FM endpoint.
    pub egress: u8,
    /// Route to the target.
    pub pool: TurnPool,
    /// What to ask.
    pub op: OutOp,
    /// How long the issuer should wait for the completion before
    /// reporting a timeout (computed by the engine's [`RetryPolicy`]
    /// from the attempt number).
    pub timeout: SimDuration,
}

/// Request payload shapes the engine issues.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OutOp {
    /// `ReadRequest { addr, dwords }`.
    Read {
        /// Target region.
        addr: CapabilityAddr,
        /// Blocks to read.
        dwords: u8,
    },
    /// `WriteRequest { addr, data }` (ownership claims).
    Write {
        /// Target region.
        addr: CapabilityAddr,
        /// Blocks to write.
        data: Dwords,
    },
}

/// A device awaiting its general-information probe.
#[derive(Debug)]
struct ProbeTarget {
    route: DeviceRoute,
    /// The known device/port this probe looks through.
    via: (u64, u8),
}

/// An issued request: what it was for, plus its retry budget used.
#[derive(Debug)]
struct InFlight {
    kind: Pending,
    retries: u32,
    /// Request id of the operation's *first* attempt; seeds the retry
    /// policy's deterministic jitter so all attempts of one operation
    /// share a jitter stream.
    salt: u32,
}

/// In-flight request table specialised for the engine's key pattern.
///
/// Request ids come from a monotonically increasing counter and most
/// requests complete close to FIFO order, so the live ids always span a
/// narrow window `[head, head + slots.len())`. A sliding window of
/// `Option` slots makes insert/lookup/remove plain index arithmetic —
/// no hashing, no probing — which matters because the parallel
/// algorithm touches this table on every completion and timeout.
#[derive(Debug, Default)]
struct PendingTable {
    /// Slot `i` holds the request with id `head + i`.
    slots: VecDeque<Option<InFlight>>,
    /// Request id of `slots[0]`.
    head: u32,
    live: usize,
}

impl PendingTable {
    fn new() -> Self {
        PendingTable::default()
    }

    /// Inserts under `req_id`. Ids must be inserted in increasing order
    /// (guaranteed by the engine's `next_req` counter, including for
    /// retries, which are re-issued under fresh ids).
    fn insert(&mut self, req_id: u32, inflight: InFlight) {
        if self.slots.is_empty() {
            self.head = req_id;
        }
        let idx = (req_id - self.head) as usize;
        debug_assert!(idx >= self.slots.len(), "request ids must be monotonic");
        self.slots.resize_with(idx, || None);
        self.slots.push_back(Some(inflight));
        self.live += 1;
    }

    fn remove(&mut self, req_id: u32) -> Option<InFlight> {
        let idx = usize::try_from(req_id.checked_sub(self.head)?).ok()?;
        let taken = self.slots.get_mut(idx)?.take()?;
        self.live -= 1;
        // Drop the drained prefix so the window tracks the live range.
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.head = self.head.wrapping_add(1);
        }
        Some(taken)
    }

    /// The ids in flight, in increasing order.
    fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        let live = self.slots.iter().enumerate().filter(|(_, s)| s.is_some());
        live.map(|(i, _)| self.head.wrapping_add(i as u32))
    }

    fn contains(&self, req_id: u32) -> bool {
        req_id
            .checked_sub(self.head)
            .and_then(|off| self.slots.get(off as usize))
            .is_some_and(|slot| slot.is_some())
    }

    fn len(&self) -> usize {
        self.live
    }

    fn is_empty(&self) -> bool {
        self.live == 0
    }
}

/// An exploration operation waiting for its turn (module header): 8
/// bytes, where a [`Pending`] probe carries a 72-byte turn pool. A known
/// device is named by its database slot.
#[derive(Debug)]
enum Waiting {
    /// A probe through `port` of the known device in slot `via`, entering
    /// the device behind it at `entry_port`; its route is built at issue.
    Probe { via: u32, port: u8, entry_port: u8 },
    /// The read of up to two port blocks of the known device in `slot`.
    Ports { slot: u32, first_port: u16 },
    /// An operation detached by [`Engine::forget`]: entry `0` of
    /// [`Engine::detached`], a probe with the route it was queued with or
    /// a port read by DSN.
    Detached(u32),
}

/// A discovery operation. The kind alone says which device to address
/// and what to ask it ([`Engine::request_for`]), so a request in flight
/// and its retry are the same value.
#[derive(Debug)]
enum Pending {
    /// A probe: the general-information read of whatever answers.
    General(ProbeTarget),
    /// The read of up to two port blocks of a known device.
    Ports {
        dsn: u64,
        first_port: u16,
    },
    ClaimWrite {
        dsn: u64,
    },
    ClaimCheck {
        dsn: u64,
    },
    /// Warm start: a targeted general-information read that checks a
    /// snapshotted device is still there and unchanged.
    Verify {
        dsn: u64,
    },
}

/// Per-run counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests issued.
    pub requests: u64,
    /// Completions consumed (data or error).
    pub responses: u64,
    /// Requests abandoned by timeout.
    pub timeouts: u64,
    /// Largest number of simultaneously outstanding requests — 1 for
    /// Serial Packet by construction, at most [`REQUEST_WINDOW`] in a
    /// cold run.
    pub max_outstanding: usize,
    /// Requests re-issued after a timeout.
    pub retries: u64,
    /// Probes answered by an already-known DSN (alternate paths).
    pub duplicate_probes: u64,
    /// Devices whose exploration was ceded to a rival manager
    /// (claim partitioning only).
    pub ceded_devices: u64,
    /// Requests the retry policy gave up on (timed out with no budget
    /// left) — the engine's graceful-degradation signal.
    pub abandoned: u64,
    /// Probes answered by the device they were meant to look *through*:
    /// the route went stale while the fabric churned and the turn pool
    /// walked the packet back to its own origin. Recording that answer
    /// would invent a loopback cable, so the probe is dropped instead.
    pub stale_probes: u64,
}

/// Folds a later phase's counters into a run total: counts add, the
/// outstanding high-water mark takes the maximum.
impl std::ops::AddAssign for EngineStats {
    fn add_assign(&mut self, b: EngineStats) {
        self.requests += b.requests;
        self.responses += b.responses;
        self.timeouts += b.timeouts;
        self.max_outstanding = self.max_outstanding.max(b.max_outstanding);
        self.retries += b.retries;
        self.duplicate_probes += b.duplicate_probes;
        self.ceded_devices += b.ceded_devices;
        self.abandoned += b.abandoned;
        self.stale_probes += b.stale_probes;
    }
}

/// What one [`Engine::reconcile`] covers: three lists over the database
/// it is given. A region is a set — order, duplicates and DSNs the
/// database does not hold change nothing.
#[derive(Clone, Debug, Default)]
pub struct Region {
    /// Devices to confirm with one general-information read each (warm
    /// start, PI-5 storm). A device that answers differently, answers
    /// with an error or never answers lands in [`Engine::mismatched`];
    /// the engine does not forget it — the FM decides what follows.
    pub verify: Vec<u64>,
    /// Devices whose port blocks to re-read: a refresh of what the
    /// database holds, which re-probes whatever their ports now face.
    pub reread: Vec<u64>,
    /// `(known dsn, port)` pairs to probe through.
    pub probe_via: Vec<(u64, u8)>,
}

impl Region {
    /// The cold start: a fresh database holding the host endpoint, read
    /// locally, with its ports, and the region that probes through each
    /// of them.
    pub fn cold(host: DeviceInfo, ports: &[PortInfo], pool_capacity: u16) -> (TopologyDb, Region) {
        let mut db = TopologyDb::new(host.dsn);
        let route = DeviceRoute {
            egress: 0,
            pool: TurnPool::with_capacity(pool_capacity),
            entry_port: 0,
            hops: 0,
        };
        db.insert_device(host, route);
        for (p, info) in ports.iter().enumerate() {
            db.set_port(host.dsn, p as u16, *info);
        }
        let probe_via = (0..ports.len()).map(|p| (host.dsn, p as u8)).collect();
        let region = Region {
            probe_via,
            ..Region::default()
        };
        (db, region)
    }
}

/// The discovery state machine.
pub struct Engine {
    cfg: EngineConfig,
    /// The database under construction.
    pub db: TopologyDb,
    /// DSNs of rival managers observed in ownership registers while
    /// claim partitioning (input to the election decision).
    pub rivals: BTreeSet<u64>,
    /// Boundary devices ceded to a rival, as `(device, owner)` pairs in
    /// cede order (claim partitioning only).
    pub ceded: Vec<(u64, u64)>,
    /// Requests in flight.
    pending: PendingTable,
    /// Exploration waiting for its turn, in issue order (module header).
    queue: VecDeque<Waiting>,
    /// The waiting operations [`Engine::forget`] detached from their
    /// slots, whole: a [`Pending::General`] or a [`Pending::Ports`].
    detached: Arena<Pending>,
    next_req: u32,
    stats: EngineStats,
    my_dsn: u64,
    /// Verification outcomes (empty unless the region verifies).
    verified: Vec<u64>,
    mismatched: Vec<u64>,
    /// See [`Engine::reconciled_devices`].
    reconciled: usize,
    /// Observability sink (disabled by default; see [`Engine::set_trace`]).
    trace: TraceHandle,
    /// The engine is clockless: the caller stamps the current simulated
    /// time before delegating completions/timeouts so trace records carry
    /// real timestamps.
    trace_now: SimTime,
}

impl Engine {
    /// The one way into discovery: reconciles `db` with the fabric over
    /// `region`. It refreshes every stored route over the current link
    /// set first (the paper's "obtain a new set of paths": a stored route
    /// may cross the very device whose loss started this run). Then it
    /// issues the verify reads, closest first, queues the probes, issues
    /// the port-block re-reads in DSN order, and pumps; probes only
    /// queue, so they go out last. A pair that cannot build a probe (a
    /// hot-add into a port the database last saw down) re-reads its
    /// device instead, and the fresh port info leads to the probe. The
    /// region is consumed and canonicalised in place, without a copy.
    /// The first requests to inject are appended to `out`.
    pub fn reconcile(
        cfg: EngineConfig,
        mut db: TopologyDb,
        region: Region,
        out: &mut Vec<OutRequest>,
    ) -> Engine {
        db.refresh_routes(cfg.pool_capacity);
        let Region {
            mut verify,
            mut reread,
            mut probe_via,
        } = region;
        let host = db.host_dsn();
        // Closest first; the host is read locally.
        verify.retain(|&dsn| dsn != host && db.contains(dsn));
        verify.sort_unstable_by_key(|&dsn| (db.device(dsn).map(|d| d.route.hops), dsn));
        verify.dedup();
        reread.retain(|&dsn| db.contains(dsn));
        probe_via.retain(|&(dsn, _)| db.contains(dsn));
        probe_via.sort_unstable();
        probe_via.dedup();
        let mut engine = Engine {
            cfg,
            my_dsn: host,
            reconciled: db.device_count(),
            db,
            rivals: BTreeSet::new(),
            ceded: Vec::new(),
            pending: PendingTable::new(),
            queue: VecDeque::new(),
            detached: Arena::new(),
            next_req: 1,
            stats: EngineStats::default(),
            verified: Vec::new(),
            mismatched: Vec::new(),
            trace: TraceHandle::disabled(),
            trace_now: SimTime::ZERO,
        };
        for dsn in verify {
            out.extend(engine.issue(Pending::Verify { dsn }));
        }
        for (dsn, port) in probe_via {
            if !engine.probe(dsn, port) {
                reread.push(dsn);
            }
        }
        reread.sort_unstable();
        reread.dedup();
        for dsn in reread {
            engine.reread_ports(dsn, out);
        }
        engine.pump(out);
        engine
    }

    /// Devices the database held when it was reconciled, host included:
    /// what a verification's mismatches are a fraction of.
    pub fn reconciled_devices(&self) -> usize {
        self.reconciled
    }

    /// DSNs confirmed unchanged by a verification pass, in completion
    /// order.
    pub fn verified(&self) -> &[u64] {
        &self.verified
    }

    /// DSNs a verification pass could not confirm (changed, erroring, or
    /// silent), in detection order.
    pub fn mismatched(&self) -> &[u64] {
        &self.mismatched
    }

    /// Installs a trace sink. Emits [`TraceEvent::DeviceDiscovered`] on
    /// every database insert, [`TraceEvent::RequestCompleted`] /
    /// [`TraceEvent::RequestTimedOut`] as completions and timeouts are
    /// consumed, and [`TraceEvent::PendingTableSize`] whenever the
    /// in-flight table changes size. Call [`Engine::set_trace_time`]
    /// before delegating events so records carry the right timestamp.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Stamps the simulated time used for subsequent trace records (the
    /// engine itself is clockless).
    pub fn set_trace_time(&mut self, now: SimTime) {
        self.trace_now = now;
    }

    /// Emits the current pending-table size.
    fn trace_pending(&self) {
        let size = self.pending.len() as u32;
        self.trace
            .emit(self.trace_now, || TraceEvent::PendingTableSize { size });
    }

    /// True once the pending table and the queue of waiting operations
    /// are both empty.
    pub fn is_done(&self) -> bool {
        self.pending.is_empty() && self.queue.is_empty()
    }

    /// Run counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Requests currently in flight.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// True if `req_id` is still awaiting a completion.
    pub fn is_pending(&self, req_id: u32) -> bool {
        self.pending.contains(req_id)
    }

    /// The ids of the requests in flight, in increasing order.
    pub fn pending_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.pending.ids()
    }

    /// Consumes a PI-4 completion. `words` is the data of a successful
    /// read, `Err` carries a read/write error status. Write completions
    /// pass `Ok(&[])`. The requests it enables are appended to `out`.
    pub fn handle_completion(
        &mut self,
        req_id: u32,
        result: Result<&[u32], Pi4Status>,
        out: &mut Vec<OutRequest>,
    ) {
        let Some(inflight) = self.pending.remove(req_id) else {
            return; // stale (timed out earlier)
        };
        self.stats.responses += 1;
        let ok = result.is_ok();
        self.trace
            .emit(self.trace_now, || TraceEvent::RequestCompleted {
                req_id,
                ok,
            });
        self.trace_pending();
        match (inflight.kind, result) {
            (Pending::General(target), Ok(words)) => self.on_general(target, words, out),
            // No usable device behind that port.
            (Pending::General(_), Err(_)) => {}
            (Pending::Ports { dsn, first_port }, Ok(words)) => {
                self.on_ports(dsn, first_port, words)
            }
            // Confirm ownership with a read-back.
            (Pending::ClaimWrite { dsn }, Ok(_)) => {
                out.extend(self.issue(Pending::ClaimCheck { dsn }));
            }
            (Pending::ClaimCheck { dsn }, Ok(words)) => {
                let owner = match words {
                    [hi, lo, ..] => (u64::from(*hi) << 32) | u64::from(*lo),
                    _ => 0,
                };
                if owner == self.my_dsn {
                    self.explore_ports(dsn);
                } else {
                    // A rival got there first: keep the device + link but
                    // leave its region to the rival.
                    if owner != 0 {
                        self.rivals.insert(owner);
                    }
                    self.ceded.push((dsn, owner));
                    self.stats.ceded_devices += 1;
                    let to = owner;
                    self.trace
                        .emit(self.trace_now, || TraceEvent::FmYield { dsn, to });
                }
            }
            // Device died mid-exploration: forget it.
            (
                Pending::Ports { dsn, .. }
                | Pending::ClaimWrite { dsn }
                | Pending::ClaimCheck { dsn },
                Err(_),
            ) => self.forget(dsn),
            (Pending::Verify { dsn }, result) => {
                let matches = matches!(
                    result.ok().and_then(DeviceInfo::from_words),
                    Some(info) if self.db.device(dsn).is_some_and(|d| d.info == info)
                );
                if matches {
                    self.verified.push(dsn);
                    self.trace
                        .emit(self.trace_now, || TraceEvent::WarmVerified { dsn });
                } else {
                    self.mismatch(dsn);
                }
            }
        }
        self.pump(out);
    }

    /// Handles a request that never completed: re-issue it while the
    /// retry budget lasts, otherwise give the target up (the paper's FM
    /// assumes a removed device). Requests go to `out`.
    pub fn handle_timeout(&mut self, req_id: u32, out: &mut Vec<OutRequest>) {
        let Some(inflight) = self.pending.remove(req_id) else {
            return;
        };
        self.stats.timeouts += 1;
        self.trace
            .emit(self.trace_now, || TraceEvent::RequestTimedOut { req_id });
        self.trace_pending();
        if self
            .cfg
            .retry
            .allows_retry(self.cfg.base_timeout, inflight.retries)
        {
            if let Some((route, op)) = self.request_for(&inflight.kind) {
                self.stats.retries += 1;
                let (retries, salt) = (inflight.retries + 1, Some(inflight.salt));
                out.push(self.issue_attempt(route, op, inflight.kind, retries, salt));
                return;
            }
        }
        self.stats.abandoned += 1;
        self.trace
            .emit(self.trace_now, || TraceEvent::RequestAbandoned { req_id });
        match inflight.kind {
            Pending::General(_) => {}
            Pending::Ports { dsn, .. }
            | Pending::ClaimWrite { dsn }
            | Pending::ClaimCheck { dsn } => self.forget(dsn),
            // A silent device is a mismatch, not a removal: the FM owns
            // the decision to re-discover around it.
            Pending::Verify { dsn } => self.mismatch(dsn),
        }
        self.pump(out);
    }

    // ------------------------------------------------------------------

    /// The paper's three algorithms (§3): which exploration kinds, as
    /// `(port reads, probes)`, wait until no request is outstanding.
    fn serial_kinds(&self) -> (bool, bool) {
        match self.cfg.algorithm {
            Algorithm::SerialPacket => (true, true),
            Algorithm::SerialDevice => (false, true),
            Algorithm::Parallel => (false, false),
        }
    }

    /// The admission rule: must a waiting operation of this kind wait,
    /// with the requests now outstanding? A serial kind waits for an
    /// empty table, any other for a place in the window. Only exploration
    /// is ever asked — the other kinds continue an operation already in
    /// flight and are issued directly.
    fn waits(&self, waiting: &Waiting) -> bool {
        let (port_reads_wait, probes_wait) = self.serial_kinds();
        let serial = match waiting {
            Waiting::Ports { .. } => port_reads_wait,
            Waiting::Probe { .. } => probes_wait,
            Waiting::Detached(at) => match self.detached.get(*at) {
                Pending::General(_) => probes_wait,
                _ => port_reads_wait,
            },
        };
        let outstanding = self.pending.len();
        if serial {
            outstanding > 0
        } else {
            outstanding >= REQUEST_WINDOW
        }
    }

    /// Issues waiting operations from the front of the queue until one
    /// has to wait for outstanding requests. A waiting read whose device
    /// has been forgotten since has nothing to address and is skipped.
    fn pump(&mut self, out: &mut Vec<OutRequest>) {
        while let Some(waiting) = self.queue.front() {
            if self.waits(waiting) {
                break;
            }
            let kind = match self.queue.pop_front().expect("front was just seen") {
                Waiting::Probe {
                    via,
                    port,
                    entry_port,
                } => Pending::General(self.probe_target(via, port, entry_port)),
                Waiting::Ports { slot, first_port } => {
                    let device = self.db.device_at(slot);
                    let device = device.expect("forget detaches the reads of what it drops");
                    let dsn = device.info.dsn;
                    Pending::Ports { dsn, first_port }
                }
                Waiting::Detached(at) => self.detached.take(at),
            };
            out.extend(self.issue(kind));
        }
    }

    fn mismatch(&mut self, dsn: u64) {
        self.mismatched.push(dsn);
        self.trace
            .emit(self.trace_now, || TraceEvent::VerifyMismatch { dsn });
    }

    fn on_general(&mut self, target: ProbeTarget, words: &[u32], out: &mut Vec<OutRequest>) {
        let Some(info) = DeviceInfo::from_words(words) else {
            return; // garbled response: treat like an error completion
        };
        if info.dsn == target.via.0 {
            // The responder is the very device this probe looked
            // through: a route that went stale mid-run (fabric churn)
            // can terminate early and deliver the probe back to its
            // origin. No device answers for its own peer — recording
            // the link would cable the device to itself, permanently.
            // The reporter's port re-read repairs the real adjacency.
            self.stats.stale_probes += 1;
            return;
        }
        let entry_port = target.route.entry_port;
        // Insert before recording the link this probe traversed, so that
        // a new device's adjacency row is sized by its port count.
        let new = self.db.insert_device(info, target.route);
        self.db.add_link(target.via, (info.dsn, entry_port));
        if !new {
            // Alternate path to a known device (Fig. 2: "already
            // discovered — update connectivity and stop").
            self.stats.duplicate_probes += 1;
            return;
        }
        self.trace
            .emit(self.trace_now, || TraceEvent::DeviceDiscovered {
                dsn: info.dsn,
                switch: info.device_type == DeviceType::Switch,
                ports: info.port_count,
            });
        if self.cfg.claim_partitioning {
            out.extend(self.issue(Pending::ClaimWrite { dsn: info.dsn }));
        } else {
            self.explore_ports(info.dsn);
        }
    }

    /// Queues the port-block reads of a freshly discovered device, in
    /// port order: ahead of every probe already waiting where probes
    /// wait, else behind everything waiting, in the flood's own order.
    fn explore_ports(&mut self, dsn: u64) {
        let Some(slot) = self.db.slot_of(dsn) else {
            return;
        };
        let port_count = self.db.device_at(slot).expect("known").info.port_count;
        let reads = port_info_reads(port_count);
        let reads = reads.map(|first_port| Waiting::Ports { slot, first_port });
        if self.serial_kinds().1 {
            for read in reads.rev() {
                self.queue.push_front(read);
            }
        } else {
            self.queue.extend(reads);
        }
    }

    /// Re-reads every port block of a known device at once: a refresh of
    /// what the database holds, not exploration, so it never waits.
    fn reread_ports(&mut self, dsn: u64, out: &mut Vec<OutRequest>) {
        if dsn == self.my_dsn {
            return; // host is read locally
        }
        let Some(port_count) = self.db.device(dsn).map(|d| d.info.port_count) else {
            return;
        };
        for first_port in port_info_reads(port_count) {
            out.extend(self.issue(Pending::Ports { dsn, first_port }));
        }
    }

    fn on_ports(&mut self, dsn: u64, first_port: u16, words: &[u32]) {
        // A device forgotten after an earlier error/timeout makes this
        // late completion moot.
        let Some(device) = self.db.device(dsn) else {
            return;
        };
        // An endpoint's only port leads back to where the FM came from.
        let is_switch = device.info.device_type == DeviceType::Switch;
        let blocks = words.chunks_exact(usize::from(PORT_BLOCK_WORDS));
        for (port, block) in (first_port..).zip(blocks) {
            let Some(info) = PortInfo::from_words(block) else {
                continue;
            };
            self.db.set_port(dsn, port, info);
            if is_switch {
                self.probe(dsn, port as u8);
            }
        }
    }

    /// Queues a probe through `(dsn, port)` of a known switch (or the
    /// host endpoint) behind everything already waiting (breadth-first):
    /// `false` when no probe can be built — the port is unknown or not
    /// active, is the switch's own way back to the FM, or its turn would
    /// overflow the route's pool.
    fn probe(&mut self, dsn: u64, port: u8) -> bool {
        let Some(via) = self.db.slot_of(dsn) else {
            return false;
        };
        let device = self.db.device_at(via).expect("a known device's slot");
        let Some(Some(pinfo)) = device.ports.get(usize::from(port)) else {
            return false;
        };
        if !pinfo.state.is_active() {
            return false;
        }
        if device.info.device_type == DeviceType::Switch {
            // A back edge looks at the device we came through: nothing
            // new there, and no turn can route out the entry port.
            if port == device.route.entry_port {
                return false;
            }
            let pool = &device.route.pool;
            let width = turn_width(device.info.port_count as u8);
            if pool.len_bits() + u16::from(width) > pool.capacity() {
                return false;
            }
        }
        let entry_port = pinfo.peer_port;
        self.queue.push_back(Waiting::Probe {
            via,
            port,
            entry_port,
        });
        true
    }

    /// The probe through `port` of the device in slot `via` that
    /// [`Engine::probe`] accepted, its route built from the via device's:
    /// one turn more through a switch, none out of an endpoint, and the
    /// host's own port is the egress of a route with no switch hop yet.
    fn probe_target(&self, via: u32, port: u8, entry_port: u8) -> ProbeTarget {
        let device = self
            .db
            .device_at(via)
            .expect("a waiting probe's via device is known: forget detaches them first");
        let dsn = device.info.dsn;
        let mut pool = device.route.pool.to_pool();
        let (egress, hops) = if dsn == self.my_dsn {
            (port, 0)
        } else {
            (device.route.egress, device.route.hops + 1)
        };
        if device.info.device_type == DeviceType::Switch {
            let ports = device.info.port_count as u8;
            let turn = turn_for(device.route.entry_port, port, ports);
            pool.push_turn(turn, turn_width(ports))
                .expect("the turn fitted when the probe was queued");
        }
        ProbeTarget {
            route: DeviceRoute {
                egress,
                pool,
                entry_port,
                hops,
            },
            via: (dsn, port),
        }
    }

    /// Drops a half-explored device (it stopped answering). Requests in
    /// flight to it will be answered or time out, and its waiting reads
    /// will be pumped; all three paths tolerate the missing DSN. Waiting
    /// probes are detached first, while every via device is still known,
    /// so that each is issued on the route it was queued with; the
    /// waiting reads of every device dropped are detached after, by the
    /// DSN their slot held, so that a slot claimed again later is not
    /// read for them.
    fn forget(&mut self, dsn: u64) {
        if dsn == self.my_dsn {
            return;
        }
        for i in 0..self.queue.len() {
            if let Waiting::Probe {
                via,
                port,
                entry_port,
            } = self.queue[i]
            {
                let target = self.probe_target(via, port, entry_port);
                let at = self.detached.alloc(Pending::General(target));
                self.queue[i] = Waiting::Detached(at);
            }
        }
        self.db.remove_device(dsn);
        self.db.prune_unreachable();
        for i in 0..self.queue.len() {
            if let Waiting::Ports { slot, first_port } = self.queue[i] {
                if self.db.device_at(slot).is_none() {
                    let dsn = self.db.dsn_at(slot);
                    let at = self.detached.alloc(Pending::Ports { dsn, first_port });
                    self.queue[i] = Waiting::Detached(at);
                }
            }
        }
    }

    /// The one place an operation becomes a route and a PI-4 request —
    /// for a first attempt and for a retry alike. `None` when the device
    /// it addresses has left the database.
    fn request_for(&self, kind: &Pending) -> Option<(DeviceRoute, OutOp)> {
        let read = |(addr, dwords)| OutOp::Read { addr, dwords };
        let route_to = |dsn: u64| Some(self.db.device(dsn)?.route.unpack());
        Some(match *kind {
            Pending::General(ref target) => (target.route.clone(), read(general_info_read())),
            Pending::Ports { dsn, first_port } => {
                let d = self.db.device(dsn)?;
                let block = port_info_read(first_port, d.info.port_count)?;
                (d.route.unpack(), read(block))
            }
            Pending::ClaimWrite { dsn } => {
                let data = [(self.my_dsn >> 32) as u32, self.my_dsn as u32][..].into();
                let addr = OWNERSHIP;
                (route_to(dsn)?, OutOp::Write { addr, data })
            }
            Pending::ClaimCheck { dsn } => {
                (route_to(dsn)?, read((OWNERSHIP, OWNERSHIP_WORDS as u8)))
            }
            Pending::Verify { dsn } => (route_to(dsn)?, read(general_info_read())),
        })
    }

    /// Issues the first attempt of an operation.
    fn issue(&mut self, kind: Pending) -> Option<OutRequest> {
        let (route, op) = self.request_for(&kind)?;
        Some(self.issue_attempt(route, op, kind, 0, None))
    }

    /// Issues attempt `retries` of an operation; `salt` is the first
    /// attempt's request id (`None` for a fresh operation, whose own id
    /// becomes the salt).
    fn issue_attempt(
        &mut self,
        route: DeviceRoute,
        op: OutOp,
        pending: Pending,
        retries: u32,
        salt: Option<u32>,
    ) -> OutRequest {
        let req_id = self.next_req;
        self.next_req += 1;
        let salt = salt.unwrap_or(req_id);
        let timeout = self
            .cfg
            .retry
            .attempt_timeout(self.cfg.base_timeout, retries, salt);
        self.pending.insert(
            req_id,
            InFlight {
                kind: pending,
                retries,
                salt,
            },
        );
        self.stats.requests += 1;
        self.stats.max_outstanding = self.stats.max_outstanding.max(self.pending.len());
        self.trace_pending();
        OutRequest {
            req_id,
            egress: route.egress,
            pool: route.pool,
            op,
            timeout,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asi_proto::PortState;

    fn endpoint_info(dsn: u64) -> DeviceInfo {
        DeviceInfo {
            device_type: DeviceType::Endpoint,
            dsn,
            port_count: 1,
            max_packet_size: 2048,
            fm_capable: true,
            fm_priority: 0,
        }
    }

    fn switch_words(dsn: u64) -> Vec<u32> {
        DeviceInfo {
            device_type: DeviceType::Switch,
            dsn,
            port_count: 4,
            max_packet_size: 2048,
            fm_capable: false,
            fm_priority: 0,
        }
        .to_words()
        .to_vec()
    }

    fn active_port(peer_port: u8) -> PortInfo {
        PortInfo {
            state: PortState::Active,
            link_width: 1,
            link_speed: 10,
            peer_port,
        }
    }

    fn cfg(algorithm: Algorithm) -> EngineConfig {
        EngineConfig::new(algorithm, asi_proto::MAX_POOL_BITS)
    }

    /// A cold start from the host endpoint `host` with `ports`.
    fn start(
        cfg: EngineConfig,
        host: DeviceInfo,
        ports: &[PortInfo],
        out: &mut Vec<OutRequest>,
    ) -> Engine {
        let (db, region) = Region::cold(host, ports, cfg.pool_capacity);
        Engine::reconcile(cfg, db, region, out)
    }

    /// The region that only probes through `probe_via`.
    fn probes(probe_via: &[(u64, u8)]) -> Region {
        Region {
            probe_via: probe_via.to_vec(),
            ..Region::default()
        }
    }

    /// The requests one engine call appends to a fresh buffer.
    fn step(call: impl FnOnce(&mut Vec<OutRequest>)) -> Vec<OutRequest> {
        let mut out = Vec::new();
        call(&mut out);
        out
    }

    #[test]
    fn isolated_host_finishes_immediately() {
        for alg in Algorithm::all() {
            let mut out = Vec::new();
            let engine = start(
                cfg(alg),
                endpoint_info(1),
                &[PortInfo::default()], // port down
                &mut out,
            );
            assert!(out.is_empty(), "{alg}: no requests expected");
            assert!(engine.is_done(), "{alg}: must finish immediately");
            assert_eq!(engine.db.device_count(), 1);
        }
    }

    #[test]
    fn start_probes_each_active_host_port() {
        let mut two_port = endpoint_info(1);
        two_port.port_count = 2;
        let mut out = Vec::new();
        let engine = start(
            cfg(Algorithm::Parallel),
            two_port,
            &[active_port(3), active_port(5)],
            &mut out,
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].egress, 0);
        assert_eq!(out[1].egress, 1);
        assert!(!engine.is_done());
        assert_eq!(engine.outstanding(), 2);
        // Serial variants issue only the first probe.
        let mut out = Vec::new();
        start(
            cfg(Algorithm::SerialPacket),
            two_port,
            &[active_port(3), active_port(5)],
            &mut out,
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn error_completion_on_probe_moves_on() {
        let mut out = Vec::new();
        let mut engine = start(
            cfg(Algorithm::SerialPacket),
            endpoint_info(1),
            &[active_port(0)],
            &mut out,
        );
        let req = out[0].req_id;
        let next = step(|o| engine.handle_completion(req, Err(Pi4Status::ConfigurationRetry), o));
        assert!(next.is_empty());
        assert!(engine.is_done(), "failed probe must not wedge the engine");
        assert_eq!(engine.stats().responses, 1);
    }

    #[test]
    fn timeout_on_probe_moves_on() {
        let mut out = Vec::new();
        let mut engine = start(
            cfg(Algorithm::Parallel),
            endpoint_info(1),
            &[active_port(0)],
            &mut out,
        );
        let req = out[0].req_id;
        assert!(engine.is_pending(req));
        let next = step(|o| engine.handle_timeout(req, o));
        assert!(next.is_empty());
        assert!(engine.is_done());
        assert_eq!(engine.stats().timeouts, 1);
        // A late completion for the timed-out request is ignored.
        let late = step(|o| engine.handle_completion(req, Ok(&switch_words(9)), o));
        assert!(late.is_empty());
        assert!(!engine.db.contains(9), "stale completion must not insert");
    }

    #[test]
    fn garbled_general_info_is_tolerated() {
        let mut out = Vec::new();
        let mut engine = start(
            cfg(Algorithm::SerialDevice),
            endpoint_info(1),
            &[active_port(0)],
            &mut out,
        );
        // All-zero words do not decode to a DeviceInfo.
        let next = step(|o| engine.handle_completion(out[0].req_id, Ok(&[0u32; 6]), o));
        assert!(next.is_empty());
        assert!(engine.is_done());
    }

    #[test]
    fn discovering_one_switch_reads_its_ports() {
        let mut out = Vec::new();
        let mut engine = start(
            cfg(Algorithm::SerialDevice),
            endpoint_info(1),
            &[active_port(2)], // host's link enters switch port 2
            &mut out,
        );
        // Serve the general probe with a 4-port switch.
        let reads = step(|o| engine.handle_completion(out[0].req_id, Ok(&switch_words(7)), o));
        // 4 ports at 2 per read = 2 port reads, all at once (SerialDevice).
        assert_eq!(reads.len(), 2);
        assert!(engine.db.contains(7));
        assert_eq!(engine.db.link_count(), 1);
        assert_eq!(engine.db.neighbor(1, 0), Some((7, 2)));

        // Answer both port reads: only the entry port is active.
        let mut port_words = Vec::new();
        port_words.extend(PortInfo::default().to_words());
        port_words.extend(PortInfo::default().to_words());
        let mut first = port_words.clone();
        first[0..4].copy_from_slice(&PortInfo::default().to_words());
        first[4..8].copy_from_slice(
            &PortInfo {
                state: PortState::Down,
                ..PortInfo::default()
            }
            .to_words(),
        );
        // Ports 0..2 down:
        let r1 = step(|o| engine.handle_completion(reads[0].req_id, Ok(&port_words), o));
        assert!(r1.is_empty());
        // Ports 2..4: port 2 is the back-edge (active), port 3 down.
        let mut words2 = Vec::new();
        words2.extend(active_port(0).to_words());
        words2.extend(PortInfo::default().to_words());
        let r2 = step(|o| engine.handle_completion(reads[1].req_id, Ok(&words2), o));
        assert!(r2.is_empty(), "back-edge must not be re-probed");
        assert!(engine.is_done());
        assert!(engine.db.device(7).unwrap().ports_complete());
    }

    #[test]
    fn seeded_with_nothing_is_done() {
        let db = TopologyDb::new(1);
        let mut out = Vec::new();
        let engine = Engine::reconcile(cfg(Algorithm::Parallel), db, Region::default(), &mut out);
        assert!(out.is_empty());
        assert!(engine.is_done());
    }

    /// Database: host(1) -- sw(7, 4 ports) at the switch's port 2; sw
    /// port 1 is active and unexplored (a hot-added neighbour).
    fn host_and_switch() -> TopologyDb {
        let mut db = TopologyDb::new(1);
        let route = |entry_port, hops| DeviceRoute {
            egress: 0,
            pool: TurnPool::with_capacity(64),
            entry_port,
            hops,
        };
        db.insert_device(endpoint_info(1), route(0, 0));
        let switch = DeviceInfo::from_words(&switch_words(7)).unwrap();
        db.insert_device(switch, route(2, 1));
        db.add_link((1, 0), (7, 2));
        for p in 0..4 {
            // Both peers are endpoints, so the peer port is 0.
            let active = p == 2 || p == 1;
            let info = if active {
                active_port(0)
            } else {
                PortInfo::default()
            };
            db.set_port(7, p, info);
        }
        db
    }

    #[test]
    fn seeded_probe_via_explores_through_a_known_port() {
        let db = host_and_switch();
        let mut out = Vec::new();
        let mut engine =
            Engine::reconcile(cfg(Algorithm::Parallel), db, probes(&[(7, 1)]), &mut out);
        assert_eq!(out.len(), 1, "one probe through (7, 1)");
        assert!(!engine.is_done());
        // The probe's pool carries the turn through switch 7 (entry 2 →
        // egress 1 on a 4-port switch).
        let mut expect = TurnPool::with_capacity(asi_proto::MAX_POOL_BITS);
        expect.push_turn(turn_for(2, 1, 4), turn_width(4)).unwrap();
        assert_eq!(out[0].pool, expect);
        // Answer with a fresh endpoint: discovery extends and completes.
        let mut ep9 = endpoint_info(9);
        ep9.fm_capable = false;
        let reads = step(|o| engine.handle_completion(out[0].req_id, Ok(&ep9.to_words()), o));
        assert_eq!(reads.len(), 1, "one port-block read for the endpoint");
        let done =
            step(|o| engine.handle_completion(reads[0].req_id, Ok(&active_port(1).to_words()), o));
        assert!(done.is_empty());
        assert!(engine.is_done());
        assert!(engine.db.contains(9));
        assert_eq!(engine.db.neighbor(7, 1), Some((9, 0)));
    }

    #[test]
    fn stale_probe_answered_by_its_own_origin_records_no_loopback_link() {
        // The probe through (7, 1) is answered by switch 7 itself — what
        // happens when a route goes stale mid-run (fabric churn) and the
        // turn pool walks the packet back to its origin. Recording the
        // answer would cable 7 to itself, a link no re-discovery could
        // ever remove.
        let db = host_and_switch();
        let mut out = Vec::new();
        let mut engine =
            Engine::reconcile(cfg(Algorithm::Parallel), db, probes(&[(7, 1)]), &mut out);
        assert_eq!(out.len(), 1);
        let done = step(|o| engine.handle_completion(out[0].req_id, Ok(&switch_words(7)), o));
        assert!(done.is_empty());
        assert!(engine.is_done());
        assert_eq!(engine.stats().stale_probes, 1);
        assert_eq!(engine.db.link_count(), 1, "only the host link remains");
        assert_eq!(engine.db.neighbor(7, 1), None, "no loopback cable");
    }

    /// A region is a set: shuffled, with duplicates and with a DSN the
    /// database does not hold, it issues exactly the requests of its
    /// canonical form — verifies closest first, then re-reads in DSN
    /// order (a probe that cannot be built among them), then probes.
    #[test]
    fn a_region_is_a_set() {
        // host(1) -- sw(7) port 2; sw(8) on 7's port 3; ep(9) on 7's
        // port 1, whose probe stays buildable.
        let mut db = host_and_switch();
        let far = DeviceInfo::from_words(&switch_words(8)).unwrap();
        let route = DeviceRoute {
            egress: 0,
            pool: TurnPool::with_capacity(64),
            entry_port: 0,
            hops: 2,
        };
        db.insert_device(far, route.clone());
        db.insert_device(endpoint_info(9), route);
        db.add_link((7, 3), (8, 0));
        db.add_link((7, 1), (9, 0));
        db.set_port(7, 3, active_port(0));
        db.set_port(8, 0, active_port(3));
        for alg in Algorithm::all() {
            let messy = Region {
                verify: vec![9, 42, 7, 1, 8, 9],
                reread: vec![8, 42, 7, 8],
                probe_via: vec![(8, 1), (7, 1), (42, 0), (7, 1)],
            };
            let canonical = Region {
                verify: vec![1, 7, 8, 9],
                reread: vec![7, 8],
                probe_via: vec![(7, 1), (8, 1)],
            };
            let issue = |region: &Region| {
                step(|o| drop(Engine::reconcile(cfg(alg), db.clone(), region.clone(), o)))
            };
            let (a, b) = (issue(&messy), issue(&canonical));
            // Three verifies and four port-block re-reads (two per
            // switch), then the probe through (7, 1) where probes may go
            // at once.
            assert_eq!(
                a.len(),
                7 + usize::from(alg == Algorithm::Parallel),
                "{alg}"
            );
            assert_eq!(a, b, "{alg}");
        }
    }

    #[test]
    fn claim_flow_cedes_to_rival() {
        let mut c = cfg(Algorithm::Parallel);
        c.claim_partitioning = true;
        let mut out = Vec::new();
        let mut engine = start(c, endpoint_info(1), &[active_port(2)], &mut out);
        // General info answered: engine must claim before reading ports.
        let claim = step(|o| engine.handle_completion(out[0].req_id, Ok(&switch_words(7)), o));
        assert_eq!(claim.len(), 1);
        assert!(matches!(claim[0].op, OutOp::Write { .. }));
        // Write acked: read-back issued.
        let check = step(|o| engine.handle_completion(claim[0].req_id, Ok(&[]), o));
        assert_eq!(check.len(), 1);
        assert!(matches!(check[0].op, OutOp::Read { .. }));
        // Read-back shows a rival owner: cede, no port reads, done.
        let rival = 0xBEEFu64;
        let out = step(|o| {
            engine.handle_completion(
                check[0].req_id,
                Ok(&[(rival >> 32) as u32, rival as u32]),
                o,
            )
        });
        assert!(out.is_empty());
        assert!(engine.is_done());
        assert_eq!(engine.stats().ceded_devices, 1);
        assert!(engine.rivals.contains(&rival));
        // The device and link stay in the database for the merge.
        assert!(engine.db.contains(7));
        assert_eq!(engine.db.link_count(), 1);
    }

    #[test]
    fn claim_flow_owns_and_explores() {
        let mut c = cfg(Algorithm::Parallel);
        c.claim_partitioning = true;
        let mut out = Vec::new();
        let mut engine = start(c, endpoint_info(1), &[active_port(2)], &mut out);
        let claim = step(|o| engine.handle_completion(out[0].req_id, Ok(&switch_words(7)), o));
        let check = step(|o| engine.handle_completion(claim[0].req_id, Ok(&[]), o));
        // Read-back shows our own DSN (1): proceed with port reads.
        let reads = step(|o| engine.handle_completion(check[0].req_id, Ok(&[0, 1]), o));
        assert_eq!(reads.len(), 2, "port reads follow a successful claim");
        assert!(engine.rivals.is_empty());
    }

    /// What a window-held flood keeps per waiting operation: one word
    /// (a database slot, not a DSN), where a probe in flight carries its
    /// 72-byte turn pool.
    #[test]
    fn a_waiting_operation_is_one_word() {
        assert_eq!(std::mem::size_of::<Waiting>(), 8);
    }

    /// A port read that waits while its device is forgotten keeps
    /// addressing that device by DSN: the slot it named is claimed again
    /// by another device before the read is pumped, and the read is still
    /// skipped, as a read of a DSN the database no longer holds.
    #[test]
    fn a_waiting_read_of_a_forgotten_device_does_not_follow_its_slot() {
        let db = host_and_switch();
        let slot = db.slot_of(7).unwrap();
        let region = Region {
            verify: vec![7],
            ..Region::default()
        };
        let mut out = Vec::new();
        let mut engine = Engine::reconcile(cfg(Algorithm::SerialPacket), db, region, &mut out);
        assert_eq!(out.len(), 1, "the verify read is in flight");
        // A read of switch 7's ports waits behind it (Serial Packet).
        let first_port = 0;
        engine.queue.push_back(Waiting::Ports { slot, first_port });
        engine.pump(&mut out);
        assert_eq!(out.len(), 1);
        // 7 is forgotten and its slot goes to a newcomer, 9.
        engine.forget(7);
        let route = engine.db.device(1).unwrap().route.clone();
        engine.db.insert_device(endpoint_info(9), route);
        assert_eq!(engine.db.slot_of(9), Some(slot));
        // The verify fails; the waiting read finds no device 7 and is
        // skipped: nothing is read of 9.
        let next = step(|o| engine.handle_completion(out[0].req_id, Err(Pi4Status::Abort), o));
        assert!(next.is_empty(), "{next:?}");
        assert!(engine.is_done());
        assert_eq!(engine.detached.live(), 0);
    }

    fn flight() -> InFlight {
        InFlight {
            kind: Pending::ClaimWrite { dsn: 0 },
            retries: 0,
            salt: 0,
        }
    }

    #[test]
    fn pending_table_fifo_and_out_of_order_removal() {
        let mut t = PendingTable::new();
        for id in 1..=5u32 {
            t.insert(id, flight());
        }
        assert_eq!(t.len(), 5);
        assert!(t.contains(3));
        assert!(!t.contains(0));
        assert!(!t.contains(6));
        // Out-of-order removal leaves a hole; the window only slides once
        // the head drains.
        assert!(t.remove(3).is_some());
        assert!(t.remove(3).is_none(), "double remove fails");
        assert!(!t.contains(3));
        assert_eq!(t.len(), 4);
        assert!(t.remove(1).is_some());
        assert!(t.remove(2).is_some());
        assert_eq!(t.len(), 2);
        assert!(t.contains(4) && t.contains(5));
        assert!(t.remove(5).is_some());
        assert!(t.remove(4).is_some());
        assert!(t.is_empty());
    }

    #[test]
    fn pending_table_window_stays_bounded_under_fifo_churn() {
        let mut t = PendingTable::new();
        let mut next = 1u32;
        for _ in 0..10_000 {
            t.insert(next, flight());
            next += 1;
            if t.len() > 8 {
                // remove the oldest live id
                let oldest = next - t.len() as u32;
                assert!(t.remove(oldest).is_some());
            }
            assert!(t.slots.len() <= 16, "window grew: {}", t.slots.len());
        }
    }

    #[test]
    fn pending_table_restart_after_drain() {
        let mut t = PendingTable::new();
        t.insert(1, flight());
        assert!(t.remove(1).is_some());
        assert!(t.is_empty());
        // A much later id after full drain must not materialise the gap.
        t.insert(1000, flight());
        assert_eq!(t.slots.len(), 1);
        assert!(t.contains(1000));
        assert!(!t.contains(1));
    }
}
