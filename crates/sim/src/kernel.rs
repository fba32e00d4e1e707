//! Pluggable simulation kernels: the scheduling/dispatch core behind
//! [`crate::Simulator`].
//!
//! A [`Kernel`] owns the pending-event store and decides the order events
//! are handed to the caller's dispatch loop. Two kernels ship:
//!
//! * [`SerialKernel`] — a [`crate::wheel::TimingWheel`] ordered by the
//!   deterministic [`EventKey`] `(time, origin, seq)`. Same semantics as a
//!   heap, faster on time-local workloads; the default kernel of
//!   `Simulator::new()`.
//! * [`ParallelKernel`] — a conservative-synchronization
//!   (CMB-style) kernel: events are partitioned across *shards* by target
//!   rank, each shard drains an agreed lookahead window in key order, and
//!   cross-shard events travel in timestamped outbox batches exchanged at
//!   the window barrier. Its observable output is equivalent to
//!   [`SerialKernel`] for any shard count (the argument is below).
//!   `docs/PARALLEL.md` records why it stays and why it is to go.
//!
//! # The deterministic event key
//!
//! Serial and parallel kernels order events by [`EventKey`]:
//! `(time, origin rank, per-origin sequence)`. The *origin* is the rank of
//! the entity whose dispatch scheduled the event ([`EXTERNAL_RANK`] for
//! events scheduled from outside a dispatch or by control/coordinator
//! dispatches). Because a given origin's dispatches happen in the same
//! relative order under every kernel, per-origin sequence numbers — and
//! therefore every key — are identical across kernels and shard counts.
//! This generalizes the repo's jobs-determinism pattern to shard counts.
//!
//! Scheduling is two steps, [`Kernel::reserve_key`] then
//! [`Kernel::schedule_keyed`], and a model may stop after the first: a
//! key that is reserved and kept is an event's place in the order without
//! the event. The fabric's credit ledger uses that to hand credits back
//! without a dispatch, comparing the kept key with
//! [`Kernel::current_key`] to decide whether the event "has fired".
//!
//! # Why the parallel kernel's output equals the serial kernel's
//!
//! By induction on windows: with the same events dispatched so far, every
//! pending event carries the same key under both kernels (above), and
//! both drain keys in ascending order. Only the order within one instant
//! differs, shard by shard against key order, and the model cannot see
//! it: same-time events on different devices touch disjoint state, and an
//! event that may touch several devices' state is a [`Target::Control`]
//! one, run at a barrier in key order. So only a trace needs
//! canonicalizing (its records sorted).
//!
//! A [`Target::Rank`] dispatch schedules onto other ranks, or posts a
//! keyed credit to another rank's ledger (the `fabric/port.rs` header),
//! no earlier than the lookahead, the link propagation delay: so a
//! cross-shard event fires at or past the open window's bound, and can
//! wait in an outbox until the barrier. Fault draws come from per-device
//! RNG streams, and `queue-sample` records are cut once per period of
//! simulated time ([`crate::Simulator::set_kernel_sampling`]), so
//! neither depends on the interleaving.

use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, TraceHandle};
use crate::wheel::TimingWheel;

/// Origin rank used for events scheduled from outside any dispatch (the
/// harness, the fabric constructor) and by control/coordinator dispatches.
/// Sorts after every device rank at the same timestamp.
pub const EXTERNAL_RANK: u32 = u32::MAX;

/// Deterministic total order on events, shared by serial and parallel
/// kernels: lexicographic `(time, origin, seq)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Firing time.
    pub time: SimTime,
    /// Rank whose dispatch scheduled the event ([`EXTERNAL_RANK`] if none).
    pub origin: u32,
    /// Per-origin schedule sequence number.
    pub seq: u32,
}

/// Where an event executes — the routing hint the parallel kernel shards on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// No affinity: scheduled from outside the model. The parallel kernel
    /// executes these at a global barrier.
    External,
    /// The event reads/writes only state owned by this rank (plus
    /// cross-rank *scheduling*, which is what the lookahead bounds).
    Rank(u32),
    /// The event may touch state owned by several ranks (activation,
    /// training completion, link faults, churn). Executed between windows,
    /// when every shard has synchronized.
    Control,
}

/// Which kernel a simulation should run on. Carried by configs
/// (`FabricConfig`, `Scenario`). No command-line flag sets it: only the
/// benchmark's `mesh64_par2` workload and the cross-kernel identity
/// tests run anything but [`KernelSpec::Serial`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelSpec {
    /// Timing-wheel serial kernel.
    #[default]
    Serial,
    /// Conservative-sync sharded kernel.
    Parallel {
        /// Number of shards devices are partitioned into (≥ 1).
        shards: u32,
    },
}

/// The pluggable scheduling core. [`crate::Simulator`] is generic over this.
///
/// Implementations may reorder events *within* the guarantees they
/// document; the engine only requires that `pop` eventually drains
/// everything scheduled and that an event never fires before the event
/// whose dispatch scheduled it.
pub trait Kernel<E> {
    /// Allocates the key an event scheduled now to fire at `at` carries:
    /// the origin of the dispatch in progress and that origin's next
    /// sequence number. A caller that keeps the key and schedules nothing
    /// has still taken the event's place in the order: every later key
    /// is what it would have been had the event been scheduled.
    fn reserve_key(&mut self, at: SimTime) -> EventKey;

    /// Enqueues `event` for `target` under a key from
    /// [`Self::reserve_key`] — at once, or later from a dispatch that
    /// fires before `key`.
    fn schedule_keyed(&mut self, key: EventKey, target: Target, event: E);

    /// Enqueues `event` at absolute time `at` for `target`: the two
    /// halves above in sequence, under every kernel.
    #[inline]
    fn schedule(&mut self, at: SimTime, target: Target, event: E) {
        let key = self.reserve_key(at);
        self.schedule_keyed(key, target, event);
    }

    /// Key of the event being dispatched — popped and not yet
    /// [finished](Self::finish_dispatch); `None` between dispatches. Every
    /// event with a smaller key that can affect the dispatching rank has
    /// fired.
    fn current_key(&self) -> Option<EventKey>;

    /// Removes and returns the next event. Which event is "next" is the
    /// kernel's ordering contract; time may regress across consecutive pops
    /// for non-[monotonic](Self::monotonic) kernels.
    fn pop(&mut self) -> Option<(SimTime, E)>;

    /// Like [`Self::pop`] but only if the next event fires at or before
    /// `deadline`; kernels with internal windowing clamp so that no event
    /// after `deadline` is consumed.
    fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }

    /// Timestamp of the earliest pending event (a global minimum even for
    /// sharded kernels).
    fn peek_time(&mut self) -> Option<SimTime>;

    /// Called by the driver after the popped event's handler has run and
    /// all its follow-on schedules are in. Resets dispatch context (the
    /// origin rank) so externally scheduled events key identically under
    /// every kernel.
    fn finish_dispatch(&mut self) {}

    /// Number of pending events.
    fn len(&self) -> usize;

    /// True when nothing is pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether consecutive pops are guaranteed non-decreasing in time.
    /// The engine skips its clock-regression assertion when `false`.
    fn monotonic(&self) -> bool {
        true
    }

    /// Installs time-periodic queue-depth sampling: one
    /// [`TraceEvent::QueueSample`] per elapsed `period`, emitted at the
    /// deterministic cut "all events before the boundary fired, none at or
    /// after it".
    fn set_sampling(&mut self, trace: TraceHandle, period: SimDuration);
}

/// Key allocation shared by the kernels: the per-origin sequence numbers
/// backing [`EventKey::seq`] and the dispatch context that decides the
/// origin.
struct Keys {
    per_rank: Vec<u32>,
    external: u32,
    /// Origin rank for keys reserved right now (rank of the event being
    /// dispatched; [`EXTERNAL_RANK`] outside a dispatch and in control
    /// dispatches).
    origin: u32,
    /// Key of the event being dispatched.
    current: Option<EventKey>,
}

impl Keys {
    /// Counters for `ranks` origins up front; a higher origin grows the
    /// table when its first key is reserved.
    fn with_ranks(ranks: u32) -> Keys {
        Keys {
            per_rank: vec![0; ranks as usize],
            external: 0,
            origin: EXTERNAL_RANK,
            current: None,
        }
    }

    #[inline]
    fn reserve(&mut self, at: SimTime) -> EventKey {
        let origin = self.origin;
        let counter = if origin == EXTERNAL_RANK {
            Some(&mut self.external)
        } else {
            self.per_rank.get_mut(origin as usize)
        };
        let seq = match counter {
            Some(counter) => std::mem::replace(counter, *counter + 1),
            None => self.first_key_of(origin),
        };
        EventKey {
            time: at,
            origin,
            seq,
        }
    }

    /// Grows the table to hold `origin` and takes its sequence number 0.
    #[cold]
    fn first_key_of(&mut self, origin: u32) -> u32 {
        self.per_rank.resize(origin as usize + 1, 0);
        self.per_rank[origin as usize] = 1;
        0
    }

    /// A dispatch of the event popped under `key` begins; what it
    /// reserves carries `origin`.
    #[inline]
    fn enter(&mut self, key: EventKey, origin: u32) {
        self.origin = origin;
        self.current = Some(key);
    }

    #[inline]
    fn leave(&mut self) {
        self.origin = EXTERNAL_RANK;
        self.current = None;
    }
}

/// Time-periodic queue-depth sampler shared by the wheel-based kernels.
///
/// Boundaries sit at multiples of the period; a sample for boundary `B` is
/// emitted exactly when the kernel is about to hand out the first event
/// with `time >= B` — i.e. at the cut "everything before `B` fired". That
/// cut is identical for the serial and parallel kernels, which is what
/// keeps `queue-sample` trace records byte-identical across kernels.
struct Sampler {
    trace: TraceHandle,
    period_ps: u64,
    next_ps: u64,
}

impl Sampler {
    fn disabled() -> Sampler {
        Sampler {
            trace: TraceHandle::disabled(),
            period_ps: 0,
            next_ps: 0,
        }
    }

    fn configure(&mut self, trace: TraceHandle, period: SimDuration) {
        self.period_ps = if trace.is_enabled() {
            period.as_ps()
        } else {
            0
        };
        self.next_ps = self.period_ps;
        self.trace = trace;
    }

    /// Next pending boundary, if sampling is live.
    #[inline]
    fn boundary_ps(&self) -> Option<u64> {
        if self.period_ps != 0 {
            Some(self.next_ps)
        } else {
            None
        }
    }

    /// Emits samples for every boundary at or before `upto`.
    #[inline]
    fn advance(&mut self, upto: SimTime, depth: u64, processed: u64) {
        if self.period_ps == 0 {
            return;
        }
        while self.next_ps <= upto.as_ps() {
            let at = SimTime::from_ps(self.next_ps);
            self.trace
                .emit(at, || TraceEvent::QueueSample { depth, processed });
            self.next_ps += self.period_ps;
        }
    }
}

/// Wheel entry payload: the target rank the event executes as, plus the
/// caller's event.
type Payload<E> = (u32, E);

/// Serial timing-wheel kernel ordered by [`EventKey`].
pub struct SerialKernel<E> {
    wheel: TimingWheel<Payload<E>>,
    keys: Keys,
    sampler: Sampler,
    processed: u64,
}

impl<E> SerialKernel<E> {
    /// A fresh serial kernel.
    pub fn new() -> SerialKernel<E> {
        SerialKernel::with_ranks(0)
    }

    /// A fresh serial kernel whose key counters are sized for `ranks`
    /// devices, so that reserving a key never grows them.
    pub(crate) fn with_ranks(ranks: u32) -> SerialKernel<E> {
        SerialKernel {
            wheel: TimingWheel::new(),
            keys: Keys::with_ranks(ranks),
            sampler: Sampler::disabled(),
            processed: 0,
        }
    }
}

impl<E> Default for SerialKernel<E> {
    fn default() -> Self {
        SerialKernel::new()
    }
}

impl<E> Kernel<E> for SerialKernel<E> {
    #[inline]
    fn reserve_key(&mut self, at: SimTime) -> EventKey {
        self.keys.reserve(at)
    }

    #[inline]
    fn schedule_keyed(&mut self, key: EventKey, target: Target, event: E) {
        let rank = match target {
            Target::Rank(r) => r,
            Target::External | Target::Control => EXTERNAL_RANK,
        };
        self.wheel.push(key, (rank, event));
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let Some((key, (rank, event))) = self.wheel.pop() else {
            // Drained: what a burst left in the slab is not held through
            // the quieter phase that follows.
            self.wheel.release();
            return None;
        };
        // A sample is cut before the event leaves: the depth counts it.
        self.sampler
            .advance(key.time, self.wheel.len() as u64 + 1, self.processed);
        self.keys.enter(key, rank);
        self.processed += 1;
        Some((key.time, event))
    }

    #[inline]
    fn current_key(&self) -> Option<EventKey> {
        self.keys.current
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.wheel.peek_key().map(|k| k.time)
    }

    fn finish_dispatch(&mut self) {
        self.keys.leave();
    }

    fn len(&self) -> usize {
        self.wheel.len()
    }

    fn set_sampling(&mut self, trace: TraceHandle, period: SimDuration) {
        self.sampler.configure(trace, period);
    }
}

/// Aggregate statistics from a [`ParallelKernel`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Lookahead windows opened (each ends in one barrier).
    pub windows: u64,
    /// Events that crossed a shard boundary inside an outbox batch.
    pub cross_shard_events: u64,
    /// Outbox batches flushed at barriers (one per non-empty source→target
    /// pair per window).
    pub batches: u64,
    /// Control events executed at global barriers.
    pub control_events: u64,
}

/// What the kernel is currently dispatching — decides how new schedules are
/// keyed and routed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Between dispatches: schedules come from the harness.
    External,
    /// Dispatching a shard-local event on this shard.
    Worker(u32),
    /// Dispatching a control event at a global barrier.
    Coordinator,
}

/// An open lookahead window.
struct Window {
    /// Exclusive upper bound: shards drain every event with key < `bound`.
    bound: EventKey,
    /// Index of the shard currently draining (shards before it are done).
    cursor: u32,
}

/// Conservative-synchronization parallel kernel.
///
/// Devices (ranks) are partitioned into `shards` contiguous blocks, each
/// with its own timing wheel. Execution proceeds in *windows*: from the
/// global minimum pending time `T`, every shard independently drains its
/// events with key below `min(T + lookahead, next control key, next sample
/// boundary)` in key order; events scheduled for another shard go to a
/// per-target outbox and are delivered in one batch at the window barrier.
/// The lookahead (minimum cross-rank event latency — for the fabric, the
/// link propagation delay) guarantees in-window cross-shard events cannot
/// land inside the open window, which is what makes the interleave safe.
///
/// Control events ([`Target::Control`]) execute between windows, when every
/// shard has synchronized, because they may touch state owned by several
/// ranks.
///
/// Pops are **not** monotone in time across shards within a window; the
/// engine's clock follows each popped event. Observable results (per-device
/// state, counters, canonicalized traces) are equivalent to the serial
/// kernel for any shard count — the module header has the argument.
pub struct ParallelKernel<E> {
    shards: Vec<TimingWheel<Payload<E>>>,
    control: TimingWheel<Payload<E>>,
    /// rank → shard index.
    shard_of: Vec<u32>,
    /// Outboxes: `outbox[target shard]`.
    outbox: Vec<Vec<(EventKey, Payload<E>)>>,
    lookahead_ps: u64,
    keys: Keys,
    mode: Mode,
    window: Option<Window>,
    /// Deadline clamp for the current `pop_until` call (exclusive bound is
    /// `deadline + 1 ps`).
    deadline: Option<SimTime>,
    sampler: Sampler,
    processed: u64,
    len: usize,
    stats: ParallelStats,
}

impl<E> ParallelKernel<E> {
    /// A parallel kernel over `ranks` devices split into `shards` blocks.
    ///
    /// `lookahead` must be a lower bound on the latency of every
    /// cross-rank event scheduled from a worker dispatch; it is clamped to
    /// at least 1 ps (a zero lookahead would make windows empty).
    pub fn new(shards: u32, ranks: u32, lookahead: SimDuration) -> ParallelKernel<E> {
        let shards = shards.clamp(1, ranks.max(1));
        let shard_of = (0..ranks)
            .map(|r| ((r as u64 * shards as u64) / ranks.max(1) as u64) as u32)
            .collect();
        ParallelKernel {
            shards: (0..shards).map(|_| TimingWheel::new()).collect(),
            control: TimingWheel::new(),
            shard_of,
            outbox: (0..shards).map(|_| Vec::new()).collect(),
            lookahead_ps: lookahead.as_ps().max(1),
            keys: Keys::with_ranks(ranks),
            mode: Mode::External,
            window: None,
            deadline: None,
            sampler: Sampler::disabled(),
            processed: 0,
            len: 0,
            stats: ParallelStats::default(),
        }
    }

    /// Window/batch statistics accumulated so far.
    pub fn stats(&self) -> ParallelStats {
        self.stats
    }

    #[inline]
    fn shard_for(&self, rank: u32) -> u32 {
        self.shard_of
            .get(rank as usize)
            .copied()
            .unwrap_or_else(|| rank % self.shards.len() as u32)
    }

    /// Smallest pending shard key (advances shard wheels as needed).
    fn min_shard_key(&mut self) -> Option<EventKey> {
        let mut min: Option<EventKey> = None;
        for w in &mut self.shards {
            if let Some(k) = w.peek_key() {
                min = Some(match min {
                    Some(m) if m <= k => m,
                    _ => k,
                });
            }
        }
        min
    }

    /// Delivers every outbox batch into its target shard's wheel.
    fn flush_outboxes(&mut self) {
        for (dst, batch) in self.outbox.iter_mut().enumerate() {
            if batch.is_empty() {
                continue;
            }
            self.stats.batches += 1;
            self.stats.cross_shard_events += batch.len() as u64;
            for (key, payload) in batch.drain(..) {
                self.shards[dst].push(key, payload);
            }
        }
    }

    fn pop_inner(&mut self) -> Option<(SimTime, E)> {
        loop {
            if let Some(w) = &self.window {
                let bound = w.bound;
                let mut cursor = w.cursor;
                let nshards = self.shards.len() as u32;
                while cursor < nshards {
                    if let Some(k) = self.shards[cursor as usize].peek_key() {
                        if k < bound {
                            if let Some(dl) = self.deadline {
                                if k.time > dl {
                                    // Hold position: resuming with a later
                                    // deadline must continue draining this
                                    // shard to the full bound.
                                    self.window.as_mut().expect("open").cursor = cursor;
                                    return None;
                                }
                            }
                            let (key, (rank, event)) =
                                self.shards[cursor as usize].pop().expect("peeked");
                            self.window.as_mut().expect("open").cursor = cursor;
                            self.mode = Mode::Worker(cursor);
                            self.keys.enter(key, rank);
                            self.processed += 1;
                            self.len -= 1;
                            return Some((key.time, event));
                        }
                    }
                    cursor += 1;
                }
                // Barrier: every shard drained below `bound`; exchange the
                // cross-shard batches and close the window.
                self.flush_outboxes();
                self.window = None;
                continue;
            }

            let lmin = self.min_shard_key();
            let cmin = self.control.peek_key();
            match (cmin, lmin) {
                (None, None) => return None,
                (Some(c), l) if l.is_none_or(|l| c < l) => {
                    // Control turn: it is the global minimum.
                    if let Some(dl) = self.deadline {
                        if c.time > dl {
                            return None;
                        }
                    }
                    self.sampler
                        .advance(c.time, self.len as u64, self.processed);
                    let (key, (_rank, event)) = self.control.pop().expect("peeked");
                    self.mode = Mode::Coordinator;
                    self.keys.enter(key, EXTERNAL_RANK);
                    self.processed += 1;
                    self.len -= 1;
                    self.stats.control_events += 1;
                    return Some((key.time, event));
                }
                (cmin, Some(l)) => {
                    if let Some(dl) = self.deadline {
                        if l.time > dl {
                            return None;
                        }
                    }
                    self.sampler
                        .advance(l.time, self.len as u64, self.processed);
                    let mut bound = EventKey {
                        time: SimTime::from_ps(l.time.as_ps().saturating_add(self.lookahead_ps)),
                        origin: 0,
                        seq: 0,
                    };
                    if let Some(c) = cmin {
                        bound = bound.min(c);
                    }
                    if let Some(b) = self.sampler.boundary_ps() {
                        bound = bound.min(EventKey {
                            time: SimTime::from_ps(b),
                            origin: 0,
                            seq: 0,
                        });
                    }
                    debug_assert!(bound > l, "lookahead window is empty");
                    self.stats.windows += 1;
                    self.window = Some(Window { bound, cursor: 0 });
                }
                (Some(_), None) => unreachable!("covered by the control-turn guard"),
            }
        }
    }
}

impl<E> Kernel<E> for ParallelKernel<E> {
    #[inline]
    fn reserve_key(&mut self, at: SimTime) -> EventKey {
        self.keys.reserve(at)
    }

    fn schedule_keyed(&mut self, key: EventKey, target: Target, event: E) {
        match self.mode {
            Mode::External | Mode::Coordinator => {
                // A schedule landing below an open window's bound must
                // shrink the window: everything popped so far is below the
                // engine clock, hence below this key, so clamping preserves
                // key order (externally scheduled events cannot pre-date
                // the run's current deadline).
                if let Some(w) = &mut self.window {
                    if key < w.bound {
                        w.bound = key;
                    }
                }
                match target {
                    Target::Rank(r) => {
                        let dst = self.shard_for(r);
                        self.shards[dst as usize].push(key, (r, event));
                    }
                    Target::External | Target::Control => {
                        self.control.push(key, (EXTERNAL_RANK, event));
                    }
                }
                self.len += 1;
            }
            Mode::Worker(shard) => {
                let r = match target {
                    Target::Rank(r) => r,
                    Target::External | Target::Control => panic!(
                        "conservative-sync protocol violation: a worker dispatch \
                         scheduled a control/external event"
                    ),
                };
                let dst = self.shard_for(r);
                if dst == shard {
                    self.shards[dst as usize].push(key, (r, event));
                } else {
                    debug_assert!(
                        self.window
                            .as_ref()
                            .is_none_or(|w| key.time >= w.bound.time),
                        "cross-shard event inside the open window: lookahead violated"
                    );
                    self.outbox[dst as usize].push((key, (r, event)));
                }
                self.len += 1;
            }
        }
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.deadline = None;
        self.pop_inner()
    }

    fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        self.deadline = Some(deadline);
        let r = self.pop_inner();
        self.deadline = None;
        r
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        let l = self.min_shard_key();
        let c = self.control.peek_key();
        match (l, c) {
            (Some(a), Some(b)) => Some(a.min(b).time),
            (Some(a), None) => Some(a.time),
            (None, Some(b)) => Some(b.time),
            (None, None) => None,
        }
    }

    #[inline]
    fn current_key(&self) -> Option<EventKey> {
        self.keys.current
    }

    fn finish_dispatch(&mut self) {
        self.mode = Mode::External;
        self.keys.leave();
    }

    fn len(&self) -> usize {
        self.len
    }

    fn monotonic(&self) -> bool {
        false
    }

    fn set_sampling(&mut self, trace: TraceHandle, period: SimDuration) {
        self.sampler.configure(trace, period);
    }
}

/// Enum dispatch over the wheel-based kernels, so `Fabric` can pick a
/// kernel at runtime without virtual calls or extra generics.
pub enum AnyKernel<E> {
    /// Timing-wheel serial kernel.
    Serial(SerialKernel<E>),
    /// Conservative-sync sharded kernel.
    Parallel(ParallelKernel<E>),
}

impl<E> AnyKernel<E> {
    /// Builds the kernel a [`KernelSpec`] names. `ranks` is the number of
    /// devices; `lookahead` the minimum cross-rank event latency (ignored
    /// by the serial kernel).
    pub fn from_spec(spec: KernelSpec, ranks: u32, lookahead: SimDuration) -> AnyKernel<E> {
        match spec {
            KernelSpec::Serial => AnyKernel::Serial(SerialKernel::with_ranks(ranks)),
            KernelSpec::Parallel { shards } => {
                AnyKernel::Parallel(ParallelKernel::new(shards, ranks, lookahead))
            }
        }
    }

    /// Parallel-kernel statistics, if this is a parallel kernel.
    pub fn parallel_stats(&self) -> Option<ParallelStats> {
        match self {
            AnyKernel::Serial(_) => None,
            AnyKernel::Parallel(k) => Some(k.stats()),
        }
    }
}

impl<E> Kernel<E> for AnyKernel<E> {
    #[inline]
    fn reserve_key(&mut self, at: SimTime) -> EventKey {
        match self {
            AnyKernel::Serial(k) => Kernel::<E>::reserve_key(k, at),
            AnyKernel::Parallel(k) => Kernel::<E>::reserve_key(k, at),
        }
    }

    #[inline]
    fn schedule_keyed(&mut self, key: EventKey, target: Target, event: E) {
        match self {
            AnyKernel::Serial(k) => k.schedule_keyed(key, target, event),
            AnyKernel::Parallel(k) => k.schedule_keyed(key, target, event),
        }
    }

    #[inline]
    fn current_key(&self) -> Option<EventKey> {
        match self {
            AnyKernel::Serial(k) => Kernel::<E>::current_key(k),
            AnyKernel::Parallel(k) => Kernel::<E>::current_key(k),
        }
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        match self {
            AnyKernel::Serial(k) => k.pop(),
            AnyKernel::Parallel(k) => k.pop(),
        }
    }

    fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self {
            AnyKernel::Serial(k) => k.pop_until(deadline),
            AnyKernel::Parallel(k) => k.pop_until(deadline),
        }
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        match self {
            AnyKernel::Serial(k) => k.peek_time(),
            AnyKernel::Parallel(k) => k.peek_time(),
        }
    }

    fn finish_dispatch(&mut self) {
        match self {
            AnyKernel::Serial(k) => Kernel::<E>::finish_dispatch(k),
            AnyKernel::Parallel(k) => Kernel::<E>::finish_dispatch(k),
        }
    }

    fn len(&self) -> usize {
        match self {
            AnyKernel::Serial(k) => Kernel::<E>::len(k),
            AnyKernel::Parallel(k) => Kernel::<E>::len(k),
        }
    }

    fn monotonic(&self) -> bool {
        match self {
            AnyKernel::Serial(k) => Kernel::<E>::monotonic(k),
            AnyKernel::Parallel(k) => Kernel::<E>::monotonic(k),
        }
    }

    fn set_sampling(&mut self, trace: TraceHandle, period: SimDuration) {
        match self {
            AnyKernel::Serial(k) => k.set_sampling(trace, period),
            AnyKernel::Parallel(k) => k.set_sampling(trace, period),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_spec_parses_and_displays() {
        assert_eq!(KernelSpec::default(), KernelSpec::Serial);
    }

    /// Drives a kernel like the fabric does (pop → schedule follow-ons →
    /// finish_dispatch) and records the dispatch order.
    fn drive<K: Kernel<u32>>(mut k: K) -> Vec<(u64, u32)> {
        // Seed: three ranks get staggered starts; each dispatch of rank r
        // schedules a follow-on for (r + 1) % 3 at +40 ps until time 2000.
        for r in 0..3u32 {
            k.schedule(SimTime::from_ps(10 + r as u64), Target::Rank(r), r);
        }
        // One control event mid-run.
        k.schedule(SimTime::from_ps(500), Target::Control, 99);
        let mut order = Vec::new();
        let mut guard = 0;
        while let Some((t, ev)) = k.pop() {
            order.push((t.as_ps(), ev));
            if ev != 99 && t.as_ps() < 2000 {
                let nxt = (ev + 1) % 3;
                k.schedule(t + SimDuration::from_ps(40), Target::Rank(nxt), nxt);
            }
            k.finish_dispatch();
            guard += 1;
            assert!(guard < 10_000, "runaway");
        }
        order
    }

    #[test]
    fn parallel_matches_serial_dispatch_set_and_control_order() {
        let serial = drive(SerialKernel::<u32>::new());
        for shards in [1u32, 2, 3] {
            // Lookahead 40 ps: every cross-rank follow-on is +40.
            let par = drive(ParallelKernel::<u32>::new(
                shards,
                3,
                SimDuration::from_ps(40),
            ));
            // The multiset of (time, event) dispatches is identical; and
            // with shards=1 the order is exactly serial.
            let mut a = serial.clone();
            let mut b = par.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "shards={shards}");
            if shards == 1 {
                assert_eq!(serial, par);
            }
        }
    }

    #[test]
    fn parallel_exchanges_cross_shard_batches() {
        let mut k = ParallelKernel::<u32>::new(2, 2, SimDuration::from_ps(50));
        k.schedule(SimTime::from_ps(0), Target::Rank(0), 0);
        let mut pops = 0;
        while let Some((t, ev)) = Kernel::pop(&mut k) {
            if t.as_ps() < 1000 {
                // Ping-pong between the two ranks (distinct shards).
                k.schedule(t + SimDuration::from_ps(50), Target::Rank(1 - ev), 1 - ev);
            }
            Kernel::<u32>::finish_dispatch(&mut k);
            pops += 1;
        }
        assert_eq!(pops, 21);
        let stats = k.stats();
        assert!(stats.cross_shard_events > 0, "{stats:?}");
        assert!(stats.batches > 0);
        assert!(stats.windows > 0);
    }

    #[test]
    fn pop_until_holds_window_position_across_deadlines() {
        let mut k = ParallelKernel::<u32>::new(2, 4, SimDuration::from_ps(1000));
        // Two events in the window, one per shard; deadline splits them.
        k.schedule(SimTime::from_ps(100), Target::Rank(0), 0);
        k.schedule(SimTime::from_ps(300), Target::Rank(3), 3);
        assert_eq!(
            k.pop_until(SimTime::from_ps(150))
                .map(|(t, e)| (t.as_ps(), e)),
            Some((100, 0))
        );
        Kernel::<u32>::finish_dispatch(&mut k);
        assert_eq!(k.pop_until(SimTime::from_ps(150)), None);
        assert_eq!(
            k.pop_until(SimTime::from_ps(400))
                .map(|(t, e)| (t.as_ps(), e)),
            Some((300, 3))
        );
        Kernel::<u32>::finish_dispatch(&mut k);
        assert_eq!(Kernel::pop(&mut k), None);
        assert!(Kernel::<u32>::is_empty(&k));
    }

    #[test]
    fn serial_kernel_orders_by_time_then_origin_then_seq() {
        let mut k = SerialKernel::<&str>::new();
        let t = SimTime::from_ns(5);
        k.schedule(t, Target::External, "ext-0"); // origin EXTERNAL
        k.schedule(t, Target::Rank(1), "ext-1");
        assert_eq!(Kernel::pop(&mut k).map(|(_, e)| e), Some("ext-0"));
        // Dispatching the rank-1 event: its schedules carry origin 1 and
        // sort before same-time external ones.
        let popped = Kernel::pop(&mut k).map(|(_, e)| e);
        assert_eq!(popped, Some("ext-1"));
        k.schedule(SimTime::from_ns(7), Target::Rank(0), "from-r1");
        Kernel::<&str>::finish_dispatch(&mut k);
        k.schedule(SimTime::from_ns(7), Target::Rank(2), "ext-2");
        assert_eq!(Kernel::pop(&mut k).map(|(_, e)| e), Some("from-r1"));
        assert_eq!(Kernel::pop(&mut k).map(|(_, e)| e), Some("ext-2"));
    }

    /// A burst is not held through what follows: once a 100k
    /// same-instant burst drains, the serial kernel holds no more than a
    /// token slab, and what is pushed afterwards still pops in key order.
    #[test]
    fn a_drained_serial_kernel_holds_no_slab() {
        let mut k = SerialKernel::<u32>::new();
        for i in 0..100_000u32 {
            k.schedule(SimTime::from_ns(1), Target::Rank(i), i);
        }
        assert!(k.wheel.slab_capacity() >= 100_000);
        for i in 0..100_000u32 {
            assert_eq!(k.pop(), Some((SimTime::from_ns(1), i)));
            k.finish_dispatch();
        }
        assert_eq!(k.pop(), None);
        assert!(k.wheel.slab_capacity() <= 64, "{}", k.wheel.slab_capacity());
        for (i, ns) in [7, 3, 5, 3].into_iter().enumerate() {
            k.schedule(SimTime::from_ns(ns), Target::External, i as u32);
        }
        let order: Vec<_> = std::iter::from_fn(|| k.pop()).collect();
        let at = SimTime::from_ns;
        assert_eq!(order, [(at(3), 1), (at(3), 3), (at(5), 2), (at(7), 0)]);
    }

    /// A reserved key is the event's place in the order whether or not
    /// anything is ever scheduled under it: later keys are what they
    /// would have been, an event scheduled late under the key still
    /// fires where it belongs, and `current_key` names the dispatch.
    fn reserved_keys_keep_their_place<K: Kernel<&'static str>>(mut k: K) {
        let at = SimTime::from_ns;
        assert_eq!(k.current_key(), None);
        k.schedule(at(1), Target::Rank(0), "first");
        let (_, first) = k.pop().unwrap();
        let current = k.current_key().unwrap();
        assert_eq!((first, current.time, current.seq), ("first", at(1), 0));
        // Rank 0's dispatch: three keys taken, two events scheduled now.
        let kept = k.reserve_key(at(9));
        let held = k.reserve_key(at(9));
        k.schedule(at(9), Target::Rank(0), "third");
        k.schedule(at(5), Target::Rank(0), "wake");
        assert_eq!((kept.origin, kept.seq, held.seq), (0, 0, 1));
        k.finish_dispatch();
        assert_eq!(k.current_key(), None);
        assert_eq!(k.pop().map(|(_, e)| e), Some("wake"));
        // Scheduled from a later dispatch, under the key reserved first
        // (the one in between stays unused): fires ahead of "third".
        k.schedule_keyed(kept, Target::Rank(0), "kept");
        k.finish_dispatch();
        assert_eq!(k.pop().map(|(_, e)| e), Some("kept"));
        assert_eq!(k.current_key(), Some(kept));
        k.finish_dispatch();
        assert_eq!(k.pop().map(|(_, e)| e), Some("third"));
        assert_eq!(k.current_key().map(|key| key.seq), Some(2));
        k.finish_dispatch();
        assert!(k.pop().is_none());
    }

    #[test]
    fn reserved_keys_keep_their_place_under_both_kernels() {
        reserved_keys_keep_their_place(SerialKernel::new());
        for shards in [1, 2] {
            let lookahead = SimDuration::from_ns(2);
            reserved_keys_keep_their_place(ParallelKernel::new(shards, 2, lookahead));
        }
    }

    #[test]
    #[should_panic(expected = "protocol violation")]
    fn worker_scheduling_control_event_panics() {
        let mut k = ParallelKernel::<u8>::new(2, 2, SimDuration::from_ps(10));
        k.schedule(SimTime::ZERO, Target::Rank(0), 1);
        let _ = Kernel::pop(&mut k);
        // Still in Worker mode (no finish_dispatch): control schedule must
        // be rejected.
        k.schedule(SimTime::from_ps(5), Target::Control, 2);
    }
}
