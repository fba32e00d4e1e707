//! The simulation engine: a clock plus the pending-event queue.
//!
//! The engine is generic over the event payload `E`; the caller owns the
//! dispatch loop, which keeps borrows simple and lets the fabric model hold
//! all mutable state outside the engine:
//!
//! ```
//! use asi_sim::{SimTime, Simulator, Target};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping(u32) }
//!
//! let mut sim = Simulator::new();
//! sim.schedule_event(SimTime::from_ns(10), Target::External, Ev::Ping(1));
//! let mut seen = vec![];
//! while let Some(fired) = sim.next_event() {
//!     seen.push(fired.event);
//!     sim.finish_dispatch();
//! }
//! assert_eq!(seen, vec![Ev::Ping(1)]);
//! ```

use crate::kernel::{EventKey, Kernel, SerialKernel, Target, EXTERNAL_RANK};
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceHandle;
use std::marker::PhantomData;

/// An event popped from the queue, stamped with its firing time.
#[derive(Debug)]
pub struct Fired<E> {
    /// The instant the event fires (now equal to `Simulator::now`).
    pub time: SimTime,
    /// The payload.
    pub event: E,
}

/// Discrete-event simulation engine, generic over the scheduling
/// [`Kernel`] (default: the timing-wheel [`SerialKernel`]).
///
/// Invariants:
/// - with a [monotonic](Kernel::monotonic) kernel, `now()` is
///   monotonically non-decreasing; the parallel kernel may legitimately
///   regress the clock across pops within a lookahead window, but each
///   handler still observes `now()` equal to its own firing time.
/// - events fire in the kernel's documented deterministic order, so runs
///   are reproducible.
/// - scheduling in the past (before `now()`) is a logic error and panics in
///   debug builds; in release it fires immediately at `now()`.
pub struct Simulator<E, K: Kernel<E> = SerialKernel<E>> {
    kernel: K,
    now: SimTime,
    processed: u64,
    /// Hard cap on processed events; guards against accidental event storms
    /// in tests. `u64::MAX` by default.
    event_limit: u64,
    _ev: PhantomData<fn() -> E>,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Creates an engine at time zero on the default serial kernel.
    pub fn new() -> Self {
        Simulator::with_kernel(SerialKernel::new())
    }
}

impl<E, K: Kernel<E>> Simulator<E, K> {
    /// Creates an engine at time zero on an explicit kernel.
    pub fn with_kernel(kernel: K) -> Self {
        Simulator {
            kernel,
            now: SimTime::ZERO,
            processed: 0,
            event_limit: u64::MAX,
            _ev: PhantomData,
        }
    }

    /// Shared access to the kernel.
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// Sets a hard cap on the number of events that [`Self::next_event`]
    /// will return; exceeding it panics. Useful to fail fast on runaway
    /// feedback loops in tests.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Installs *time-periodic* queue-depth sampling inside the kernel: one
    /// sample per elapsed `period` at the deterministic "everything before
    /// the boundary fired" cut, identical for the serial and parallel
    /// kernels.
    pub fn set_kernel_sampling(&mut self, handle: TraceHandle, period: SimDuration) {
        self.kernel.set_sampling(handle, period);
    }

    /// Called by the dispatch loop after each event's handler has run;
    /// resets the kernel's dispatch context so later external schedules are
    /// keyed identically under every kernel.
    pub fn finish_dispatch(&mut self) {
        self.kernel.finish_dispatch();
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.kernel.len()
    }

    /// True if nothing is scheduled.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.kernel.is_empty()
    }

    /// Schedules `event` at absolute time `at` with an explicit execution
    /// [`Target`] — the routing hint sharded kernels partition on.
    ///
    /// # Panics
    /// Debug builds panic if `at < now()`.
    pub fn schedule_event(&mut self, at: SimTime, target: Target, event: E) {
        let key = self.reserve_key(at);
        self.schedule_keyed(key, target, event)
    }

    /// The first half of [`Self::schedule_event`]: takes the key an event
    /// scheduled now for `at` would carry ([`Kernel::reserve_key`]).
    ///
    /// # Panics
    /// Debug builds panic if `at < now()`.
    #[inline]
    pub fn reserve_key(&mut self, at: SimTime) -> EventKey {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: at={at:?} now={:?}",
            self.now
        );
        self.kernel.reserve_key(at.max(self.now))
    }

    /// The second half: enqueues `event` under a reserved key that has
    /// not come up yet ([`Kernel::schedule_keyed`]).
    #[inline]
    pub fn schedule_keyed(&mut self, key: EventKey, target: Target, event: E) {
        self.kernel.schedule_keyed(key, target, event)
    }

    /// Key of the event being dispatched. Between dispatches, the key
    /// below which everything has fired once a run loop has returned:
    /// every event at or before `now()`.
    #[inline]
    pub fn current_key(&self) -> EventKey {
        self.kernel.current_key().unwrap_or(EventKey {
            time: self.now,
            origin: EXTERNAL_RANK,
            seq: u32::MAX,
        })
    }

    /// Timestamp of the next event, if any (a global minimum even for
    /// sharded kernels).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.kernel.peek_time()
    }

    /// Pops the next event and moves the clock to its firing time.
    pub fn next_event(&mut self) -> Option<Fired<E>> {
        let (time, event) = self.kernel.pop()?;
        Some(self.fire(time, event))
    }

    /// Pops the next event only if it fires at or before `deadline`.
    /// If the next event is later (or none exists), the clock advances to
    /// `deadline` and `None` is returned.
    pub fn next_event_until(&mut self, deadline: SimTime) -> Option<Fired<E>> {
        match self.kernel.pop_until(deadline) {
            Some((time, event)) => Some(self.fire(time, event)),
            None => {
                if deadline > self.now {
                    self.now = deadline;
                }
                None
            }
        }
    }

    /// Moves the clock to a popped event's firing time and counts it.
    #[inline]
    fn fire(&mut self, time: SimTime, event: E) -> Fired<E> {
        debug_assert!(
            !self.kernel.monotonic() || time >= self.now,
            "event queue went backwards"
        );
        self.now = time;
        self.processed += 1;
        assert!(
            self.processed <= self.event_limit,
            "simulation exceeded event limit of {} events",
            self.event_limit
        );
        Fired { time, event }
    }

    /// Advances the clock without processing events (e.g. to model a dead
    /// period). Panics in debug builds if events would be skipped.
    pub fn advance_to(&mut self, at: SimTime) {
        debug_assert!(
            self.kernel.peek_time().is_none_or(|t| t >= at),
            "advance_to would skip pending events"
        );
        if at > self.now {
            self.now = at;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXT: Target = Target::External;

    #[test]
    fn clock_advances_with_events() {
        let mut sim = Simulator::new();
        sim.schedule_event(SimTime::from_ns(10), EXT, "a");
        sim.schedule_event(SimTime::from_ns(5), EXT, "b");
        let f = sim.next_event().unwrap();
        assert_eq!(f.event, "b");
        assert_eq!(sim.now(), SimTime::from_ns(5));
        let f = sim.next_event().unwrap();
        assert_eq!(f.event, "a");
        assert_eq!(sim.now(), SimTime::from_ns(10));
        assert!(sim.next_event().is_none());
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn event_scheduled_for_now_fires_at_current_time() {
        let mut sim = Simulator::new();
        sim.schedule_event(SimTime::from_ns(7), EXT, 1);
        sim.next_event();
        sim.schedule_event(sim.now(), EXT, 2);
        let f = sim.next_event().unwrap();
        assert_eq!(f.time, SimTime::from_ns(7));
        assert_eq!(f.event, 2);
    }

    #[test]
    fn same_time_events_fire_in_schedule_order() {
        let mut sim = Simulator::new();
        let t = SimTime::from_us(1);
        for i in 0..10 {
            sim.schedule_event(t, EXT, i);
        }
        for i in 0..10 {
            assert_eq!(sim.next_event().unwrap().event, i);
        }
    }

    #[test]
    fn next_event_until_respects_deadline() {
        let mut sim = Simulator::new();
        sim.schedule_event(SimTime::from_us(10), EXT, "late");
        assert!(sim.next_event_until(SimTime::from_us(5)).is_none());
        assert_eq!(sim.now(), SimTime::from_us(5));
        // Event still pending and fires once the deadline passes it.
        let f = sim.next_event_until(SimTime::from_us(20)).unwrap();
        assert_eq!(f.event, "late");
        assert_eq!(sim.now(), SimTime::from_us(10));
    }

    #[test]
    fn next_event_until_with_empty_queue_advances_clock() {
        let mut sim: Simulator<()> = Simulator::new();
        assert!(sim.next_event_until(SimTime::from_ms(1)).is_none());
        assert_eq!(sim.now(), SimTime::from_ms(1));
    }

    #[test]
    fn pending_and_idle_reflect_queue() {
        let mut sim = Simulator::new();
        assert!(sim.is_idle());
        sim.schedule_event(SimTime::from_ns(1), EXT, ());
        assert_eq!(sim.pending(), 1);
        assert!(!sim.is_idle());
        sim.next_event();
        assert!(sim.is_idle());
    }

    #[test]
    #[should_panic(expected = "event limit")]
    fn event_limit_trips() {
        let mut sim = Simulator::new();
        sim.set_event_limit(2);
        for _ in 0..3 {
            sim.schedule_event(SimTime::ZERO, EXT, ());
        }
        while sim.next_event().is_some() {}
    }

    #[test]
    fn advance_to_moves_clock_forward_only() {
        let mut sim: Simulator<()> = Simulator::new();
        sim.advance_to(SimTime::from_us(3));
        assert_eq!(sim.now(), SimTime::from_us(3));
        sim.advance_to(SimTime::from_us(1));
        assert_eq!(sim.now(), SimTime::from_us(3));
    }
}
