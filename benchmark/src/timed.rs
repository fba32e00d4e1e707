//! `Timed<A>`: a [`FabricAgent`] that delegates every callback to an
//! inner agent and sums the host time each kind of callback takes.
//!
//! `as_any` hands out the *inner* agent, so `Fabric::agent_as::<FmAgent>`
//! keeps working on a fabric that hosts a `Timed<FmAgent>`; the sums are
//! shared with the driver through an `Rc` instead.

use asi_fabric::{AgentCtx, FabricAgent};
use asi_proto::{Packet, PortEvent};
use asi_sim::SimDuration;
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Calls and summed host nanoseconds of one callback.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallStat {
    /// Number of calls.
    pub calls: u64,
    /// Summed host time.
    pub ns: u64,
}

/// Per-callback sums of a [`Timed`] agent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AgentTimes {
    /// `FabricAgent::processing_time`.
    pub processing_time: CallStat,
    /// `FabricAgent::on_packet`.
    pub on_packet: CallStat,
    /// `FabricAgent::on_timer`.
    pub on_timer: CallStat,
    /// `FabricAgent::on_port_event`.
    pub on_port_event: CallStat,
}

/// The timing wrapper.
pub struct Timed<A> {
    inner: A,
    times: Rc<RefCell<AgentTimes>>,
}

impl<A> Timed<A> {
    /// Wraps `inner`; the returned handle reads the sums after the run.
    pub fn new(inner: A) -> (Timed<A>, Rc<RefCell<AgentTimes>>) {
        let times = Rc::new(RefCell::new(AgentTimes::default()));
        let handle = Rc::clone(&times);
        (Timed { inner, times }, handle)
    }

    /// The wrapped agent, to install it bare.
    pub fn into_inner(self) -> A {
        self.inner
    }

    fn timed<R>(
        &mut self,
        stat: fn(&mut AgentTimes) -> &mut CallStat,
        call: impl FnOnce(&mut A) -> R,
    ) -> R {
        let start = Instant::now();
        let result = call(&mut self.inner);
        let ns = start.elapsed().as_nanos() as u64;
        let mut times = self.times.borrow_mut();
        let stat = stat(&mut times);
        stat.calls += 1;
        stat.ns += ns;
        result
    }
}

impl<A: FabricAgent> FabricAgent for Timed<A> {
    fn processing_time(&mut self, packet: &Packet) -> SimDuration {
        self.timed(|t| &mut t.processing_time, |a| a.processing_time(packet))
    }

    fn on_packet(&mut self, ctx: &mut AgentCtx, packet: Packet) {
        self.timed(|t| &mut t.on_packet, |a| a.on_packet(ctx, packet))
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx, token: u64) {
        self.timed(|t| &mut t.on_timer, |a| a.on_timer(ctx, token))
    }

    fn on_port_event(&mut self, ctx: &mut AgentCtx, port: u8, event: PortEvent) {
        self.timed(
            |t| &mut t.on_port_event,
            |a| a.on_port_event(ctx, port, event),
        )
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}
