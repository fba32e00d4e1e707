//! The agent interface: how management software (the fabric manager, the
//! background-traffic generator, …) attaches to an endpoint.
//!
//! Agents never touch the fabric directly; callbacks receive an
//! [`AgentCtx`] and push [`AgentCommand`]s (send a packet, arm or cancel
//! a timer) that the fabric executes when the callback returns. This
//! keeps the borrow structure trivial and makes agent behaviour easy to
//! unit-test.

use asi_proto::{DeviceInfo, DeviceType, Packet, PortEvent, PortInfo};
use asi_sim::{SimDuration, SimTime};
use std::any::Any;

/// Identifies a device within a [`crate::Fabric`] (same index space as the
/// source topology's `NodeId`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct DevId(pub u32);

impl DevId {
    /// The index as `usize`.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for DevId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Deferred actions an agent requests during a callback.
#[derive(Debug)]
pub enum AgentCommand {
    /// Inject a packet into the fabric through the endpoint's `port`.
    Send {
        /// Egress port on the hosting endpoint.
        port: u8,
        /// The packet.
        packet: Packet,
    },
    /// Arm a one-shot timer; `on_timer(token)` fires after `delay`.
    Timer {
        /// Delay from now.
        delay: SimDuration,
        /// Opaque token returned to the agent.
        token: u64,
    },
    /// Disarm the pending timer armed with `token` (nothing if none is).
    CancelTimer {
        /// The token the timer was armed with.
        token: u64,
    },
}

/// Context handed to agent callbacks.
pub struct AgentCtx {
    /// Current simulated time.
    pub now: SimTime,
    /// The device hosting this agent.
    pub dev: DevId,
    /// The hosting endpoint's own general information — what the FM's
    /// "read host endpoint configuration space" step returns (a local
    /// access, no packets).
    pub host_info: DeviceInfo,
    /// The hosting endpoint's current port attributes.
    pub host_ports: Vec<PortInfo>,
    commands: Vec<AgentCommand>,
}

impl AgentCtx {
    /// Creates a context (fabric-internal; public for agent unit tests).
    pub fn new(
        now: SimTime,
        dev: DevId,
        host_info: DeviceInfo,
        host_ports: Vec<PortInfo>,
    ) -> AgentCtx {
        AgentCtx {
            now,
            dev,
            host_info,
            host_ports,
            commands: Vec::new(),
        }
    }

    /// Context with a placeholder single-port host — for agent unit tests
    /// that do not exercise host introspection.
    pub fn detached(now: SimTime, dev: DevId) -> AgentCtx {
        AgentCtx::new(
            now,
            dev,
            DeviceInfo {
                device_type: DeviceType::Endpoint,
                dsn: 0,
                port_count: 1,
                max_packet_size: 2048,
                fm_capable: true,
                fm_priority: 0,
            },
            vec![PortInfo::default()],
        )
    }

    /// Queues a packet for injection through `port`.
    pub fn send(&mut self, port: u8, packet: Packet) {
        self.commands.push(AgentCommand::Send { port, packet });
    }

    /// Arms a one-shot timer.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.commands.push(AgentCommand::Timer { delay, token });
    }

    /// Disarms the pending timer armed with `token`: it never fires. A
    /// token the agent cancels must be unique among its pending timers;
    /// one it never cancels (a keepalive, say) may repeat, and fires
    /// once per arm.
    pub fn cancel_timer(&mut self, token: u64) {
        self.commands.push(AgentCommand::CancelTimer { token });
    }

    /// Drains the queued commands (fabric-internal).
    pub fn take_commands(&mut self) -> Vec<AgentCommand> {
        std::mem::take(&mut self.commands)
    }

    /// Replaces the command buffer with a recycled allocation
    /// (fabric-internal; the buffer is cleared before use).
    pub fn recycle_commands(&mut self, mut buf: Vec<AgentCommand>) {
        buf.clear();
        self.commands = buf;
    }
}

/// Management software running on an endpoint.
///
/// The fabric delivers management-plane packets (PI-4 completions, PI-5
/// events, data) to the agent **one at a time**: each packet occupies the
/// agent for [`FabricAgent::processing_time`] before `on_packet` runs and
/// the next packet is dequeued. This occupancy model is what produces the
/// serial/pipelined FM timelines of the paper's Fig. 7.
pub trait FabricAgent {
    /// How long this packet occupies the agent (e.g. the paper's measured
    /// per-packet FM processing time).
    fn processing_time(&mut self, packet: &Packet) -> SimDuration;

    /// A packet finished processing.
    fn on_packet(&mut self, ctx: &mut AgentCtx, packet: Packet);

    /// A timer armed with [`AgentCtx::set_timer`] fired (and was not
    /// cancelled with [`AgentCtx::cancel_timer`] first).
    fn on_timer(&mut self, _ctx: &mut AgentCtx, _token: u64) {}

    /// A local port of the hosting endpoint changed state.
    fn on_port_event(&mut self, _ctx: &mut AgentCtx, _port: u8, _event: PortEvent) {}

    /// Downcasting support so harnesses can inspect agent state.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_collects_commands_in_order() {
        let mut ctx = AgentCtx::detached(SimTime::from_us(3), DevId(7));
        assert_eq!(ctx.now, SimTime::from_us(3));
        assert_eq!(ctx.dev, DevId(7));
        ctx.set_timer(SimDuration::from_us(1), 11);
        ctx.set_timer(SimDuration::from_us(2), 22);
        ctx.cancel_timer(11);
        let cmds = ctx.take_commands();
        assert_eq!(cmds.len(), 3);
        match (&cmds[0], &cmds[1], &cmds[2]) {
            (
                AgentCommand::Timer { token: 11, .. },
                AgentCommand::Timer { token: 22, .. },
                AgentCommand::CancelTimer { token: 11 },
            ) => {}
            other => panic!("unexpected commands: {other:?}"),
        }
        // Drained.
        assert!(ctx.take_commands().is_empty());
    }
}
