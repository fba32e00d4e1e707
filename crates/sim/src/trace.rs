//! Structured event tracing for discovery runs.
//!
//! The paper's whole argument is *measured behavior*; end-of-run
//! aggregates (`DiscoveryRun` in `asi-core`) say *what* happened but
//! not *when*. This module defines the typed, sim-timestamped event
//! stream that the simulator kernel, fabric model and fabric manager
//! emit so a run's timeline can be reconstructed, diffed and exported.
//!
//! Design constraints:
//!
//! - **Zero cost when disabled.** Emission points hold a
//!   [`TraceHandle`]; a disabled handle is a `None` and
//!   [`TraceHandle::emit`] takes the event as a closure, so no event is
//!   even *constructed* unless a sink is installed.
//! - **No upward dependencies.** Event payloads are primitives only
//!   (`u32` device ids, `u64` DSNs, `&'static str` algorithm names), so
//!   the kernel crate stays dependency-free and every layer above it
//!   can emit.
//! - **Single-threaded by design.** The simulation loop is
//!   single-threaded (see `asi-fabric`), so the handle is an
//!   `Rc<RefCell<dyn TraceSink>>`; experiment fan-out (e.g. the Fig. 6
//!   sweep) builds one fabric — and one sink — per thread.
//!
//! Collectors and exporters (ring buffer, JSONL, summaries) live in
//! `asi-harness::report`; the schema is documented in
//! `docs/TRACE_FORMAT.md`.

use crate::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// One typed trace event. See `docs/TRACE_FORMAT.md` for the meaning
/// and the JSONL rendering of every variant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A discovery run began (`asi-core`, fabric manager).
    RunStarted {
        /// Algorithm name ("Serial Packet", "Serial Device", "Parallel").
        algorithm: &'static str,
        /// What triggered the run ("initial", "change", "partial",
        /// "failover", "warm-start").
        trigger: &'static str,
    },
    /// A discovery run finished (`asi-core`, fabric manager).
    RunFinished {
        /// Devices in the discovered database.
        devices_found: u64,
        /// Links in the discovered database.
        links_found: u64,
        /// PI-4 requests the run sent.
        requests_sent: u64,
        /// Requests that timed out.
        timeouts: u64,
    },
    /// The FM injected a PI-4 request into the fabric.
    RequestInjected {
        /// FM-assigned request id.
        req_id: u32,
        /// True for config-space writes, false for reads.
        write: bool,
    },
    /// A PI-4 completion for `req_id` reached the FM.
    RequestCompleted {
        /// FM-assigned request id.
        req_id: u32,
        /// False if the completion carried an error status.
        ok: bool,
    },
    /// The FM's timeout for `req_id` expired before a completion.
    RequestTimedOut {
        /// FM-assigned request id.
        req_id: u32,
    },
    /// A device emitted a PI-5 event packet (`asi-fabric`).
    Pi5Emitted {
        /// Reporting device's serial number.
        dsn: u64,
        /// Port whose state changed.
        port: u16,
        /// True if the port came up, false if it went down.
        up: bool,
    },
    /// The FM received (and de-duplicated) a PI-5 event.
    Pi5Received {
        /// Reporting device's serial number.
        dsn: u64,
        /// Port whose state changed.
        port: u16,
        /// True if the port came up, false if it went down.
        up: bool,
    },
    /// The discovery engine added a device to its database.
    DeviceDiscovered {
        /// The device's serial number.
        dsn: u64,
        /// True for switches, false for endpoints.
        switch: bool,
        /// Number of ports the device reports.
        ports: u16,
    },
    /// The engine's pending-request table changed size.
    PendingTableSize {
        /// Requests currently in flight.
        size: u32,
    },
    /// The FM finished processing one packet; the span
    /// `[time - busy, time]` was busy time.
    FmBusy {
        /// Length of the busy span.
        busy: SimDuration,
    },
    /// The FM started processing a packet after sitting idle; the span
    /// `[time - idle, time]` was idle time.
    FmIdle {
        /// Length of the idle span.
        idle: SimDuration,
    },
    /// A fabric device became active (`asi-fabric`).
    DeviceActivated {
        /// The device id.
        device: u32,
    },
    /// A fabric device was deactivated or removed (`asi-fabric`).
    DeviceDeactivated {
        /// The device id.
        device: u32,
    },
    /// Periodic simulator-kernel sample of event-queue depth.
    QueueSample {
        /// Events pending in the simulator queue.
        depth: u64,
        /// Events processed so far.
        processed: u64,
    },
    /// A scheduled fault took a link down (`asi-fabric`).
    FaultLinkDown {
        /// Device owning the flapped port.
        device: u32,
        /// The flapped port.
        port: u16,
    },
    /// A flapped link came back up and re-entered training.
    FaultLinkUp {
        /// Device owning the flapped port.
        device: u32,
        /// The flapped port.
        port: u16,
    },
    /// A scheduled fault hung a device's responder.
    FaultDeviceHang {
        /// The hung device.
        device: u32,
    },
    /// A scheduled fault slowed a device's responder.
    FaultDeviceSlow {
        /// The slowed device.
        device: u32,
    },
    /// The loss model dropped a packet on a link.
    FaultPacketLost {
        /// Transmitting device.
        device: u32,
        /// Transmitting port.
        port: u16,
    },
    /// A PI-4 completion was corrupted in flight and discarded at
    /// delivery (the CRC check catches it, so the requester times out).
    FaultCompletionCorrupted {
        /// Device whose ingress discarded the completion.
        device: u32,
    },
    /// A PI-4 completion was duplicated in flight; the requester sees
    /// it twice and must ignore the stale copy.
    FaultCompletionDuplicated {
        /// Device whose ingress received the duplicate.
        device: u32,
    },
    /// The FM's retry policy gave up on a request.
    RequestAbandoned {
        /// FM-assigned request id of the abandoned attempt.
        req_id: u32,
    },
    /// A topology snapshot was loaded as a warm-start seed (`asi-core`).
    SnapshotLoaded {
        /// Devices in the snapshot.
        devices: u64,
        /// Links in the snapshot.
        links: u64,
    },
    /// A topology snapshot was saved from a discovered database.
    SnapshotSaved {
        /// Devices in the snapshot.
        devices: u64,
        /// Links in the snapshot.
        links: u64,
    },
    /// A warm-start verification probe confirmed a cached device.
    WarmVerified {
        /// The confirmed device's serial number.
        dsn: u64,
    },
    /// A warm-start verification probe found a cached device changed,
    /// erroring, or silent.
    VerifyMismatch {
        /// The mismatching device's serial number.
        dsn: u64,
    },
    /// Warm start gave up on the snapshot (too many mismatches) and fell
    /// back to a full cold discovery.
    WarmFallback {
        /// Devices the verification pass could not confirm.
        mismatches: u64,
        /// Mismatch count at which the snapshot is abandoned.
        threshold: u64,
    },
    /// A fabric manager sent a PI-9 election claim (`asi-core`).
    FmClaim {
        /// Claiming manager's DSN.
        dsn: u64,
        /// Claimed election priority.
        priority: u8,
    },
    /// A discovery engine ceded a device's region to a rival manager
    /// that claimed its ownership register first (`asi-core`).
    FmYield {
        /// The contested device's serial number.
        dsn: u64,
        /// DSN of the rival manager that holds the ownership claim.
        to: u64,
    },
    /// A fabric manager's election window closed and it resolved the
    /// ensemble's primary (`asi-core`).
    FmElected {
        /// DSN of the elected primary manager.
        primary: u64,
        /// Managers that took part in the election (claims seen,
        /// including the emitter's own).
        fms: u32,
    },
    /// A standby or secondary manager promoted itself after the primary
    /// stopped answering keepalives (`asi-core`).
    FmFailover {
        /// DSN of the manager taking over.
        dsn: u64,
        /// Keepalive misses that triggered the takeover.
        misses: u32,
    },
    /// The primary merged the last collaborator report into one
    /// certified topology database (`asi-core`).
    MergeComplete {
        /// Devices in the merged database.
        devices: u64,
        /// Links in the merged database.
        links: u64,
        /// Collaborator reports merged.
        reports: u32,
    },
    /// A churn-plan event flapped a link (`asi-fabric`). The shared
    /// link-down machinery also emits `fault-link-down`/`fault-link-up`;
    /// this record marks the churn stream as the origin.
    ChurnLinkFlap {
        /// Device owning the flapped port.
        device: u32,
        /// The flapped port.
        port: u16,
    },
    /// A churn-plan event hot-removed a device (`asi-fabric`).
    ChurnDeviceRemoved {
        /// The removed device.
        device: u32,
    },
    /// A churn-plan event re-added a previously hot-removed device.
    ChurnDeviceReadded {
        /// The returning device.
        device: u32,
    },
    /// The FM coalesced its PI-5 partial backlog per (reporter, port)
    /// before scoping a re-discovery (`asi-core`).
    Pi5Coalesced {
        /// Raw backlog events drained.
        raw: u64,
        /// Distinct (reporter, port) net changes left after coalescing.
        coalesced: u64,
    },
    /// A correlated PI-5 event storm exceeded the FM's storm threshold
    /// and was escalated to one warm-start verification pass instead of
    /// a scoped partial run (`asi-core`).
    Pi5StormEscalated {
        /// Distinct (reporter, port) net changes in the storm.
        events: u64,
        /// Configured escalation threshold.
        threshold: u64,
    },
    /// A traffic-plan flow injected a packet at its source (`asi-fabric`).
    FlowInjected {
        /// Flow id within the traffic plan.
        flow: u32,
    },
    /// A traffic-plan flow packet was delivered at its destination.
    FlowDelivered {
        /// Flow id within the traffic plan.
        flow: u32,
        /// Injection-to-delivery latency in picoseconds.
        latency_ps: u64,
    },
    /// A traffic-plan multicast packet reached a member endpoint.
    McastDelivered {
        /// Multicast group id.
        group: u16,
        /// The member device that consumed the packet.
        device: u32,
    },
}

impl TraceEvent {
    /// A stable, kebab-case tag naming the variant; used as the JSONL
    /// `"event"` field and for summary grouping.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RunStarted { .. } => "run-started",
            TraceEvent::RunFinished { .. } => "run-finished",
            TraceEvent::RequestInjected { .. } => "request-injected",
            TraceEvent::RequestCompleted { .. } => "request-completed",
            TraceEvent::RequestTimedOut { .. } => "request-timed-out",
            TraceEvent::Pi5Emitted { .. } => "pi5-emitted",
            TraceEvent::Pi5Received { .. } => "pi5-received",
            TraceEvent::DeviceDiscovered { .. } => "device-discovered",
            TraceEvent::PendingTableSize { .. } => "pending-table-size",
            TraceEvent::FmBusy { .. } => "fm-busy",
            TraceEvent::FmIdle { .. } => "fm-idle",
            TraceEvent::DeviceActivated { .. } => "device-activated",
            TraceEvent::DeviceDeactivated { .. } => "device-deactivated",
            TraceEvent::QueueSample { .. } => "queue-sample",
            TraceEvent::FaultLinkDown { .. } => "fault-link-down",
            TraceEvent::FaultLinkUp { .. } => "fault-link-up",
            TraceEvent::FaultDeviceHang { .. } => "fault-device-hang",
            TraceEvent::FaultDeviceSlow { .. } => "fault-device-slow",
            TraceEvent::FaultPacketLost { .. } => "fault-packet-lost",
            TraceEvent::FaultCompletionCorrupted { .. } => "fault-completion-corrupted",
            TraceEvent::FaultCompletionDuplicated { .. } => "fault-completion-duplicated",
            TraceEvent::RequestAbandoned { .. } => "request-abandoned",
            TraceEvent::SnapshotLoaded { .. } => "snapshot-loaded",
            TraceEvent::SnapshotSaved { .. } => "snapshot-saved",
            TraceEvent::WarmVerified { .. } => "warm-verified",
            TraceEvent::VerifyMismatch { .. } => "verify-mismatch",
            TraceEvent::WarmFallback { .. } => "warm-fallback",
            TraceEvent::FmClaim { .. } => "fm-claim",
            TraceEvent::FmYield { .. } => "fm-yield",
            TraceEvent::FmElected { .. } => "fm-elected",
            TraceEvent::FmFailover { .. } => "fm-failover",
            TraceEvent::MergeComplete { .. } => "merge-complete",
            TraceEvent::ChurnLinkFlap { .. } => "churn-link-flap",
            TraceEvent::ChurnDeviceRemoved { .. } => "churn-device-removed",
            TraceEvent::ChurnDeviceReadded { .. } => "churn-device-readded",
            TraceEvent::Pi5Coalesced { .. } => "pi5-coalesced",
            TraceEvent::Pi5StormEscalated { .. } => "pi5-storm-escalated",
            TraceEvent::FlowInjected { .. } => "flow-injected",
            TraceEvent::FlowDelivered { .. } => "flow-delivered",
            TraceEvent::McastDelivered { .. } => "mcast-delivered",
        }
    }
}

/// A trace event stamped with the simulated time it fired at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time of the event.
    pub time: SimTime,
    /// The event.
    pub event: TraceEvent,
}

/// Receives trace records. Implemented by collectors (ring buffers,
/// counters, streaming writers) in higher layers.
pub trait TraceSink {
    /// Accepts one record. Called in simulated-time order per emitter.
    fn record(&mut self, record: TraceRecord);
}

/// A cheap, cloneable handle to an optional [`TraceSink`].
///
/// Every emission point stores one of these. The default handle is
/// disabled: [`TraceHandle::emit`] then reduces to a null check and the
/// event-constructing closure is never run.
#[derive(Clone, Default)]
pub struct TraceHandle(Option<Rc<RefCell<dyn TraceSink>>>);

impl TraceHandle {
    /// A handle that drops everything (the default).
    pub fn disabled() -> TraceHandle {
        TraceHandle(None)
    }

    /// A handle feeding `sink`. Keep your own `Rc` clone to read the
    /// collected records back after the run.
    pub fn to(sink: Rc<RefCell<dyn TraceSink>>) -> TraceHandle {
        TraceHandle(Some(sink))
    }

    /// True if a sink is installed.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records `event()` at `time` if a sink is installed. The closure
    /// is not evaluated on a disabled handle, so emission points may
    /// compute event fields inside it for free.
    #[inline]
    pub fn emit(&self, time: SimTime, event: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.0 {
            sink.borrow_mut().record(TraceRecord {
                time,
                event: event(),
            });
        }
    }
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_enabled() {
            "TraceHandle(enabled)"
        } else {
            "TraceHandle(disabled)"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct VecSink(Vec<TraceRecord>);

    impl TraceSink for VecSink {
        fn record(&mut self, record: TraceRecord) {
            self.0.push(record);
        }
    }

    #[test]
    fn disabled_handle_never_runs_the_closure() {
        let handle = TraceHandle::disabled();
        assert!(!handle.is_enabled());
        handle.emit(SimTime::ZERO, || panic!("must not be constructed"));
    }

    #[test]
    fn enabled_handle_records_in_order() {
        let sink = Rc::new(RefCell::new(VecSink::default()));
        let handle = TraceHandle::to(sink.clone());
        assert!(handle.is_enabled());
        handle.emit(SimTime::from_ns(1), || TraceEvent::PendingTableSize {
            size: 1,
        });
        handle.emit(SimTime::from_ns(2), || TraceEvent::RequestTimedOut {
            req_id: 7,
        });
        let records = &sink.borrow().0;
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].event.kind(), "pending-table-size");
        assert_eq!(
            records[1],
            TraceRecord {
                time: SimTime::from_ns(2),
                event: TraceEvent::RequestTimedOut { req_id: 7 },
            }
        );
    }

    #[test]
    fn clones_share_the_sink() {
        let sink = Rc::new(RefCell::new(VecSink::default()));
        let a = TraceHandle::to(sink.clone());
        let b = a.clone();
        a.emit(SimTime::ZERO, || TraceEvent::QueueSample {
            depth: 1,
            processed: 1,
        });
        b.emit(SimTime::ZERO, || TraceEvent::QueueSample {
            depth: 2,
            processed: 2,
        });
        assert_eq!(sink.borrow().0.len(), 2);
    }

    #[test]
    fn every_kind_is_unique() {
        let events = [
            TraceEvent::RunStarted {
                algorithm: "a",
                trigger: "t",
            },
            TraceEvent::RunFinished {
                devices_found: 0,
                links_found: 0,
                requests_sent: 0,
                timeouts: 0,
            },
            TraceEvent::RequestInjected {
                req_id: 0,
                write: false,
            },
            TraceEvent::RequestCompleted {
                req_id: 0,
                ok: true,
            },
            TraceEvent::RequestTimedOut { req_id: 0 },
            TraceEvent::Pi5Emitted {
                dsn: 0,
                port: 0,
                up: true,
            },
            TraceEvent::Pi5Received {
                dsn: 0,
                port: 0,
                up: true,
            },
            TraceEvent::DeviceDiscovered {
                dsn: 0,
                switch: false,
                ports: 0,
            },
            TraceEvent::PendingTableSize { size: 0 },
            TraceEvent::FmBusy {
                busy: SimDuration::ZERO,
            },
            TraceEvent::FmIdle {
                idle: SimDuration::ZERO,
            },
            TraceEvent::DeviceActivated { device: 0 },
            TraceEvent::DeviceDeactivated { device: 0 },
            TraceEvent::QueueSample {
                depth: 0,
                processed: 0,
            },
            TraceEvent::FaultLinkDown { device: 0, port: 0 },
            TraceEvent::FaultLinkUp { device: 0, port: 0 },
            TraceEvent::FaultDeviceHang { device: 0 },
            TraceEvent::FaultDeviceSlow { device: 0 },
            TraceEvent::FaultPacketLost { device: 0, port: 0 },
            TraceEvent::FaultCompletionCorrupted { device: 0 },
            TraceEvent::FaultCompletionDuplicated { device: 0 },
            TraceEvent::RequestAbandoned { req_id: 0 },
            TraceEvent::SnapshotLoaded {
                devices: 0,
                links: 0,
            },
            TraceEvent::SnapshotSaved {
                devices: 0,
                links: 0,
            },
            TraceEvent::WarmVerified { dsn: 0 },
            TraceEvent::VerifyMismatch { dsn: 0 },
            TraceEvent::WarmFallback {
                mismatches: 0,
                threshold: 0,
            },
            TraceEvent::FmClaim {
                dsn: 0,
                priority: 0,
            },
            TraceEvent::FmYield { dsn: 0, to: 0 },
            TraceEvent::FmElected { primary: 0, fms: 0 },
            TraceEvent::FmFailover { dsn: 0, misses: 0 },
            TraceEvent::MergeComplete {
                devices: 0,
                links: 0,
                reports: 0,
            },
            TraceEvent::ChurnLinkFlap { device: 0, port: 0 },
            TraceEvent::ChurnDeviceRemoved { device: 0 },
            TraceEvent::ChurnDeviceReadded { device: 0 },
            TraceEvent::Pi5Coalesced {
                raw: 0,
                coalesced: 0,
            },
            TraceEvent::Pi5StormEscalated {
                events: 0,
                threshold: 0,
            },
            TraceEvent::FlowInjected { flow: 0 },
            TraceEvent::FlowDelivered {
                flow: 0,
                latency_ps: 0,
            },
            TraceEvent::McastDelivered {
                group: 0,
                device: 0,
            },
        ];
        let kinds: std::collections::BTreeSet<&str> = events.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.len(), events.len());
    }
}
