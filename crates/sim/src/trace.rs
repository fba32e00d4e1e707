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
//! `asi-harness::report`; the schema is the `trace_events!` table below,
//! every row of it documented in `docs/TRACE_FORMAT.md`.

use crate::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// The type a trace field is declared with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldType {
    /// `u8`, `u16`, `u32` or `u64`, by its width in bits.
    Uint(u32),
    /// `bool`.
    Bool,
    /// `&'static str`: one of a closed set of spellings (algorithm names,
    /// run triggers) that the layer above interns.
    Str,
    /// [`SimDuration`].
    Duration,
}

/// A trace field's value: the closed set of payload types, with every
/// integer widened to `u64`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceValue {
    /// Any unsigned integer field.
    Uint(u64),
    /// A flag.
    Bool(bool),
    /// An interned spelling.
    Str(&'static str),
    /// A span of simulated time.
    Duration(SimDuration),
}

/// One row of the trace schema, [`TraceEvent::KINDS`].
#[derive(Clone, Copy, Debug)]
pub struct TraceKind {
    /// The variant's kebab-case tag, as [`TraceEvent::kind`] returns it.
    pub tag: &'static str,
    /// The variant's fields, in declaration order.
    pub fields: &'static [(&'static str, FieldType)],
}

/// A type a trace field may have: how it widens to a [`TraceValue`] and
/// narrows back.
trait Field: Sized {
    const TYPE: FieldType;
    fn to_value(&self) -> TraceValue;
    /// `None` if `value` is of another type or does not fit: a record is
    /// built from input outside the program, and a value out of range
    /// fails the parse instead of wrapping into a different record.
    fn from_value(value: TraceValue) -> Option<Self>;
}

macro_rules! field_types {
    ($($ty:ty => $value:ident, $type:expr;)*) => {$(
        impl Field for $ty {
            const TYPE: FieldType = $type;
            fn to_value(&self) -> TraceValue {
                TraceValue::$value((*self).into())
            }
            fn from_value(value: TraceValue) -> Option<$ty> {
                match value {
                    TraceValue::$value(v) => v.try_into().ok(),
                    _ => None,
                }
            }
        }
    )*};
}
field_types! {
    u8 => Uint, FieldType::Uint(u8::BITS);
    u16 => Uint, FieldType::Uint(u16::BITS);
    u32 => Uint, FieldType::Uint(u32::BITS);
    u64 => Uint, FieldType::Uint(u64::BITS);
    bool => Bool, FieldType::Bool;
    &'static str => Str, FieldType::Str;
    SimDuration => Duration, FieldType::Duration;
}

/// Declares every trace event once. A row reads
/// `/// doc` `Variant "kind-tag" { /// doc` `field: type, … }` and
/// generates the [`TraceEvent`] variant, its [`TraceEvent::kind`] arm, its
/// row of [`TraceEvent::KINDS`], its arm of the field visitor
/// [`TraceEvent::for_each_field`] and of the constructor
/// [`TraceEvent::from_fields`]. A field's type is one that implements
/// `Field`; its name is what exporters key it by.
macro_rules! trace_events {
    ($($(#[$doc:meta])* $name:ident $tag:literal {
        $($(#[$fdoc:meta])* $field:ident: $ty:ty),* $(,)?
    })*) => {
        /// One typed trace event. See `docs/TRACE_FORMAT.md` for the meaning
        /// and the JSONL rendering of every variant.
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub enum TraceEvent {
            $($(#[$doc])* $name { $($(#[$fdoc])* $field: $ty),* },)*
        }

        impl TraceEvent {
            /// The schema: every variant's tag and fields, in declaration
            /// order.
            pub const KINDS: &'static [TraceKind] = &[$(TraceKind {
                tag: $tag,
                fields: &[$((stringify!($field), <$ty as Field>::TYPE)),*],
            }),*];

            /// A stable, kebab-case tag naming the variant; used as the JSONL
            /// `"event"` field and for summary grouping.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(TraceEvent::$name { .. } => $tag,)*
                }
            }

            /// Visits the fields as `(name, value)`, in declaration order.
            pub fn for_each_field(&self, mut visit: impl FnMut(&'static str, TraceValue)) {
                match self {
                    $(TraceEvent::$name { $($field),* } => {
                        $(visit(stringify!($field), $field.to_value());)*
                    })*
                }
            }

            /// The inverse of the visitor: builds the variant tagged `tag`,
            /// asking `value` for each field by name and type. `None` on an
            /// unknown tag, a field `value` has nothing for, a value of
            /// another type, or an integer too large for its field.
            pub fn from_fields(
                tag: &str,
                mut value: impl FnMut(&'static str, FieldType) -> Option<TraceValue>,
            ) -> Option<TraceEvent> {
                Some(match tag {
                    $($tag => TraceEvent::$name {
                        $($field: <$ty>::from_value(value(stringify!($field), <$ty>::TYPE)?)?),*
                    },)*
                    _ => return None,
                })
            }

            /// One event of every kind, its fields filled by `value` as
            /// [`TraceEvent::from_fields`] would; `None` if it declines one.
            pub fn samples(
                mut value: impl FnMut(&'static str, FieldType) -> Option<TraceValue>,
            ) -> Option<Vec<TraceEvent>> {
                let kinds = TraceEvent::KINDS.iter();
                kinds.map(|kind| TraceEvent::from_fields(kind.tag, &mut value)).collect()
            }
        }
    };
}

trace_events! {
    /// A discovery run began (`asi-core`, fabric manager).
    RunStarted "run-started" {
        /// Algorithm name ("Serial Packet", "Serial Device", "Parallel").
        algorithm: &'static str,
        /// What triggered the run ("initial", "change", "partial",
        /// "failover", "warm-start").
        trigger: &'static str,
    }
    /// A discovery run finished (`asi-core`, fabric manager).
    RunFinished "run-finished" {
        /// Devices in the discovered database.
        devices_found: u64,
        /// Links in the discovered database.
        links_found: u64,
        /// PI-4 requests the run sent.
        requests_sent: u64,
        /// Requests that timed out.
        timeouts: u64,
    }
    /// The FM injected a PI-4 request into the fabric.
    RequestInjected "request-injected" {
        /// FM-assigned request id.
        req_id: u32,
        /// True for config-space writes, false for reads.
        write: bool,
    }
    /// A PI-4 completion for `req_id` reached the FM.
    RequestCompleted "request-completed" {
        /// FM-assigned request id.
        req_id: u32,
        /// False if the completion carried an error status.
        ok: bool,
    }
    /// The FM's timeout for `req_id` expired before a completion.
    RequestTimedOut "request-timed-out" {
        /// FM-assigned request id.
        req_id: u32,
    }
    /// A device emitted a PI-5 event packet (`asi-fabric`).
    Pi5Emitted "pi5-emitted" {
        /// Reporting device's serial number.
        dsn: u64,
        /// Port whose state changed.
        port: u16,
        /// True if the port came up, false if it went down.
        up: bool,
    }
    /// The FM received (and de-duplicated) a PI-5 event.
    Pi5Received "pi5-received" {
        /// Reporting device's serial number.
        dsn: u64,
        /// Port whose state changed.
        port: u16,
        /// True if the port came up, false if it went down.
        up: bool,
    }
    /// The discovery engine added a device to its database.
    DeviceDiscovered "device-discovered" {
        /// The device's serial number.
        dsn: u64,
        /// True for switches, false for endpoints.
        switch: bool,
        /// Number of ports the device reports.
        ports: u16,
    }
    /// The engine's pending-request table changed size.
    PendingTableSize "pending-table-size" {
        /// Requests currently in flight.
        size: u32,
    }
    /// The FM finished processing one packet; the span
    /// `[time - busy, time]` was busy time.
    FmBusy "fm-busy" {
        /// Length of the busy span.
        busy: SimDuration,
    }
    /// The FM started processing a packet after sitting idle; the span
    /// `[time - idle, time]` was idle time.
    FmIdle "fm-idle" {
        /// Length of the idle span.
        idle: SimDuration,
    }
    /// A fabric device became active (`asi-fabric`).
    DeviceActivated "device-activated" {
        /// The device id.
        device: u32,
    }
    /// A fabric device was deactivated or removed (`asi-fabric`).
    DeviceDeactivated "device-deactivated" {
        /// The device id.
        device: u32,
    }
    /// Periodic simulator-kernel sample of event-queue depth.
    QueueSample "queue-sample" {
        /// Events pending in the simulator queue.
        depth: u64,
        /// Events processed so far.
        processed: u64,
    }
    /// A scheduled fault took a link down (`asi-fabric`).
    FaultLinkDown "fault-link-down" {
        /// Device owning the flapped port.
        device: u32,
        /// The flapped port.
        port: u16,
    }
    /// A flapped link came back up and re-entered training.
    FaultLinkUp "fault-link-up" {
        /// Device owning the flapped port.
        device: u32,
        /// The flapped port.
        port: u16,
    }
    /// A scheduled fault hung a device's responder.
    FaultDeviceHang "fault-device-hang" {
        /// The hung device.
        device: u32,
    }
    /// A scheduled fault slowed a device's responder.
    FaultDeviceSlow "fault-device-slow" {
        /// The slowed device.
        device: u32,
    }
    /// The loss model dropped a packet on a link.
    FaultPacketLost "fault-packet-lost" {
        /// Transmitting device.
        device: u32,
        /// Transmitting port.
        port: u16,
    }
    /// A PI-4 completion was corrupted in flight and discarded at
    /// delivery (the CRC check catches it, so the requester times out).
    FaultCompletionCorrupted "fault-completion-corrupted" {
        /// Device whose ingress discarded the completion.
        device: u32,
    }
    /// A PI-4 completion was duplicated in flight; the requester sees
    /// it twice and must ignore the stale copy.
    FaultCompletionDuplicated "fault-completion-duplicated" {
        /// Device whose ingress received the duplicate.
        device: u32,
    }
    /// The FM's retry policy gave up on a request.
    RequestAbandoned "request-abandoned" {
        /// FM-assigned request id of the abandoned attempt.
        req_id: u32,
    }
    /// A topology snapshot was loaded as a warm-start seed (`asi-core`).
    SnapshotLoaded "snapshot-loaded" {
        /// Devices in the snapshot.
        devices: u64,
        /// Links in the snapshot.
        links: u64,
    }
    /// A topology snapshot was saved from a discovered database.
    SnapshotSaved "snapshot-saved" {
        /// Devices in the snapshot.
        devices: u64,
        /// Links in the snapshot.
        links: u64,
    }
    /// A warm-start verification probe confirmed a cached device.
    WarmVerified "warm-verified" {
        /// The confirmed device's serial number.
        dsn: u64,
    }
    /// A warm-start verification probe found a cached device changed,
    /// erroring, or silent.
    VerifyMismatch "verify-mismatch" {
        /// The mismatching device's serial number.
        dsn: u64,
    }
    /// Warm start gave up on the snapshot (too many mismatches) and fell
    /// back to a full cold discovery.
    WarmFallback "warm-fallback" {
        /// Devices the verification pass could not confirm.
        mismatches: u64,
        /// Mismatch count at which the snapshot is abandoned.
        threshold: u64,
    }
    /// A fabric manager sent a PI-9 election claim (`asi-core`).
    FmClaim "fm-claim" {
        /// Claiming manager's DSN.
        dsn: u64,
        /// Claimed election priority.
        priority: u8,
    }
    /// A discovery engine ceded a device's region to a rival manager
    /// that claimed its ownership register first (`asi-core`).
    FmYield "fm-yield" {
        /// The contested device's serial number.
        dsn: u64,
        /// DSN of the rival manager that holds the ownership claim.
        to: u64,
    }
    /// A fabric manager's election window closed and it resolved the
    /// ensemble's primary (`asi-core`).
    FmElected "fm-elected" {
        /// DSN of the elected primary manager.
        primary: u64,
        /// Managers that took part in the election (claims seen,
        /// including the emitter's own).
        fms: u32,
    }
    /// A standby or secondary manager promoted itself after the primary
    /// stopped answering keepalives (`asi-core`).
    FmFailover "fm-failover" {
        /// DSN of the manager taking over.
        dsn: u64,
        /// Keepalive misses that triggered the takeover.
        misses: u32,
    }
    /// The primary merged the last collaborator report into one
    /// certified topology database (`asi-core`).
    MergeComplete "merge-complete" {
        /// Devices in the merged database.
        devices: u64,
        /// Links in the merged database.
        links: u64,
        /// Collaborator reports merged.
        reports: u32,
    }
    /// A churn-plan event flapped a link (`asi-fabric`). The shared
    /// link-down machinery also emits `fault-link-down`/`fault-link-up`;
    /// this record marks the churn stream as the origin.
    ChurnLinkFlap "churn-link-flap" {
        /// Device owning the flapped port.
        device: u32,
        /// The flapped port.
        port: u16,
    }
    /// A churn-plan event hot-removed a device (`asi-fabric`).
    ChurnDeviceRemoved "churn-device-removed" {
        /// The removed device.
        device: u32,
    }
    /// A churn-plan event re-added a previously hot-removed device.
    ChurnDeviceReadded "churn-device-readded" {
        /// The returning device.
        device: u32,
    }
    /// The FM coalesced its PI-5 partial backlog per (reporter, port)
    /// before scoping a re-discovery (`asi-core`).
    Pi5Coalesced "pi5-coalesced" {
        /// Raw backlog events drained.
        raw: u64,
        /// Distinct (reporter, port) net changes left after coalescing.
        coalesced: u64,
    }
    /// A correlated PI-5 event storm exceeded the FM's storm threshold
    /// and was escalated to one warm-start verification pass instead of
    /// a scoped partial run (`asi-core`).
    Pi5StormEscalated "pi5-storm-escalated" {
        /// Distinct (reporter, port) net changes in the storm.
        events: u64,
        /// Configured escalation threshold.
        threshold: u64,
    }
    /// A traffic-plan flow injected a packet at its source (`asi-fabric`).
    FlowInjected "flow-injected" {
        /// Flow id within the traffic plan.
        flow: u32,
    }
    /// A traffic-plan flow packet was delivered at its destination.
    FlowDelivered "flow-delivered" {
        /// Flow id within the traffic plan.
        flow: u32,
        /// Injection-to-delivery latency in picoseconds.
        latency_ps: u64,
    }
    /// A traffic-plan multicast packet reached a member endpoint.
    McastDelivered "mcast-delivered" {
        /// Multicast group id.
        group: u16,
        /// The member device that consumed the packet.
        device: u32,
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
    fn visitor_and_constructor_are_inverses_over_the_table() {
        let max = |_: &str, ty| {
            Some(match ty {
                FieldType::Uint(bits) => TraceValue::Uint(u64::MAX >> (64 - bits)),
                FieldType::Bool => TraceValue::Bool(true),
                FieldType::Str => TraceValue::Str("s"),
                FieldType::Duration => TraceValue::Duration(SimDuration::MAX),
            })
        };
        let samples = TraceEvent::samples(max).unwrap();
        for (event, kind) in samples.iter().zip(TraceEvent::KINDS) {
            assert_eq!(event.kind(), kind.tag);
            let mut visited = Vec::new();
            event.for_each_field(|name, value| visited.push((name, Some(value))));
            let declared = kind.fields.iter().map(|&(name, ty)| (name, max(name, ty)));
            assert_eq!(visited, declared.collect::<Vec<_>>());
        }
        let tags: std::collections::BTreeSet<&str> = samples.iter().map(|e| e.kind()).collect();
        assert_eq!(tags.len(), samples.len(), "a tag names two variants");
        assert_eq!(TraceEvent::from_fields("no-such-kind", max), None);
    }
}
