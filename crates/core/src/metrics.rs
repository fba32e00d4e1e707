//! Measurements recorded by the fabric manager — the quantities the
//! paper's evaluation section plots.

use asi_sim::{SimDuration, SimTime};

/// The three discovery implementations the paper compares (§3).
///
/// ```
/// use asi_core::Algorithm;
/// assert_eq!(Algorithm::all().map(|a| a.name()),
///            ["Serial Packet", "Serial Device", "Parallel"]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Algorithm {
    /// ASI-SIG's serialized proposal: one request in flight, breadth-first.
    SerialPacket,
    /// The paper's improvement: serial across devices, parallel port reads
    /// within a device.
    SerialDevice,
    /// The paper's main proposal: propagation-order exploration, requests
    /// injected as soon as responses arrive.
    Parallel,
}

impl Algorithm {
    /// All three, in the paper's presentation order.
    pub fn all() -> [Algorithm; 3] {
        [
            Algorithm::SerialPacket,
            Algorithm::SerialDevice,
            Algorithm::Parallel,
        ]
    }

    /// Paper-style series name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::SerialPacket => "Serial Packet",
            Algorithm::SerialDevice => "Serial Device",
            Algorithm::Parallel => "Parallel",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a discovery run started.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DiscoveryTrigger {
    /// Initial discovery after fabric bring-up.
    Initial,
    /// Re-discovery after a PI-5 change notification.
    ChangeAssimilation,
    /// Partial (affected-region) re-discovery — extension.
    Partial,
    /// FM failover: the secondary took over.
    Failover,
    /// Warm start: verification of a cached topology snapshot —
    /// extension.
    WarmStart,
}

impl DiscoveryTrigger {
    /// Every trigger, in declaration order (the trace parser accepts
    /// exactly these tags: a new variant goes here too).
    pub fn all() -> [DiscoveryTrigger; 5] {
        [
            DiscoveryTrigger::Initial,
            DiscoveryTrigger::ChangeAssimilation,
            DiscoveryTrigger::Partial,
            DiscoveryTrigger::Failover,
            DiscoveryTrigger::WarmStart,
        ]
    }

    /// Stable tag used in `run-started` trace records.
    pub fn tag(&self) -> &'static str {
        match self {
            DiscoveryTrigger::Initial => "initial",
            DiscoveryTrigger::ChangeAssimilation => "change",
            DiscoveryTrigger::Partial => "partial",
            DiscoveryTrigger::Failover => "failover",
            DiscoveryTrigger::WarmStart => "warm-start",
        }
    }
}

/// Everything measured during one discovery run.
#[derive(Clone, Debug)]
pub struct DiscoveryRun {
    /// Which algorithm ran.
    pub algorithm: Algorithm,
    /// Why it ran.
    pub trigger: DiscoveryTrigger,
    /// When the FM started the run.
    pub started_at: SimTime,
    /// When the pending table / exploration queue drained.
    pub finished_at: SimTime,
    /// PI-4 requests the FM injected.
    pub requests_sent: u64,
    /// Completions (data or error) the FM processed.
    pub responses_received: u64,
    /// Requests that timed out without a completion.
    pub timeouts: u64,
    /// Timed-out requests the retry policy re-issued.
    pub retries: u64,
    /// Requests abandoned after exhausting the retry policy's budget.
    pub abandoned: u64,
    /// Largest number of simultaneously outstanding requests — the peak
    /// pending-table occupancy (1 for the serial algorithms by
    /// construction; the scale sweeps report this per cell).
    pub peak_outstanding: usize,
    /// Management bytes the FM injected.
    pub bytes_sent: u64,
    /// Management bytes the FM received.
    pub bytes_received: u64,
    /// Devices in the database when the run finished.
    pub devices_found: usize,
    /// Links in the database when the run finished.
    pub links_found: usize,
    /// Time each discovery packet finished processing at the FM, in
    /// arrival order: packet *n* is entry *n − 1* (the paper's Fig. 7a
    /// series).
    pub fm_timeline: Vec<SimTime>,
    /// Cumulative FM busy time (occupancy) during the run.
    pub fm_busy: SimDuration,
    /// Warm start only: snapshotted devices a verification probe
    /// confirmed unchanged (zero on cold runs).
    pub probes_verified: u64,
    /// Warm start only: snapshotted devices the verification pass could
    /// not confirm (changed, erroring, or silent).
    pub verify_mismatches: u64,
    /// Warm start only: true when the mismatch count exceeded the
    /// fallback threshold and the run completed as a full cold discovery.
    pub warm_fallback: bool,
    /// Fabric managers that took part in this discovery (1 for a
    /// classic single-manager run).
    pub fm_count: u32,
    /// Distributed only: boundary devices this manager probed but ceded
    /// to a rival whose ownership claim landed first.
    pub boundary_conflicts: u64,
    /// Primary failovers behind this run (1 when a promoted secondary
    /// ran it; 0 otherwise).
    pub failovers: u32,
    /// Distributed primary only: time from the end of the primary's own
    /// exploration to the merged database becoming final (zero
    /// elsewhere).
    pub merge_time: SimDuration,
    /// Data-plane traffic delivered while this run executed (all zeros
    /// when the fabric carried no traffic plan). Filled in by the
    /// harness after the run from the fabric's counters.
    pub traffic: TrafficSummary,
}

/// Data-plane delivery measurements for one run under a traffic plan.
///
/// All zeros when the fabric ran without traffic — the summary is
/// `Default` and deliberately cheap to carry on every [`DiscoveryRun`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrafficSummary {
    /// Offered unicast load per source endpoint, as a fraction of link
    /// capacity (the plan's `load` knob).
    pub offered_load: f64,
    /// Traffic-plan unicast/switch-sourced packets injected.
    pub flow_injected: u64,
    /// Traffic-plan packets delivered end-to-end.
    pub flow_delivered: u64,
    /// Payload bytes delivered end-to-end.
    pub flow_bytes: u64,
    /// Delivered goodput in bits per second over the measurement window.
    pub goodput_bps: f64,
    /// Median end-to-end flow latency in microseconds.
    pub latency_p50_us: f64,
    /// 99th-percentile end-to-end flow latency in microseconds.
    pub latency_p99_us: f64,
    /// Multicast packets injected at their source member.
    pub mcast_injected: u64,
    /// Multicast deliveries across all member endpoints.
    pub mcast_delivered: u64,
    /// Times a transmission waited for credits during the run.
    pub credit_stalls: u64,
    /// Peak management-VC output-queue depth on any port.
    pub mgmt_queue_peak: u64,
    /// Peak data-VC output-queue depth on any port.
    pub data_queue_peak: u64,
}

impl DiscoveryRun {
    /// Total topology discovery time — the paper's headline metric.
    pub fn discovery_time(&self) -> SimDuration {
        self.finished_at.saturating_since(self.started_at)
    }

    /// Mean per-packet FM processing time over the run (Fig. 4's metric).
    pub fn mean_fm_processing(&self) -> SimDuration {
        if self.responses_received == 0 {
            SimDuration::ZERO
        } else {
            self.fm_busy / self.responses_received
        }
    }

    /// Fraction of the run the FM was busy (1.0 = FM-bound, the parallel
    /// ideal; low values = serialized waiting).
    pub fn fm_utilization(&self) -> f64 {
        let total = self.discovery_time().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.fm_busy.as_secs_f64() / total
        }
    }
}

/// Measurements of one path-distribution phase (extension).
#[derive(Clone, Debug)]
pub struct DistributionRun {
    /// When the first write was injected.
    pub started_at: SimTime,
    /// When the last acknowledgement arrived.
    pub finished_at: SimTime,
    /// Route-table writes issued.
    pub writes: u64,
    /// Writes that failed or timed out.
    pub failures: u64,
    /// Endpoint-destination pairs whose route could not be encoded.
    pub unencodable: u64,
    /// Bytes of route-table traffic injected.
    pub bytes_sent: u64,
}

impl DistributionRun {
    /// Time to restore endpoint paths — the extension's headline metric.
    pub fn distribution_time(&self) -> SimDuration {
        self.finished_at.saturating_since(self.started_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> DiscoveryRun {
        DiscoveryRun {
            algorithm: Algorithm::Parallel,
            trigger: DiscoveryTrigger::Initial,
            started_at: SimTime::from_us(100),
            finished_at: SimTime::from_us(600),
            requests_sent: 10,
            responses_received: 10,
            timeouts: 0,
            retries: 0,
            abandoned: 0,
            peak_outstanding: 1,
            bytes_sent: 260,
            bytes_received: 520,
            devices_found: 5,
            links_found: 4,
            fm_timeline: Vec::new(),
            fm_busy: SimDuration::from_us(130),
            probes_verified: 0,
            verify_mismatches: 0,
            warm_fallback: false,
            fm_count: 1,
            boundary_conflicts: 0,
            failovers: 0,
            merge_time: SimDuration::ZERO,
            traffic: TrafficSummary::default(),
        }
    }

    #[test]
    fn discovery_time_is_interval() {
        assert_eq!(run().discovery_time(), SimDuration::from_us(500));
    }

    #[test]
    fn mean_processing_divides_busy_time() {
        assert_eq!(run().mean_fm_processing(), SimDuration::from_us(13));
        let mut r = run();
        r.responses_received = 0;
        assert_eq!(r.mean_fm_processing(), SimDuration::ZERO);
    }

    #[test]
    fn utilization_is_busy_fraction() {
        let u = run().fm_utilization();
        assert!((u - 0.26).abs() < 1e-9, "{u}");
    }

    #[test]
    fn algorithm_names_match_paper() {
        assert_eq!(Algorithm::SerialPacket.name(), "Serial Packet");
        assert_eq!(Algorithm::SerialDevice.name(), "Serial Device");
        assert_eq!(Algorithm::Parallel.to_string(), "Parallel");
        assert_eq!(Algorithm::all().len(), 3);
    }
}
