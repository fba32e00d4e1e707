//! Fabric-wide packet accounting.

/// Counters updated by the fabric as packets move.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricCounters {
    /// Packets injected by agents and device responders.
    pub injected: u64,
    /// Packets delivered to a local consumer (agent or device responder).
    pub delivered: u64,
    /// Switch-to-link forwarding operations.
    pub forwarded: u64,
    /// Packets dropped because the egress port was down.
    pub dropped_link_down: u64,
    /// Packets dropped because the receiving device was inactive.
    pub dropped_inactive: u64,
    /// Packets dropped due to a routing error (bad turn pool, arrival at an
    /// endpoint with turns left, …).
    pub dropped_bad_route: u64,
    /// Packets discarded by the receiver's CRC check (injected loss).
    pub dropped_corrupted: u64,
    /// Times a transmission had to wait for credits.
    pub credit_stalls: u64,
    /// Management-plane bytes put on the wire.
    pub mgmt_bytes: u64,
    /// Data-plane bytes put on the wire.
    pub data_bytes: u64,
    /// PI-5 events emitted by devices.
    pub pi5_emitted: u64,
    /// PI-4 completions discarded at delivery by injected corruption
    /// (also counted in `dropped_corrupted`).
    pub completions_corrupted: u64,
    /// PI-4 completions duplicated in flight by injected faults.
    pub completions_duplicated: u64,
    /// Scheduled link flaps that fired on an existing link.
    pub link_flaps: u64,
    /// Churn-plan events that fired (flaps, removals and re-adds).
    pub churn_events: u64,
    /// Traffic-plan packets injected.
    pub flow_injected: u64,
    /// Traffic-plan packets delivered end-to-end.
    pub flow_delivered: u64,
    /// Payload bytes delivered end-to-end by traffic-plan flows (goodput).
    pub flow_bytes: u64,
    /// Peak management-VC output-queue depth seen on any port.
    pub mgmt_queue_peak: u64,
    /// Peak data-VC output-queue depth seen on any port.
    pub data_queue_peak: u64,
}

impl FabricCounters {
    /// Total drops of any kind.
    pub fn total_dropped(&self) -> u64 {
        self.dropped_link_down
            + self.dropped_inactive
            + self.dropped_bad_route
            + self.dropped_corrupted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_dropped_sums_categories() {
        let c = FabricCounters {
            dropped_link_down: 1,
            dropped_inactive: 2,
            dropped_bad_route: 4,
            ..FabricCounters::default()
        };
        assert_eq!(c.total_dropped(), 7);
    }
}
