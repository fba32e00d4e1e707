//! Timing and sizing parameters of the fabric model.
//!
//! Defaults follow the paper's simulation methodology: ASI x1 links at
//! 2.5 Gb/s signalling (2.0 Gb/s effective after 8b/10b), 16-port
//! multiplexed virtual cut-through switches, and a measured per-packet
//! device processing time that is small and independent of the algorithm
//! and fabric size (paper §4.1 / Fig. 4).

use crate::churn::ChurnPlan;
use crate::faults::FaultPlan;
use crate::traffic::TrafficPlan;
use asi_sim::{KernelSpec, SimDuration};

/// Fabric-wide model parameters.
#[derive(Clone, Debug)]
pub struct FabricConfig {
    /// Time to serialize one byte on a link (x1 @ 2.0 Gb/s effective
    /// ⇒ 4 ns/byte).
    pub byte_time: SimDuration,
    /// Signal propagation delay per link (≈ 1 m backplane trace).
    pub propagation: SimDuration,
    /// Switch routing + crossbar latency per hop (virtual cut-through:
    /// forwarding starts once the header is received).
    pub switch_latency: SimDuration,
    /// Link training time after both ends power up.
    pub train_time: SimDuration,
    /// Per-packet PI-4 servicing time at a fabric device (paper: profiled,
    /// low, size- and algorithm-independent).
    pub device_time: SimDuration,
    /// Device processing *speed* factor (Figs. 8–9): effective time is
    /// `device_time / device_factor`.
    pub device_factor: f64,
    /// Input-buffer credits per management VC (64-byte units). Must
    /// cover the largest management packet (a full 8-word completion is
    /// one credit).
    pub mgmt_credits: u32,
    /// Input-buffer credits per data VC (64-byte units). Must cover the
    /// maximum packet size (2 KiB = 32 credits), or large packets could
    /// never be forwarded.
    pub data_credits: u32,
    /// When false, credit flow control is disabled (infinite credits) —
    /// used by the flow-control ablation bench.
    pub flow_control: bool,
    /// Fault-injection plan: per-link loss model, scheduled link
    /// flaps / device hangs, and completion corruption/duplication.
    /// The default plan is inert and models the paper's loss-free
    /// OPNET links; see [`crate::FaultPlan`].
    pub faults: FaultPlan,
    /// Continuous-churn workload: Poisson streams of link flaps and
    /// device hot-remove/re-add events materialized at construction.
    /// The default plan is inert (zero rates) and schedules nothing,
    /// keeping churn-free runs byte-identical; see [`crate::ChurnPlan`].
    pub churn: ChurnPlan,
    /// Data-plane traffic workload: unicast/multicast/switch-sourced
    /// flows at a configured offered load, materialized at construction.
    /// The default plan is inert (zero load) and injects nothing,
    /// keeping traffic-free runs byte-identical; see
    /// [`crate::TrafficPlan`].
    pub traffic: TrafficPlan,
    /// Seed for the fabric's own randomness (loss, corruption and
    /// duplication draws). Each device derives its own stream from this
    /// seed, so random draws are independent of global event order.
    pub seed: u64,
    /// Scheduling kernel for the event engine: serial unless the caller
    /// sets it ([`KernelSpec`] says who does). Output is byte-identical
    /// across kernels and shard counts.
    pub kernel: KernelSpec,
}

/// Size of one credit unit in bytes.
pub const CREDIT_UNIT: usize = 64;

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            byte_time: SimDuration::from_ns(4),
            propagation: SimDuration::from_ns(5),
            switch_latency: SimDuration::from_ns(140),
            train_time: SimDuration::from_us(1),
            device_time: SimDuration::from_us(4),
            device_factor: 1.0,
            mgmt_credits: 8,
            data_credits: 32,
            flow_control: true,
            faults: FaultPlan::none(),
            churn: ChurnPlan::none(),
            traffic: TrafficPlan::none(),
            seed: 0x1055,
            kernel: KernelSpec::Serial,
        }
    }
}

impl FabricConfig {
    /// Effective per-packet device servicing time after the speed factor.
    pub fn effective_device_time(&self) -> SimDuration {
        assert!(
            self.device_factor > 0.0,
            "device factor must be positive, got {}",
            self.device_factor
        );
        self.device_time.scaled(1.0 / self.device_factor)
    }

    /// Time to serialize `bytes` on a link.
    pub fn tx_time(&self, bytes: usize) -> SimDuration {
        self.byte_time * bytes as u64
    }

    /// Credits a packet of `bytes` consumes.
    pub fn credits_for(&self, bytes: usize) -> u32 {
        (bytes.div_ceil(CREDIT_UNIT)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_link_rate_is_2gbps() {
        let c = FabricConfig::default();
        // 1 byte = 8 bits at 2 Gb/s = 4 ns.
        assert_eq!(c.byte_time, SimDuration::from_ns(4));
        assert_eq!(c.tx_time(64), SimDuration::from_ns(256));
    }

    #[test]
    fn device_factor_scales_speed_not_time() {
        let mut c = FabricConfig {
            device_factor: 2.0, // twice as fast
            ..FabricConfig::default()
        };
        assert_eq!(c.effective_device_time(), SimDuration::from_us(2));
        c.device_factor = 0.2; // five times slower (paper Fig. 9b/c)
        assert_eq!(c.effective_device_time(), SimDuration::from_us(20));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_device_factor_rejected() {
        let c = FabricConfig {
            device_factor: 0.0,
            ..FabricConfig::default()
        };
        let _ = c.effective_device_time();
    }

    #[test]
    fn credit_accounting_rounds_up() {
        let c = FabricConfig::default();
        assert_eq!(c.credits_for(1), 1);
        assert_eq!(c.credits_for(64), 1);
        assert_eq!(c.credits_for(65), 2);
        assert_eq!(c.credits_for(128), 2);
        assert_eq!(c.credits_for(0), 0);
    }
}
