//! Fig. 7: (a) the time at which each discovery packet is processed at
//! the FM during the 3×3-mesh initial discovery, and (b) the idealized
//! serial/parallel pipelining model.

use crate::report::{Chart, Series};
use crate::scenario::{Bench, Scenario};
use asi_core::{ideal, Algorithm};
use asi_sim::SimDuration;
use asi_topo::mesh;

/// Fig. 7(a): per-packet FM timeline for the 3×3 mesh, all devices
/// active.
pub fn run_timeline() -> Chart {
    let g = mesh(3, 3).expect("known-good grid");
    let mut chart = Chart::new(
        "fig7a",
        "Time each discovery packet is processed at the FM (3x3 mesh)",
        "Packet Number",
        "Simulation Time (sec)",
    );
    for alg in Algorithm::all() {
        let bench = Bench::start(&g.topology, &Scenario::new(alg), &[]);
        let run = bench.last_run();
        let mut series = Series::new(alg.name());
        for (i, t) in run.fm_timeline.iter().enumerate() {
            let ordinal = (i + 1) as f64;
            series.push(ordinal, t.saturating_since(run.started_at).as_secs_f64());
        }
        chart.series.push(series);
    }
    chart
}

/// Fig. 7(b): the closed-form serial vs parallel behaviour (packet
/// completion times under each ideal model).
pub fn run_ideal() -> Chart {
    let params = ideal::IdealParams {
        t_fm: SimDuration::from_us(19),
        t_device: SimDuration::from_us(4),
        t_prop: SimDuration::from_us(1),
    };
    let mut chart = Chart::new(
        "fig7b",
        "Ideal serial and parallel behaviours (T_FM=19us, T_Device=4us, T_Prop=1us)",
        "Packet Number",
        "Completion Time (sec)",
    );
    let mut serial = Series::new("Serial behavior");
    let mut parallel = Series::new("Parallel behavior");
    for n in 1..=40u64 {
        serial.push(n as f64, ideal::serial_total(params, n).as_secs_f64());
        parallel.push(n as f64, ideal::parallel_total(params, n).as_secs_f64());
    }
    chart.series.push(serial);
    chart.series.push(parallel);
    chart
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linear-regression slope of a series.
    fn slope(points: &[(f64, f64)]) -> f64 {
        let n = points.len() as f64;
        let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
        let my = points.iter().map(|p| p.1).sum::<f64>() / n;
        let cov: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
        let var: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
        cov / var
    }

    #[test]
    fn fig7a_slopes_match_paper() {
        let chart = run_timeline();
        assert_eq!(chart.series.len(), 3);
        let sp = slope(&chart.series[0].points);
        let sd = slope(&chart.series[1].points);
        let pa = slope(&chart.series[2].points);
        // Paper: SerialPacket has the steepest (constant) slope; Serial
        // Device is in between; Parallel the flattest.
        assert!(sp > sd && sd > pa, "slopes sp={sp} sd={sd} pa={pa}");
        // Slope magnitudes: serial ~25us/packet, parallel ~13us/packet.
        assert!((20e-6..32e-6).contains(&sp), "sp slope {sp}");
        assert!((10e-6..18e-6).contains(&pa), "pa slope {pa}");
    }

    #[test]
    fn fig7a_timelines_are_monotonic() {
        let chart = run_timeline();
        for s in &chart.series {
            for w in s.points.windows(2) {
                assert!(w[1].1 >= w[0].1, "{} time went backwards", s.name);
                assert!(w[1].0 > w[0].0, "{} packet ordinal not increasing", s.name);
            }
        }
    }

    #[test]
    fn fig7b_parallel_below_serial() {
        let chart = run_ideal();
        for (s, p) in chart.series[0].points.iter().zip(&chart.series[1].points) {
            if p.0 <= 1.0 {
                // With a single packet there is nothing to overlap.
                assert!(p.1 <= s.1);
            } else {
                assert!(
                    p.1 < s.1,
                    "ideal parallel must undercut serial at n={}",
                    p.0
                );
            }
        }
    }
}
