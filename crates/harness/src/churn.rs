//! Continuous-churn experiments: a fabric disturbed by a Poisson
//! stream of link flaps and device remove/re-add cycles
//! ([`asi_fabric::ChurnPlan`]) while the FM assimilates the resulting
//! PI-5 event storm incrementally. The runner measures how well
//! event-driven partial assimilation tracks ground truth over hours of
//! simulated churn: how long the database diverges from the fabric,
//! how fast events are absorbed, and whether the steady state equals a
//! cold re-discovery of the end-state fabric.
//!
//! Determinism: the churn schedule is materialized up front from the
//! plan's dedicated seed, and the measurement loop reads only
//! simulation state, so a `(topology, scenario)` pair always produces
//! the same [`ChurnOutcome`].

use crate::scenario::{db_matches_fabric, Bench, Scenario};
use asi_core::TOKEN_START_DISCOVERY;
use asi_sim::{SimDuration, SimTime};
use asi_topo::Topology;

/// Steady-state metrics of a churn run.
#[derive(Clone, Debug)]
pub struct ChurnOutcome {
    /// Scheduled churn-plan events that fired in the fabric.
    pub churn_events: u64,
    /// PI-5 events the FM accepted (duplicates and stale replays
    /// excluded).
    pub events_absorbed: u64,
    /// Absorption rate over the churn window, events per simulated
    /// second.
    pub events_per_sec: f64,
    /// Re-discovery runs triggered by churn (the initial discovery is
    /// not counted).
    pub assimilation_runs: usize,
    /// Time from the last scheduled churn event to the instant the
    /// database last caught up with the fabric.
    pub convergence_lag: SimDuration,
    /// Total simulated time the database disagreed with the fabric.
    pub divergence_total: SimDuration,
    /// Longest single divergence window.
    pub divergence_max: SimDuration,
    /// Number of distinct divergence windows.
    pub divergence_windows: usize,
    /// The database still disagreed with the fabric when the
    /// simulation went quiescent (a healthy run ends converged).
    pub diverged_at_end: bool,
    /// The database matched the live fabric — devices, links and ports —
    /// when the simulation went quiescent ([`db_matches_fabric`]).
    pub full_topology: bool,
    /// Devices in the final committed database.
    pub final_devices: usize,
    /// Links in the final committed database.
    pub final_links: usize,
    /// The final churned database equals a cold re-discovery of the
    /// end-state fabric (the paper's assimilation-correctness
    /// criterion).
    pub cold_db_matches: bool,
    /// Total simulated time, bring-up and drain included.
    pub sim_time: SimDuration,
    /// When the initial discovery finished. A churn window that starts
    /// before this disturbed a manager that had not yet seen the fabric
    /// (see "Placing the window" in `docs/CHURN.md`).
    pub initial_finished_at: SimTime,
}

impl ChurnOutcome {
    /// The run's verdict: the database ended matching the fabric, no
    /// divergence was open at quiescence, and a cold re-discovery of the
    /// end-state fabric agrees with it.
    pub fn converged(&self) -> bool {
        self.full_topology && !self.diverged_at_end && self.cold_db_matches
    }
}

/// Devices a churn plan should leave alone so the manager stays
/// connected: the default FM endpoint and the switch it hangs off.
pub fn default_churn_exempt(topo: &Topology) -> Vec<u32> {
    let fm = asi_topo::default_fm_endpoint(topo).expect("topology has endpoints");
    let mut exempt = vec![fm.0];
    if let Some((_, at)) = topo.neighbors(fm).next() {
        exempt.push(at.node.0);
    }
    exempt
}

/// True when the FM's committed database mirrors the fabric right now.
fn in_sync(bench: &Bench, topo: &Topology) -> bool {
    let db = bench.fm_agent().db();
    db.is_some_and(|db| db_matches_fabric(db, &bench.fabric, bench.fm, topo))
}

/// Counters whose movement can change either side of the
/// database-vs-fabric comparison: churn firings and link flaps move
/// ground truth, PI-5 emissions mark port retrains, completed runs
/// commit a new database. Between changes the comparison is constant,
/// so the measurement loop only re-evaluates it on movement.
fn signature(bench: &Bench) -> (u64, u64, u64, usize) {
    let c = bench.fabric.counters();
    (
        c.churn_events,
        c.link_flaps,
        c.pi5_emitted,
        bench.fm_agent().runs().len(),
    )
}

/// Runs the continuous-churn experiment: initial discovery, then the
/// scenario's churn window end to end, measuring divergence piecewise
/// while the FM absorbs the event stream, and finally a cold
/// re-discovery of the end-state fabric to certify the churned
/// database. Requires a non-inert churn plan; background traffic is
/// unsupported here (the quiescence detection relies on the event
/// queue draining).
///
/// Bring-up stops at half the churn window start and the initial
/// discovery launches from there, so pick a `start` whose first half
/// comfortably covers the initial discovery (≥ 6 ms for the paper's
/// meshes) — a window opening mid-discovery measures a manager that
/// never saw the pre-churn fabric.
pub fn churn_experiment(topo: &Topology, scenario: &Scenario) -> ChurnOutcome {
    assert!(
        !scenario.churn.is_inert(),
        "churn_experiment needs a live churn plan"
    );
    assert!(
        scenario.traffic.is_inert(),
        "churn_experiment does not support background traffic"
    );
    let schedule = scenario.churn.materialize(topo);
    let last_event_at = SimTime::ZERO
        + schedule
            .last()
            .map(|e| e.at)
            .unwrap_or(scenario.churn.start);

    let mut bench = Bench::start(topo, scenario, &[]);

    // Piecewise divergence accounting: the comparison is re-evaluated
    // whenever a relevant counter moves, and the time in between is
    // attributed to whichever state held at the last evaluation.
    let mut sig = signature(&bench);
    let mut diverged = !in_sync(&bench, topo);
    let mut diverged_since = diverged.then(|| bench.fabric.now());
    let mut last_converged_at = (!diverged).then(|| bench.fabric.now());
    let mut total = SimDuration::ZERO;
    let mut max = SimDuration::ZERO;
    // A run that opens diverged has its first window open already.
    let mut windows = usize::from(diverged);

    loop {
        let s = signature(&bench);
        if s != sig {
            sig = s;
            let now = bench.fabric.now();
            let d = !in_sync(&bench, topo);
            if d != diverged {
                if d {
                    diverged_since = Some(now);
                    windows += 1;
                } else {
                    let w = now.saturating_since(diverged_since.take().expect("open window"));
                    total += w;
                    max = max.max(w);
                    last_converged_at = Some(now);
                }
                diverged = d;
            }
        }
        if !bench.fabric.step() {
            break;
        }
    }
    if let Some(since) = diverged_since {
        let w = bench.fabric.now().saturating_since(since);
        total += w;
        max = max.max(w);
    }

    let agent = bench.fm_agent();
    let events_absorbed = agent.pi5_events;
    let assimilation_runs = agent.runs().len().saturating_sub(1);
    let initial_finished_at = agent.runs()[0].finished_at;
    let churn_events = bench.fabric.counters().churn_events;
    let span = last_event_at
        .saturating_since(SimTime::ZERO + scenario.churn.start)
        .as_secs_f64()
        .max(1e-9);
    let convergence_lag = last_converged_at
        .map(|at| at.saturating_since(last_event_at))
        .unwrap_or(SimDuration::ZERO);
    let full_topology = in_sync(&bench, topo);
    let churned = bench.db().clone();
    let final_devices = churned.device_count();
    let final_links = churned.link_count();
    let sim_time = bench.fabric.now().saturating_since(SimTime::ZERO);

    // Certify against a cold re-discovery of the end-state fabric: the
    // second start token runs a fresh discovery over whatever the
    // churn left behind (at quiescence, the full fabric).
    bench
        .fabric
        .schedule_agent_timer(bench.fm, SimDuration::from_us(1), TOKEN_START_DISCOVERY);
    bench.fabric.run_until_idle();
    let cold_db_matches = churned.diff(bench.db()).is_empty();

    ChurnOutcome {
        churn_events,
        events_absorbed,
        events_per_sec: events_absorbed as f64 / span,
        assimilation_runs,
        convergence_lag,
        divergence_total: total,
        divergence_max: max,
        divergence_windows: windows,
        diverged_at_end: diverged,
        full_topology,
        final_devices,
        final_links,
        cold_db_matches,
        sim_time,
        initial_finished_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asi_core::Algorithm;
    use asi_fabric::ChurnPlan;
    use asi_sim::SimDuration;
    use asi_topo::mesh;

    fn churn_scenario(plan: ChurnPlan) -> Scenario {
        Scenario::new(Algorithm::Parallel)
            .with_partial_assimilation(true)
            .with_churn(plan)
    }

    #[test]
    fn flap_churn_converges_and_matches_cold_rediscovery() {
        let g = mesh(3, 3).unwrap();
        let plan = ChurnPlan::none()
            .with_link_flaps(2_000.0, SimDuration::from_us(200))
            .with_window(SimDuration::from_ms(6), SimDuration::from_ms(4))
            .with_exempt(default_churn_exempt(&g.topology));
        let out = churn_experiment(&g.topology, &churn_scenario(plan));
        assert!(out.churn_events > 0, "no churn fired");
        assert!(out.events_absorbed > 0, "no events absorbed");
        assert!(out.assimilation_runs > 0, "no re-discovery triggered");
        assert!(!out.diverged_at_end, "database stayed stale");
        assert!(out.converged(), "{out:?}");
        assert!(out.divergence_windows > 0);
        assert!(out.divergence_total >= out.divergence_max);
    }

    #[test]
    fn device_churn_removes_and_restores_devices() {
        let g = mesh(3, 3).unwrap();
        let plan = ChurnPlan::none()
            .with_device_churn(500.0, SimDuration::from_ms(1))
            .with_window(SimDuration::from_ms(6), SimDuration::from_ms(6))
            .with_exempt(default_churn_exempt(&g.topology));
        let out = churn_experiment(&g.topology, &churn_scenario(plan));
        assert!(out.churn_events >= 2, "no remove/re-add pair fired");
        assert_eq!(
            out.final_devices,
            g.topology.node_count(),
            "a removed device never came back"
        );
        assert!(out.converged(), "{out:?}");
    }

    /// The CLI's default `churn` plan on `mesh:4x4 --seed 9`: its first
    /// flap fires inside `Bench::start`, so the measurement opens
    /// diverged, and the run converges. Made after every step, the
    /// comparison counts every window: the one open at the start, and
    /// each that opens later.
    #[test]
    fn a_run_that_opens_diverged_counts_its_first_window() {
        let g = mesh(4, 4).unwrap();
        let plan = ChurnPlan::none()
            .with_link_flaps(1_500.0, SimDuration::from_us(200))
            .with_device_churn(300.0, SimDuration::from_ms(1))
            .with_window(SimDuration::from_ms(6), SimDuration::from_ms(4))
            .with_seed(9)
            .with_exempt(default_churn_exempt(&g.topology));
        let scenario = churn_scenario(plan).with_seed(9);
        let out = churn_experiment(&g.topology, &scenario);
        assert!(out.converged(), "{out:?}");
        let mut bench = Bench::start(&g.topology, &scenario, &[]);
        let mut diverged = !in_sync(&bench, &g.topology);
        assert!(diverged, "the run opens converged");
        let mut windows = 1;
        while bench.fabric.step() {
            let now = !in_sync(&bench, &g.topology);
            windows += usize::from(now && !diverged);
            diverged = now;
        }
        assert_eq!(out.divergence_windows, windows);
    }

    #[test]
    fn churn_outcome_is_deterministic() {
        let g = mesh(3, 3).unwrap();
        let plan = ChurnPlan::none()
            .with_link_flaps(1_000.0, SimDuration::from_us(150))
            .with_window(SimDuration::from_ms(6), SimDuration::from_ms(3))
            .with_exempt(default_churn_exempt(&g.topology));
        let s = churn_scenario(plan);
        let a = churn_experiment(&g.topology, &s);
        let b = churn_experiment(&g.topology, &s);
        assert_eq!(a.churn_events, b.churn_events);
        assert_eq!(a.events_absorbed, b.events_absorbed);
        assert_eq!(a.divergence_total, b.divergence_total);
        assert_eq!(a.convergence_lag, b.convergence_lag);
        assert_eq!(a.assimilation_runs, b.assimilation_runs);
    }
}
