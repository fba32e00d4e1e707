//! Property-based tests for the simulation kernel's core invariants.

use asi_sim::{EventKey, Kernel, SerialKernel, SimDuration, SimRng, SimTime, Simulator, Target};
use proptest::prelude::*;

proptest! {
    /// Externally scheduled events pop by time, then schedule order, no
    /// matter the insertion order.
    #[test]
    fn external_events_pop_by_time_then_schedule_order(
        times in proptest::collection::vec(0u64..1_000_000, 1..200),
    ) {
        let mut k = SerialKernel::new();
        for (i, &t) in times.iter().enumerate() {
            k.schedule(SimTime::from_ps(t), Target::External, i);
        }
        let mut popped = Vec::new();
        while let Some((t, idx)) = k.pop() {
            popped.push((t.as_ps(), idx));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "tie-break order violated");
            }
        }
    }

    /// The simulator clock never goes backwards.
    #[test]
    fn simulator_clock_monotonic(delays in proptest::collection::vec(0u64..10_000, 1..100)) {
        let mut sim = Simulator::new();
        for &d in &delays {
            sim.schedule_event(SimTime::from_ps(d), Target::External, d);
        }
        let mut last = SimTime::ZERO;
        while let Some(f) = sim.next_event() {
            prop_assert!(f.time >= last);
            prop_assert_eq!(f.time, sim.now());
            last = f.time;
        }
        prop_assert_eq!(sim.events_processed(), delays.len() as u64);
    }

    /// Two simulators fed identical schedules produce identical traces, even
    /// when events cascade (each fired event schedules a follow-up).
    #[test]
    fn simulation_is_deterministic(seed in any::<u64>()) {
        fn trace(seed: u64) -> Vec<(u64, u32)> {
            let mut rng = SimRng::new(seed);
            let mut sim = Simulator::new();
            for i in 0..20u32 {
                sim.schedule_event(SimTime::from_ps(rng.gen_below(1000)), Target::External, i);
            }
            let mut out = Vec::new();
            let mut budget = 200;
            while let Some(f) = sim.next_event() {
                out.push((f.time.as_ps(), f.event));
                if budget > 0 {
                    budget -= 1;
                    let d = rng.gen_below(500);
                    let at = sim.now() + SimDuration::from_ps(d);
                    sim.schedule_event(at, Target::External, f.event.wrapping_add(1));
                }
            }
            out
        }
        prop_assert_eq!(trace(seed), trace(seed));
    }

    /// gen_range stays within bounds for arbitrary ranges.
    #[test]
    fn rng_range_bounds(seed in any::<u64>(), lo in 0u64..1000, span in 0u64..1000) {
        let mut rng = SimRng::new(seed);
        let hi = lo + span;
        for _ in 0..100 {
            let v = rng.gen_range(lo, hi);
            prop_assert!(v >= lo && v <= hi);
        }
    }
}

/// An event of [`lane_model`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ev {
    /// The `seq`-th arrival of `flow`, dispatched at the flow's source rank.
    Shot { flow: u32, seq: u32 },
    /// Scheduled by a shot's dispatch: a key of the source rank's.
    Local(u32),
    /// Scheduled by a shot's dispatch for the control barrier, whose own
    /// dispatch reserves external keys.
    Control(u32),
    /// Scheduled by a control dispatch: an external key reserved after the
    /// flows were laid out.
    Ext(u32),
    /// Scheduled from outside any dispatch, before or after the flows.
    Outside(u32),
}

/// The traffic arrivals of a fabric in miniature, on the serial kernel:
/// flow `f` fires at the instants `times[f]` (ascending, out of eight
/// instants 100 ps apart, so flows tie), each shot schedules follow-ons of
/// its source rank at later instants, a control event's dispatch schedules
/// external ones at its own instant and later, and external events are
/// scheduled before and after the flows. `lanes` false lays every shot out up front, one
/// external key each, in `(at, flow, seq)` order; `lanes` true reserves
/// one external key per flow and schedules each shot under it, with its
/// own time, from the dispatch of the shot before. Returns the pops.
fn lane_model(
    times: &[Vec<u64>],
    outside: (&[u64], &[u64]),
    delays: &[u64],
    lanes: bool,
) -> Vec<(u64, Ev)> {
    let at = |i: u64| SimTime::from_ps(i * 100);
    let src = |flow: u32| Target::Rank(flow % 3);
    let mut k = SerialKernel::new();
    for (i, &t) in outside.0.iter().enumerate() {
        k.schedule(at(t), Target::External, Ev::Outside(i as u32));
    }
    let mut lane = Vec::new();
    if lanes {
        for (flow, ts) in times.iter().enumerate() {
            lane.push(k.reserve_key(SimTime::ZERO));
            if let Some(&t) = ts.first() {
                let key = EventKey {
                    time: at(t),
                    ..lane[flow]
                };
                let flow = flow as u32;
                k.schedule_keyed(key, src(flow), Ev::Shot { flow, seq: 0 });
            }
        }
    } else {
        let mut shots: Vec<(u64, u32, u32)> = Vec::new();
        for (flow, ts) in times.iter().enumerate() {
            shots.extend(
                ts.iter()
                    .enumerate()
                    .map(|(seq, &t)| (t, flow as u32, seq as u32)),
            );
        }
        shots.sort_unstable();
        for (t, flow, seq) in shots {
            k.schedule(at(t), src(flow), Ev::Shot { flow, seq });
        }
    }
    for (i, &t) in outside.1.iter().enumerate() {
        k.schedule(at(t), Target::External, Ev::Outside(100 + i as u32));
    }
    // A dispatch reserves under its target's rank, which sorts before an
    // arrival's external key at the same instant: a shot's follow-ons go
    // at least one instant later, so no key precedes the one popped.
    let delay = |id: u32| SimDuration::from_ps(delays[id as usize % delays.len()] * 100);
    let later = |id: u32| delay(id) + SimDuration::from_ps(100);
    let mut pops = Vec::new();
    while let Some((now, ev)) = k.pop() {
        pops.push((now.as_ps(), ev));
        match ev {
            Ev::Shot { flow, seq } => {
                let next = times[flow as usize].get(seq as usize + 1);
                if let (true, Some(&t)) = (lanes, next) {
                    let key = EventKey {
                        time: at(t),
                        ..lane[flow as usize]
                    };
                    k.schedule_keyed(key, src(flow), Ev::Shot { flow, seq: seq + 1 });
                }
                let id = flow * 8 + seq;
                k.schedule(now + later(id), Target::Rank(id % 3), Ev::Local(id));
                if id % 2 == 0 {
                    k.schedule(now + later(id + 1), Target::Control, Ev::Control(id));
                }
            }
            Ev::Control(id) => k.schedule(now + delay(id + 2), Target::Rank(id % 3), Ev::Ext(id)),
            _ => {}
        }
        k.finish_dispatch();
    }
    pops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A flow's arrivals reusing one key lane pop exactly where the same
    /// arrivals laid out up front, one key each, pop: ties between flows
    /// at one instant, rank-origin follow-ons at that instant, and the
    /// external keys reserved before and after — their sequence numbers
    /// lower by shots minus flows under lanes — all keep their places.
    #[test]
    fn key_lanes_pop_like_the_eager_shot_block(
        masks in proptest::collection::vec(0u32..256, 1..7),
        before in proptest::collection::vec(0u64..8, 0..4),
        after in proptest::collection::vec(0u64..8, 0..4),
        delays in proptest::collection::vec(0u64..3, 1..8),
    ) {
        let times: Vec<Vec<u64>> = (masks.iter())
            .map(|&m| (0..8).filter(|i| m >> i & 1 == 1).collect())
            .collect();
        let outside = (before.as_slice(), after.as_slice());
        let eager = lane_model(&times, outside, &delays, false);
        let shots: usize = times.iter().map(Vec::len).sum();
        prop_assert!(eager.len() >= shots + before.len() + after.len());
        prop_assert_eq!(eager, lane_model(&times, outside, &delays, true));
    }
}
