//! Property-based tests of kernel invariants: time arithmetic,
//! determinism and time-ordered wakeups.

use proptest::prelude::*;

use osss_sim::{SimTime, Simulation};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Time arithmetic: unit constructors scale consistently and
    /// addition is associative/commutative over random operands.
    #[test]
    fn time_arithmetic_laws(a in 0u64..1_000_000, b in 0u64..1_000_000, c in 0u64..1_000_000) {
        let (ta, tb, tc) = (SimTime::ns(a), SimTime::ns(b), SimTime::ns(c));
        prop_assert_eq!(ta + tb, tb + ta);
        prop_assert_eq!((ta + tb) + tc, ta + (tb + tc));
        prop_assert_eq!(SimTime::us(a), SimTime::ns(a * 1_000));
        prop_assert_eq!((ta + tb).checked_sub(tb), Some(ta));
    }

    /// Identical models simulate identically (determinism): run the same
    /// random task set twice and compare end times and delta counts.
    #[test]
    fn simulation_is_deterministic(
        tasks in proptest::collection::vec((1u64..100, 1usize..6), 1..8),
    ) {
        let run = |tasks: &[(u64, usize)]| {
            let mut sim = Simulation::new();
            for (i, &(delay, steps)) in tasks.iter().enumerate() {
                sim.spawn_process(&format!("p{i}"), move |ctx| {
                    for _ in 0..steps {
                        ctx.wait(SimTime::ns(delay))?;
                    }
                    Ok(())
                });
            }
            let r = sim.run().unwrap();
            (r.end_time, r.delta_cycles, r.finished)
        };
        prop_assert_eq!(run(&tasks), run(&tasks));
    }

    /// Timed wakeups happen in global time order: a process observing the
    /// wakeups of N peers sees a sorted sequence.
    #[test]
    fn wakeups_are_time_ordered(delays in proptest::collection::vec(1u64..1000, 2..12)) {
        use std::sync::{Arc, Mutex};
        let log: Arc<Mutex<Vec<SimTime>>> = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        for (i, &d) in delays.iter().enumerate() {
            let log = Arc::clone(&log);
            sim.spawn_process(&format!("p{i}"), move |ctx| {
                ctx.wait(SimTime::ns(d))?;
                log.lock().unwrap().push(ctx.now());
                Ok(())
            });
        }
        sim.run().unwrap();
        let log = log.lock().unwrap();
        prop_assert!(log.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(log.len(), delays.len());
    }
}
