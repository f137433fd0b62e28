//! Property-based tests of shared-object invariants: mutual exclusion,
//! conservation, policy-independent completeness and FCFS ordering.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use osss_core::{
    sched::{Fcfs, RoundRobin, StaticPriority},
    CallOptions, SharedObject,
};
use osss_sim::{SimTime, Simulation};

/// Runs `clients` processes, each making `calls` method calls of
/// `hold_ns` on one shared object under the given arbiter; returns
/// (total completed calls, peak concurrency, end time, busy time).
fn exercise(
    arbiter_sel: usize,
    clients: usize,
    calls: usize,
    hold_ns: u64,
    stagger_ns: u64,
) -> (u64, usize, SimTime, SimTime) {
    let mut sim = Simulation::new();
    let so: SharedObject<u64> = match arbiter_sel {
        0 => SharedObject::new(&mut sim, "so", 0, Fcfs::new()),
        1 => SharedObject::new(&mut sim, "so", 0, RoundRobin::new()),
        _ => SharedObject::new(&mut sim, "so", 0, StaticPriority::new()),
    };
    let inside = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    for k in 0..clients {
        let so = so.clone();
        let inside = Arc::clone(&inside);
        let peak = Arc::clone(&peak);
        sim.spawn_process(&format!("c{k}"), move |ctx| {
            ctx.wait(SimTime::ns(stagger_ns * k as u64))?;
            for _ in 0..calls {
                let opts = CallOptions::new().priority(k as u32);
                so.call_guarded_with(
                    ctx,
                    opts,
                    |_| true,
                    |v, ctx| {
                        let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        *v += 1;
                        let r = ctx.wait(SimTime::ns(hold_ns));
                        inside.fetch_sub(1, Ordering::SeqCst);
                        r
                    },
                )?;
            }
            Ok(())
        });
    }
    let report = sim.run().expect("run");
    report.expect_all_finished().expect("all clients finish");
    let total = so.inspect(|v| *v);
    let stats = so.stats();
    (
        total,
        peak.load(Ordering::SeqCst),
        report.end_time,
        stats.total_busy,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Under every arbitration policy: mutual exclusion holds, no call is
    /// lost, and the object's busy time is exactly calls × hold time.
    #[test]
    fn mutual_exclusion_and_conservation(
        arbiter in 0usize..3,
        clients in 1usize..6,
        calls in 1usize..6,
        hold in 1u64..200,
        stagger in 0u64..100,
    ) {
        let (total, peak, end, busy) = exercise(arbiter, clients, calls, hold, stagger);
        prop_assert_eq!(total as usize, clients * calls, "no lost calls");
        prop_assert!(peak <= 1, "mutual exclusion violated: peak {}", peak);
        let expected_busy = SimTime::ns(hold) * (clients * calls) as u64;
        prop_assert_eq!(busy, expected_busy);
        prop_assert!(end >= expected_busy, "end time below serial bound");
    }

    /// FCFS grants in strict arrival order when arrivals are distinct.
    #[test]
    fn fcfs_orders_by_arrival(offsets in proptest::collection::vec(0u64..1000, 2..7)) {
        // Make arrivals distinct by construction.
        let mut distinct = offsets.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assume!(distinct.len() >= 2);

        let order = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        let so = SharedObject::new(&mut sim, "so", (), Fcfs::new());
        // An occupier keeps the object busy until all contenders arrived.
        let span = *distinct.last().unwrap() + 1;
        let so_occ = so.clone();
        sim.spawn_process("occupier", move |ctx| {
            so_occ.call(ctx, |_, ctx| ctx.wait(SimTime::ns(span)))
        });
        for (i, &off) in distinct.iter().enumerate() {
            let so = so.clone();
            let order = Arc::clone(&order);
            sim.spawn_process(&format!("c{i}"), move |ctx| {
                ctx.wait(SimTime::ns(off))?;
                so.call(ctx, |_, ctx| {
                    order.lock().unwrap().push(off);
                    ctx.wait(SimTime::ns(10))
                })
            });
        }
        sim.run().unwrap().expect_all_finished().unwrap();
        let got = order.lock().unwrap().clone();
        let mut want = distinct.clone();
        want.sort_unstable();
        prop_assert_eq!(got, want, "FCFS must follow arrival order");
    }

    /// Static priority: when everyone queues behind an occupier, grants
    /// are ordered by descending priority.
    #[test]
    fn static_priority_orders_by_priority(
        prios in proptest::collection::vec(0u32..100, 2..7),
    ) {
        let mut distinct = prios.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assume!(distinct.len() >= 2);

        let order = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        let so = SharedObject::new(&mut sim, "so", (), StaticPriority::new());
        let so_occ = so.clone();
        sim.spawn_process("occupier", move |ctx| {
            so_occ.call(ctx, |_, ctx| ctx.wait(SimTime::us(1)))
        });
        for (i, &p) in distinct.iter().enumerate() {
            let so = so.clone();
            let order = Arc::clone(&order);
            sim.spawn_process(&format!("c{i}"), move |ctx| {
                ctx.wait(SimTime::ns(10))?; // all queue while occupied
                let opts = CallOptions::new().priority(p);
                so.call_guarded_with(ctx, opts, |_| true, |_, ctx| {
                    order.lock().unwrap().push(p);
                    ctx.wait(SimTime::ns(10))
                })
            });
        }
        sim.run().unwrap().expect_all_finished().unwrap();
        let got = order.lock().unwrap().clone();
        let mut want = distinct.clone();
        want.sort_unstable_by(|a, b| b.cmp(a));
        prop_assert_eq!(got, want, "grants must be priority-descending");
    }
}
