//! The simulation kernel's own costs: process context switches, event
//! notification fan-out and shared-object arbitration throughput — the
//! quantities that bound how large an OSSS model this kernel can carry.

use osss_bench::bench;
use osss_core::{sched::Fcfs, SharedObject};
use osss_sim::{SimTime, Simulation};

const GROUP: &str = "kernel";
const SWITCHES: u64 = 10_000;

fn rate(what: &str, n: u64, ns: u64) {
    println!("  {:.1} {what}/s", n as f64 / (ns as f64 / 1e9));
}

fn main() {
    let ns = bench(GROUP, "wait_switches_10k", 10, || {
        let mut sim = Simulation::new();
        sim.spawn_process("spinner", |ctx| {
            for _ in 0..SWITCHES {
                ctx.wait(SimTime::ns(1))?;
            }
            Ok(())
        });
        sim.run().expect("run")
    });
    rate("switches", SWITCHES, ns);

    let ns = bench(GROUP, "ping_pong_events_10k", 10, || {
        let mut sim = Simulation::new();
        let ping = sim.event("ping");
        let pong = sim.event("pong");
        let (ping2, pong2) = (ping.clone(), pong.clone());
        sim.spawn_process("a", move |ctx| {
            for _ in 0..SWITCHES / 2 {
                ctx.notify(&ping2);
                ctx.wait_event(&pong2)?;
            }
            Ok(())
        });
        sim.spawn_process("b", move |ctx| {
            for _ in 0..SWITCHES / 2 {
                ctx.wait_event(&ping)?;
                ctx.notify(&pong);
            }
            Ok(())
        });
        // Delta-cycle ping-pong needs headroom over the default cap.
        sim.set_max_deltas_per_step(SWITCHES * 2);
        sim.run().expect("run")
    });
    rate("switches", SWITCHES, ns);

    let ns = bench(GROUP, "shared_object_calls_4x1k", 10, || {
        let mut sim = Simulation::new();
        let so = SharedObject::new(&mut sim, "so", 0u64, Fcfs::new());
        for i in 0..4 {
            let so = so.clone();
            sim.spawn_process(&format!("c{i}"), move |ctx| {
                for _ in 0..1_000 {
                    so.call(ctx, |v, ctx| {
                        *v += 1;
                        ctx.wait(SimTime::ns(5))
                    })?;
                }
                Ok(())
            });
        }
        sim.run().expect("run");
        assert_eq!(so.inspect(|v| *v), 4_000);
    });
    rate("calls", 4_000, ns);
}
