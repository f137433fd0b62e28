//! A periodic clock source (`sc_clock`-like).

use std::sync::{Arc, Mutex};

use crate::context::Context;
use crate::error::SimResult;
use crate::event::Event;
use crate::kernel::Simulation;
use crate::lock_unpoisoned;
use crate::time::{Frequency, SimTime};

struct Inner {
    period: SimTime,
    tick: Event,
    ticks: Mutex<u64>,
    started: Mutex<bool>,
}

/// A periodic event source: fires `tick` every period once started.
///
/// Most models in this workspace use transaction-level timing (waits of
/// *n × period*) for efficiency; a `Clock` is for the cases that genuinely
/// need per-edge activity, like the RTL-ish examples and cycle-counting
/// monitors.
///
/// # Example
///
/// ```
/// use osss_sim::{Frequency, SimTime, Simulation};
/// use osss_sim::prim::Clock;
///
/// # fn main() -> Result<(), osss_sim::SimError> {
/// let mut sim = Simulation::new();
/// let clk = Clock::new(&mut sim, "clk", Frequency::mhz(100));
/// clk.start(&mut sim);
/// let clk2 = clk.clone();
/// sim.spawn_process("sampler", move |ctx| {
///     for _ in 0..5 {
///         clk2.wait_edge(ctx)?;
///     }
///     assert_eq!(ctx.now(), SimTime::ns(50));
///     assert_eq!(clk2.ticks(), 5);
///     Ok(())
/// });
/// sim.run_until(SimTime::ns(55))?;
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Clock {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Clock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Clock")
            .field("period", &self.inner.period)
            .field("ticks", &*lock_unpoisoned(&self.inner.ticks))
            .finish()
    }
}

impl Clock {
    /// Creates a clock of the given frequency (not yet running).
    pub fn new(sim: &mut Simulation, name: &str, freq: Frequency) -> Self {
        Clock {
            inner: Arc::new(Inner {
                period: freq.period(),
                tick: sim.event(&format!("clk:{name}.tick")),
                ticks: Mutex::new(0),
                started: Mutex::new(false),
            }),
        }
    }

    /// Spawns the generator process; the first edge fires one period after
    /// simulation start. Idempotent.
    pub fn start(&self, sim: &mut Simulation) {
        let mut started = lock_unpoisoned(&self.inner.started);
        if *started {
            return;
        }
        *started = true;
        let inner = Arc::clone(&self.inner);
        sim.spawn_process("clock_gen", move |ctx| loop {
            ctx.wait(inner.period)?;
            *lock_unpoisoned(&inner.ticks) += 1;
            ctx.notify(&inner.tick);
        });
    }

    /// The clock period.
    pub fn period(&self) -> SimTime {
        self.inner.period
    }

    /// Rising edges generated so far.
    pub fn ticks(&self) -> u64 {
        *lock_unpoisoned(&self.inner.ticks)
    }

    /// The tick event (for `wait_any` compositions).
    pub fn tick_event(&self) -> &Event {
        &self.inner.tick
    }

    /// Blocks until the next rising edge.
    ///
    /// # Errors
    ///
    /// [`crate::SimError::Terminated`] when the simulation is shutting
    /// down.
    pub fn wait_edge(&self, ctx: &Context) -> SimResult<()> {
        ctx.wait_event(&self.inner.tick)
    }

    /// Blocks for `n` rising edges.
    ///
    /// # Errors
    ///
    /// [`crate::SimError::Terminated`] when the simulation is shutting
    /// down.
    pub fn wait_edges(&self, ctx: &Context, n: u64) -> SimResult<()> {
        for _ in 0..n {
            self.wait_edge(ctx)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_arrive_on_the_grid() {
        let mut sim = Simulation::new();
        let clk = Clock::new(&mut sim, "clk", Frequency::mhz(100));
        clk.start(&mut sim);
        let c = clk.clone();
        sim.spawn_process("p", move |ctx| {
            c.wait_edge(ctx)?;
            assert_eq!(ctx.now(), SimTime::ns(10));
            c.wait_edges(ctx, 3)?;
            assert_eq!(ctx.now(), SimTime::ns(40));
            Ok(())
        });
        sim.run_until(SimTime::ns(100)).expect("run");
        assert_eq!(clk.ticks(), 10);
    }

    #[test]
    fn start_is_idempotent() {
        let mut sim = Simulation::new();
        let clk = Clock::new(&mut sim, "clk", Frequency::mhz(50));
        clk.start(&mut sim);
        clk.start(&mut sim); // no second generator process
        sim.run_until(SimTime::ns(100)).expect("run");
        assert_eq!(clk.ticks(), 5, "one generator, 20 ns period");
    }

    #[test]
    fn multiple_listeners_share_edges() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let hits = Arc::new(AtomicU64::new(0));
        let mut sim = Simulation::new();
        let clk = Clock::new(&mut sim, "clk", Frequency::mhz(100));
        clk.start(&mut sim);
        for i in 0..3 {
            let c = clk.clone();
            let hits = Arc::clone(&hits);
            sim.spawn_process(&format!("l{i}"), move |ctx| {
                for _ in 0..4 {
                    c.wait_edge(ctx)?;
                    hits.fetch_add(1, Ordering::SeqCst);
                }
                Ok(())
            });
        }
        sim.run_until(SimTime::ns(100)).expect("run");
        assert_eq!(hits.load(Ordering::SeqCst), 12);
    }
}
