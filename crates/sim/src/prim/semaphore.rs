//! Counting semaphore for simulated processes.

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::context::Context;
use crate::error::SimResult;
use crate::event::Event;
use crate::kernel::Simulation;
use crate::lock_unpoisoned;

struct Inner {
    count: Mutex<usize>,
    released: Event,
}

/// A counting semaphore (`sc_semaphore`-like), used e.g. to model a pool of
/// identical hardware resources such as the three parallel IDWT blocks.
///
/// # Example
///
/// ```
/// use osss_sim::{Simulation, SimTime};
/// use osss_sim::prim::Semaphore;
///
/// # fn main() -> Result<(), osss_sim::SimError> {
/// let mut sim = Simulation::new();
/// let pool = Semaphore::new(&mut sim, "idwt_units", 3);
/// for i in 0..6 {
///     let pool = pool.clone();
///     sim.spawn_process(&format!("tile{i}"), move |ctx| {
///         pool.acquire(ctx)?;
///         ctx.wait(SimTime::us(10))?; // one IDWT pass
///         pool.release(ctx);
///         Ok(())
///     });
/// }
/// // Six jobs over three units take two rounds.
/// assert_eq!(sim.run()?.end_time, SimTime::us(20));
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Semaphore {
    inner: Arc<Inner>,
}

impl fmt::Debug for Semaphore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Semaphore")
            .field("available", &*lock_unpoisoned(&self.inner.count))
            .finish()
    }
}

impl Semaphore {
    /// Creates a semaphore with `permits` initially available.
    pub fn new(sim: &mut Simulation, name: &str, permits: usize) -> Self {
        Semaphore {
            inner: Arc::new(Inner {
                count: Mutex::new(permits),
                released: sim.event(&format!("{name}.released")),
            }),
        }
    }

    /// Currently available permits.
    pub fn available(&self) -> usize {
        *lock_unpoisoned(&self.inner.count)
    }

    /// Blocks until a permit is available, then takes one.
    ///
    /// # Errors
    ///
    /// [`crate::SimError::Terminated`] when the simulation is shutting down.
    pub fn acquire(&self, ctx: &Context) -> SimResult<()> {
        loop {
            {
                let mut count = lock_unpoisoned(&self.inner.count);
                if *count > 0 {
                    *count -= 1;
                    return Ok(());
                }
            }
            ctx.wait_event(&self.inner.released)?;
        }
    }

    /// Takes a permit if one is available.
    pub fn try_acquire(&self) -> bool {
        let mut count = lock_unpoisoned(&self.inner.count);
        if *count > 0 {
            *count -= 1;
            true
        } else {
            false
        }
    }

    /// Returns one permit.
    pub fn release(&self, ctx: &Context) {
        *lock_unpoisoned(&self.inner.count) += 1;
        ctx.notify(&self.inner.released);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn limits_concurrency() {
        let mut sim = Simulation::new();
        let sem = Semaphore::new(&mut sim, "s", 2);
        for i in 0..4 {
            let sem = sem.clone();
            sim.spawn_process(&format!("p{i}"), move |ctx| {
                sem.acquire(ctx)?;
                ctx.wait(SimTime::ns(10))?;
                sem.release(ctx);
                Ok(())
            });
        }
        // Four jobs, two at a time: 20 ns.
        assert_eq!(sim.run().expect("run").end_time, SimTime::ns(20));
    }

    #[test]
    fn try_acquire_counts() {
        let mut sim = Simulation::new();
        let sem = Semaphore::new(&mut sim, "s", 1);
        let s = sem.clone();
        sim.spawn_process("p", move |ctx| {
            assert!(s.try_acquire());
            assert!(!s.try_acquire());
            s.release(ctx);
            assert_eq!(s.available(), 1);
            Ok(())
        });
        sim.run().expect("run");
    }
}
