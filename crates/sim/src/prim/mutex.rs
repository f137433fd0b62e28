//! A mutex for simulated processes.

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::context::Context;
use crate::error::SimResult;
use crate::event::Event;
use crate::kernel::{ProcId, Simulation};
use crate::lock_unpoisoned;

struct Inner {
    owner: Mutex<Option<ProcId>>,
    released: Event,
}

/// A mutual-exclusion lock between simulation processes (`sc_mutex`-like).
///
/// Unlike an OS mutex this never blocks the host thread directly: waiting
/// processes yield to the kernel and are woken on release. Acquisition is
/// not guaranteed FIFO — use an OSSS shared-object arbiter for policy-
/// controlled access.
///
/// # Example
///
/// ```
/// use osss_sim::{Simulation, SimTime};
/// use osss_sim::prim::SimMutex;
///
/// # fn main() -> Result<(), osss_sim::SimError> {
/// let mut sim = Simulation::new();
/// let m = SimMutex::new(&mut sim, "bus");
/// for i in 0..2 {
///     let m = m.clone();
///     sim.spawn_process(&format!("user{i}"), move |ctx| {
///         m.lock(ctx)?;
///         ctx.wait(SimTime::ns(10))?; // exclusive section
///         m.unlock(ctx);
///         Ok(())
///     });
/// }
/// // Two 10 ns critical sections serialise to 20 ns.
/// assert_eq!(sim.run()?.end_time, SimTime::ns(20));
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct SimMutex {
    inner: Arc<Inner>,
}

impl fmt::Debug for SimMutex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimMutex")
            .field("owner", &*lock_unpoisoned(&self.inner.owner))
            .finish()
    }
}

impl SimMutex {
    /// Creates an unlocked mutex.
    pub fn new(sim: &mut Simulation, name: &str) -> Self {
        SimMutex {
            inner: Arc::new(Inner {
                owner: Mutex::new(None),
                released: sim.event(&format!("{name}.released")),
            }),
        }
    }

    /// Blocks until the lock is free, then takes it.
    ///
    /// # Errors
    ///
    /// [`crate::SimError::Terminated`] when the simulation is shutting down.
    ///
    /// # Panics
    ///
    /// Panics on attempted recursive locking by the same process.
    pub fn lock(&self, ctx: &Context) -> SimResult<()> {
        loop {
            {
                let mut owner = lock_unpoisoned(&self.inner.owner);
                match *owner {
                    None => {
                        *owner = Some(ctx.pid());
                        return Ok(());
                    }
                    Some(o) => {
                        assert_ne!(o, ctx.pid(), "recursive SimMutex lock");
                    }
                }
            }
            ctx.wait_event(&self.inner.released)?;
        }
    }

    /// Attempts to take the lock without blocking.
    pub fn try_lock(&self, ctx: &Context) -> bool {
        let mut owner = lock_unpoisoned(&self.inner.owner);
        if owner.is_none() {
            *owner = Some(ctx.pid());
            true
        } else {
            false
        }
    }

    /// Releases the lock.
    ///
    /// # Panics
    ///
    /// Panics if the calling process does not hold the lock.
    pub fn unlock(&self, ctx: &Context) {
        let mut owner = lock_unpoisoned(&self.inner.owner);
        assert_eq!(*owner, Some(ctx.pid()), "SimMutex unlocked by a non-owner");
        *owner = None;
        ctx.notify(&self.inner.released);
    }

    /// Runs `f` with the lock held.
    ///
    /// # Errors
    ///
    /// Propagates errors from `lock` and from `f`.
    pub fn with<R>(&self, ctx: &Context, f: impl FnOnce(&Context) -> SimResult<R>) -> SimResult<R> {
        self.lock(ctx)?;
        let out = f(ctx);
        self.unlock(ctx);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn serialises_critical_sections() {
        let mut sim = Simulation::new();
        let m = SimMutex::new(&mut sim, "m");
        for i in 0..4 {
            let m = m.clone();
            sim.spawn_process(&format!("p{i}"), move |ctx| {
                m.with(ctx, |ctx| ctx.wait(SimTime::ns(25)))
            });
        }
        let report = sim.run().expect("run");
        assert_eq!(report.end_time, SimTime::ns(100));
    }

    #[test]
    fn try_lock_fails_when_held() {
        let mut sim = Simulation::new();
        let m = SimMutex::new(&mut sim, "m");
        let m1 = m.clone();
        sim.spawn_process("holder", move |ctx| {
            assert!(m1.try_lock(ctx));
            ctx.wait(SimTime::ns(10))?;
            m1.unlock(ctx);
            Ok(())
        });
        let m2 = m.clone();
        sim.spawn_process("prober", move |ctx| {
            ctx.wait(SimTime::ns(5))?;
            assert!(!m2.try_lock(ctx));
            ctx.wait(SimTime::ns(10))?;
            assert!(m2.try_lock(ctx));
            m2.unlock(ctx);
            Ok(())
        });
        sim.run().expect("run").expect_all_finished().expect("done");
    }
}
