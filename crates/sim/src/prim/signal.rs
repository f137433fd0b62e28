//! Signals with SystemC-like evaluate/update semantics.

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::context::Context;
use crate::error::SimResult;
use crate::event::{Event, EventId};
use crate::kernel::{Simulation, UpdateHook};
use crate::lock_unpoisoned;

struct Core<T> {
    current: T,
    next: Option<T>,
    queued: bool,
}

struct Inner<T> {
    core: Mutex<Core<T>>,
    changed: Event,
}

impl<T> UpdateHook for Inner<T>
where
    T: Clone + PartialEq + Send + Sync,
{
    fn apply(&self) -> Option<EventId> {
        let mut core = lock_unpoisoned(&self.core);
        core.queued = false;
        match core.next.take() {
            Some(next) if next != core.current => {
                core.current = next;
                Some(self.changed.id())
            }
            _ => None,
        }
    }
}

/// A value holder with evaluate/update semantics: writes become visible in
/// the next delta cycle, and readers can wait on the value-changed event.
///
/// This mirrors `sc_signal`: within one evaluation phase every reader sees
/// the same stable value regardless of writer ordering.
///
/// # Example
///
/// ```
/// use osss_sim::{Simulation, SimTime};
/// use osss_sim::prim::Signal;
///
/// # fn main() -> Result<(), osss_sim::SimError> {
/// let mut sim = Simulation::new();
/// let sig = Signal::new(&mut sim, "ready", false);
///
/// let writer_sig = sig.clone();
/// sim.spawn_process("writer", move |ctx| {
///     ctx.wait(SimTime::ns(10))?;
///     writer_sig.write(ctx, true);
///     Ok(())
/// });
/// let reader_sig = sig.clone();
/// sim.spawn_process("reader", move |ctx| {
///     reader_sig.wait_until(ctx, |v| *v)?;
///     assert_eq!(ctx.now(), SimTime::ns(10));
///     Ok(())
/// });
/// sim.run()?.expect_all_finished()?;
/// # Ok(())
/// # }
/// ```
pub struct Signal<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Signal<T> {
    fn clone(&self) -> Self {
        Signal {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Signal<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let core = lock_unpoisoned(&self.inner.core);
        f.debug_struct("Signal")
            .field("current", &core.current)
            .field("pending", &core.next)
            .finish()
    }
}

impl<T> Signal<T>
where
    T: Clone + PartialEq + Send + Sync + 'static,
{
    /// Creates a signal with an initial value.
    pub fn new(sim: &mut Simulation, name: &str, initial: T) -> Self {
        let changed = sim.event(&format!("{name}.changed"));
        Signal {
            inner: Arc::new(Inner {
                core: Mutex::new(Core {
                    current: initial,
                    next: None,
                    queued: false,
                }),
                changed,
            }),
        }
    }

    /// Reads the currently visible value.
    pub fn read(&self) -> T {
        lock_unpoisoned(&self.inner.core).current.clone()
    }

    /// Schedules `value` to become visible in the next delta cycle.
    ///
    /// The last write of an evaluation phase wins, matching `sc_signal`.
    pub fn write(&self, ctx: &Context, value: T) {
        let register = {
            let mut core = lock_unpoisoned(&self.inner.core);
            core.next = Some(value);
            !std::mem::replace(&mut core.queued, true)
        };
        if register {
            let hook: Arc<dyn UpdateHook> = Arc::clone(&self.inner) as Arc<dyn UpdateHook>;
            lock_unpoisoned(&ctx.shared().state).register_update(hook);
        }
    }

    /// The value-changed event (fires only when the new value differs).
    pub fn changed(&self) -> &Event {
        &self.inner.changed
    }

    /// Blocks until `pred` holds for the signal value.
    ///
    /// # Errors
    ///
    /// [`crate::SimError::Terminated`] when the simulation is shutting down.
    pub fn wait_until(&self, ctx: &Context, pred: impl Fn(&T) -> bool) -> SimResult<()> {
        loop {
            {
                let core = lock_unpoisoned(&self.inner.core);
                if pred(&core.current) {
                    return Ok(());
                }
            }
            ctx.wait_event(&self.inner.changed)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn write_becomes_visible_next_delta() {
        let mut sim = Simulation::new();
        let sig = Signal::new(&mut sim, "s", 0u32);
        let s1 = sig.clone();
        sim.spawn_process("writer", move |ctx| {
            s1.write(ctx, 7);
            // Same evaluation phase: the old value is still visible.
            assert_eq!(s1.read(), 0);
            ctx.wait(SimTime::ZERO)?;
            assert_eq!(s1.read(), 7);
            Ok(())
        });
        sim.run().expect("run").expect_all_finished().expect("done");
    }

    #[test]
    fn last_write_wins_within_one_phase() {
        let mut sim = Simulation::new();
        let sig = Signal::new(&mut sim, "s", 0u32);
        let s1 = sig.clone();
        sim.spawn_process("w1", move |ctx| {
            s1.write(ctx, 1);
            Ok(())
        });
        let s2 = sig.clone();
        sim.spawn_process("w2", move |ctx| {
            s2.write(ctx, 2);
            Ok(())
        });
        let s3 = sig.clone();
        sim.spawn_process("reader", move |ctx| {
            ctx.wait(SimTime::ns(1))?;
            assert_eq!(s3.read(), 2);
            Ok(())
        });
        sim.run().expect("run");
    }

    #[test]
    fn changed_event_only_on_actual_change() {
        let mut sim = Simulation::new();
        let sig = Signal::new(&mut sim, "s", 5u32);
        let s1 = sig.clone();
        sim.spawn_process("writer", move |ctx| {
            s1.write(ctx, 5); // no-op write: must not fire changed
            ctx.wait(SimTime::ns(10))?;
            s1.write(ctx, 6);
            Ok(())
        });
        let s2 = sig.clone();
        sim.spawn_process("reader", move |ctx| {
            ctx.wait_event(s2.changed())?;
            assert_eq!(ctx.now(), SimTime::ns(10));
            assert_eq!(s2.read(), 6);
            Ok(())
        });
        sim.run().expect("run").expect_all_finished().expect("done");
    }

    #[test]
    fn wait_until_returns_immediately_when_true() {
        let mut sim = Simulation::new();
        let sig = Signal::new(&mut sim, "s", true);
        let s = sig.clone();
        sim.spawn_process("p", move |ctx| {
            s.wait_until(ctx, |v| *v)?;
            assert_eq!(ctx.now(), SimTime::ZERO);
            Ok(())
        });
        sim.run().expect("run").expect_all_finished().expect("done");
    }
}
