//! Event handles — the kernel's synchronisation primitive.

use std::fmt;
use std::sync::Arc;

use crate::kernel::Shared;

/// Index of an event inside one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EventId(pub(crate) usize);

/// A cloneable handle to a simulation event.
///
/// Events are created with [`crate::Simulation::event`] (or
/// [`crate::Context::event`] from inside a process) and notified through
/// the running process's [`crate::Context`]. Notification uses SystemC-like
/// semantics:
///
/// * [`crate::Context::notify`] — *delta* notification: waiters resume in
///   the next delta cycle at the same simulation time.
/// * [`crate::Context::notify_after`] — *timed* notification.
///
/// # Example
///
/// ```
/// use osss_sim::{Simulation, SimTime};
/// # fn main() -> Result<(), osss_sim::SimError> {
/// let mut sim = Simulation::new();
/// let done = sim.event("done");
/// let done2 = done.clone();
/// sim.spawn_process("worker", move |ctx| {
///     ctx.notify_after(&done2, SimTime::us(3));
///     Ok(())
/// });
/// sim.spawn_process("waiter", move |ctx| {
///     ctx.wait_event(&done)?;
///     Ok(())
/// });
/// assert_eq!(sim.run()?.end_time, SimTime::us(3));
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Event {
    pub(crate) id: EventId,
    pub(crate) shared: Arc<Shared>,
}

impl Event {
    /// The debug name given at creation.
    pub fn name(&self) -> String {
        self.shared.event_name(self.id)
    }
}

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Event")
            .field("id", &self.id.0)
            .field("name", &self.name())
            .finish()
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id && Arc::ptr_eq(&self.shared, &other.shared)
    }
}

impl Eq for Event {}
