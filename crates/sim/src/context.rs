//! The process-side API: everything a running process may do.

use std::fmt;
use std::sync::mpsc::{Receiver, RecvError, SyncSender};
use std::sync::Arc;

use crate::error::{SimError, SimResult};
use crate::event::Event;
use crate::kernel::{ProcId, Resume, Shared, YieldMsg};
use crate::lock_unpoisoned;
use crate::time::SimTime;

/// Handle a process uses to interact with the simulation kernel.
///
/// A `Context` is passed to every process body. All blocking operations
/// return [`SimError::Terminated`] once the simulation is shutting down;
/// process bodies should propagate that with `?` so their threads unwind
/// cleanly.
pub struct Context {
    pid: ProcId,
    name: Arc<str>,
    shared: Arc<Shared>,
    resume_rx: Receiver<Resume>,
    yield_tx: SyncSender<YieldMsg>,
}

impl fmt::Debug for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("pid", &self.pid)
            .field("name", &self.name)
            .finish()
    }
}

impl Context {
    pub(crate) fn new(
        pid: ProcId,
        name: Arc<str>,
        shared: Arc<Shared>,
        resume_rx: Receiver<Resume>,
        yield_tx: SyncSender<YieldMsg>,
    ) -> Self {
        Context {
            pid,
            name,
            shared,
            resume_rx,
            yield_tx,
        }
    }

    pub(crate) fn recv_resume(&self) -> Result<Resume, RecvError> {
        self.resume_rx.recv()
    }

    /// The identity of this process (used by arbiters as client id).
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// The process name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        lock_unpoisoned(&self.shared.state).now
    }

    /// Creates a named event from within a process.
    pub fn event(&self, name: &str) -> Event {
        let id = lock_unpoisoned(&self.shared.state).new_event(name);
        Event {
            id,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Spawns a new process; it becomes runnable within the current
    /// evaluation phase at the current simulation time.
    pub fn spawn<F>(&self, name: &str, body: F)
    where
        F: FnOnce(&Context) -> SimResult<()> + Send + 'static,
    {
        lock_unpoisoned(&self.shared.state).queue_spawn(name.to_string(), Box::new(body));
    }

    /// Suspends this process for `t` of simulated time.
    ///
    /// `wait(SimTime::ZERO)` yields and resumes at the same time instant
    /// after all currently runnable processes have run.
    ///
    /// # Errors
    ///
    /// [`SimError::Terminated`] when the simulation is shutting down.
    pub fn wait(&self, t: SimTime) -> SimResult<()> {
        {
            let mut st = lock_unpoisoned(&self.shared.state);
            if st.ended {
                return Err(SimError::Terminated);
            }
            let gen = st.begin_wait(self.pid);
            let at = st.now.saturating_add(t);
            st.schedule_proc(self.pid, gen, at);
        }
        self.block()
    }

    /// Suspends this process until `event` is notified.
    ///
    /// # Errors
    ///
    /// [`SimError::Terminated`] when the simulation is shutting down.
    pub fn wait_event(&self, event: &Event) -> SimResult<()> {
        {
            let mut st = lock_unpoisoned(&self.shared.state);
            if st.ended {
                return Err(SimError::Terminated);
            }
            let gen = st.begin_wait(self.pid);
            st.register_waiter(self.pid, gen, event.id);
        }
        self.block()
    }

    /// Suspends until `event` fires or `timeout` elapses; returns whether
    /// the event fired (`false` means the timeout expired first).
    ///
    /// # Exact-deadline tie-break
    ///
    /// When the event is notified at exactly `now + timeout`, the event
    /// **wins**: the kernel delivers timed event notifications before
    /// timed process wakeups within one instant, so this returns
    /// `Ok(true)` regardless of the order in which the notification and
    /// the deadline were scheduled. Reliable-transport layers (the
    /// `osss-vta` retry policy) depend on this pinned ordering — a
    /// response landing on the deadline counts as delivered,
    /// deterministically.
    ///
    /// # Errors
    ///
    /// [`SimError::Terminated`] when the simulation is shutting down.
    pub fn wait_event_timeout(&self, event: &Event, timeout: SimTime) -> SimResult<bool> {
        {
            let mut st = lock_unpoisoned(&self.shared.state);
            if st.ended {
                return Err(SimError::Terminated);
            }
            let gen = st.begin_wait(self.pid);
            st.register_waiter(self.pid, gen, event.id);
            let at = st.now.saturating_add(timeout);
            st.schedule_proc(self.pid, gen, at);
        }
        self.block()?;
        Ok(lock_unpoisoned(&self.shared.state).woken_by_event(self.pid))
    }

    /// Delta-notifies `event`: waiters resume in the next delta cycle at the
    /// current simulation time.
    pub fn notify(&self, event: &Event) {
        lock_unpoisoned(&self.shared.state).notify_delta(event.id);
    }

    /// Notifies `event` after `t` of simulated time.
    pub fn notify_after(&self, event: &Event, t: SimTime) {
        let mut st = lock_unpoisoned(&self.shared.state);
        let at = st.now.saturating_add(t);
        st.schedule_event(event.id, at);
    }

    fn block(&self) -> SimResult<()> {
        self.yield_tx
            .send(YieldMsg::Waiting)
            .map_err(|_| SimError::Terminated)?;
        match self.resume_rx.recv() {
            Ok(Resume::Go) => Ok(()),
            Ok(Resume::Terminate) | Err(_) => Err(SimError::Terminated),
        }
    }
}
