//! The discrete-event scheduler and its process bookkeeping.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::context::Context;
use crate::error::{SimError, SimResult};
use crate::event::{Event, EventId};
use crate::lock_unpoisoned;
use crate::probe::{ProcSched, SchedProbe, SchedSnapshot};
use crate::time::SimTime;

/// Identifier of a process inside one simulation.
///
/// Shared-object arbiters use it as the *client identity* of a caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub(crate) usize);

impl ProcId {
    /// Builds a process id from its raw index. Intended for tests of
    /// arbitration policies; ids obtained this way only match real
    /// processes of the simulation they were copied from.
    pub fn from_raw(index: usize) -> Self {
        ProcId(index)
    }

    /// The raw index of this process inside its simulation.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc#{}", self.0)
    }
}

/// Boxed process body.
pub(crate) type ProcessFn = Box<dyn FnOnce(&Context) -> SimResult<()> + Send + 'static>;

/// Kernel → process command.
pub(crate) enum Resume {
    Go,
    Terminate,
}

/// Process → kernel handoff.
pub(crate) enum YieldMsg {
    /// The process registered a wait and handed control back.
    Waiting,
    /// The process body returned (or panicked).
    Finished(SimResult<()>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wake {
    Proc(ProcId, u64),
    Event(EventId),
}

#[derive(Debug)]
struct TimedEntry {
    time: SimTime,
    seq: u64,
    wake: Wake,
}

impl PartialEq for TimedEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for TimedEntry {}
impl PartialOrd for TimedEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimedEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcStatus {
    Runnable,
    Waiting,
    Finished,
}

struct ProcRec {
    name: Arc<str>,
    status: ProcStatus,
    /// Generation counter: each blocking wait bumps it, making the losing
    /// half of a [`Context::wait_event_timeout`] (the expired deadline or
    /// the late event) a no-op.
    wait_gen: u64,
    /// Whether an event (rather than a timed wakeup) ended the last wait.
    woken_by_event: bool,
    /// The event this process is currently registered on (for cleanup).
    registered: Option<EventId>,
}

struct EventRec {
    name: String,
    waiters: Vec<(ProcId, u64)>,
}

struct PendingSpawn {
    name: String,
    body: ProcessFn,
}

pub(crate) struct SimState {
    pub(crate) now: SimTime,
    seq: u64,
    timed: BinaryHeap<Reverse<TimedEntry>>,
    runnable: VecDeque<ProcId>,
    procs: Vec<ProcRec>,
    events: Vec<EventRec>,
    pending_delta: Vec<EventId>,
    pending_spawns: Vec<PendingSpawn>,
    pub(crate) ended: bool,
    deltas_total: u64,
    deltas_this_step: u64,
    // Scheduler instrumentation; `None` (the default) keeps every hook
    // site down to a single branch.
    probe: Option<SchedProbe>,
}

impl SimState {
    fn new() -> Self {
        SimState {
            now: SimTime::ZERO,
            seq: 0,
            timed: BinaryHeap::new(),
            runnable: VecDeque::new(),
            procs: Vec::new(),
            events: Vec::new(),
            pending_delta: Vec::new(),
            pending_spawns: Vec::new(),
            ended: false,
            deltas_total: 0,
            deltas_this_step: 0,
            probe: None,
        }
    }

    fn push_timed(&mut self, time: SimTime, wake: Wake) {
        let seq = self.seq;
        self.seq += 1;
        self.timed.push(Reverse(TimedEntry { time, seq, wake }));
    }

    pub(crate) fn new_event(&mut self, name: &str) -> EventId {
        let id = EventId(self.events.len());
        self.events.push(EventRec {
            name: name.to_string(),
            waiters: Vec::new(),
        });
        id
    }

    /// Registers the calling process as waiting on `eid`.
    pub(crate) fn register_waiter(&mut self, pid: ProcId, gen: u64, eid: EventId) {
        self.events[eid.0].waiters.push((pid, gen));
        self.procs[pid.0].registered = Some(eid);
    }

    /// Marks a process as blocked and returns the fresh wait generation.
    pub(crate) fn begin_wait(&mut self, pid: ProcId) -> u64 {
        let now = self.now;
        let p = &mut self.procs[pid.0];
        p.wait_gen += 1;
        p.status = ProcStatus::Waiting;
        p.woken_by_event = false;
        let gen = p.wait_gen;
        if let Some(pr) = &mut self.probe {
            pr.on_begin_wait(pid.0, now);
        }
        gen
    }

    /// Schedules a timed wakeup for a blocked process.
    pub(crate) fn schedule_proc(&mut self, pid: ProcId, gen: u64, at: SimTime) {
        self.push_timed(at, Wake::Proc(pid, gen));
    }

    /// Schedules a timed notification of an event.
    pub(crate) fn schedule_event(&mut self, eid: EventId, at: SimTime) {
        self.push_timed(at, Wake::Event(eid));
    }

    /// Queues a delta notification of an event.
    pub(crate) fn notify_delta(&mut self, eid: EventId) {
        self.pending_delta.push(eid);
    }

    /// Wakes all current waiters of `eid`.
    fn fire_event(&mut self, eid: EventId) {
        let waiters = std::mem::take(&mut self.events[eid.0].waiters);
        for (pid, gen) in waiters {
            self.wake_proc(pid, gen, true);
        }
    }

    fn wake_proc(&mut self, pid: ProcId, gen: u64, by_event: bool) {
        let p = &mut self.procs[pid.0];
        if p.status != ProcStatus::Waiting || p.wait_gen != gen {
            return; // stale wakeup
        }
        p.status = ProcStatus::Runnable;
        p.woken_by_event = by_event;
        // A deadline that beat its event leaves a stale registration.
        if let Some(eid) = p.registered.take() {
            self.events[eid.0]
                .waiters
                .retain(|&(wp, wg)| !(wp == pid && wg == gen));
        }
        self.runnable.push_back(pid);
        let depth = self.runnable.len();
        if let Some(pr) = &mut self.probe {
            pr.on_wake(pid.0, self.now);
            pr.sample_depth(depth);
        }
    }

    pub(crate) fn queue_spawn(&mut self, name: String, body: ProcessFn) {
        self.pending_spawns.push(PendingSpawn { name, body });
    }

    pub(crate) fn woken_by_event(&self, pid: ProcId) -> bool {
        self.procs[pid.0].woken_by_event
    }
}

/// State shared between the kernel and every process context.
pub(crate) struct Shared {
    pub(crate) state: Mutex<SimState>,
}

impl Shared {
    pub(crate) fn event_name(&self, id: EventId) -> String {
        lock_unpoisoned(&self.state).events[id.0].name.clone()
    }
}

struct ProcSlot {
    resume_tx: SyncSender<Resume>,
    yield_rx: Receiver<YieldMsg>,
    join: Option<JoinHandle<()>>,
}

/// Summary returned by a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// Simulated time at which the run stopped.
    pub end_time: SimTime,
    /// Total number of delta cycles executed.
    pub delta_cycles: u64,
    /// Number of processes whose bodies returned.
    pub finished: usize,
    /// Names of the processes still blocked when the run stopped.
    pub blocked: Vec<String>,
}

impl SimReport {
    /// Errors if any process is still blocked — i.e. the model quiesced
    /// without every process reaching the end of its body.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] listing the blocked process names.
    pub fn expect_all_finished(&self) -> SimResult<()> {
        if self.blocked.is_empty() {
            Ok(())
        } else {
            Err(SimError::Deadlock {
                blocked: self.blocked.clone(),
            })
        }
    }
}

/// A discrete-event simulation: a set of processes and events plus the
/// scheduler that drives them.
///
/// See the [crate-level documentation](crate) for an example.
pub struct Simulation {
    shared: Arc<Shared>,
    slots: Vec<ProcSlot>,
    max_deltas_per_step: u64,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Creates an empty simulation.
    pub fn new() -> Self {
        Simulation {
            shared: Arc::new(Shared {
                state: Mutex::new(SimState::new()),
            }),
            slots: Vec::new(),
            max_deltas_per_step: 1_000_000,
        }
    }

    /// Caps runaway delta loops; exceeding the cap at a single time step
    /// aborts the run with a model error. Defaults to one million.
    pub fn set_max_deltas_per_step(&mut self, max: u64) {
        self.max_deltas_per_step = max;
    }

    /// Creates a named event.
    pub fn event(&mut self, name: &str) -> Event {
        let id = lock_unpoisoned(&self.shared.state).new_event(name);
        Event {
            id,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Registers a process; it becomes runnable at time zero.
    ///
    /// The body receives the process's [`Context`] and should propagate
    /// [`SimError::Terminated`] from wait operations with `?`.
    pub fn spawn_process<F>(&mut self, name: &str, body: F) -> ProcId
    where
        F: FnOnce(&Context) -> SimResult<()> + Send + 'static,
    {
        self.spawn_slot(name.to_string(), Box::new(body))
    }

    fn spawn_slot(&mut self, name: String, body: ProcessFn) -> ProcId {
        let pid = ProcId(self.slots.len());
        let name_arc: Arc<str> = Arc::from(name.as_str());
        {
            let mut st = lock_unpoisoned(&self.shared.state);
            debug_assert_eq!(st.procs.len(), pid.0);
            st.procs.push(ProcRec {
                name: Arc::clone(&name_arc),
                status: ProcStatus::Runnable,
                wait_gen: 0,
                woken_by_event: false,
                registered: None,
            });
            st.runnable.push_back(pid);
        }
        let (resume_tx, resume_rx) = sync_channel::<Resume>(1);
        let (yield_tx, yield_rx) = sync_channel::<YieldMsg>(1);
        let ctx = Context::new(
            pid,
            Arc::clone(&name_arc),
            Arc::clone(&self.shared),
            resume_rx,
            yield_tx.clone(),
        );
        let thread_name = format!("sim:{name}");
        let join = std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || {
                // Wait for the kernel to hand us the first time slice.
                match ctx.recv_resume() {
                    Ok(Resume::Go) => {
                        let pname = ctx.name().to_string();
                        let result = catch_unwind(AssertUnwindSafe(|| body(&ctx)));
                        let msg = match result {
                            Ok(r) => YieldMsg::Finished(r),
                            Err(payload) => YieldMsg::Finished(Err(SimError::ProcessPanic {
                                process: pname,
                                message: panic_message(payload),
                            })),
                        };
                        let _ = yield_tx.send(msg);
                    }
                    Ok(Resume::Terminate) | Err(_) => {
                        let _ = yield_tx.send(YieldMsg::Finished(Ok(())));
                    }
                }
            })
            .expect("spawn simulation process thread");
        self.slots.push(ProcSlot {
            resume_tx,
            yield_rx,
            join: Some(join),
        });
        pid
    }

    /// Runs until no timed or delta activity remains.
    ///
    /// # Errors
    ///
    /// Propagates the first process panic or model error.
    pub fn run(&mut self) -> SimResult<SimReport> {
        self.run_until(SimTime::MAX)
    }

    /// Runs until simulated time would pass `stop`, where time parks if
    /// activity remains beyond it. The simulation can be resumed by
    /// calling a run method again.
    ///
    /// Each round is an evaluation phase (run every runnable process to
    /// its next wait), then the delta-notification phase, then, once no
    /// delta activity remains, a time advance.
    ///
    /// # Errors
    ///
    /// Propagates the first process panic or model error.
    pub fn run_until(&mut self, stop: SimTime) -> SimResult<SimReport> {
        loop {
            // Evaluation phase.
            loop {
                let next = {
                    let mut st = lock_unpoisoned(&self.shared.state);
                    st.runnable.pop_front()
                };
                let Some(pid) = next else { break };
                {
                    let mut st = lock_unpoisoned(&self.shared.state);
                    if st.procs[pid.0].status != ProcStatus::Runnable {
                        continue;
                    }
                    if let Some(pr) = &mut st.probe {
                        pr.on_activation(pid.0);
                    }
                }
                self.resume(pid)?;
            }

            // Delta-notification phase.
            let mut st = lock_unpoisoned(&self.shared.state);
            for eid in std::mem::take(&mut st.pending_delta) {
                st.fire_event(eid);
            }
            if !st.runnable.is_empty() {
                st.deltas_total += 1;
                st.deltas_this_step += 1;
                if st.deltas_this_step > self.max_deltas_per_step {
                    return Err(SimError::model(format!(
                        "delta-cycle overflow at {} (> {} deltas in one step)",
                        st.now, self.max_deltas_per_step
                    )));
                }
                continue;
            }

            // Timed phase.
            match st.timed.peek() {
                None => break,
                Some(Reverse(head)) if head.time > stop => {
                    st.now = stop;
                    break;
                }
                Some(Reverse(head)) => {
                    let t = head.time;
                    Self::advance_to(&mut st, t);
                }
            }
        }
        Ok(self.report())
    }

    /// Advances time to `t` and delivers every wakeup scheduled for that
    /// instant: timed *event* notifications first, then timed *process*
    /// wakeups, each group in scheduling order.
    ///
    /// The cross-group ordering is deliberate and pinned: when an event
    /// notification and a process deadline land on the same instant —
    /// the exact-tie case of [`crate::Context::wait_event_timeout`] —
    /// the event fires first, the waiter wakes with an event reason, and
    /// its now-stale deadline wakeup is dropped by the generation check.
    /// Without this, the winner would depend on the order in which the
    /// two entries were pushed onto the timed heap.
    fn advance_to(st: &mut SimState, t: SimTime) {
        st.now = t;
        st.deltas_this_step = 0;
        // No process runs while draining the heap, so firing events here
        // cannot schedule new entries at `t`.
        let mut procs = Vec::new();
        while let Some(Reverse(head)) = st.timed.peek() {
            if head.time != t {
                break;
            }
            let Reverse(entry) = st.timed.pop().expect("peeked entry");
            match entry.wake {
                Wake::Proc(pid, gen) => procs.push((pid, gen)),
                Wake::Event(eid) => st.fire_event(eid),
            }
        }
        for (pid, gen) in procs {
            st.wake_proc(pid, gen, false);
        }
        let depth = st.runnable.len();
        if let Some(pr) = &mut st.probe {
            pr.sample_depth(depth);
        }
    }

    fn resume(&mut self, pid: ProcId) -> SimResult<()> {
        let slot = &self.slots[pid.0];
        slot.resume_tx
            .send(Resume::Go)
            .expect("process thread receiving");
        let msg = slot
            .yield_rx
            .recv()
            .expect("process thread yields or finishes");
        match msg {
            YieldMsg::Waiting => {}
            YieldMsg::Finished(result) => {
                {
                    let mut st = lock_unpoisoned(&self.shared.state);
                    st.procs[pid.0].status = ProcStatus::Finished;
                }
                if let Some(handle) = self.slots[pid.0].join.take() {
                    let _ = handle.join();
                }
                match result {
                    Ok(()) | Err(SimError::Terminated) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        // Materialise processes spawned by the step we just ran.
        let spawns = {
            let mut st = lock_unpoisoned(&self.shared.state);
            std::mem::take(&mut st.pending_spawns)
        };
        for s in spawns {
            self.spawn_slot(s.name, s.body);
        }
        Ok(())
    }

    fn report(&self) -> SimReport {
        let st = lock_unpoisoned(&self.shared.state);
        let mut finished = 0;
        let mut blocked = Vec::new();
        for p in &st.procs {
            match p.status {
                ProcStatus::Finished => finished += 1,
                ProcStatus::Waiting | ProcStatus::Runnable => {
                    blocked.push(p.name.to_string());
                }
            }
        }
        SimReport {
            end_time: st.now,
            delta_cycles: st.deltas_total,
            finished,
            blocked,
        }
    }

    /// Current simulated time (between runs).
    pub fn now(&self) -> SimTime {
        lock_unpoisoned(&self.shared.state).now
    }

    /// Turns on scheduler instrumentation (per-process activations,
    /// wakeups and wait time, runnable-queue depth). Idempotent; call
    /// before running. Without this call the scheduler pays a single
    /// `Option` check per hook site and collects nothing.
    pub fn enable_sched_probe(&mut self) {
        let mut st = lock_unpoisoned(&self.shared.state);
        if st.probe.is_none() {
            st.probe = Some(SchedProbe::default());
        }
    }

    /// Snapshot of the scheduler probe, or `None` if
    /// [`Self::enable_sched_probe`] was never called. Wait time counts
    /// completed waits only; a process still blocked at snapshot time
    /// contributes its past waits.
    pub fn sched_snapshot(&self) -> Option<SchedSnapshot> {
        let st = lock_unpoisoned(&self.shared.state);
        let probe = st.probe.as_ref()?;
        let procs = st
            .procs
            .iter()
            .enumerate()
            .map(|(i, p)| ProcSched {
                name: p.name.to_string(),
                activations: probe.activations.get(i).copied().unwrap_or(0),
                wakeups: probe.wakeups.get(i).copied().unwrap_or(0),
                wait_time: probe.wait_time.get(i).copied().unwrap_or(SimTime::ZERO),
            })
            .collect();
        let runnable_depth_avg = if probe.depth_samples == 0 {
            0.0
        } else {
            probe.depth_sum as f64 / probe.depth_samples as f64
        };
        Some(SchedSnapshot {
            procs,
            runnable_depth_max: probe.depth_max,
            runnable_depth_avg,
            wait_hist: probe.wait_hist.clone(),
        })
    }

    fn terminate_all(&mut self) {
        {
            let mut st = lock_unpoisoned(&self.shared.state);
            st.ended = true;
        }
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            let finished = {
                let st = lock_unpoisoned(&self.shared.state);
                st.procs[idx].status == ProcStatus::Finished
            };
            if finished {
                continue;
            }
            // Nudge the blocked process until its body unwinds.
            loop {
                if slot.resume_tx.send(Resume::Terminate).is_err() {
                    break;
                }
                match slot.yield_rx.recv() {
                    Ok(YieldMsg::Finished(_)) | Err(_) => break,
                    Ok(YieldMsg::Waiting) => continue,
                }
            }
            if let Some(handle) = slot.join.take() {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        self.terminate_all();
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_simulation_finishes_at_zero() {
        let mut sim = Simulation::new();
        let report = sim.run().expect("run");
        assert_eq!(report.end_time, SimTime::ZERO);
        assert_eq!(report.finished, 0);
        assert!(report.blocked.is_empty());
    }

    #[test]
    fn single_process_advances_time() {
        let mut sim = Simulation::new();
        sim.spawn_process("p", |ctx| {
            ctx.wait(SimTime::ns(5))?;
            ctx.wait(SimTime::ns(7))?;
            assert_eq!(ctx.now(), SimTime::ns(12));
            Ok(())
        });
        let report = sim.run().expect("run");
        assert_eq!(report.end_time, SimTime::ns(12));
        assert_eq!(report.finished, 1);
    }

    #[test]
    fn processes_interleave_deterministically() {
        use std::sync::{Arc, Mutex};
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        for i in 0..3u32 {
            let log = Arc::clone(&log);
            sim.spawn_process(&format!("p{i}"), move |ctx| {
                for step in 0..2u32 {
                    log.lock().unwrap().push((i, step, ctx.now()));
                    ctx.wait(SimTime::ns(10))?;
                }
                Ok(())
            });
        }
        sim.run().expect("run");
        let log = log.lock().unwrap().clone();
        // Registration order at t=0, then the same order at t=10ns.
        let expected: Vec<(u32, u32, SimTime)> = vec![
            (0, 0, SimTime::ZERO),
            (1, 0, SimTime::ZERO),
            (2, 0, SimTime::ZERO),
            (0, 1, SimTime::ns(10)),
            (1, 1, SimTime::ns(10)),
            (2, 1, SimTime::ns(10)),
        ];
        assert_eq!(log, expected);
    }

    #[test]
    fn delta_notification_wakes_in_same_time() {
        let mut sim = Simulation::new();
        let ev = sim.event("e");
        let ev2 = ev.clone();
        sim.spawn_process("notifier", move |ctx| {
            ctx.wait(SimTime::ns(3))?;
            ctx.notify(&ev2);
            Ok(())
        });
        sim.spawn_process("waiter", move |ctx| {
            ctx.wait_event(&ev)?;
            assert_eq!(ctx.now(), SimTime::ns(3));
            Ok(())
        });
        let report = sim.run().expect("run");
        assert_eq!(report.finished, 2);
        assert!(report.blocked.is_empty());
    }

    #[test]
    fn timed_notification() {
        let mut sim = Simulation::new();
        let ev = sim.event("e");
        let ev2 = ev.clone();
        sim.spawn_process("notifier", move |ctx| {
            ctx.notify_after(&ev2, SimTime::us(2));
            Ok(())
        });
        sim.spawn_process("waiter", move |ctx| {
            ctx.wait_event(&ev)?;
            assert_eq!(ctx.now(), SimTime::us(2));
            Ok(())
        });
        assert_eq!(sim.run().expect("run").end_time, SimTime::us(2));
    }

    #[test]
    fn blocked_process_is_reported() {
        let mut sim = Simulation::new();
        let ev = sim.event("never");
        sim.spawn_process("stuck", move |ctx| {
            ctx.wait_event(&ev)?;
            Ok(())
        });
        let report = sim.run().expect("run");
        assert_eq!(report.blocked, vec!["stuck".to_string()]);
        assert!(report.expect_all_finished().is_err());
    }

    #[test]
    fn process_panic_is_reported_as_error() {
        let mut sim = Simulation::new();
        sim.spawn_process("bad", |_ctx| panic!("exploded"));
        let err = sim.run().expect_err("panic surfaces");
        match err {
            SimError::ProcessPanic { process, message } => {
                assert_eq!(process, "bad");
                assert!(message.contains("exploded"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn run_until_pauses_and_resumes() {
        let mut sim = Simulation::new();
        sim.spawn_process("p", |ctx| {
            ctx.wait(SimTime::ns(100))?;
            Ok(())
        });
        let r1 = sim.run_until(SimTime::ns(40)).expect("first leg");
        assert_eq!(r1.end_time, SimTime::ns(40));
        assert_eq!(r1.finished, 0);
        let r2 = sim.run().expect("second leg");
        assert_eq!(r2.end_time, SimTime::ns(100));
        assert_eq!(r2.finished, 1);
    }

    #[test]
    fn dynamic_spawn_runs_same_time() {
        let mut sim = Simulation::new();
        sim.spawn_process("parent", |ctx| {
            ctx.wait(SimTime::ns(10))?;
            let start = ctx.now();
            ctx.spawn("child", move |c| {
                assert_eq!(c.now(), start);
                c.wait(SimTime::ns(5))?;
                Ok(())
            });
            Ok(())
        });
        let report = sim.run().expect("run");
        assert_eq!(report.end_time, SimTime::ns(15));
        assert_eq!(report.finished, 2);
    }

    #[test]
    fn wait_event_timeout_expires() {
        let mut sim = Simulation::new();
        let ev = sim.event("late");
        sim.spawn_process("waiter", move |ctx| {
            let fired = ctx.wait_event_timeout(&ev, SimTime::ns(20))?;
            assert!(!fired);
            assert_eq!(ctx.now(), SimTime::ns(20));
            Ok(())
        });
        sim.run().expect("run");
    }

    #[test]
    fn wait_event_timeout_fires() {
        let mut sim = Simulation::new();
        let ev = sim.event("soon");
        let ev2 = ev.clone();
        sim.spawn_process("notifier", move |ctx| {
            ctx.notify_after(&ev2, SimTime::ns(5));
            Ok(())
        });
        sim.spawn_process("waiter", move |ctx| {
            let fired = ctx.wait_event_timeout(&ev, SimTime::ns(20))?;
            assert!(fired);
            assert_eq!(ctx.now(), SimTime::ns(5));
            Ok(())
        });
        sim.run().expect("run");
    }

    #[test]
    fn wait_event_timeout_event_wins_exact_tie() {
        // Notification scheduled before the waiter blocks: the event's
        // heap entry precedes the deadline entry.
        let mut sim = Simulation::new();
        let ev = sim.event("tie");
        let ev2 = ev.clone();
        sim.spawn_process("notifier", move |ctx| {
            ctx.notify_after(&ev2, SimTime::ns(20));
            Ok(())
        });
        sim.spawn_process("waiter", move |ctx| {
            let fired = ctx.wait_event_timeout(&ev, SimTime::ns(20))?;
            assert!(fired, "event at the exact deadline must win");
            assert_eq!(ctx.now(), SimTime::ns(20));
            Ok(())
        });
        sim.run().expect("run").expect_all_finished().expect("done");
    }

    #[test]
    fn wait_event_timeout_tie_is_independent_of_scheduling_order() {
        // Here the *deadline* entry is pushed first (the waiter spawns
        // before the notifier), so heap order alone would wake the
        // waiter with a timeout. The pinned events-before-processes rule
        // must still let the event win.
        let mut sim = Simulation::new();
        let ev = sim.event("tie");
        let ev2 = ev.clone();
        sim.spawn_process("waiter", move |ctx| {
            let fired = ctx.wait_event_timeout(&ev2, SimTime::ns(20))?;
            assert!(fired, "tie-break must not depend on scheduling order");
            assert_eq!(ctx.now(), SimTime::ns(20));
            Ok(())
        });
        sim.spawn_process("notifier", move |ctx| {
            ctx.notify_after(&ev, SimTime::ns(20));
            Ok(())
        });
        sim.run().expect("run").expect_all_finished().expect("done");
    }

    #[test]
    fn drop_terminates_blocked_processes() {
        let mut sim = Simulation::new();
        let ev = sim.event("never");
        sim.spawn_process("stuck", move |ctx| {
            ctx.wait_event(&ev)?;
            Ok(())
        });
        sim.run_until(SimTime::ns(1)).expect("partial run");
        drop(sim); // must not hang or leak the thread
    }

    #[test]
    fn delta_overflow_detected() {
        let mut sim = Simulation::new();
        sim.set_max_deltas_per_step(100);
        let a = sim.event("a");
        let b = sim.event("b");
        let (a2, b2) = (a.clone(), b.clone());
        sim.spawn_process("ping", move |ctx| loop {
            ctx.notify(&a2);
            ctx.wait_event(&b2)?;
        });
        sim.spawn_process("pong", move |ctx| loop {
            ctx.wait_event(&a)?;
            ctx.notify(&b);
        });
        let err = sim.run().expect_err("delta loop detected");
        assert!(matches!(err, SimError::Model(_)));
    }

    #[test]
    fn many_processes_scale() {
        let mut sim = Simulation::new();
        for i in 0..64 {
            sim.spawn_process(&format!("w{i}"), move |ctx| {
                for _ in 0..10 {
                    ctx.wait(SimTime::ns(1 + i as u64))?;
                }
                Ok(())
            });
        }
        let report = sim.run().expect("run");
        assert_eq!(report.finished, 64);
        assert_eq!(report.end_time, SimTime::ns(640));
    }

    #[test]
    fn sched_probe_counts_activations_and_wait_time() {
        let mut sim = Simulation::new();
        sim.enable_sched_probe();
        let ev = sim.event("go");
        let ev2 = ev.clone();
        sim.spawn_process("waiter", move |ctx| {
            ctx.wait_event(&ev2)?; // woken at 7 ns
            ctx.wait(SimTime::ns(3))?;
            Ok(())
        });
        sim.spawn_process("notifier", move |ctx| {
            ctx.wait(SimTime::ns(7))?;
            ctx.notify(&ev);
            Ok(())
        });
        sim.run().expect("run");
        let snap = sim.sched_snapshot().expect("probe enabled");
        assert_eq!(snap.procs.len(), 2);
        let waiter = &snap.procs[0];
        assert_eq!(waiter.name, "waiter");
        // Initial slice + event wakeup + timed wakeup.
        assert_eq!(waiter.activations, 3);
        assert_eq!(waiter.wakeups, 2);
        assert_eq!(waiter.wait_time, SimTime::ns(10), "7 ns event + 3 ns timed");
        let notifier = &snap.procs[1];
        assert_eq!(notifier.wakeups, 1);
        assert_eq!(notifier.wait_time, SimTime::ns(7));
        assert!(snap.runnable_depth_max >= 1);
        assert_eq!(snap.wait_hist.count(), 3);
    }

    #[test]
    fn sched_snapshot_is_none_without_probe() {
        let mut sim = Simulation::new();
        sim.spawn_process("p", |ctx| ctx.wait(SimTime::ns(1)));
        sim.run().expect("run");
        assert!(sim.sched_snapshot().is_none());
    }
}
