//! OSSS Shared Objects: passive, arbitrated, method-based communication.

use std::fmt;
use std::sync::{Arc, Mutex};

use osss_sim::{lock_unpoisoned, Context, Event, ProcId, SimResult, SimTime, Simulation};

use crate::sched::{Arbiter, Request};

/// Per-call options for [`SharedObject::call_guarded_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CallOptions {
    /// Arbitration priority (meaningful for priority arbiters; larger wins).
    pub priority: u32,
}

impl CallOptions {
    /// Default options (priority 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the arbitration priority.
    pub fn priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }
}

/// Usage statistics of one shared object, used by the case study to
/// quantify arbitration overhead (model version 5 vs 4 in Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SoStats {
    /// Number of completed method calls (guard probes excluded).
    pub calls: u64,
    /// Total time callers spent waiting for the grant.
    pub total_arbitration_wait: SimTime,
    /// Total time the object was busy executing method bodies.
    pub total_busy: SimTime,
    /// Largest number of simultaneously pending requests observed.
    pub max_pending: usize,
}

struct State {
    busy: Option<ProcId>,
    pending: Vec<Request>,
    next_seq: u64,
    /// Standing grant decision; the chosen client claims it on wake-up.
    granted: Option<(ProcId, u64)>,
    stats: SoStats,
}

struct Inner<T> {
    name: String,
    data: Mutex<T>,
    state: Mutex<State>,
    arbiter: Mutex<Box<dyn Arbiter>>,
    /// Notified on every release: pending clients re-run arbitration.
    released: Event,
    /// Notified only when a *method body* completed (guard probes that found
    /// their condition false do not fire it) — guard re-evaluation trigger.
    changed: Event,
}

/// An OSSS Shared Object: a passive object that active components (modules
/// and software tasks) access through **blocking method calls**, with
/// concurrent access resolved by a pluggable [`Arbiter`].
///
/// The object is *passive*: it never initiates execution; all computation
/// happens on the caller's process while the object is held, which is
/// exactly how a synthesised shared object behaves (the method body becomes
/// part of the co-processor's FSM and the caller blocks on completion).
///
/// Handles are cheap to clone and share between processes.
///
/// See the [crate-level example](crate) for basic use; guarded calls:
///
/// ```
/// use osss_sim::{Simulation, SimTime};
/// use osss_core::{SharedObject, sched::Fcfs};
///
/// # fn main() -> Result<(), osss_sim::SimError> {
/// let mut sim = Simulation::new();
/// let buf = SharedObject::new(&mut sim, "buffer", Vec::<u32>::new(), Fcfs::new());
///
/// let producer_buf = buf.clone();
/// sim.spawn_process("producer", move |ctx| {
///     ctx.wait(SimTime::ns(30))?;
///     producer_buf.call(ctx, |b, _| Ok(b.push(7)))
/// });
/// let consumer_buf = buf.clone();
/// sim.spawn_process("consumer", move |ctx| {
///     // Guarded method: blocks until the guard holds, then executes.
///     let v = consumer_buf.call_guarded(ctx, |b| !b.is_empty(), |b, _| Ok(b.remove(0)))?;
///     assert_eq!(v, 7);
///     Ok(())
/// });
/// sim.run()?.expect_all_finished()?;
/// # Ok(())
/// # }
/// ```
pub struct SharedObject<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for SharedObject<T> {
    fn clone(&self) -> Self {
        SharedObject {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> fmt::Debug for SharedObject<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = lock_unpoisoned(&self.inner.state);
        f.debug_struct("SharedObject")
            .field("name", &self.inner.name)
            .field("busy", &st.busy)
            .field("pending", &st.pending.len())
            .finish()
    }
}

impl<T> SharedObject<T> {
    /// The object's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// A snapshot of the usage statistics.
    pub fn stats(&self) -> SoStats {
        lock_unpoisoned(&self.inner.state).stats
    }

    /// Zero-time inspection of the wrapped data from *outside* the
    /// simulation (test assertions, result extraction after `run`).
    /// Simulated accesses must go through [`Self::call`].
    pub fn inspect<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(&lock_unpoisoned(&self.inner.data))
    }
}

impl<T: Send + 'static> SharedObject<T> {
    /// Creates a shared object wrapping `data`, arbitrated by `arbiter`.
    pub fn new(sim: &mut Simulation, name: &str, data: T, arbiter: impl Arbiter + 'static) -> Self {
        SharedObject {
            inner: Arc::new(Inner {
                name: name.to_string(),
                data: Mutex::new(data),
                state: Mutex::new(State {
                    busy: None,
                    pending: Vec::new(),
                    next_seq: 0,
                    granted: None,
                    stats: SoStats::default(),
                }),
                arbiter: Mutex::new(Box::new(arbiter)),
                released: sim.event(&format!("so:{name}.released")),
                changed: sim.event(&format!("so:{name}.changed")),
            }),
        }
    }

    /// Blocking method call: waits for the arbiter's grant, runs `f` on the
    /// wrapped data (the body may consume simulated time through
    /// `ctx.wait`), releases the object and returns `f`'s result.
    ///
    /// # Errors
    ///
    /// Propagates kernel termination and errors from `f`.
    pub fn call<R>(
        &self,
        ctx: &Context,
        f: impl FnOnce(&mut T, &Context) -> SimResult<R>,
    ) -> SimResult<R> {
        self.call_inner(ctx, CallOptions::new(), |data, ctx| {
            f(data, ctx).map(|r| (true, r))
        })
    }

    /// Blocking guarded method call: waits until both the object grants
    /// access **and** `guard` holds for its current state.
    ///
    /// While the guard is false the object stays available to other
    /// clients (OSSS guarded-method semantics); the caller re-evaluates the
    /// guard whenever some method body completes.
    ///
    /// # Errors
    ///
    /// Propagates kernel termination and errors from `f`.
    pub fn call_guarded<R>(
        &self,
        ctx: &Context,
        guard: impl Fn(&T) -> bool,
        f: impl FnOnce(&mut T, &Context) -> SimResult<R>,
    ) -> SimResult<R> {
        self.call_guarded_with(ctx, CallOptions::new(), guard, f)
    }

    /// [`Self::call_guarded`] with explicit [`CallOptions`]; an
    /// always-true guard makes it a plain call at that priority.
    ///
    /// # Errors
    ///
    /// Propagates kernel termination and errors from `f`.
    pub fn call_guarded_with<R>(
        &self,
        ctx: &Context,
        opts: CallOptions,
        guard: impl Fn(&T) -> bool,
        f: impl FnOnce(&mut T, &Context) -> SimResult<R>,
    ) -> SimResult<R> {
        let mut f = Some(f);
        loop {
            let outcome = self.call_inner(ctx, opts, |data, ctx| {
                if guard(data) {
                    let f = f.take().expect("guard passed exactly once");
                    f(data, ctx).map(|r| (true, Some(r)))
                } else {
                    Ok((false, None))
                }
            })?;
            if let Some(r) = outcome {
                return Ok(r);
            }
            // Guard failed. Wait for a *completed method* before retrying;
            // our own probe only fired `released`, not `changed`, so this
            // cannot self-wake into a delta-cycle spin.
            ctx.wait_event(&self.inner.changed)?;
        }
    }

    fn call_inner<R>(
        &self,
        ctx: &Context,
        opts: CallOptions,
        f: impl FnOnce(&mut T, &Context) -> SimResult<(bool, R)>,
    ) -> SimResult<R> {
        let t_request = ctx.now();
        self.acquire(ctx, opts)?;
        let t_grant = ctx.now();

        let result = {
            let mut data = lock_unpoisoned(&self.inner.data);
            f(&mut data, ctx)
        };

        let t_done = ctx.now();
        let executed = matches!(&result, Ok((true, _)));
        {
            let mut st = lock_unpoisoned(&self.inner.state);
            st.busy = None;
            if executed {
                st.stats.calls = st.stats.calls.saturating_add(1);
                st.stats.total_arbitration_wait = st
                    .stats
                    .total_arbitration_wait
                    .saturating_add(t_grant - t_request);
                st.stats.total_busy = st.stats.total_busy.saturating_add(t_done - t_grant);
            }
        }
        ctx.notify(&self.inner.released);
        if executed || result.is_err() {
            ctx.notify(&self.inner.changed);
        }
        result.map(|(_, r)| r)
    }

    fn acquire(&self, ctx: &Context, opts: CallOptions) -> SimResult<()> {
        let me = ctx.pid();
        {
            let mut st = lock_unpoisoned(&self.inner.state);
            let seq = st.next_seq;
            st.next_seq += 1;
            st.pending.push(Request {
                client: me,
                priority: opts.priority,
                seq,
            });
            let pending = st.pending.len();
            if pending > st.stats.max_pending {
                st.stats.max_pending = pending;
            }
        }
        loop {
            {
                let mut st = lock_unpoisoned(&self.inner.state);
                if st.busy.is_none() {
                    if st.granted.is_none() {
                        let mut arb = lock_unpoisoned(&self.inner.arbiter);
                        if let Some(idx) = arb.pick(&st.pending) {
                            let r = st.pending[idx];
                            st.granted = Some((r.client, r.seq));
                        }
                    }
                    if let Some((client, seq)) = st.granted {
                        if client == me {
                            st.granted = None;
                            st.pending.retain(|r| !(r.client == me && r.seq == seq));
                            st.busy = Some(me);
                            return Ok(());
                        }
                    }
                }
            }
            ctx.wait_event(&self.inner.released)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Fcfs, RoundRobin, StaticPriority};

    #[test]
    fn blocking_call_serialises_access() {
        let mut sim = Simulation::new();
        let so = SharedObject::new(&mut sim, "so", 0u32, Fcfs::new());
        for i in 0..3 {
            let so = so.clone();
            sim.spawn_process(&format!("client{i}"), move |ctx| {
                so.call(ctx, |v, ctx| {
                    *v += 1;
                    ctx.wait(SimTime::us(10))
                })
            });
        }
        let report = sim.run().expect("run");
        // Three exclusive 10 us bodies => 30 us.
        assert_eq!(report.end_time, SimTime::us(30));
        assert_eq!(so.stats().calls, 3);
        assert_eq!(so.stats().total_busy, SimTime::us(30));
    }

    #[test]
    fn fcfs_grants_in_arrival_order() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        let so = SharedObject::new(&mut sim, "so", (), Fcfs::new());
        for i in 0..4u32 {
            let so = so.clone();
            let order = Arc::clone(&order);
            sim.spawn_process(&format!("c{i}"), move |ctx| {
                // Arrive staggered: c3 first, c0 last.
                ctx.wait(SimTime::ns(10 * (4 - i) as u64))?;
                so.call(ctx, |_, ctx| {
                    order.lock().unwrap().push(i);
                    ctx.wait(SimTime::us(1))
                })
            });
        }
        sim.run().expect("run");
        assert_eq!(*order.lock().unwrap(), vec![3, 2, 1, 0]);
    }

    #[test]
    fn static_priority_grants_high_priority_first() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        let so = SharedObject::new(&mut sim, "so", (), StaticPriority::new());
        // A long-running call occupies the object first; then all three
        // contenders queue up and priority decides.
        let so0 = so.clone();
        sim.spawn_process("occupier", move |ctx| {
            so0.call(ctx, |_, ctx| ctx.wait(SimTime::us(10)))
        });
        for (i, prio) in [(1u32, 1u32), (2, 9), (3, 5)] {
            let so = so.clone();
            let order = Arc::clone(&order);
            sim.spawn_process(&format!("c{i}"), move |ctx| {
                ctx.wait(SimTime::ns(100))?;
                let opts = CallOptions::new().priority(prio);
                so.call_guarded_with(
                    ctx,
                    opts,
                    |_| true,
                    |_, ctx| {
                        order.lock().unwrap().push(i);
                        ctx.wait(SimTime::us(1))
                    },
                )
            });
        }
        sim.run().expect("run");
        assert_eq!(*order.lock().unwrap(), vec![2, 3, 1]);
    }

    #[test]
    fn round_robin_alternates_clients() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        let so = SharedObject::new(&mut sim, "so", (), RoundRobin::new());
        for i in 0..2u32 {
            let so = so.clone();
            let order = Arc::clone(&order);
            sim.spawn_process(&format!("c{i}"), move |ctx| {
                for _ in 0..3 {
                    so.call(ctx, |_, ctx| {
                        order.lock().unwrap().push(i);
                        ctx.wait(SimTime::us(1))
                    })?;
                }
                Ok(())
            });
        }
        sim.run().expect("run");
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn guarded_call_waits_for_condition() {
        let mut sim = Simulation::new();
        let so = SharedObject::new(&mut sim, "buf", Vec::<u8>::new(), Fcfs::new());
        let so_c = so.clone();
        sim.spawn_process("consumer", move |ctx| {
            let v = so_c.call_guarded(ctx, |b| !b.is_empty(), |b, _| Ok(b.remove(0)))?;
            assert_eq!(v, 9);
            assert_eq!(ctx.now(), SimTime::us(50));
            Ok(())
        });
        let so_p = so.clone();
        sim.spawn_process("producer", move |ctx| {
            ctx.wait(SimTime::us(50))?;
            so_p.call(ctx, |b, _| {
                let _: () = b.push(9);
                Ok(())
            })
        });
        sim.run()
            .expect("run")
            .expect_all_finished()
            .expect("all finished");
    }

    #[test]
    fn guard_failure_does_not_block_other_clients() {
        let mut sim = Simulation::new();
        let so = SharedObject::new(&mut sim, "so", 0u32, Fcfs::new());
        let so_g = so.clone();
        sim.spawn_process("guarded", move |ctx| {
            let v = so_g.call_guarded(ctx, |v| *v >= 2, |v, _| Ok(*v))?;
            assert_eq!(v, 2);
            Ok(())
        });
        let so_w = so.clone();
        sim.spawn_process("writer", move |ctx| {
            for _ in 0..2 {
                ctx.wait(SimTime::us(1))?;
                // Must get in even though "guarded" keeps retrying.
                so_w.call(ctx, |v, _| {
                    *v += 1;
                    Ok(())
                })?;
            }
            Ok(())
        });
        sim.run()
            .expect("run")
            .expect_all_finished()
            .expect("all finished");
    }

    #[test]
    fn guarded_call_alone_does_not_spin() {
        // A guarded call whose condition never becomes true must block
        // quietly (no delta-cycle livelock) and be reported as blocked.
        let mut sim = Simulation::new();
        let so = SharedObject::new(&mut sim, "so", 0u32, Fcfs::new());
        let so_g = so.clone();
        sim.spawn_process("guarded", move |ctx| {
            so_g.call_guarded(ctx, |v| *v > 0, |v, _| Ok(*v))?;
            Ok(())
        });
        let report = sim.run().expect("run");
        assert_eq!(report.blocked, vec!["guarded".to_string()]);
    }

    #[test]
    fn stats_capture_arbitration_wait() {
        let mut sim = Simulation::new();
        let so = SharedObject::new(&mut sim, "so", (), Fcfs::new());
        let so1 = so.clone();
        sim.spawn_process("first", move |ctx| {
            so1.call(ctx, |_, ctx| ctx.wait(SimTime::us(10)))
        });
        let so2 = so.clone();
        sim.spawn_process("second", move |ctx| {
            so2.call(ctx, |_, _| Ok(())) // must wait ~10 us for the grant
        });
        sim.run().expect("run");
        let stats = so.stats();
        assert_eq!(stats.calls, 2);
        assert_eq!(stats.total_arbitration_wait, SimTime::us(10));
        // The first request was granted (and dequeued) before the second
        // arrived, so at most one request was ever pending at once.
        assert_eq!(stats.max_pending, 1);
    }

    #[test]
    fn error_from_method_body_propagates_and_releases() {
        use osss_sim::SimError;
        let mut sim = Simulation::new();
        let so = SharedObject::new(&mut sim, "so", (), Fcfs::new());
        let so1 = so.clone();
        sim.spawn_process("failing", move |ctx| {
            let r: SimResult<()> = so1.call(ctx, |_, _| Err(SimError::model("bad input")));
            assert!(r.is_err());
            Ok(())
        });
        let so2 = so.clone();
        sim.spawn_process("next", move |ctx| {
            ctx.wait(SimTime::ns(1))?;
            // Object must not stay locked after the failed call.
            so2.call(ctx, |_, _| Ok(()))
        });
        sim.run()
            .expect("run")
            .expect_all_finished()
            .expect("all finished");
    }
}
