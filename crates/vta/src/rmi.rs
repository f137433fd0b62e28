//! The Remote Method Invocation layer: Application-Layer method calls
//! carried over physical channels.
//!
//! RMI decouples *what* a method call does from *how* its data moves: the
//! request (method id + serialised arguments) crosses the channel, the
//! method body executes under the shared object's own arbitration, and
//! the serialised results cross back. Swapping the channel object —
//! shared bus ↔ point-to-point — re-maps the communication without
//! touching a single line of behavioural code.

use std::sync::Arc;

use osss_core::SharedObject;
use osss_sim::{Context, SimResult};

use crate::channel::Channel;
use crate::serialise::Serialise;

/// Words of protocol framing per RMI message (method id + length).
pub const RMI_HEADER_WORDS: usize = 2;

/// A shared object reachable through a physical channel.
///
/// # Example
///
/// ```
/// use osss_sim::{Simulation, SimTime, Frequency};
/// use osss_core::{SharedObject, sched::Fcfs};
/// use osss_vta::{OpbBus, BusConfig, RmiService};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), osss_sim::SimError> {
/// let mut sim = Simulation::new();
/// let so = SharedObject::new(&mut sim, "coproc", 0u64, Fcfs::new());
/// let bus = Arc::new(OpbBus::new(&mut sim, "opb", BusConfig::opb_100mhz()));
/// let svc = RmiService::new(so, bus);
///
/// sim.spawn_process("client", move |ctx| {
///     let args: Vec<i32> = (0..100).collect();
///     // Request transfer + method body + response transfer, all blocking.
///     let sum = svc.invoke(ctx, &args, &0i64, |state, ctx| {
///         *state += 1;
///         ctx.wait(SimTime::us(5))?; // compute time in the co-processor
///         Ok(args.iter().map(|&v| v as i64).sum::<i64>())
///     })?;
///     assert_eq!(sum, 4950);
///     Ok(())
/// });
/// sim.run()?.expect_all_finished()?;
/// # Ok(())
/// # }
/// ```
pub struct RmiService<T> {
    so: SharedObject<T>,
    channel: Arc<dyn Channel>,
}

impl<T> Clone for RmiService<T> {
    fn clone(&self) -> Self {
        RmiService {
            so: self.so.clone(),
            channel: Arc::clone(&self.channel),
        }
    }
}

impl<T> std::fmt::Debug for RmiService<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RmiService")
            .field("object", &self.so.name())
            .field("channel", &self.channel.name())
            .finish()
    }
}

impl<T: Send + 'static> RmiService<T> {
    /// Binds `so` to `channel`.
    pub fn new(so: SharedObject<T>, channel: Arc<dyn Channel>) -> Self {
        RmiService { so, channel }
    }

    pub(crate) fn so(&self) -> &SharedObject<T> {
        &self.so
    }

    pub(crate) fn channel(&self) -> &Arc<dyn Channel> {
        &self.channel
    }

    /// A blocking remote method call: transfers `args` to the object,
    /// executes `f` under the object's arbitration, transfers a result
    /// the size of `result_shape` back, and returns `f`'s value.
    ///
    /// `result_shape` only determines the response transfer size — RMI
    /// costs depend on the declared interface, not the dynamic value.
    ///
    /// # Errors
    ///
    /// Propagates kernel termination and errors from `f`.
    pub fn invoke<A: Serialise + ?Sized, S: Serialise + ?Sized, R>(
        &self,
        ctx: &Context,
        args: &A,
        result_shape: &S,
        f: impl FnOnce(&mut T, &Context) -> SimResult<R>,
    ) -> SimResult<R> {
        let req_words = RMI_HEADER_WORDS + args.serialised_words();
        self.channel.transfer(ctx, req_words)?;
        let out = self.so.call(ctx, f)?;
        let resp_words = RMI_HEADER_WORDS + result_shape.serialised_words();
        self.channel.transfer(ctx, resp_words)?;
        Ok(out)
    }

    /// A guarded remote call: the request is transferred, then the method
    /// waits (object-side) until `guard` holds. See
    /// [`SharedObject::call_guarded`].
    ///
    /// # Errors
    ///
    /// Propagates kernel termination and errors from `f`.
    pub fn invoke_guarded<A: Serialise + ?Sized, S: Serialise + ?Sized, R>(
        &self,
        ctx: &Context,
        args: &A,
        result_shape: &S,
        guard: impl Fn(&T) -> bool,
        f: impl FnOnce(&mut T, &Context) -> SimResult<R>,
    ) -> SimResult<R> {
        let req_words = RMI_HEADER_WORDS + args.serialised_words();
        self.channel.transfer(ctx, req_words)?;
        let out = self.so.call_guarded(ctx, guard, f)?;
        let resp_words = RMI_HEADER_WORDS + result_shape.serialised_words();
        self.channel.transfer(ctx, resp_words)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{BusConfig, OpbBus};
    use crate::p2p::P2pChannel;
    use osss_core::sched::Fcfs;
    use osss_sim::{lock_unpoisoned, Frequency, SimTime, Simulation};

    #[test]
    fn invoke_adds_transfer_cost_on_both_sides() {
        let mut sim = Simulation::new();
        let so = SharedObject::new(&mut sim, "so", (), Fcfs::new());
        let bus = Arc::new(OpbBus::new(&mut sim, "opb", BusConfig::opb_100mhz()));
        let svc = RmiService::new(so, Arc::clone(&bus) as Arc<dyn Channel>);
        let req = bus.transfer_time(RMI_HEADER_WORDS + 101);
        let resp = bus.transfer_time(RMI_HEADER_WORDS + 1);
        sim.spawn_process("client", move |ctx| {
            let args: Vec<i32> = (0..100).collect();
            svc.invoke(ctx, &args, &0i32, |_, ctx| ctx.wait(SimTime::us(7)))?;
            Ok(())
        });
        let report = sim.run().expect("run");
        assert_eq!(report.end_time, req + SimTime::us(7) + resp);
    }

    #[test]
    fn bus_vs_p2p_mapping_changes_only_timing() {
        // The same behavioural closure, two different channels: the P2P
        // mapping must be strictly faster, the results identical.
        let run = |p2p: bool| -> (SimTime, i64) {
            let mut sim = Simulation::new();
            let so = SharedObject::new(&mut sim, "so", (), Fcfs::new());
            let ch: Arc<dyn Channel> = if p2p {
                Arc::new(P2pChannel::new(&mut sim, "link", Frequency::mhz(100)))
            } else {
                Arc::new(OpbBus::new(&mut sim, "opb", BusConfig::opb_100mhz()))
            };
            let svc = RmiService::new(so, ch);
            let out = Arc::new(std::sync::Mutex::new(0i64));
            let out2 = Arc::clone(&out);
            sim.spawn_process("client", move |ctx| {
                let args: Vec<i32> = (0..1000).collect();
                let r = svc.invoke(ctx, &args, &0i64, |_, _| {
                    Ok(args.iter().map(|&v| v as i64).sum::<i64>())
                })?;
                *lock_unpoisoned(&out2) = r;
                Ok(())
            });
            let t = sim.run().expect("run").end_time;
            let v = *lock_unpoisoned(&out);
            (t, v)
        };
        let (t_bus, v_bus) = run(false);
        let (t_p2p, v_p2p) = run(true);
        assert_eq!(v_bus, v_p2p);
        assert_eq!(v_bus, 499_500);
        assert!(t_p2p < t_bus, "P2P {t_p2p} should beat bus {t_bus}");
    }

    #[test]
    fn contention_on_shared_bus_grows_with_clients() {
        let total_for = |clients: usize| -> SimTime {
            let mut sim = Simulation::new();
            let so = SharedObject::new(&mut sim, "so", (), Fcfs::new());
            let bus: Arc<dyn Channel> =
                Arc::new(OpbBus::new(&mut sim, "opb", BusConfig::opb_100mhz()));
            for i in 0..clients {
                let svc = RmiService::new(so.clone(), Arc::clone(&bus));
                sim.spawn_process(&format!("c{i}"), move |ctx| {
                    let args: Vec<i32> = vec![0; 500];
                    svc.invoke(ctx, &args, &(), |_, _| Ok(()))?;
                    Ok(())
                });
            }
            sim.run().expect("run").end_time
        };
        let t1 = total_for(1);
        let t4 = total_for(4);
        assert!(t4 >= t1 * 3, "4 clients should be ~4x one: {t1} vs {t4}");
    }

    #[test]
    fn guarded_invoke_synchronises_producer_consumer() {
        let mut sim = Simulation::new();
        let so = SharedObject::new(&mut sim, "queue", Vec::<i32>::new(), Fcfs::new());
        let link: Arc<dyn Channel> =
            Arc::new(P2pChannel::new(&mut sim, "link", Frequency::mhz(100)));
        let svc_c = RmiService::new(so.clone(), Arc::clone(&link));
        sim.spawn_process("consumer", move |ctx| {
            let v =
                svc_c.invoke_guarded(ctx, &(), &0i32, |q| !q.is_empty(), |q, _| Ok(q.remove(0)))?;
            assert_eq!(v, 5);
            Ok(())
        });
        let svc_p = RmiService::new(so, link);
        sim.spawn_process("producer", move |ctx| {
            ctx.wait(SimTime::us(3))?;
            svc_p.invoke(ctx, &5i32, &(), |q, _| {
                q.push(5);
                Ok(())
            })?;
            Ok(())
        });
        sim.run()
            .expect("run")
            .expect_all_finished()
            .expect("all done");
    }
}
