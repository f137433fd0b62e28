//! Bounded blocking FIFO channel, the workhorse of pipelined models.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::context::Context;
use crate::error::SimResult;
use crate::event::Event;
use crate::kernel::Simulation;
use crate::lock_unpoisoned;

struct Inner<T> {
    queue: Mutex<VecDeque<T>>,
    capacity: usize,
    not_empty: Event,
    not_full: Event,
}

/// A bounded FIFO with blocking `read`/`write`, modelled after `sc_fifo`.
///
/// The JPEG 2000 pipeline versions (model 3 and 5) pass tiles between the
/// software stage and the hardware shared object through FIFOs like this.
///
/// # Example
///
/// ```
/// use osss_sim::{Simulation, SimTime};
/// use osss_sim::prim::Fifo;
///
/// # fn main() -> Result<(), osss_sim::SimError> {
/// let mut sim = Simulation::new();
/// let fifo = Fifo::new(&mut sim, "tiles", 2);
/// let tx = fifo.clone();
/// sim.spawn_process("producer", move |ctx| {
///     for i in 0..4u32 {
///         tx.write(ctx, i)?;
///     }
///     Ok(())
/// });
/// let rx = fifo.clone();
/// sim.spawn_process("consumer", move |ctx| {
///     for i in 0..4u32 {
///         ctx.wait(SimTime::ns(5))?;
///         assert_eq!(rx.read(ctx)?, i);
///     }
///     Ok(())
/// });
/// sim.run()?.expect_all_finished()?;
/// # Ok(())
/// # }
/// ```
pub struct Fifo<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Fifo<T> {
    fn clone(&self) -> Self {
        Fifo {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Fifo<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fifo")
            .field("len", &lock_unpoisoned(&self.inner.queue).len())
            .field("capacity", &self.inner.capacity)
            .finish()
    }
}

impl<T: Send + 'static> Fifo<T> {
    /// Creates a FIFO holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(sim: &mut Simulation, name: &str, capacity: usize) -> Self {
        assert!(capacity > 0, "fifo capacity must be non-zero");
        Fifo {
            inner: Arc::new(Inner {
                queue: Mutex::new(VecDeque::with_capacity(capacity)),
                capacity,
                not_empty: sim.event(&format!("{name}.not_empty")),
                not_full: sim.event(&format!("{name}.not_full")),
            }),
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.inner.queue).len()
    }

    /// Whether the FIFO holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the FIFO is at capacity.
    pub fn is_full(&self) -> bool {
        self.len() == self.inner.capacity
    }

    /// Blocks until space is available, then enqueues `value`.
    ///
    /// # Errors
    ///
    /// [`crate::SimError::Terminated`] when the simulation is shutting down.
    pub fn write(&self, ctx: &Context, value: T) -> SimResult<()> {
        let mut value = Some(value);
        loop {
            {
                let mut q = lock_unpoisoned(&self.inner.queue);
                if q.len() < self.inner.capacity {
                    q.push_back(value.take().expect("value still pending"));
                    ctx.notify(&self.inner.not_empty);
                    return Ok(());
                }
            }
            ctx.wait_event(&self.inner.not_full)?;
        }
    }

    /// Blocks until an item is available, then dequeues it.
    ///
    /// # Errors
    ///
    /// [`crate::SimError::Terminated`] when the simulation is shutting down.
    pub fn read(&self, ctx: &Context) -> SimResult<T> {
        loop {
            {
                let mut q = lock_unpoisoned(&self.inner.queue);
                if let Some(v) = q.pop_front() {
                    ctx.notify(&self.inner.not_full);
                    return Ok(v);
                }
            }
            ctx.wait_event(&self.inner.not_empty)?;
        }
    }

    /// Non-blocking write; returns the value back if the FIFO is full.
    pub fn try_write(&self, ctx: &Context, value: T) -> Result<(), T> {
        let mut q = lock_unpoisoned(&self.inner.queue);
        if q.len() < self.inner.capacity {
            q.push_back(value);
            ctx.notify(&self.inner.not_empty);
            Ok(())
        } else {
            Err(value)
        }
    }

    /// Non-blocking read.
    pub fn try_read(&self, ctx: &Context) -> Option<T> {
        let mut q = lock_unpoisoned(&self.inner.queue);
        let v = q.pop_front();
        if v.is_some() {
            ctx.notify(&self.inner.not_full);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn backpressure_blocks_producer() {
        let mut sim = Simulation::new();
        let fifo = Fifo::new(&mut sim, "f", 1);
        let tx = fifo.clone();
        sim.spawn_process("producer", move |ctx| {
            tx.write(ctx, 1u32)?;
            tx.write(ctx, 2)?; // blocks until consumer drains
            assert_eq!(ctx.now(), SimTime::ns(10));
            Ok(())
        });
        let rx = fifo.clone();
        sim.spawn_process("consumer", move |ctx| {
            ctx.wait(SimTime::ns(10))?;
            assert_eq!(rx.read(ctx)?, 1);
            assert_eq!(rx.read(ctx)?, 2);
            Ok(())
        });
        sim.run().expect("run").expect_all_finished().expect("done");
    }

    #[test]
    fn reader_blocks_until_data() {
        let mut sim = Simulation::new();
        let fifo = Fifo::new(&mut sim, "f", 4);
        let rx = fifo.clone();
        sim.spawn_process("consumer", move |ctx| {
            assert_eq!(rx.read(ctx)?, 42u32);
            assert_eq!(ctx.now(), SimTime::us(1));
            Ok(())
        });
        let tx = fifo.clone();
        sim.spawn_process("producer", move |ctx| {
            ctx.wait(SimTime::us(1))?;
            tx.write(ctx, 42)?;
            Ok(())
        });
        sim.run().expect("run").expect_all_finished().expect("done");
    }

    #[test]
    fn try_variants() {
        let mut sim = Simulation::new();
        let fifo = Fifo::new(&mut sim, "f", 1);
        let f = fifo.clone();
        sim.spawn_process("p", move |ctx| {
            assert_eq!(f.try_read(ctx), None);
            assert!(f.try_write(ctx, 1u8).is_ok());
            assert_eq!(f.try_write(ctx, 2), Err(2));
            assert!(f.is_full());
            assert_eq!(f.try_read(ctx), Some(1));
            assert!(f.is_empty());
            Ok(())
        });
        sim.run().expect("run");
    }

    #[test]
    fn preserves_order_across_many_items() {
        let mut sim = Simulation::new();
        let fifo = Fifo::new(&mut sim, "f", 3);
        let tx = fifo.clone();
        sim.spawn_process("producer", move |ctx| {
            for i in 0..100u32 {
                tx.write(ctx, i)?;
            }
            Ok(())
        });
        let rx = fifo.clone();
        sim.spawn_process("consumer", move |ctx| {
            for i in 0..100u32 {
                assert_eq!(rx.read(ctx)?, i);
            }
            Ok(())
        });
        sim.run().expect("run").expect_all_finished().expect("done");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let mut sim = Simulation::new();
        let _ = Fifo::<u8>::new(&mut sim, "f", 0);
    }
}
