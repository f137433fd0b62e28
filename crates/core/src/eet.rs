//! Estimated Execution Time annotation blocks.
//!
//! OSSS annotates software timing with `OSSS_EET` blocks: the enclosed code
//! runs functionally and the stated estimated time elapses. On the
//! Application Layer, elapsing time is a plain kernel wait; after mapping a
//! task onto a *Software Processor* (VTA layer), the same annotation must
//! consume exclusive CPU time so that co-mapped tasks serialise. The
//! [`EetSink`] trait is that seam: behaviour code calls
//! [`TaskEnv::eet`] and never changes between layers.

use std::sync::Arc;

use osss_sim::{Context, SimResult, SimTime};

/// Where annotated execution time is spent.
///
/// * Application Layer: [`UnboundTime`] — time passes without any resource.
/// * VTA layer: a software processor — time passes while holding the CPU.
pub trait EetSink: Send + Sync {
    /// Consumes `t` of execution time on behalf of the calling process.
    ///
    /// # Errors
    ///
    /// [`osss_sim::SimError::Terminated`] when the simulation is shutting down.
    fn consume(&self, ctx: &Context, t: SimTime) -> SimResult<()>;

    /// Descriptive name of the resource (for reports).
    fn resource_name(&self) -> String;
}

/// The Application-Layer sink: annotated time elapses unconstrained.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnboundTime;

impl EetSink for UnboundTime {
    fn consume(&self, ctx: &Context, t: SimTime) -> SimResult<()> {
        ctx.wait(t)
    }

    fn resource_name(&self) -> String {
        "application-layer".to_string()
    }
}

/// The execution environment of one software task: its name plus the sink
/// its EET blocks draw time from.
///
/// Cloneable; clones share the sink.
#[derive(Clone)]
pub struct TaskEnv {
    name: Arc<str>,
    sink: Arc<dyn EetSink>,
}

impl std::fmt::Debug for TaskEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskEnv")
            .field("name", &self.name)
            .field("sink", &self.sink.resource_name())
            .finish()
    }
}

impl TaskEnv {
    /// An Application-Layer environment ([`UnboundTime`] sink).
    pub fn application_layer(name: &str) -> Self {
        TaskEnv {
            name: Arc::from(name),
            sink: Arc::new(UnboundTime),
        }
    }

    /// An environment drawing time from a custom sink (e.g. a VTA software
    /// processor).
    pub fn bound_to(name: &str, sink: Arc<dyn EetSink>) -> Self {
        TaskEnv {
            name: Arc::from(name),
            sink,
        }
    }

    /// The task name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The name of the resource time is drawn from.
    pub fn resource_name(&self) -> String {
        self.sink.resource_name()
    }

    /// `OSSS_EET` block: runs `f` functionally, then elapses the estimated
    /// execution time on this task's resource.
    ///
    /// ```
    /// # use osss_sim::{Simulation, SimTime};
    /// # use osss_core::TaskEnv;
    /// # let mut sim = Simulation::new();
    /// # let env = TaskEnv::application_layer("t");
    /// # sim.spawn_process("p", move |ctx| {
    /// let decoded = env.eet(ctx, SimTime::ms(180), || 2 + 2)?;
    /// assert_eq!(decoded, 4);
    /// # Ok(()) });
    /// # sim.run().unwrap();
    /// ```
    ///
    /// # Errors
    ///
    /// [`osss_sim::SimError::Terminated`] when the simulation is shutting down.
    pub fn eet<R>(&self, ctx: &Context, estimated: SimTime, f: impl FnOnce() -> R) -> SimResult<R> {
        let r = f();
        self.sink.consume(ctx, estimated)?;
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osss_sim::Simulation;

    #[test]
    fn eet_elapses_time_and_returns_value() {
        let mut sim = Simulation::new();
        let env = TaskEnv::application_layer("t");
        sim.spawn_process("p", move |ctx| {
            let v = env.eet(ctx, SimTime::ms(180), || 41 + 1)?;
            assert_eq!(v, 42);
            assert_eq!(ctx.now(), SimTime::ms(180));
            Ok(())
        });
        sim.run().expect("run");
    }
}
