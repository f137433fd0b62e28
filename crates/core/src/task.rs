//! Software tasks: the active blocks that software runs in.
//!
//! An OSSS *Software Task* holds exactly one process; hardware blocks
//! are plain kernel processes. Both communicate through shared objects.

use osss_sim::{Context, ProcId, SimResult, Simulation};

use crate::eet::TaskEnv;

/// A software task: exactly one process plus its execution environment.
///
/// On the Application Layer the environment is unconstrained time; when the
/// task is later mapped onto a VTA software processor, the *same* body runs
/// with a processor-bound [`TaskEnv`] (see `osss-vta`).
///
/// # Example
///
/// ```
/// use osss_sim::{Simulation, SimTime};
/// use osss_core::SwTask;
///
/// # fn main() -> Result<(), osss_sim::SimError> {
/// let mut sim = Simulation::new();
/// SwTask::spawn(&mut sim, "arith_decoder", |env, ctx| {
///     env.eet(ctx, SimTime::ms(180), || { /* decode a tile */ })
/// });
/// assert_eq!(sim.run()?.end_time, SimTime::ms(180));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SwTask {
    name: String,
    pid: ProcId,
}

impl SwTask {
    /// Spawns a software task on the Application Layer (unbound time).
    pub fn spawn<F>(sim: &mut Simulation, name: &str, body: F) -> SwTask
    where
        F: FnOnce(&TaskEnv, &Context) -> SimResult<()> + Send + 'static,
    {
        Self::spawn_with_env(sim, name, TaskEnv::application_layer(name), body)
    }

    /// Spawns a software task with an explicit environment (used by the VTA
    /// layer to bind the task to a software processor).
    pub fn spawn_with_env<F>(sim: &mut Simulation, name: &str, env: TaskEnv, body: F) -> SwTask
    where
        F: FnOnce(&TaskEnv, &Context) -> SimResult<()> + Send + 'static,
    {
        let pid = sim.spawn_process(name, move |ctx| body(&env, ctx));
        SwTask {
            name: name.to_string(),
            pid,
        }
    }

    /// The task name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The id of the task's process (its client identity at shared objects).
    pub fn pid(&self) -> ProcId {
        self.pid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osss_sim::SimTime;

    #[test]
    fn sw_task_runs_body_with_env() {
        let mut sim = Simulation::new();
        let task = SwTask::spawn(&mut sim, "t", |env, ctx| {
            assert_eq!(env.name(), "t");
            env.eet(ctx, SimTime::us(7), || ())
        });
        assert_eq!(task.name(), "t");
        assert_eq!(sim.run().expect("run").end_time, SimTime::us(7));
    }

    #[test]
    fn task_pid_is_usable_as_client_identity() {
        let mut sim = Simulation::new();
        let t1 = SwTask::spawn(&mut sim, "a", |_, _| Ok(()));
        let t2 = SwTask::spawn(&mut sim, "b", |_, _| Ok(()));
        assert_ne!(t1.pid(), t2.pid());
        sim.run().expect("run");
    }
}
