//! Software processors: the N:1 target of software-task mapping.

use std::sync::{Arc, Mutex};

use osss_core::{EetSink, TaskEnv};
use osss_sim::{lock_unpoisoned, Context, Event, Frequency, SimResult, SimTime, Simulation};

/// Utilisation statistics of one processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuStats {
    /// Number of EET blocks served.
    pub eet_blocks: u64,
    /// Total busy time.
    pub busy: SimTime,
    /// Total time tasks waited for the CPU.
    pub contention: SimTime,
}

impl CpuStats {
    /// Exports the snapshot into `reg` as `<prefix>.eet_blocks`,
    /// `<prefix>.busy_ps` and `<prefix>.contention_ps`.
    pub fn export_to(&self, reg: &osss_sim::probe::MetricsRegistry, prefix: &str) {
        reg.add_counter(&format!("{prefix}.eet_blocks"), self.eet_blocks);
        reg.add_counter(&format!("{prefix}.busy_ps"), self.busy.as_ps());
        reg.add_counter(&format!("{prefix}.contention_ps"), self.contention.as_ps());
    }
}

struct Inner {
    name: String,
    freq: Frequency,
    busy: Mutex<bool>,
    released: Event,
    stats: Mutex<CpuStats>,
}

/// A processor of the Virtual Target Architecture. Mapping a software task
/// onto it (via [`SoftwareProcessor::env`], the paper's `add_sw_task`)
/// re-binds the task's EET blocks from free-running time to **exclusive
/// processor time**, so co-mapped tasks serialise and a 4-way-parallel
/// Application Model only speeds up if it is given four processors.
/// Each EET block holds the processor from start to end (no preemption).
#[derive(Clone)]
pub struct SoftwareProcessor {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for SoftwareProcessor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SoftwareProcessor")
            .field("name", &self.inner.name)
            .field("freq", &self.inner.freq)
            .finish()
    }
}

impl SoftwareProcessor {
    /// Creates a processor clocked at `freq`.
    pub fn new(sim: &mut Simulation, name: &str, freq: Frequency) -> Self {
        SoftwareProcessor {
            inner: Arc::new(Inner {
                name: name.to_string(),
                freq,
                busy: Mutex::new(false),
                released: sim.event(&format!("cpu:{name}.released")),
                stats: Mutex::new(CpuStats::default()),
            }),
        }
    }

    /// The processor name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Utilisation statistics snapshot.
    pub fn stats(&self) -> CpuStats {
        *lock_unpoisoned(&self.inner.stats)
    }

    /// Maps a software task onto this processor: returns the execution
    /// environment whose EET blocks draw exclusive CPU time (the paper's
    /// `add_sw_task`).
    pub fn env(&self, task_name: &str) -> TaskEnv {
        TaskEnv::bound_to(task_name, Arc::new(self.clone()))
    }

    fn acquire(&self, ctx: &Context) -> SimResult<()> {
        loop {
            {
                let mut busy = lock_unpoisoned(&self.inner.busy);
                if !*busy {
                    *busy = true;
                    return Ok(());
                }
            }
            ctx.wait_event(&self.inner.released)?;
        }
    }

    fn release(&self, ctx: &Context) {
        *lock_unpoisoned(&self.inner.busy) = false;
        ctx.notify(&self.inner.released);
    }
}

impl EetSink for SoftwareProcessor {
    fn consume(&self, ctx: &Context, t: SimTime) -> SimResult<()> {
        let start = ctx.now();
        // A zero-length block takes no CPU: it neither waits for the
        // processor nor wakes anyone.
        if !t.is_zero() {
            self.acquire(ctx)?;
            let r = ctx.wait(t);
            self.release(ctx);
            r?;
        }
        let elapsed = ctx.now() - start;
        let mut stats = lock_unpoisoned(&self.inner.stats);
        stats.eet_blocks += 1;
        stats.busy += t;
        stats.contention += elapsed.checked_sub(t).unwrap_or(SimTime::ZERO);
        Ok(())
    }

    fn resource_name(&self) -> String {
        format!("cpu:{}@{}", self.inner.name, self.inner.freq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_task_runs_unimpeded() {
        let mut sim = Simulation::new();
        let cpu = SoftwareProcessor::new(&mut sim, "cpu0", Frequency::mhz(100));
        let env = cpu.env("t");
        sim.spawn_process("t", move |ctx| env.eet(ctx, SimTime::ms(5), || ()));
        assert_eq!(sim.run().expect("run").end_time, SimTime::ms(5));
        assert_eq!(cpu.stats().eet_blocks, 1);
        assert_eq!(cpu.stats().busy, SimTime::ms(5));
        assert_eq!(cpu.stats().contention, SimTime::ZERO);
    }

    #[test]
    fn co_mapped_tasks_serialise() {
        let mut sim = Simulation::new();
        let cpu = SoftwareProcessor::new(&mut sim, "cpu0", Frequency::mhz(100));
        for i in 0..4 {
            let env = cpu.env(&format!("t{i}"));
            sim.spawn_process(&format!("t{i}"), move |ctx| {
                env.eet(ctx, SimTime::ms(3), || ())
            });
        }
        // Four 3 ms EETs on one CPU: 12 ms, with 0+3+6+9 ms contention.
        assert_eq!(sim.run().expect("run").end_time, SimTime::ms(12));
        assert_eq!(cpu.stats().contention, SimTime::ms(18));
    }

    #[test]
    fn tasks_on_different_processors_run_in_parallel() {
        let mut sim = Simulation::new();
        for i in 0..4 {
            let cpu = SoftwareProcessor::new(&mut sim, &format!("cpu{i}"), Frequency::mhz(100));
            let env = cpu.env("t");
            sim.spawn_process(&format!("t{i}"), move |ctx| {
                env.eet(ctx, SimTime::ms(3), || ())
            });
        }
        assert_eq!(sim.run().expect("run").end_time, SimTime::ms(3));
    }

    #[test]
    fn a_zero_length_eet_takes_no_cpu() {
        let mut sim = Simulation::new();
        let cpu = SoftwareProcessor::new(&mut sim, "cpu0", Frequency::mhz(100));
        let long = cpu.env("long");
        sim.spawn_process("long", move |ctx| long.eet(ctx, SimTime::ms(5), || ()));
        let zero = cpu.env("zero");
        sim.spawn_process("zero", move |ctx| {
            zero.eet(ctx, SimTime::ZERO, || ())?;
            // It did not queue behind the busy processor.
            assert_eq!(ctx.now(), SimTime::ZERO);
            Ok(())
        });
        sim.run().expect("run").expect_all_finished().expect("done");
        assert_eq!(cpu.stats().eet_blocks, 2);
        assert_eq!(cpu.stats().contention, SimTime::ZERO);
    }

    #[test]
    fn env_reports_resource() {
        let mut sim = Simulation::new();
        let cpu = SoftwareProcessor::new(&mut sim, "ppc", Frequency::mhz(100));
        let env = cpu.env("decoder");
        assert_eq!(env.name(), "decoder");
        assert!(env.resource_name().contains("ppc"));
        assert!(env.resource_name().contains("100 MHz"));
    }
}
