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
    timeslice: Option<SimTime>,
    stats: Mutex<CpuStats>,
}

/// A processor of the Virtual Target Architecture. Mapping a software task
/// onto it (via [`SoftwareProcessor::env`], the paper's `add_sw_task`)
/// re-binds the task's EET blocks from free-running time to **exclusive
/// processor time**, so co-mapped tasks serialise and a 4-way-parallel
/// Application Model only speeds up if it is given four processors.
///
/// With a timeslice configured, long EET blocks are consumed in
/// round-robin slices instead of non-preemptively.
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
                timeslice: None,
                stats: Mutex::new(CpuStats::default()),
            }),
        }
    }

    /// Returns a copy of this processor that consumes EETs in round-robin
    /// slices of `quantum` (preemptive scheduling model).
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn with_timeslice(&self, quantum: SimTime) -> Self {
        assert!(!quantum.is_zero(), "timeslice must be non-zero");
        SoftwareProcessor {
            inner: Arc::new(Inner {
                name: self.inner.name.clone(),
                freq: self.inner.freq,
                busy: Mutex::new(false),
                released: self.inner.released.clone(),
                timeslice: Some(quantum),
                stats: Mutex::new(CpuStats::default()),
            }),
        }
    }

    /// The processor name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The clock frequency.
    pub fn freq(&self) -> Frequency {
        self.inner.freq
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
        let mut remaining = t;
        while !remaining.is_zero() {
            self.acquire(ctx)?;
            let slice = match self.inner.timeslice {
                Some(q) if q < remaining => q,
                _ => remaining,
            };
            let r = ctx.wait(slice);
            self.release(ctx);
            r?;
            remaining = remaining.checked_sub(slice).unwrap_or(SimTime::ZERO);
            if !remaining.is_zero() {
                // Yield one delta so tasks woken by the release get to
                // claim the CPU before we re-acquire (round-robin).
                ctx.wait(SimTime::ZERO)?;
            }
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
    fn timeslicing_interleaves_long_blocks() {
        let finish_order = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        let base = SoftwareProcessor::new(&mut sim, "cpu0", Frequency::mhz(100));
        let cpu = base.with_timeslice(SimTime::ms(1));
        // A long task and a short task: with slicing, the short task
        // finishes long before the long one, despite starting second.
        let env_long = cpu.env("long");
        let order1 = Arc::clone(&finish_order);
        sim.spawn_process("long", move |ctx| {
            env_long.eet(ctx, SimTime::ms(10), || ())?;
            order1.lock().unwrap().push("long");
            Ok(())
        });
        let env_short = cpu.env("short");
        let order2 = Arc::clone(&finish_order);
        sim.spawn_process("short", move |ctx| {
            env_short.eet(ctx, SimTime::ms(2), || ())?;
            order2.lock().unwrap().push("short");
            Ok(())
        });
        let report = sim.run().expect("run");
        assert_eq!(*finish_order.lock().unwrap(), vec!["short", "long"]);
        assert_eq!(report.end_time, SimTime::ms(12));
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
