//! Explicit memories: Xilinx block RAM.
//!
//! On the Application Layer, shared-object data members behave like
//! registers (zero access time). The VTA refinement step maps large
//! arrays into explicit memories — in the case study an
//! `xilinx_block_ram<osss_array<short>, 32, 16>` — which both bounds FPGA
//! slice usage and adds per-access cycles. That added latency is the main
//! source of the IDWT-time inflation between models 3 and 6a in Table 1.

use std::sync::{Arc, Mutex};

use osss_sim::{lock_unpoisoned, Context, Frequency, SimResult, SimTime};

/// Access statistics of a memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStats {
    /// Word reads served.
    pub reads: u64,
    /// Word writes served.
    pub writes: u64,
    /// Total time spent in memory accesses.
    pub access_time: SimTime,
}

impl MemStats {
    /// Exports the snapshot into `reg` as `<prefix>.reads`,
    /// `<prefix>.writes` and `<prefix>.access_ps`.
    pub fn export_to(&self, reg: &osss_sim::probe::MetricsRegistry, prefix: &str) {
        reg.add_counter(&format!("{prefix}.reads"), self.reads);
        reg.add_counter(&format!("{prefix}.writes"), self.writes);
        reg.add_counter(&format!("{prefix}.access_ps"), self.access_time.as_ps());
    }
}

struct BramInner<T> {
    name: String,
    freq: Frequency,
    read_cycles: u64,
    write_cycles: u64,
    data: Mutex<Vec<T>>,
    stats: Mutex<MemStats>,
}

/// A synchronous block RAM holding `T` words: single-cycle-class access
/// latency, charged per access (or in bulk for burst loops, which keeps
/// event counts tractable without changing total time).
///
/// # Example
///
/// ```
/// use osss_sim::{Simulation, SimTime, Frequency};
/// use osss_vta::XilinxBlockRam;
///
/// # fn main() -> Result<(), osss_sim::SimError> {
/// let mut sim = Simulation::new();
/// let ram = XilinxBlockRam::<i16>::new("tile_ram", 1024, Frequency::mhz(100));
/// let ram2 = ram.clone();
/// sim.spawn_process("hw", move |ctx| {
///     ram2.write(ctx, 5, -42)?;
///     assert_eq!(ram2.read(ctx, 5)?, -42);
///     Ok(())
/// });
/// // One write + one read at one cycle each.
/// assert_eq!(sim.run()?.end_time, SimTime::ns(20));
/// # Ok(())
/// # }
/// ```
pub struct XilinxBlockRam<T> {
    inner: Arc<BramInner<T>>,
}

impl<T> Clone for XilinxBlockRam<T> {
    fn clone(&self) -> Self {
        XilinxBlockRam {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Copy + Default + Send + 'static> XilinxBlockRam<T> {
    /// Creates a zero-initialised RAM of `words` entries with one-cycle
    /// read and write latency.
    pub fn new(name: &str, words: usize, freq: Frequency) -> Self {
        XilinxBlockRam {
            inner: Arc::new(BramInner {
                name: name.to_string(),
                freq,
                read_cycles: 1,
                write_cycles: 1,
                data: Mutex::new(vec![T::default(); words]),
                stats: Mutex::new(MemStats::default()),
            }),
        }
    }

    /// The memory name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Capacity in words.
    pub fn words(&self) -> usize {
        lock_unpoisoned(&self.inner.data).len()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> MemStats {
        *lock_unpoisoned(&self.inner.stats)
    }

    /// Reads one word, charging the read latency.
    ///
    /// # Errors
    ///
    /// [`osss_sim::SimError::Terminated`] on shutdown.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn read(&self, ctx: &Context, addr: usize) -> SimResult<T> {
        let t = self.inner.freq.cycles(self.inner.read_cycles);
        ctx.wait(t)?;
        let mut stats = lock_unpoisoned(&self.inner.stats);
        stats.reads += 1;
        stats.access_time += t;
        drop(stats);
        Ok(lock_unpoisoned(&self.inner.data)[addr])
    }

    /// Writes one word, charging the write latency.
    ///
    /// # Errors
    ///
    /// [`osss_sim::SimError::Terminated`] on shutdown.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn write(&self, ctx: &Context, addr: usize, value: T) -> SimResult<()> {
        let t = self.inner.freq.cycles(self.inner.write_cycles);
        ctx.wait(t)?;
        let mut stats = lock_unpoisoned(&self.inner.stats);
        stats.writes += 1;
        stats.access_time += t;
        drop(stats);
        lock_unpoisoned(&self.inner.data)[addr] = value;
        Ok(())
    }

    /// Bulk accounting for a burst of `reads` + `writes` accesses done by
    /// a tight hardware loop: charges the exact cycle cost in one wait
    /// instead of one event per access.
    ///
    /// # Errors
    ///
    /// [`osss_sim::SimError::Terminated`] on shutdown.
    pub fn charge_burst(&self, ctx: &Context, reads: u64, writes: u64) -> SimResult<()> {
        let t = self
            .inner
            .freq
            .cycles(reads * self.inner.read_cycles + writes * self.inner.write_cycles);
        ctx.wait(t)?;
        let mut stats = lock_unpoisoned(&self.inner.stats);
        stats.reads += reads;
        stats.writes += writes;
        stats.access_time += t;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osss_sim::Simulation;

    #[test]
    fn bram_read_write_latency() {
        let mut sim = Simulation::new();
        let ram = XilinxBlockRam::<i32>::new("r", 16, Frequency::mhz(100));
        let ram2 = ram.clone();
        sim.spawn_process("p", move |ctx| {
            for i in 0..4 {
                ram2.write(ctx, i, i as i32 * 10)?;
            }
            for i in 0..4 {
                assert_eq!(ram2.read(ctx, i)?, i as i32 * 10);
            }
            Ok(())
        });
        // 8 accesses at 1 cycle = 80 ns.
        assert_eq!(sim.run().expect("run").end_time, SimTime::ns(80));
        let s = ram.stats();
        assert_eq!(s.reads, 4);
        assert_eq!(s.writes, 4);
        assert_eq!(s.access_time, SimTime::ns(80));
    }

    #[test]
    fn burst_charging_equals_individual_accesses() {
        let mut sim = Simulation::new();
        let ram = XilinxBlockRam::<i16>::new("r", 1024, Frequency::mhz(100));
        let ram2 = ram.clone();
        sim.spawn_process("p", move |ctx| ram2.charge_burst(ctx, 600, 400));
        assert_eq!(sim.run().expect("run").end_time, SimTime::ns(10_000));
        assert_eq!(ram.stats().reads, 600);
        assert_eq!(ram.stats().writes, 400);
    }
}
