//! The shared multi-master bus model (the case study's IBM OPB).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use osss_core::{sched::Fcfs, SharedObject};
use osss_sim::{Context, Frequency, SimResult, SimTime, Simulation};

use crate::channel::{Channel, ChannelStats};

/// Timing parameters of a shared bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusConfig {
    /// Bus clock.
    pub freq: Frequency,
    /// Arbitration + address phase, in cycles, paid once per transfer.
    pub arbitration_cycles: u64,
    /// Data cycles per 32-bit word (OPB-style single-beat transfers are
    /// not pipelined; 3 covers request/transfer/acknowledge).
    pub cycles_per_word: u64,
}

impl BusConfig {
    /// The case-study configuration: 100 MHz OPB, 1 arbitration cycle,
    /// 3 cycles per word.
    pub fn opb_100mhz() -> Self {
        BusConfig {
            freq: Frequency::mhz(100),
            arbitration_cycles: 1,
            cycles_per_word: 3,
        }
    }
}

/// A shared bus: all masters' transfers serialise through one arbiter,
/// so contention grows with the number of competing processors — the
/// effect that separates model 7a from 6a in Table 1.
///
/// # Example
///
/// ```
/// use osss_sim::{Simulation, SimTime};
/// use osss_vta::{BusConfig, Channel, OpbBus};
///
/// # fn main() -> Result<(), osss_sim::SimError> {
/// let mut sim = Simulation::new();
/// let bus = OpbBus::new(&mut sim, "opb", BusConfig::opb_100mhz());
/// for i in 0..2 {
///     let bus = bus.clone();
///     sim.spawn_process(&format!("master{i}"), move |ctx| {
///         bus.transfer(ctx, 100) // 1 + 100×3 cycles each
///     });
/// }
/// // Two 301-cycle transfers serialise: 602 cycles at 10 ns.
/// assert_eq!(sim.run()?.end_time, SimTime::ns(6020));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OpbBus {
    so: SharedObject<()>,
    config: BusConfig,
    words: Arc<AtomicU64>,
}

impl OpbBus {
    /// Creates a bus with FCFS arbitration.
    pub fn new(sim: &mut Simulation, name: &str, config: BusConfig) -> Self {
        OpbBus {
            so: SharedObject::new(sim, name, (), Fcfs::new()),
            config,
            words: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The duration of a `words`-word transfer excluding arbitration wait.
    pub fn transfer_time(&self, words: usize) -> SimTime {
        self.config
            .freq
            .cycles(self.config.arbitration_cycles + self.config.cycles_per_word * words as u64)
    }
}

impl Channel for OpbBus {
    fn transfer(&self, ctx: &Context, words: usize) -> SimResult<()> {
        let dur = self.transfer_time(words);
        self.words.fetch_add(words as u64, Ordering::Relaxed);
        self.so.call(ctx, |_, ctx| ctx.wait(dur))
    }

    fn name(&self) -> String {
        self.so.name().to_string()
    }

    fn stats(&self) -> ChannelStats {
        let s = self.so.stats();
        ChannelStats {
            transfers: s.calls,
            words: self.words.load(Ordering::Relaxed),
            busy: s.total_busy,
            arbitration_wait: s.total_arbitration_wait,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_formula() {
        let mut sim = Simulation::new();
        let bus = OpbBus::new(&mut sim, "opb", BusConfig::opb_100mhz());
        assert_eq!(bus.transfer_time(0), SimTime::ns(10)); // arbitration only
        assert_eq!(bus.transfer_time(1), SimTime::ns(40)); // 1 + 3 cycles
        assert_eq!(bus.transfer_time(1000), SimTime::ns(30_010));
        drop(sim);
    }

    #[test]
    fn contention_accumulates_with_masters() {
        for masters in [1usize, 2, 4] {
            let mut sim = Simulation::new();
            let bus = OpbBus::new(&mut sim, "opb", BusConfig::opb_100mhz());
            for i in 0..masters {
                let bus = bus.clone();
                sim.spawn_process(&format!("m{i}"), move |ctx| bus.transfer(ctx, 50));
            }
            let per_transfer = bus.transfer_time(50);
            let report = sim.run().expect("run");
            assert_eq!(report.end_time, per_transfer * masters as u64);
            let stats = bus.stats();
            assert_eq!(stats.transfers, masters as u64);
            assert_eq!(stats.words, 50 * masters as u64);
            assert_eq!(stats.busy, per_transfer * masters as u64);
        }
    }

    #[test]
    fn interleaved_transfers_preserve_order() {
        let mut sim = Simulation::new();
        let bus = OpbBus::new(&mut sim, "opb", BusConfig::opb_100mhz());
        let b1 = bus.clone();
        sim.spawn_process("early", move |ctx| {
            b1.transfer(ctx, 10)?;
            b1.transfer(ctx, 10)
        });
        let b2 = bus.clone();
        sim.spawn_process("late", move |ctx| {
            ctx.wait(SimTime::ns(5))?;
            b2.transfer(ctx, 10)
        });
        let report = sim.run().expect("run");
        // Three 31-cycle transfers back to back.
        assert_eq!(report.end_time, SimTime::ns(930));
        assert!(bus.stats().arbitration_wait > SimTime::ZERO);
    }
}
