//! Dedicated point-to-point channels.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use osss_core::{sched::Fcfs, SharedObject};
use osss_sim::{Context, Frequency, SimResult, SimTime, Simulation};

use crate::channel::{Channel, ChannelStats};

/// A dedicated point-to-point link: one word per cycle, no shared-medium
/// contention (only back-to-back transfers on the *same* link queue).
///
/// Mapping the IDWT-block links onto P2P channels instead of the shared
/// bus is the 6a → 6b / 7a → 7b refinement of the case study.
#[derive(Debug, Clone)]
pub struct P2pChannel {
    so: SharedObject<()>,
    freq: Frequency,
    cycles_per_word: u64,
    words: Arc<AtomicU64>,
}

impl P2pChannel {
    /// Creates a link clocked at `freq`, one word per cycle.
    pub fn new(sim: &mut Simulation, name: &str, freq: Frequency) -> Self {
        P2pChannel {
            so: SharedObject::new(sim, name, (), Fcfs::new()),
            freq,
            cycles_per_word: 1,
            words: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The duration of a `words`-word transfer.
    pub fn transfer_time(&self, words: usize) -> SimTime {
        self.freq.cycles(self.cycles_per_word * words.max(1) as u64)
    }
}

impl Channel for P2pChannel {
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
    fn p2p_is_faster_than_bus_for_same_payload() {
        use crate::bus::{BusConfig, OpbBus};
        let mut sim = Simulation::new();
        let p2p = P2pChannel::new(&mut sim, "link", Frequency::mhz(100));
        let bus = OpbBus::new(&mut sim, "opb", BusConfig::opb_100mhz());
        assert!(p2p.transfer_time(1000) < bus.transfer_time(1000));
        drop(sim);
    }

    #[test]
    fn independent_links_do_not_contend() {
        let mut sim = Simulation::new();
        for i in 0..3 {
            let link = P2pChannel::new(&mut sim, &format!("link{i}"), Frequency::mhz(100));
            sim.spawn_process(&format!("m{i}"), move |ctx| link.transfer(ctx, 1000));
        }
        // All three 1000-cycle transfers run in parallel.
        assert_eq!(sim.run().expect("run").end_time, SimTime::us(10));
    }

    #[test]
    fn same_link_serialises() {
        let mut sim = Simulation::new();
        let link = P2pChannel::new(&mut sim, "link", Frequency::mhz(100));
        for i in 0..2 {
            let link = link.clone();
            sim.spawn_process(&format!("m{i}"), move |ctx| link.transfer(ctx, 1000));
        }
        assert_eq!(sim.run().expect("run").end_time, SimTime::us(20));
    }

    #[test]
    fn zero_word_transfer_costs_one_cycle() {
        let mut sim = Simulation::new();
        let link = P2pChannel::new(&mut sim, "link", Frequency::mhz(100));
        assert_eq!(link.transfer_time(0), SimTime::ns(10));
        drop(sim);
    }
}
