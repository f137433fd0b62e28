//! Deterministic transport fault injection.
//!
//! [`FaultyChannel`] decorates any [`Channel`] (OPB bus, P2P link) with a
//! seeded fault process: per-word bit flips and whole-transfer drops.
//! Faults are keyed off a monotonic transfer counter hashed with the
//! seed — never off wall-clock or a global RNG — so every replay of a
//! simulation is bit-identical, which is what makes fault-sweep
//! experiments and their regression tests reproducible.
//!
//! The decorator is transparent for timing bookkeeping: `stats()`
//! forwards to the inner channel (words still occupy the wires whether
//! or not they arrive intact), while the injected faults are accounted
//! separately in [`FaultStats`].

use std::sync::{Arc, Mutex};

use crate::channel::{Channel, ChannelStats, TransferOutcome};
use osss_sim::{lock_unpoisoned, Context, SimResult};

/// Domain-separation constants for the per-fault-kind hash streams.
const STREAM_TRANSFER: u64 = 0x7452_414E_5346_4552; // "TRANSFER"
const STREAM_DROP: u64 = 0x4452_4F50_4452_4F50; // "DROPDROP"
const STREAM_FLIP: u64 = 0x464C_4950_464C_4950; // "FLIPFLIP"

/// A splitmix64-style hash of `(seed, stream, n)`.
///
/// Used as the deterministic noise source for fault decisions and for
/// retry-backoff jitter: same inputs, same 64 bits, on every run and
/// every platform.
pub(crate) fn mix(seed: u64, stream: u64, n: u64) -> u64 {
    let mut z =
        seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ n.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform value in `[0, 1)` with 53 bits of precision.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The seeded fault process driving one [`FaultyChannel`].
///
/// All rates are probabilities in `[0, 1]` evaluated against the
/// deterministic hash stream; `none(seed)` is the identity process (no
/// faults at any rate), useful for transparency tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for the deterministic fault streams.
    pub seed: u64,
    /// Probability that any single transferred word is damaged.
    pub bit_flip_per_word: f64,
    /// Probability that a whole transfer is lost.
    pub drop_rate: f64,
}

impl FaultConfig {
    /// A fault-free process: the decorator becomes a pure pass-through.
    pub fn none(seed: u64) -> Self {
        FaultConfig {
            seed,
            bit_flip_per_word: 0.0,
            drop_rate: 0.0,
        }
    }

    /// Sets the per-word bit-flip probability.
    pub fn with_bit_flips(mut self, rate: f64) -> Self {
        self.bit_flip_per_word = rate;
        self
    }

    /// Sets the dropped-transfer probability.
    pub fn with_drops(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }
}

/// What the fault process did to the traffic of one channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Transfers that crossed the decorator.
    pub transfers: u64,
    /// Words that crossed the decorator.
    pub words: u64,
    /// Transfers lost entirely.
    pub dropped: u64,
    /// Transfers delivered with at least one damaged word.
    pub corrupt_transfers: u64,
    /// Total damaged words.
    pub corrupt_words: u64,
}

struct FaultState {
    /// Monotonic transfer counter: the deterministic fault-stream index.
    counter: u64,
    stats: FaultStats,
}

/// A [`Channel`] decorator that injects deterministic transport faults.
///
/// Wraps any inner channel; ideal callers (`Channel::transfer`) see
/// dropped and corrupted frames as silently delivered — only
/// [`Channel::transfer_outcome`] callers (the reliable RMI layer) learn
/// the frame's fate. Timing is always truthful: a dropped frame pays the
/// same arbitration and wire time as a delivered one.
///
/// # Example
///
/// ```
/// use osss_sim::{Simulation, Frequency};
/// use osss_vta::{Channel, FaultConfig, FaultyChannel, P2pChannel, TransferOutcome};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), osss_sim::SimError> {
/// let mut sim = Simulation::new();
/// let link = Arc::new(P2pChannel::new(&mut sim, "link", Frequency::mhz(100)));
/// let faulty = Arc::new(FaultyChannel::new(link, FaultConfig::none(42).with_drops(1.0)));
/// let probe = Arc::clone(&faulty);
/// sim.spawn_process("client", move |ctx| {
///     assert_eq!(probe.transfer_outcome(ctx, 64)?, TransferOutcome::Dropped);
///     Ok(())
/// });
/// sim.run()?.expect_all_finished()?;
/// assert_eq!(faulty.fault_stats().dropped, 1);
/// # Ok(())
/// # }
/// ```
pub struct FaultyChannel {
    inner: Arc<dyn Channel>,
    config: FaultConfig,
    state: Mutex<FaultState>,
}

impl FaultyChannel {
    /// Wraps `inner` with the fault process described by `config`.
    pub fn new(inner: Arc<dyn Channel>, config: FaultConfig) -> Self {
        FaultyChannel {
            inner,
            config,
            state: Mutex::new(FaultState {
                counter: 0,
                stats: FaultStats::default(),
            }),
        }
    }

    /// Snapshot of the injected-fault accounting.
    pub fn fault_stats(&self) -> FaultStats {
        lock_unpoisoned(&self.state).stats
    }
}

impl Channel for FaultyChannel {
    fn transfer(&self, ctx: &Context, words: usize) -> SimResult<()> {
        self.transfer_outcome(ctx, words).map(|_| ())
    }

    fn transfer_outcome(&self, ctx: &Context, words: usize) -> SimResult<TransferOutcome> {
        let cfg = &self.config;
        let n = {
            let mut st = lock_unpoisoned(&self.state);
            let n = st.counter;
            st.counter += 1;
            n
        };
        let base = mix(cfg.seed, STREAM_TRANSFER, n);

        // The words occupy the wires whether or not they arrive intact,
        // so the inner channel's time and stats are always paid.
        self.inner.transfer(ctx, words)?;

        let outcome = if cfg.drop_rate > 0.0 && unit(mix(base, STREAM_DROP, 0)) < cfg.drop_rate {
            TransferOutcome::Dropped
        } else if cfg.bit_flip_per_word > 0.0 {
            let corrupt_words = (0..words as u64)
                .filter(|&w| unit(mix(base, STREAM_FLIP, w)) < cfg.bit_flip_per_word)
                .count() as u64;
            if corrupt_words > 0 {
                TransferOutcome::Corrupt { corrupt_words }
            } else {
                TransferOutcome::Clean
            }
        } else {
            TransferOutcome::Clean
        };

        let mut st = lock_unpoisoned(&self.state);
        let s = &mut st.stats;
        s.transfers = s.transfers.saturating_add(1);
        s.words = s.words.saturating_add(words as u64);
        match outcome {
            TransferOutcome::Dropped => s.dropped = s.dropped.saturating_add(1),
            TransferOutcome::Corrupt { corrupt_words } => {
                s.corrupt_transfers = s.corrupt_transfers.saturating_add(1);
                s.corrupt_words = s.corrupt_words.saturating_add(corrupt_words);
            }
            TransferOutcome::Clean => {}
        }
        Ok(outcome)
    }

    fn name(&self) -> String {
        format!("faulty({})", self.inner.name())
    }

    fn stats(&self) -> ChannelStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::p2p::P2pChannel;
    use osss_sim::{Frequency, Simulation};

    fn run_outcomes(
        config: FaultConfig,
        transfers: usize,
        words: usize,
    ) -> (Vec<bool>, FaultStats) {
        let mut sim = Simulation::new();
        let link = Arc::new(P2pChannel::new(&mut sim, "link", Frequency::mhz(100)));
        let faulty = Arc::new(FaultyChannel::new(link, config));
        let probe = Arc::clone(&faulty);
        let out = Arc::new(Mutex::new(Vec::new()));
        let out2 = Arc::clone(&out);
        sim.spawn_process("client", move |ctx| {
            for _ in 0..transfers {
                let o = probe.transfer_outcome(ctx, words)?;
                lock_unpoisoned(&out2).push(o == TransferOutcome::Clean);
            }
            Ok(())
        });
        sim.run()
            .expect("run")
            .expect_all_finished()
            .expect("all done");
        let v = lock_unpoisoned(&out).clone();
        (v, faulty.fault_stats())
    }

    #[test]
    fn same_seed_replays_bit_identically() {
        let cfg = FaultConfig::none(7).with_drops(0.3).with_bit_flips(0.01);
        let (a, sa) = run_outcomes(cfg, 50, 32);
        let (b, sb) = run_outcomes(cfg, 50, 32);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(
            sa.dropped > 0 || sa.corrupt_transfers > 0,
            "faults expected"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = FaultConfig::none(1).with_drops(0.5);
        let (a, _) = run_outcomes(cfg, 64, 8);
        let (b, _) = run_outcomes(FaultConfig { seed: 2, ..cfg }, 64, 8);
        assert_ne!(a, b, "two seeds matching on 64 transfers is ~2^-64");
    }

    #[test]
    fn zero_rates_are_fully_transparent() {
        let (outcomes, stats) = run_outcomes(FaultConfig::none(99), 20, 16);
        assert!(outcomes.iter().all(|&c| c));
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.corrupt_transfers, 0);
        assert_eq!(stats.transfers, 20);
        assert_eq!(stats.words, 320);
    }

    #[test]
    fn drop_rate_one_loses_every_transfer() {
        let (outcomes, stats) = run_outcomes(FaultConfig::none(3).with_drops(1.0), 10, 4);
        assert!(outcomes.iter().all(|&c| !c));
        assert_eq!(stats.dropped, 10);
    }

    #[test]
    fn flip_rate_one_corrupts_every_word() {
        let (outcomes, stats) = run_outcomes(FaultConfig::none(4).with_bit_flips(1.0), 5, 8);
        assert!(outcomes.iter().all(|&c| !c));
        assert_eq!(stats.corrupt_transfers, 5);
        assert_eq!(stats.corrupt_words, 40);
    }
}
