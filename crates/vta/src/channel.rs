//! The OSSS Channel abstraction: anything that can carry serialised words.

use osss_sim::{Context, SimResult, SimTime};

/// Aggregate statistics of one channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChannelStats {
    /// Completed transfers.
    pub transfers: u64,
    /// Total words moved.
    pub words: u64,
    /// Time the channel spent actively transferring.
    pub busy: SimTime,
    /// Time clients spent waiting for channel arbitration.
    pub arbitration_wait: SimTime,
}

impl ChannelStats {
    /// Accumulates `other` into `self`, saturating at the numeric bounds
    /// (a long soak simulation must peg its counters, not wrap or
    /// panic). Report paths use this to combine the snapshots of several
    /// channels — or of one channel across workers — into a single
    /// transport row.
    pub fn merge(&mut self, other: &ChannelStats) {
        self.transfers = self.transfers.saturating_add(other.transfers);
        self.words = self.words.saturating_add(other.words);
        self.busy = self.busy.saturating_add(other.busy);
        self.arbitration_wait = self.arbitration_wait.saturating_add(other.arbitration_wait);
    }

    /// Exports the snapshot into `reg` as `<prefix>.transfers`,
    /// `<prefix>.words`, `<prefix>.busy_ps` and `<prefix>.arb_wait_ps`.
    pub fn export_to(&self, reg: &osss_sim::probe::MetricsRegistry, prefix: &str) {
        reg.add_counter(&format!("{prefix}.transfers"), self.transfers);
        reg.add_counter(&format!("{prefix}.words"), self.words);
        reg.add_counter(&format!("{prefix}.busy_ps"), self.busy.as_ps());
        reg.add_counter(
            &format!("{prefix}.arb_wait_ps"),
            self.arbitration_wait.as_ps(),
        );
    }
}

/// What became of one transfer on an imperfect channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferOutcome {
    /// Every word arrived intact.
    Clean,
    /// The frame arrived, but some of its words were damaged in flight —
    /// a CRC-protected receiver will reject it.
    Corrupt {
        /// Number of damaged words.
        corrupt_words: u64,
    },
    /// The frame was lost entirely; the receiver never sees it.
    Dropped,
}

/// A physical communication resource of the Virtual Target Architecture.
///
/// The RMI layer ([`crate::RmiService`]) is written against this trait,
/// which is the paper's key refinement property: swapping the shared OPB
/// bus for point-to-point links (models 6a → 6b, 7a → 7b) changes only
/// the channel object, never the behavioural code.
pub trait Channel: Send + Sync {
    /// Moves `words` 32-bit words across the channel on behalf of the
    /// calling process, blocking through arbitration and transfer time.
    ///
    /// # Errors
    ///
    /// [`osss_sim::SimError::Terminated`] when the simulation is shutting
    /// down.
    fn transfer(&self, ctx: &Context, words: usize) -> SimResult<()>;

    /// Like [`Channel::transfer`], but reports what became of the frame.
    ///
    /// Ideal channels deliver every frame intact, so the default
    /// implementation pays the same arbitration and transfer time as
    /// [`Channel::transfer`] and reports [`TransferOutcome::Clean`].
    /// Lossy decorators ([`crate::FaultyChannel`]) override it; note that
    /// time is consumed even for dropped frames — the words still
    /// occupied the wires.
    ///
    /// # Errors
    ///
    /// [`osss_sim::SimError::Terminated`] when the simulation is shutting
    /// down.
    fn transfer_outcome(&self, ctx: &Context, words: usize) -> SimResult<TransferOutcome> {
        self.transfer(ctx, words)?;
        Ok(TransferOutcome::Clean)
    }

    /// The channel's name (for reports).
    fn name(&self) -> String;

    /// Statistics snapshot.
    fn stats(&self) -> ChannelStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_saturates_at_the_u64_boundary() {
        let mut a = ChannelStats {
            transfers: u64::MAX - 2,
            words: u64::MAX,
            busy: SimTime::MAX,
            arbitration_wait: SimTime::ZERO,
        };
        let b = ChannelStats {
            transfers: 5,
            words: 1,
            busy: SimTime::ns(1),
            arbitration_wait: SimTime::MAX,
        };
        a.merge(&b);
        assert_eq!(a.transfers, u64::MAX);
        assert_eq!(a.words, u64::MAX);
        assert_eq!(a.busy, SimTime::MAX);
        assert_eq!(a.arbitration_wait, SimTime::MAX);
        // Merging a default is the identity.
        let before = a;
        a.merge(&ChannelStats::default());
        assert_eq!(a, before);
    }
}
