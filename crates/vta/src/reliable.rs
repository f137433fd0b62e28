//! Reliable RMI: CRC-framed transfers with timeout, retry, and backoff.
//!
//! [`RmiService`] assumes a perfect transport. [`ReliableRmi`] wraps it
//! for lossy channels ([`crate::FaultyChannel`]): every frame carries a
//! payload-length + CRC32 trailer ([`RELIABLE_TRAILER_WORDS`] words), the
//! receiver rejects damaged frames, and a [`RetryPolicy`] re-sends them —
//! deadline via [`Context::wait_event_timeout`], bounded retries,
//! simulated-time exponential backoff with deterministic jitter. The
//! method body still executes **exactly once**: only transport phases
//! retry (on a response-phase failure the server's cached reply is
//! re-transferred, so the client only re-pays wire time).
//!
//! All randomness comes from the same seeded hash stream as the fault
//! layer, so a fault-sweep replay is bit-identical.

use std::sync::{Arc, Mutex, OnceLock};

use osss_sim::checksum::crc32;
use osss_sim::{lock_unpoisoned, Context, Event, SimError, SimResult, SimTime};

use crate::channel::TransferOutcome;
use crate::fault::mix;
use crate::rmi::{RmiService, RMI_HEADER_WORDS};
use crate::serialise::{Serialise, WORD_BYTES};

/// Words of reliability framing per message: payload length + CRC32.
pub const RELIABLE_TRAILER_WORDS: usize = 2;

const FRAME_TRAILER_BYTES: usize = RELIABLE_TRAILER_WORDS * WORD_BYTES;

/// Why a reliable invocation failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum RmiError {
    /// No valid frame arrived before the deadline (retries disabled).
    Timeout,
    /// A frame arrived but failed its CRC check (retries disabled).
    CorruptFrame,
    /// The retry budget ran out before a clean exchange.
    RetriesExhausted {
        /// Transport failures seen by this invocation.
        attempts: u32,
        /// How many of them were deadline expiries.
        timeouts: u32,
        /// How many of them were CRC rejections.
        crc_failures: u32,
    },
    /// The simulation kernel failed underneath the protocol.
    Sim(SimError),
}

impl From<SimError> for RmiError {
    fn from(e: SimError) -> Self {
        RmiError::Sim(e)
    }
}

impl std::fmt::Display for RmiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RmiError::Timeout => write!(f, "no frame arrived before the deadline"),
            RmiError::CorruptFrame => write!(f, "frame rejected by CRC check"),
            RmiError::RetriesExhausted {
                attempts,
                timeouts,
                crc_failures,
            } => write!(
                f,
                "retry budget exhausted after {attempts} transport failures \
                 ({timeouts} timeouts, {crc_failures} CRC rejections)"
            ),
            RmiError::Sim(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl std::error::Error for RmiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RmiError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

/// Appends the reliability trailer to `value`'s serialised payload:
/// `payload ++ len(u32) ++ crc32(u32)`, both big-endian.
pub fn encode_frame<A: Serialise + ?Sized>(value: &A) -> Vec<u8> {
    let mut out = Vec::with_capacity(value.serialised_bytes() + FRAME_TRAILER_BYTES);
    value.write(&mut out);
    let crc = crc32(&out);
    (out.len() as u32).write(&mut out);
    crc.write(&mut out);
    out
}

/// Verifies a frame's trailer; returns the payload length in bytes.
///
/// # Errors
///
/// [`RmiError::CorruptFrame`] when the frame is shorter than its trailer,
/// the recorded length disagrees with the payload, or the CRC mismatches.
pub fn check_frame(frame: &[u8]) -> Result<usize, RmiError> {
    if frame.len() < FRAME_TRAILER_BYTES {
        return Err(RmiError::CorruptFrame);
    }
    let (payload, trailer) = frame.split_at(frame.len() - FRAME_TRAILER_BYTES);
    let len = u32::from_be_bytes(trailer[..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_be_bytes(trailer[4..].try_into().expect("4 bytes"));
    if len != payload.len() || crc != crc32(payload) {
        return Err(RmiError::CorruptFrame);
    }
    Ok(len)
}

/// Deadline, retry budget, and backoff shape of a [`ReliableRmi`] client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// How long to wait for a frame before declaring it lost.
    pub timeout: SimTime,
    /// Transport failures tolerated per invocation before giving up.
    pub max_retries: u32,
    /// Backoff before the first re-send; doubles per failure.
    pub backoff_base: SimTime,
    /// Upper bound on the exponential backoff (before jitter).
    pub backoff_cap: SimTime,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// A policy with the given deadline: 3 retries, backoff from a
    /// quarter of the deadline up to four deadlines, fixed jitter seed.
    pub fn new(timeout: SimTime) -> Self {
        RetryPolicy {
            timeout,
            max_retries: 3,
            backoff_base: timeout / 4,
            backoff_cap: SimTime::ps(timeout.as_ps().saturating_mul(4)),
            jitter_seed: 0x52E7_5259,
        }
    }

    /// Sets the retry budget (0 disables retries entirely).
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// The backoff before re-send number `attempt` (1-based) of
    /// invocation `invoke_n`: exponential with cap, plus deterministic
    /// jitter of up to a quarter of the capped value.
    pub fn backoff(&self, invoke_n: u64, attempt: u32) -> SimTime {
        let shift = attempt.saturating_sub(1).min(32);
        let exp = self.backoff_base.as_ps().saturating_mul(1u64 << shift);
        let capped = exp.min(self.backoff_cap.as_ps());
        let jitter = if capped == 0 {
            0
        } else {
            mix(self.jitter_seed, invoke_n, attempt as u64) % (capped / 4 + 1)
        };
        SimTime::ps(capped.saturating_add(jitter))
    }
}

/// Protocol accounting of one [`ReliableRmi`] client handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RmiStats {
    /// Invocations started.
    pub invokes: u64,
    /// Invocations that returned a value.
    pub completed: u64,
    /// Completed invocations that needed at least one re-send.
    pub recovered: u64,
    /// Invocations abandoned past the retry budget.
    pub failed: u64,
    /// Frame re-sends.
    pub retries: u64,
    /// Deadline expiries observed.
    pub timeouts: u64,
    /// CRC rejections observed.
    pub crc_failures: u64,
    /// Words of useful traffic delivered (headers + payload).
    pub payload_words: u64,
    /// Words spent on trailers and on failed frames.
    pub overhead_words: u64,
    /// Simulated time spent in backoff waits.
    pub backoff_time: SimTime,
    /// Total simulated time inside invocations.
    pub invoke_time: SimTime,
}

/// What the transport did to one frame, from the client's perspective.
#[derive(Clone, Copy)]
enum FrameFault {
    /// Nothing valid arrived before the deadline.
    Timeout,
    /// A frame arrived and was rejected by the CRC check.
    Crc,
}

/// Running tallies of one invocation's transport failures.
#[derive(Default)]
struct Failures {
    attempts: u32,
    timeouts: u32,
    crc_failures: u32,
}

struct ReliableShared {
    stats: Mutex<RmiStats>,
    /// Never notified: an honest deadline wait routed through
    /// [`Context::wait_event_timeout`] so the kernel's pinned
    /// exact-deadline tie-break governs the protocol.
    deadline: OnceLock<Event>,
}

/// A retrying, CRC-checked client handle around an [`RmiService`].
///
/// # Example
///
/// ```
/// use osss_sim::{Simulation, SimTime, Frequency};
/// use osss_core::{SharedObject, sched::Fcfs};
/// use osss_vta::{FaultConfig, FaultyChannel, P2pChannel, ReliableRmi, RetryPolicy, RmiService};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), osss_sim::SimError> {
/// let mut sim = Simulation::new();
/// let so = SharedObject::new(&mut sim, "coproc", 0i64, Fcfs::new());
/// let link = Arc::new(P2pChannel::new(&mut sim, "link", Frequency::mhz(100)));
/// // Drop a third of all frames; the retry policy hides it.
/// let faulty = Arc::new(FaultyChannel::new(link, FaultConfig::none(11).with_drops(0.33)));
/// let policy = RetryPolicy::new(SimTime::us(50)).with_max_retries(8);
/// let rmi = ReliableRmi::new(RmiService::new(so, faulty), policy);
/// let stats = rmi.clone();
///
/// sim.spawn_process("client", move |ctx| {
///     for i in 0..10i64 {
///         let v = rmi
///             .try_invoke_guarded(ctx, &i, &0i64, |_| true, |state, _| {
///                 *state += i;
///                 Ok(*state)
///             })
///             .expect("within retry budget");
///         assert!(v >= i);
///     }
///     Ok(())
/// });
/// sim.run()?.expect_all_finished()?;
/// assert_eq!(stats.stats().completed, 10);
/// # Ok(())
/// # }
/// ```
pub struct ReliableRmi<T> {
    rmi: RmiService<T>,
    policy: RetryPolicy,
    shared: Arc<ReliableShared>,
}

impl<T> Clone for ReliableRmi<T> {
    fn clone(&self) -> Self {
        ReliableRmi {
            rmi: self.rmi.clone(),
            policy: self.policy,
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> std::fmt::Debug for ReliableRmi<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReliableRmi")
            .field("rmi", &self.rmi)
            .field("policy", &self.policy)
            .finish()
    }
}

impl<T: Send + 'static> ReliableRmi<T> {
    /// Wraps `rmi` with `policy`.
    pub fn new(rmi: RmiService<T>, policy: RetryPolicy) -> Self {
        ReliableRmi {
            rmi,
            policy,
            shared: Arc::new(ReliableShared {
                stats: Mutex::new(RmiStats::default()),
                deadline: OnceLock::new(),
            }),
        }
    }

    /// Snapshot of the protocol accounting.
    pub fn stats(&self) -> RmiStats {
        *lock_unpoisoned(&self.shared.stats)
    }

    /// Like [`RmiService::invoke_guarded`], but CRC-framed and retried
    /// per the policy. `f` executes exactly once even when transfers
    /// retry; the deadline covers transport only, never the object-side
    /// guard wait. An always-true guard makes it a plain reliable call.
    ///
    /// # Errors
    ///
    /// A transport [`RmiError`] past the retry budget, or
    /// [`RmiError::Sim`] when the kernel is shutting down.
    pub fn try_invoke_guarded<A: Serialise + ?Sized, S: Serialise + ?Sized, R>(
        &self,
        ctx: &Context,
        args: &A,
        result_shape: &S,
        guard: impl Fn(&T) -> bool,
        f: impl FnOnce(&mut T, &Context) -> SimResult<R>,
    ) -> Result<R, RmiError> {
        let t0 = ctx.now();
        let invoke_n = {
            let mut st = lock_unpoisoned(&self.shared.stats);
            st.invokes = st.invokes.saturating_add(1);
            st.invokes
        };
        let mut failures = Failures::default();

        let req_frame = encode_frame(args);
        let req_words = RMI_HEADER_WORDS + args.serialised_words() + RELIABLE_TRAILER_WORDS;
        loop {
            match self.send_frame(ctx, &req_frame, req_words, true)? {
                None => break,
                Some(fault) => self.note_failure(ctx, invoke_n, fault, &mut failures)?,
            }
        }

        // The clean request crossed: the method body runs exactly once.
        let out = self
            .rmi
            .so()
            .call_guarded(ctx, guard, f)
            .map_err(RmiError::Sim)?;

        // The server caches the reply; a failed response only re-pays
        // the transfer (and the client's deadline), never re-runs `f`.
        let resp_frame = encode_frame(result_shape);
        let resp_words =
            RMI_HEADER_WORDS + result_shape.serialised_words() + RELIABLE_TRAILER_WORDS;
        loop {
            match self.send_frame(ctx, &resp_frame, resp_words, false)? {
                None => break,
                Some(fault) => self.note_failure(ctx, invoke_n, fault, &mut failures)?,
            }
        }

        let mut st = lock_unpoisoned(&self.shared.stats);
        st.completed = st.completed.saturating_add(1);
        if failures.attempts > 0 {
            st.recovered = st.recovered.saturating_add(1);
        }
        st.invoke_time = st
            .invoke_time
            .saturating_add(ctx.now().checked_sub(t0).unwrap_or(SimTime::ZERO));
        Ok(out)
    }

    /// Pushes one frame across the channel; `Ok(None)` means delivered.
    ///
    /// A faulted *request* costs the client its full deadline either way:
    /// a dropped frame never arrives, a corrupted one is discarded
    /// silently by the receiver's CRC check. A corrupted *response* is
    /// detected by the client's own CRC check the moment it lands; only
    /// a dropped response runs out the deadline.
    fn send_frame(
        &self,
        ctx: &Context,
        frame: &[u8],
        words: usize,
        is_request: bool,
    ) -> Result<Option<FrameFault>, RmiError> {
        let outcome = self.rmi.channel().transfer_outcome(ctx, words)?;
        match outcome {
            TransferOutcome::Clean => {
                debug_assert!(check_frame(frame).is_ok());
                let mut st = lock_unpoisoned(&self.shared.stats);
                st.payload_words = st
                    .payload_words
                    .saturating_add((words - RELIABLE_TRAILER_WORDS) as u64);
                st.overhead_words = st
                    .overhead_words
                    .saturating_add(RELIABLE_TRAILER_WORDS as u64);
                Ok(None)
            }
            TransferOutcome::Corrupt { .. } => {
                // Model the receiver: any bit damage must fail the check.
                debug_assert!({
                    let mut damaged = frame.to_vec();
                    damaged[0] ^= 0x80;
                    check_frame(&damaged).is_err()
                });
                {
                    let mut st = lock_unpoisoned(&self.shared.stats);
                    st.overhead_words = st.overhead_words.saturating_add(words as u64);
                }
                if is_request {
                    self.await_deadline(ctx)?;
                    Ok(Some(FrameFault::Timeout))
                } else {
                    Ok(Some(FrameFault::Crc))
                }
            }
            TransferOutcome::Dropped => {
                let mut st = lock_unpoisoned(&self.shared.stats);
                st.overhead_words = st.overhead_words.saturating_add(words as u64);
                drop(st);
                self.await_deadline(ctx)?;
                Ok(Some(FrameFault::Timeout))
            }
        }
    }

    /// Waits out the full deadline through the kernel's pinned
    /// [`Context::wait_event_timeout`] exact-deadline tie-break.
    fn await_deadline(&self, ctx: &Context) -> Result<(), RmiError> {
        let ev = self
            .shared
            .deadline
            .get_or_init(|| ctx.event("rmi.deadline"));
        let fired = ctx.wait_event_timeout(ev, self.policy.timeout)?;
        debug_assert!(!fired, "the deadline event is never notified");
        Ok(())
    }

    fn note_failure(
        &self,
        ctx: &Context,
        invoke_n: u64,
        fault: FrameFault,
        failures: &mut Failures,
    ) -> Result<(), RmiError> {
        failures.attempts += 1;
        {
            let mut st = lock_unpoisoned(&self.shared.stats);
            match fault {
                FrameFault::Timeout => {
                    st.timeouts = st.timeouts.saturating_add(1);
                    failures.timeouts += 1;
                }
                FrameFault::Crc => {
                    st.crc_failures = st.crc_failures.saturating_add(1);
                    failures.crc_failures += 1;
                }
            }
        }
        if failures.attempts > self.policy.max_retries {
            {
                let mut st = lock_unpoisoned(&self.shared.stats);
                st.failed = st.failed.saturating_add(1);
            }
            return Err(if self.policy.max_retries == 0 {
                match fault {
                    FrameFault::Timeout => RmiError::Timeout,
                    FrameFault::Crc => RmiError::CorruptFrame,
                }
            } else {
                RmiError::RetriesExhausted {
                    attempts: failures.attempts,
                    timeouts: failures.timeouts,
                    crc_failures: failures.crc_failures,
                }
            });
        }
        let wait = self.policy.backoff(invoke_n, failures.attempts);
        {
            let mut st = lock_unpoisoned(&self.shared.stats);
            st.retries = st.retries.saturating_add(1);
            st.backoff_time = st.backoff_time.saturating_add(wait);
        }
        if !wait.is_zero() {
            ctx.wait(wait)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{BusConfig, OpbBus};
    use crate::channel::Channel;
    use crate::fault::{FaultConfig, FaultyChannel};
    use crate::p2p::P2pChannel;
    use osss_core::{sched::Fcfs, SharedObject};
    use osss_sim::{Frequency, Simulation};

    #[test]
    fn frames_roundtrip_and_reject_damage() {
        let v: Vec<i32> = (0..50).collect();
        let frame = encode_frame(&v);
        assert_eq!(frame.len(), v.serialised_bytes() + FRAME_TRAILER_BYTES);
        assert_eq!(check_frame(&frame).expect("clean"), v.serialised_bytes());
        // Damage anywhere — payload, length, CRC — must be caught.
        for pos in [0, 17, frame.len() - 7, frame.len() - 1] {
            let mut bad = frame.clone();
            bad[pos] ^= 0x01;
            assert!(check_frame(&bad).is_err(), "flip at {pos} undetected");
        }
        assert!(check_frame(&[0u8; 7]).is_err(), "short frame must fail");
        // The empty payload still carries a valid trailer.
        let empty = encode_frame(&());
        assert_eq!(check_frame(&empty).expect("clean"), 0);
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let p = RetryPolicy::new(SimTime::us(100));
        assert_eq!(p.backoff(3, 1), p.backoff(3, 1));
        assert_ne!(p.backoff(3, 1), p.backoff(4, 1), "jitter varies per invoke");
        // Grows roughly exponentially until the cap.
        let b1 = p.backoff(1, 1);
        let b4 = p.backoff(1, 4);
        assert!(b4 > b1);
        let b_huge = p.backoff(1, 60);
        assert!(b_huge <= SimTime::ps(p.backoff_cap.as_ps() + p.backoff_cap.as_ps() / 4 + 1));
    }

    fn lossy_fixture(
        config: FaultConfig,
        policy: RetryPolicy,
        calls: i64,
    ) -> (Result<i64, String>, RmiStats, SimTime) {
        let mut sim = Simulation::new();
        let so = SharedObject::new(&mut sim, "so", 0i64, Fcfs::new());
        let link = Arc::new(P2pChannel::new(&mut sim, "link", Frequency::mhz(100)));
        let faulty = Arc::new(FaultyChannel::new(link, config));
        let rmi = ReliableRmi::new(RmiService::new(so, faulty), policy);
        let probe = rmi.clone();
        let out = Arc::new(Mutex::new(Ok(0i64)));
        let out2 = Arc::clone(&out);
        sim.spawn_process("client", move |ctx| {
            let mut acc = Ok(0i64);
            for i in 0..calls {
                match rmi.try_invoke_guarded(
                    ctx,
                    &i,
                    &0i64,
                    |_| true,
                    |state, _| {
                        *state += i;
                        Ok(*state)
                    },
                ) {
                    Ok(v) => acc = Ok(v),
                    Err(RmiError::Sim(e)) => return Err(e),
                    Err(e) => {
                        acc = Err(e.to_string());
                        break;
                    }
                }
            }
            *lock_unpoisoned(&out2) = acc;
            Ok(())
        });
        let end = sim.run().expect("run").end_time;
        let result = lock_unpoisoned(&out).clone();
        (result, probe.stats(), end)
    }

    #[test]
    fn fault_free_invoke_pins_the_trailer_overhead() {
        let policy = RetryPolicy::new(SimTime::us(50));
        let (result, stats, _) = lossy_fixture(FaultConfig::none(1), policy, 4);
        assert_eq!(result.expect("clean transport"), 6);
        assert_eq!(stats.invokes, 4);
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.recovered, 0);
        // Exactly two trailers per invoke (request + response), pinned.
        assert_eq!(stats.overhead_words, 4 * 2 * RELIABLE_TRAILER_WORDS as u64);
    }

    #[test]
    fn drops_within_budget_are_recovered_and_deterministic() {
        let cfg = FaultConfig::none(21).with_drops(0.4);
        let policy = RetryPolicy::new(SimTime::us(30)).with_max_retries(16);
        let (r1, s1, t1) = lossy_fixture(cfg, policy, 12);
        let (r2, s2, t2) = lossy_fixture(cfg, policy, 12);
        assert_eq!(r1.clone().expect("recovered"), (0..12).sum::<i64>());
        assert_eq!(r1, r2);
        assert_eq!(s1, s2);
        assert_eq!(t1, t2);
        assert!(s1.retries > 0, "40% drops must trigger retries");
        assert_eq!(s1.completed, 12);
        assert_eq!(s1.failed, 0);
        assert!(s1.timeouts > 0);
        assert!(s1.backoff_time > SimTime::ZERO);
    }

    #[test]
    fn exhausted_budget_reports_the_failure_mix() {
        let cfg = FaultConfig::none(2).with_drops(1.0);
        let policy = RetryPolicy::new(SimTime::us(10)).with_max_retries(2);
        let (result, stats, _) = lossy_fixture(cfg, policy, 1);
        let msg = result.expect_err("nothing can cross a 100% lossy link");
        assert!(msg.contains("retry budget exhausted"), "got: {msg}");
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.timeouts, 3, "initial try + 2 retries");
    }

    #[test]
    fn retries_disabled_classifies_the_single_fault() {
        let drop_cfg = FaultConfig::none(5).with_drops(1.0);
        let policy = RetryPolicy::new(SimTime::us(10)).with_max_retries(0);
        let (result, _, _) = lossy_fixture(drop_cfg, policy, 1);
        let msg = result.expect_err("dropped");
        assert!(msg.contains("deadline"), "got: {msg}");

        let flip_cfg = FaultConfig::none(5).with_bit_flips(1.0);
        let (result, _, _) = lossy_fixture(flip_cfg, policy, 1);
        // A corrupt *request* also surfaces as a deadline expiry (the
        // server rejects it silently); only corrupt responses surface as
        // CRC errors, so accept either message here.
        let msg = result.expect_err("corrupt");
        assert!(
            msg.contains("deadline") || msg.contains("CRC"),
            "got: {msg}"
        );
    }

    #[test]
    fn method_body_runs_exactly_once_despite_response_retries() {
        // Only responses can fail CRC client-side; force heavy drops and
        // count how often the body executed.
        let mut sim = Simulation::new();
        let so = SharedObject::new(&mut sim, "so", 0u32, Fcfs::new());
        let bus = Arc::new(OpbBus::new(&mut sim, "opb", BusConfig::opb_100mhz()));
        let faulty = Arc::new(FaultyChannel::new(
            bus as Arc<dyn Channel>,
            FaultConfig::none(31).with_drops(0.5),
        ));
        let policy = RetryPolicy::new(SimTime::us(40)).with_max_retries(24);
        let rmi = ReliableRmi::new(RmiService::new(so.clone(), faulty), policy);
        sim.spawn_process("client", move |ctx| {
            for _ in 0..8 {
                rmi.try_invoke_guarded(
                    ctx,
                    &1u32,
                    &(),
                    |_| true,
                    |calls, _| {
                        *calls += 1;
                        Ok(())
                    },
                )
                .expect("within budget");
            }
            Ok(())
        });
        sim.run()
            .expect("run")
            .expect_all_finished()
            .expect("all done");
        assert_eq!(so.stats().calls, 8, "each invoke runs its body once");
    }
}
