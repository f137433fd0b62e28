//! Property-based tests of the VTA layer: serialisation round-trips,
//! channel-cost monotonicity and processor-time conservation.

use proptest::prelude::*;
use std::sync::Arc;

use osss_core::{sched::Fcfs, SharedObject};
use osss_sim::{Frequency, SimTime, Simulation};
use osss_vta::{
    BusConfig, Channel, ChannelStats, Deserialise, FaultConfig, FaultyChannel, OpbBus, P2pChannel,
    ReliableRmi, RetryPolicy, RmiService, Serialise, SoftwareProcessor, RELIABLE_TRAILER_WORDS,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Serialise/deserialise is the identity on nested containers.
    #[test]
    fn serialisation_roundtrip(
        v in proptest::collection::vec(
            (any::<i32>(), proptest::collection::vec(any::<u16>(), 0..20)),
            0..20,
        ),
    ) {
        let bytes = v.to_bytes();
        prop_assert_eq!(bytes.len(), v.serialised_bytes());
        let back = Vec::<(i32, Vec<u16>)>::from_bytes(&mut bytes.as_slice()).unwrap();
        prop_assert_eq!(back, v);
    }

    /// Word counts round byte counts up, never down, and never by more
    /// than three bytes.
    #[test]
    fn word_rounding_bounds(v in proptest::collection::vec(any::<u8>(), 0..100)) {
        let words = v.serialised_words();
        let bytes = v.serialised_bytes();
        prop_assert!(words * 4 >= bytes);
        prop_assert!(words * 4 < bytes + 4);
    }

    /// Bus transfer time is affine in the word count and monotone in all
    /// configuration parameters.
    #[test]
    fn bus_time_is_affine_and_monotone(
        words_a in 0usize..10_000,
        words_b in 0usize..10_000,
        cycles_per_word in 1u64..8,
        arb in 0u64..8,
    ) {
        let mut sim = Simulation::new();
        let cfg = BusConfig {
            freq: Frequency::mhz(100),
            arbitration_cycles: arb,
            cycles_per_word,
        };
        let bus = OpbBus::new(&mut sim, "b", cfg);
        let t = |w: usize| bus.transfer_time(w);
        // Affine: t(a) + t(b) == t(a + b) + t(0).
        prop_assert_eq!(t(words_a) + t(words_b), t(words_a + words_b) + t(0));
        // Monotone in words.
        prop_assert!(t(words_a + 1) >= t(words_a));
        drop(sim);
    }

    /// P2P beats the case-study bus for any non-trivial payload.
    #[test]
    fn p2p_never_slower_than_opb(words in 1usize..100_000) {
        let mut sim = Simulation::new();
        let bus = OpbBus::new(&mut sim, "b", BusConfig::opb_100mhz());
        let link = P2pChannel::new(&mut sim, "l", Frequency::mhz(100));
        prop_assert!(link.transfer_time(words) <= bus.transfer_time(words));
        drop(sim);
    }

    /// CPU time conservation: N tasks × one EET each on one processor
    /// always finish at exactly the sum of their durations, in any order
    /// of arrival.
    #[test]
    fn processor_serialises_exactly(
        durations in proptest::collection::vec(1u64..500, 1..8),
        offsets in proptest::collection::vec(0u64..50, 8),
    ) {
        let mut sim = Simulation::new();
        let cpu = SoftwareProcessor::new(&mut sim, "cpu", Frequency::mhz(100));
        let max_offset = durations
            .iter()
            .enumerate()
            .map(|(i, _)| offsets[i])
            .max()
            .unwrap_or(0);
        for (i, &d) in durations.iter().enumerate() {
            let env = cpu.env(&format!("t{i}"));
            let off = offsets[i];
            sim.spawn_process(&format!("t{i}"), move |ctx| {
                ctx.wait(SimTime::us(off))?;
                env.eet(ctx, SimTime::us(d), || ())
            });
        }
        let report = sim.run().unwrap();
        let total: u64 = durations.iter().sum();
        // All work serialised on one CPU: end >= total busy time, and the
        // CPU was never idle once started if all arrive at once.
        prop_assert!(report.end_time >= SimTime::us(total));
        prop_assert!(report.end_time <= SimTime::us(total + max_offset));
        prop_assert_eq!(cpu.stats().busy, SimTime::us(total));
    }

    /// Channel busy-time accounting matches the sum of transfer times,
    /// independent of contention.
    #[test]
    fn bus_busy_accounting(
        transfers in proptest::collection::vec(1usize..500, 1..6),
    ) {
        let mut sim = Simulation::new();
        let bus = Arc::new(OpbBus::new(&mut sim, "b", BusConfig::opb_100mhz()));
        let expected: SimTime = transfers.iter().map(|&w| bus.transfer_time(w)).sum();
        for (i, &w) in transfers.iter().enumerate() {
            let bus = Arc::clone(&bus);
            sim.spawn_process(&format!("m{i}"), move |ctx| bus.transfer(ctx, w));
        }
        let report = sim.run().unwrap();
        prop_assert_eq!(bus.stats().busy, expected);
        prop_assert_eq!(report.end_time, expected, "fully serialised bus");
    }

    /// Zero-fault transparency: a `FaultyChannel` with all rates 0 is
    /// indistinguishable from the bare channel — bit-identical
    /// `ChannelStats` and end-times for any traffic pattern and seed.
    #[test]
    fn zero_fault_decorator_is_transparent(
        transfers in proptest::collection::vec(1usize..500, 1..6),
        seed in any::<u64>(),
    ) {
        let run = |wrap: bool| -> (SimTime, ChannelStats) {
            let mut sim = Simulation::new();
            let bus = Arc::new(OpbBus::new(&mut sim, "b", BusConfig::opb_100mhz()));
            let ch: Arc<dyn Channel> = if wrap {
                Arc::new(FaultyChannel::new(
                    Arc::clone(&bus) as Arc<dyn Channel>,
                    FaultConfig::none(seed),
                ))
            } else {
                Arc::clone(&bus) as Arc<dyn Channel>
            };
            for (i, &w) in transfers.iter().enumerate() {
                let ch = Arc::clone(&ch);
                sim.spawn_process(&format!("m{i}"), move |ctx| ch.transfer(ctx, w));
            }
            let report = sim.run().unwrap();
            (report.end_time, bus.stats())
        };
        let (t_bare, s_bare) = run(false);
        let (t_faulty, s_faulty) = run(true);
        prop_assert_eq!(t_bare, t_faulty);
        prop_assert_eq!(s_bare, s_faulty);
    }

    /// Reliable RMI over a zero-fault channel completes every call with
    /// zero retries and exactly one CRC trailer of overhead per frame
    /// (two per invocation) — the pinned protocol cost.
    #[test]
    fn reliable_rmi_overhead_is_pinned_at_zero_fault(
        payloads in proptest::collection::vec(0usize..200, 1..5),
        seed in any::<u64>(),
    ) {
        let mut sim = Simulation::new();
        let so = SharedObject::new(&mut sim, "so", 0u64, Fcfs::new());
        let bus = Arc::new(OpbBus::new(&mut sim, "b", BusConfig::opb_100mhz()));
        let faulty = Arc::new(FaultyChannel::new(
            bus as Arc<dyn Channel>,
            FaultConfig::none(seed),
        ));
        let rmi = ReliableRmi::new(
            RmiService::new(so, faulty),
            RetryPolicy::new(SimTime::us(100)),
        );
        let probe = rmi.clone();
        let n = payloads.len() as u64;
        sim.spawn_process("client", move |ctx| {
            for len in payloads {
                let args: Vec<u32> = vec![7; len];
                rmi.try_invoke_guarded(ctx, &args, &0u64, |_| true, |state, _| {
                    *state += 1;
                    Ok(*state)
                })
                .expect("zero-fault transport never errors");
            }
            Ok(())
        });
        sim.run().unwrap().expect_all_finished().unwrap();
        let stats = probe.stats();
        prop_assert_eq!(stats.invokes, n);
        prop_assert_eq!(stats.completed, n);
        prop_assert_eq!(stats.retries, 0);
        prop_assert_eq!(stats.timeouts, 0);
        prop_assert_eq!(stats.crc_failures, 0);
        prop_assert_eq!(stats.failed, 0);
        prop_assert_eq!(stats.overhead_words, n * 2 * RELIABLE_TRAILER_WORDS as u64);
    }
}
