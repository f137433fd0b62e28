//! Virtual-Target-Architecture model versions 6a, 6b, 7a and 7b.
//!
//! The pipelined Application-Layer structure (versions 3 and 5) is mapped
//! onto architecture resources by re-binding its blocks' ports:
//!
//! * software tasks → [`SoftwareProcessor`]s (one per task),
//! * the HW/SW shared object behind the **OPB bus** via RMI — tile
//!   payloads are serialised into bus words,
//! * the IDWT-params object behind dedicated **point-to-point** links,
//! * the IDWT blocks' data links to the HW/SW object on the bus (6a/7a)
//!   or on point-to-point channels (6b/7b),
//! * the shared object's tile storage in explicit **block RAM**, whose
//!   per-access cycles the filter blocks pay during the transform.

use std::sync::{Arc, Mutex};

use jpeg2000::codec::{StagedDecoder, TileSamples};
use osss_core::{sched::Fcfs, SharedObject, SwTask};
use osss_sim::{lock_unpoisoned, SimError, SimReport, SimTime, Simulation};
use osss_vta::{
    BusConfig, Channel, ChannelStats, FaultConfig, FaultStats, FaultyChannel, OpbBus, P2pChannel,
    ReliableRmi, RetryPolicy, RmiError, RmiService, RmiStats, SoftwareProcessor, XilinxBlockRam,
};

use crate::app::{HwSwState, Layer, Metrics, ParamsState, Port, Run, Words};
use crate::timing::{platform_clock, sw_stage_times, NUM_TILES, TILE_WORDS};
use crate::ModeSel;

/// The architecture resources the pipelined structure is mapped onto.
struct Platform {
    bus: Arc<dyn Channel>,
    hwsw: SharedObject<HwSwState>,
    params: SharedObject<ParamsState>,
    bram: XilinxBlockRam<i16>,
    /// The IDWT blocks' link to the HW/SW object: the bus itself, or a
    /// dedicated point-to-point channel.
    data_link: Arc<dyn Channel>,
    /// The params object always sits behind point-to-point links.
    params_link: Arc<dyn Channel>,
    /// One processor per software task.
    cpus: Vec<SoftwareProcessor>,
}

impl Platform {
    fn new(sim: &mut Simulation, n_cpus: usize, p2p: bool) -> Self {
        let clk = platform_clock();
        let bus: Arc<dyn Channel> = Arc::new(OpbBus::new(sim, "opb", BusConfig::opb_100mhz()));
        let hwsw = SharedObject::new(sim, "hwsw_so", HwSwState::new(2), Fcfs::new());
        let params = SharedObject::new(sim, "idwt_params_so", ParamsState::default(), Fcfs::new());
        let bram = XilinxBlockRam::<i16>::new("tile_bram", 2 * 65_536, clk);
        let data_link: Arc<dyn Channel> = if p2p {
            Arc::new(P2pChannel::new(sim, "link_idwt_data", clk))
        } else {
            Arc::clone(&bus)
        };
        let params_link: Arc<dyn Channel> = Arc::new(P2pChannel::new(sim, "link_idwt_params", clk));
        let cpus = (0..n_cpus)
            .map(|k| SoftwareProcessor::new(sim, &format!("ppc405_{k}"), clk))
            .collect();
        Platform {
            bus,
            hwsw,
            params,
            bram,
            data_link,
            params_link,
            cpus,
        }
    }

    /// Binds the IDWT2D and filter blocks: RMI to the HW/SW object over
    /// the data link and to the params object over its own link, tile
    /// storage in block RAM.
    fn spawn_idwt_blocks(&self, run: &mut Run) {
        run.spawn_idwt_blocks(
            Port::Rmi(RmiService::new(
                self.hwsw.clone(),
                Arc::clone(&self.data_link),
            )),
            Port::Rmi(RmiService::new(
                self.params.clone(),
                Arc::clone(&self.params_link),
            )),
            Layer::Vta(self.bram.clone()),
        );
    }
}

/// Versions 6a–7b: `tasks` software tasks, each on its own processor
/// (the paper's version 7 has "three more processors" competing for the
/// bus), reach the HW/SW object over the OPB; the IDWT data links sit on
/// the bus too, or on point-to-point channels when `p2p`.
pub(crate) fn pipeline(
    run: &mut Run,
    tasks: usize,
    p2p: bool,
) -> Result<(SimReport, SimTime), SimError> {
    let vta = Platform::new(&mut run.sim, tasks, p2p);
    let sw = Port::Rmi(RmiService::new(vta.hwsw.clone(), Arc::clone(&vta.bus)));
    for (k, cpu) in vta.cpus.iter().enumerate() {
        run.spawn_sw_task(k, tasks, Some(cpu), sw.clone());
    }
    vta.spawn_idwt_blocks(run);
    let report = run.simulate()?;
    if let Some(reg) = run.metrics.registry() {
        vta.bus.stats().export_to(reg, "vta.opb");
        if p2p {
            vta.data_link.stats().export_to(reg, "vta.link_idwt_data");
        }
        vta.params_link
            .stats()
            .export_to(reg, "vta.link_idwt_params");
        vta.bram.stats().export_to(reg, "vta.tile_bram");
        for (k, cpu) in vta.cpus.iter().enumerate() {
            cpu.stats().export_to(reg, &format!("vta.ppc405_{k}"));
        }
    }
    let wait = vta.hwsw.stats().total_arbitration_wait + vta.params.stats().total_arbitration_wait;
    Ok((report, wait))
}

/// The outcome of decoding the Table-1 workload over a faulty transport.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRunResult {
    /// Which mode ran.
    pub mode: ModeSel,
    /// The injected fault process.
    pub fault: FaultConfig,
    /// The reliability policy in force.
    pub policy: RetryPolicy,
    /// Time to decode (or give up on) all 16 tiles.
    pub decode_time: SimTime,
    /// Tiles delivered bit-exactly after at least one retry.
    pub tiles_recovered: usize,
    /// Tiles past the retry budget, rendered mid-gray.
    pub tiles_degraded: usize,
    /// Whether the image matches the degraded-mode expectation exactly
    /// (recovered tiles bit-exact, degraded tiles mid-gray).
    pub image_ok: bool,
    /// Whether the image matches the fault-free reference bit-exactly.
    pub bit_exact: bool,
    /// What the fault process injected.
    pub fault_stats: FaultStats,
    /// What the reliable-RMI protocol observed and spent.
    pub rmi_stats: RmiStats,
    /// Combined transport statistics (faulty bus + filter links).
    pub transport: ChannelStats,
}

impl FaultRunResult {
    /// Fraction of transferred words that were useful traffic (headers +
    /// payload of delivered frames) rather than trailers or lost frames.
    pub fn goodput(&self) -> f64 {
        let useful = self.rmi_stats.payload_words as f64;
        let total = useful + self.rmi_stats.overhead_words as f64;
        if total == 0.0 {
            1.0
        } else {
            useful / total
        }
    }
}

/// PR 3's tolerant-decode convention for a tile the transport lost: all
/// coefficients zero, so after IQ → IDWT → ICT → DC unshift every sample
/// sits at mid-gray (128).
fn mid_gray_tile(dec: &StagedDecoder, i: usize) -> TileSamples {
    let mut coeffs = dec.entropy_decode_tile(i).expect("entropy decode");
    for plane in &mut coeffs.planes {
        for v in plane {
            *v = 0;
        }
    }
    let wavelet = dec.dequantize_tile(&coeffs);
    let samples = dec.idwt_tile(wavelet);
    let samples = dec.inverse_mct_tile(samples);
    dec.dc_unshift_tile(samples)
}

/// Decodes the Table-1 workload on the 6b mapping with one software
/// task, whose OPB traffic is routed through a [`FaultyChannel`] and the
/// reliable-RMI protocol.
///
/// The task pushes all 16 entropy-decoded tiles into the HW/SW shared
/// object over the faulty bus and picks the transformed tiles back up;
/// the IDWT blocks keep their clean point-to-point links and are
/// oblivious to the faults. A tile whose push or pickup exhausts the
/// retry budget is rendered mid-gray ([`mid_gray_tile`]) — the
/// simulation itself never fails on transport faults.
pub(crate) fn run_fault_vta(
    mode: ModeSel,
    fault: FaultConfig,
    policy: RetryPolicy,
) -> Result<FaultRunResult, SimError> {
    let mut run = Run::new(mode, Metrics::new());
    let t = sw_stage_times(mode);
    let vta = Platform::new(&mut run.sim, 1, true);
    let faulty = Arc::new(FaultyChannel::new(Arc::clone(&vta.bus), fault));
    let sw_rmi = ReliableRmi::new(
        RmiService::new(vta.hwsw.clone(), Arc::clone(&faulty) as Arc<dyn Channel>),
        policy,
    );

    let recovered = Arc::new(Mutex::new(0usize));
    let degraded = Arc::new(Mutex::new(Vec::<usize>::new()));

    // The software task: one task, so retry accounting attributes to
    // tiles exactly (invocations are sequential).
    {
        let dec = Arc::clone(&run.w.decoder);
        let o2 = run.outputs.clone();
        let rmi = sw_rmi.clone();
        let env = vta.cpus[0].env("sw_task0");
        let recovered = Arc::clone(&recovered);
        let degraded = Arc::clone(&degraded);
        SwTask::spawn_with_env(&mut run.sim, "sw_task0", env, move |env, ctx| {
            let mut pushed = Vec::with_capacity(NUM_TILES);
            for i in 0..NUM_TILES {
                let coeffs = env.eet(ctx, t.arith, || {
                    dec.entropy_decode_tile(i).expect("entropy decode")
                })?;
                let r0 = rmi.stats().retries;
                match rmi.try_invoke_guarded(
                    ctx,
                    &Words(TILE_WORDS),
                    &Words(0),
                    |s| s.pending.len() < s.capacity,
                    |s, _| {
                        s.pending.push_back((i, coeffs));
                        Ok(())
                    },
                ) {
                    Ok(()) => {
                        pushed.push((i, rmi.stats().retries > r0));
                    }
                    Err(RmiError::Sim(e)) => return Err(e),
                    Err(_) => {
                        // Past the retry budget: the tile never (reliably)
                        // reached the pipeline. Render it mid-gray. No sim
                        // time is charged — the budget was already paid in
                        // transfer, deadline and backoff waits.
                        lock_unpoisoned(&degraded).push(i);
                        o2.place(i, mid_gray_tile(&dec, i));
                    }
                }
            }
            for (i, push_retried) in pushed {
                let r0 = rmi.stats().retries;
                match rmi.try_invoke_guarded(
                    ctx,
                    &Words(1),
                    &Words(TILE_WORDS),
                    move |s| s.results.contains_key(&i),
                    move |s, _| Ok(s.results.remove(&i).expect("guard held")),
                ) {
                    Ok(samples) => {
                        if push_retried || rmi.stats().retries > r0 {
                            *lock_unpoisoned(&recovered) += 1;
                        }
                        let samples = env.eet(ctx, t.ict, || dec.inverse_mct_tile(samples))?;
                        let samples = env.eet(ctx, t.dc, || dec.dc_unshift_tile(samples))?;
                        o2.place(i, samples);
                    }
                    Err(RmiError::Sim(e)) => return Err(e),
                    Err(_) => {
                        lock_unpoisoned(&degraded).push(i);
                        o2.place(i, mid_gray_tile(&dec, i));
                    }
                }
            }
            Ok(())
        });
    }
    vta.spawn_idwt_blocks(&mut run);

    let report = run.simulate()?;
    let degraded = {
        let mut d = lock_unpoisoned(&degraded).clone();
        d.sort_unstable();
        d
    };
    let w = &run.w;
    let assembled = run
        .outputs
        .assemble(&w.decoder)
        .ok_or_else(|| SimError::model("fault run: missing decoded tiles".to_string()))?;
    let bit_exact = degraded.is_empty() && assembled == *w.reference;
    // The degraded-mode expectation: the reference with every abandoned
    // tile overwritten by its mid-gray rendering.
    let mut expected = (*w.reference).clone();
    for &i in &degraded {
        w.decoder
            .place_tile(&mut expected, &mid_gray_tile(&w.decoder, i));
    }
    let image_ok = assembled == expected;
    let mut transport = faulty.stats();
    transport.merge(&vta.data_link.stats());
    let tiles_recovered = *lock_unpoisoned(&recovered);
    Ok(FaultRunResult {
        mode,
        fault,
        policy,
        decode_time: report.end_time,
        tiles_recovered,
        tiles_degraded: degraded.len(),
        image_ok,
        bit_exact,
        fault_stats: faulty.fault_stats(),
        rmi_stats: sw_rmi.stats(),
        transport,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_version, VersionId};
    use osss_sim::SimTime;

    fn ms(t: SimTime) -> f64 {
        t.as_ms_f64()
    }

    #[test]
    fn vta_models_are_functionally_correct() {
        for v in [
            VersionId::V6a,
            VersionId::V6b,
            VersionId::V7a,
            VersionId::V7b,
        ] {
            let r = run_version(v, ModeSel::Lossless).expect("run");
            assert!(r.functional_ok, "{v} output mismatch");
        }
    }

    #[test]
    fn idwt_inflation_from_refinement_is_bounded_by_about_8x() {
        for mode in ModeSel::ALL {
            let v3 = run_version(VersionId::V3, mode).expect("v3");
            let v6b = run_version(VersionId::V6b, mode).expect("v6b");
            let inflation = ms(v6b.idwt_time) / ms(v3.idwt_time);
            assert!(
                (4.0..=10.0).contains(&inflation),
                "{mode}: inflation {inflation:.1}"
            );
        }
    }

    #[test]
    fn bus_only_mapping_is_slower_for_idwt_than_p2p() {
        for (va, vb) in [
            (VersionId::V6a, VersionId::V6b),
            (VersionId::V7a, VersionId::V7b),
        ] {
            let a = run_version(va, ModeSel::Lossless).expect("a");
            let b = run_version(vb, ModeSel::Lossless).expect("b");
            assert!(
                a.idwt_time > b.idwt_time,
                "{va} IDWT {} should exceed {vb} IDWT {}",
                a.idwt_time,
                b.idwt_time
            );
        }
    }

    #[test]
    fn more_processors_worsen_bus_idwt_but_not_p2p() {
        let mode = ModeSel::Lossless;
        let v6a = run_version(VersionId::V6a, mode).expect("6a");
        let v7a = run_version(VersionId::V7a, mode).expect("7a");
        assert!(
            v7a.idwt_time > v6a.idwt_time,
            "four processors on the bus must hurt: 6a {} vs 7a {}",
            v6a.idwt_time,
            v7a.idwt_time
        );
        let v6b = run_version(VersionId::V6b, mode).expect("6b");
        let v7b = run_version(VersionId::V7b, mode).expect("7b");
        let ratio = ms(v7b.idwt_time) / ms(v6b.idwt_time);
        assert!(
            (0.97..=1.03).contains(&ratio),
            "P2P decouples the IDWT from the bus: 6b {} vs 7b {}",
            v6b.idwt_time,
            v7b.idwt_time
        );
    }

    #[test]
    fn hw_idwt_advantage_survives_refinement_12x_16x() {
        for (mode, lo, hi) in [(ModeSel::Lossless, 9.0, 14.0), (ModeSel::Lossy, 12.0, 18.0)] {
            let v1 = run_version(VersionId::V1, mode).expect("v1");
            let v6b = run_version(VersionId::V6b, mode).expect("6b");
            let advantage = ms(v1.idwt_time) / ms(v6b.idwt_time);
            assert!(
                (lo..=hi).contains(&advantage),
                "{mode}: advantage {advantage:.1} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn fault_free_run_is_bit_exact_with_pinned_overhead() {
        let policy = RetryPolicy::new(SimTime::ms(2)).with_max_retries(8);
        let r = run_fault_vta(ModeSel::Lossless, FaultConfig::none(1), policy).expect("run");
        assert!(r.bit_exact, "no faults means bit-exact output");
        assert!(r.image_ok);
        assert_eq!(r.tiles_degraded, 0);
        assert_eq!(r.tiles_recovered, 0);
        assert_eq!(r.rmi_stats.retries, 0);
        assert_eq!(r.rmi_stats.invokes, 2 * NUM_TILES as u64);
        // Exactly one CRC trailer per frame, two frames per invocation.
        assert_eq!(
            r.rmi_stats.overhead_words,
            2 * NUM_TILES as u64 * 2 * osss_vta::RELIABLE_TRAILER_WORDS as u64
        );
        assert!(r.goodput() > 0.999, "goodput {} too low", r.goodput());
    }

    #[test]
    fn moderate_faults_recover_bit_exact_with_retries() {
        let fault = FaultConfig::none(42).with_drops(0.1).with_bit_flips(1e-5);
        let policy = RetryPolicy::new(SimTime::ms(2)).with_max_retries(8);
        let r = run_fault_vta(ModeSel::Lossless, fault, policy).expect("run");
        assert!(r.bit_exact, "retry budget must absorb moderate faults");
        assert_eq!(r.tiles_degraded, 0);
        assert!(r.rmi_stats.retries > 0, "10% drops must trigger retries");
        assert!(r.tiles_recovered > 0);
        assert!(
            r.fault_stats.dropped > 0 || r.fault_stats.corrupt_transfers > 0,
            "the fault process must have fired"
        );
        assert!(r.goodput() < 1.0);
        // Recovery costs time: the faulty run is slower than fault-free.
        let clean = run_fault_vta(ModeSel::Lossless, FaultConfig::none(42), policy).expect("clean");
        assert!(r.decode_time > clean.decode_time);
    }

    #[test]
    fn fault_sweep_is_deterministic_across_runs() {
        let fault = FaultConfig::none(7).with_drops(0.2).with_bit_flips(1e-5);
        let policy = RetryPolicy::new(SimTime::ms(2)).with_max_retries(8);
        let a = run_fault_vta(ModeSel::Lossless, fault, policy).expect("first");
        let b = run_fault_vta(ModeSel::Lossless, fault, policy).expect("second");
        assert_eq!(a, b, "same seed must replay bit-identically");
    }

    #[test]
    fn heavy_faults_degrade_per_tile_but_never_fail() {
        let fault = FaultConfig::none(3).with_drops(0.5).with_bit_flips(3e-5);
        let policy = RetryPolicy::new(SimTime::ms(2)).with_max_retries(1);
        let r = run_fault_vta(ModeSel::Lossless, fault, policy).expect("must not fail");
        assert!(r.tiles_degraded > 0, "past the budget tiles must degrade");
        assert!(!r.bit_exact);
        assert!(
            r.image_ok,
            "degradation must be exactly per-tile mid-gray, nothing else"
        );
        assert!(r.rmi_stats.failed > 0);
        assert!(r.tiles_degraded <= NUM_TILES);
    }

    /// Deep sweep: the full fault axis, several seeds, both as a CI smoke
    /// (fixed seed, `FAULT_ITERS` iterations) and as an `#[ignore]`d
    /// long-runner. Every point must keep the degraded-mode invariants.
    #[test]
    #[ignore = "deep sweep; run explicitly (CI sets FAULT_ITERS)"]
    fn fault_sweep_deep() {
        let iters: u64 = std::env::var("FAULT_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(3);
        for seed in 0..iters {
            let points = crate::fault_axis(seed);
            let results = crate::fault_sweep(ModeSel::Lossless, &points).expect("sweep");
            let replay = crate::fault_sweep(ModeSel::Lossless, &points).expect("replay");
            assert_eq!(results, replay, "seed {seed}: sweep must be deterministic");
            assert!(results[0].bit_exact, "seed {seed}: fault-free point");
            for r in &results {
                assert!(r.image_ok, "seed {seed}: {:?} degraded wrongly", r.fault);
                assert!(
                    r.bit_exact || r.tiles_degraded > 0,
                    "seed {seed}: inexact output must come from degraded tiles"
                );
            }
        }
    }

    #[test]
    fn overall_decode_time_stays_sw_dominated() {
        let mode = ModeSel::Lossless;
        let v3 = run_version(VersionId::V3, mode).expect("v3");
        let v6b = run_version(VersionId::V6b, mode).expect("6b");
        let overhead = ms(v6b.decode_time) / ms(v3.decode_time);
        assert!(
            (1.0..=1.10).contains(&overhead),
            "refinement must not change the big picture: {overhead:.3}"
        );
    }
}
