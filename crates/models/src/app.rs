//! Application-Layer model versions 1–5.
//!
//! All versions move **real tile data** through the simulated structure:
//! the entropy decoder, IQ, IDWT, ICT and DC-shift stages call the
//! [`jpeg2000`] staged decoder inside their EET blocks, and the decoded
//! image is compared against the reference decoder at the end of every
//! run.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use jpeg2000::codec::{StagedDecoder, TileCoeffs, TileSamples, TileWavelet};
use jpeg2000::image::Image;
use osss_core::sched::{Arbiter, Fcfs, RoundRobin, StaticPriority};
use osss_core::{SharedObject, SwTask};
use osss_sim::probe::MetricsRegistry;
use osss_sim::trace::Tracer;
use osss_sim::{lock_unpoisoned, SimError, SimReport, SimTime, Simulation};

use crate::timing::{
    hw_idwt_time, hw_iq_time, so_arb_delay, so_copy_time, sw_stage_times, NUM_TILES,
};
use crate::workload::{workload, Workload};
use crate::{ModeSel, VersionId, VersionResult};

/// Shared measurement sink.
///
/// The plain variant ([`Metrics::new`]) carries only the IDWT-time
/// accumulator the Table-1 runs always need. The observed variant
/// ([`Metrics::observed`]) additionally carries a [`Tracer`] (VCD-able
/// signal dump) and a [`MetricsRegistry`] (counter/gauge snapshot); the
/// run functions emit into both only when they are present, so the
/// un-observed runs pay nothing beyond an `Option` check.
#[derive(Clone, Default)]
pub(crate) struct Metrics {
    inner: Arc<Mutex<SimTime>>,
    tiles_done: Arc<Mutex<u64>>,
    credit: Arc<Mutex<i64>>,
    tracer: Option<Tracer>,
    registry: Option<MetricsRegistry>,
}

impl Metrics {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// A sink with trace and registry attached — every helper below
    /// starts emitting signal records and counters.
    pub(crate) fn observed() -> Self {
        Metrics {
            tracer: Some(Tracer::new()),
            registry: Some(MetricsRegistry::new()),
            ..Self::default()
        }
    }

    pub(crate) fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    pub(crate) fn registry(&self) -> Option<&MetricsRegistry> {
        self.registry.as_ref()
    }

    pub(crate) fn is_observed(&self) -> bool {
        self.tracer.is_some() || self.registry.is_some()
    }

    pub(crate) fn tiles_count(&self) -> u64 {
        *lock_unpoisoned(&self.tiles_done)
    }

    pub(crate) fn add_idwt(&self, d: SimTime) {
        *lock_unpoisoned(&self.inner) += d;
    }

    pub(crate) fn idwt(&self) -> SimTime {
        *lock_unpoisoned(&self.inner)
    }

    /// Accounts one IDWT busy interval `[start, end]`: accumulates the
    /// Table-1 IDWT time and, when observed, traces the `idwt.busy`
    /// signal as a 1→0 pulse — `examples/observability.rs` re-derives
    /// the IDWT column from exactly these pulses.
    pub(crate) fn idwt_span(&self, start: SimTime, end: SimTime) {
        self.add_idwt(end - start);
        if let Some(tr) = &self.tracer {
            tr.record_at(start, "idwt.busy", 1);
            tr.record_at(end, "idwt.busy", 0);
        }
    }

    /// Marks one tile fully decoded at `now`; traces the cumulative
    /// `sw.tiles_done` staircase (its last step lands exactly at the
    /// run's end time).
    pub(crate) fn tile_done(&self, now: SimTime) {
        let mut done = lock_unpoisoned(&self.tiles_done);
        *done += 1;
        if let Some(tr) = &self.tracer {
            tr.record_at(now, "sw.tiles_done", *done);
        }
    }

    /// Adjusts the HW/SW hand-off credit: −1 when a software task
    /// submits work to the co-processor object, +1 when it picks a
    /// result back up. The running value is −(tiles in flight), so the
    /// traced `hwsw.credit` signal is *negative* whenever the pipeline
    /// holds work — the guaranteed signed signal in every observed VCD.
    pub(crate) fn credit(&self, now: SimTime, delta: i64) {
        let mut c = lock_unpoisoned(&self.credit);
        *c += delta;
        if let Some(tr) = &self.tracer {
            tr.record_at(now, "hwsw.credit", *c);
        }
    }
}

/// Collects decoded tiles for final assembly.
#[derive(Clone)]
pub(crate) struct Outputs {
    tiles: Arc<Mutex<Vec<Option<TileSamples>>>>,
}

impl Outputs {
    pub(crate) fn new(n: usize) -> Self {
        Outputs {
            tiles: Arc::new(Mutex::new(vec![None; n])),
        }
    }

    pub(crate) fn place(&self, index: usize, samples: TileSamples) {
        lock_unpoisoned(&self.tiles)[index] = Some(samples);
    }

    pub(crate) fn assemble(&self, dec: &StagedDecoder) -> Option<Image> {
        let tiles = lock_unpoisoned(&self.tiles);
        let mut img = dec.blank_image();
        for t in tiles.iter() {
            dec.place_tile(&mut img, t.as_ref()?);
        }
        Some(img)
    }
}

/// Builds the final [`VersionResult`] from a finished simulation.
pub(crate) fn finish(
    version: VersionId,
    mode: ModeSel,
    w: &Workload,
    report: &SimReport,
    metrics: &Metrics,
    outputs: &Outputs,
    so_arbitration_wait: SimTime,
) -> Result<VersionResult, SimError> {
    let assembled = outputs
        .assemble(&w.decoder)
        .ok_or_else(|| SimError::model(format!("{version}: missing decoded tiles")))?;
    if let Some(reg) = metrics.registry() {
        reg.add_counter("model.tiles", metrics.tiles_count());
        reg.set_gauge(
            "model.decode_ps",
            i64::try_from(report.end_time.as_ps()).unwrap_or(i64::MAX),
        );
        reg.set_gauge(
            "model.idwt_ps",
            i64::try_from(metrics.idwt().as_ps()).unwrap_or(i64::MAX),
        );
        reg.set_gauge(
            "model.arb_wait_ps",
            i64::try_from(so_arbitration_wait.as_ps()).unwrap_or(i64::MAX),
        );
    }
    Ok(VersionResult {
        version,
        mode,
        decode_time: report.end_time,
        idwt_time: metrics.idwt(),
        functional_ok: assembled == *w.reference,
        so_arbitration_wait,
    })
}

/// The HW/SW shared object's storage: pending entropy-decoded tiles,
/// dequantised tiles awaiting a filter block, and finished tiles.
pub(crate) struct HwSwState {
    pub(crate) pending: VecDeque<(usize, TileCoeffs)>,
    pub(crate) wavelets: HashMap<usize, TileWavelet>,
    pub(crate) results: HashMap<usize, TileSamples>,
    pub(crate) capacity: usize,
}

impl HwSwState {
    pub(crate) fn new(capacity: usize) -> Self {
        HwSwState {
            pending: VecDeque::new(),
            wavelets: HashMap::new(),
            results: HashMap::new(),
            capacity,
        }
    }
}

/// The IDWT-params shared object: parameter exchange and arbitration
/// between IDWT2D (control) and the two filter blocks.
#[derive(Default)]
pub(crate) struct ParamsState {
    pub(crate) request: Option<usize>,
    pub(crate) response: Option<usize>,
}

/// Version 1 — software only: one task runs all five stages per tile.
pub fn run_v1(mode: ModeSel) -> Result<VersionResult, SimError> {
    run_v1_metrics(mode, Metrics::new())
}

pub(crate) fn run_v1_metrics(mode: ModeSel, metrics: Metrics) -> Result<VersionResult, SimError> {
    let w = workload(mode);
    let t = sw_stage_times(mode);
    let mut sim = Simulation::new();
    if metrics.is_observed() {
        sim.enable_sched_probe();
    }
    let outputs = Outputs::new(NUM_TILES);
    let dec = Arc::clone(&w.decoder);
    let (m2, o2) = (metrics.clone(), outputs.clone());
    SwTask::spawn(&mut sim, "decoder_sw", move |env, ctx| {
        for i in 0..NUM_TILES {
            let coeffs = env.eet(ctx, t.arith, || {
                dec.entropy_decode_tile(i).expect("entropy decode")
            })?;
            let wavelet = env.eet(ctx, t.iq, || dec.dequantize_tile(&coeffs))?;
            let t0 = ctx.now();
            let samples = env.eet(ctx, t.idwt, || dec.idwt_tile(wavelet))?;
            m2.idwt_span(t0, ctx.now());
            let samples = env.eet(ctx, t.ict, || dec.inverse_mct_tile(samples))?;
            let samples = env.eet(ctx, t.dc, || dec.dc_unshift_tile(samples))?;
            o2.place(i, samples);
            m2.tile_done(ctx.now());
        }
        Ok(())
    });
    let report = sim.run()?;
    export_sched(&sim, &metrics);
    finish(
        VersionId::V1,
        mode,
        &w,
        &report,
        &metrics,
        &outputs,
        SimTime::ZERO,
    )
}

/// Exports the scheduler-probe snapshot into the observed registry (a
/// no-op for plain runs — the probe is only enabled when observed).
pub(crate) fn export_sched(sim: &Simulation, metrics: &Metrics) {
    if let (Some(reg), Some(snap)) = (metrics.registry(), sim.sched_snapshot()) {
        snap.export_to(reg);
    }
}

/// The shared structure of versions 2 and 4 generalised over the
/// pipeline count: `n_tasks` software tasks decode disjoint tile sets,
/// sharing one blocking IQ+IDWT co-processor object. `n_tasks = 1` is
/// version 2 ("HW/SW not parallel"), `n_tasks = 4` is version 4 ("SW
/// parallel"); other counts are exploration points on the same axis —
/// the design space the native [`jpeg2000::parallel`] backend mirrors
/// with its `workers(n)` knob.
///
/// # Errors
///
/// Propagates simulation failures.
///
/// # Panics
///
/// Panics if `n_tasks` is zero or exceeds the tile count.
pub fn run_sw_parallel(mode: ModeSel, n_tasks: usize) -> Result<VersionResult, SimError> {
    run_sw_parallel_metrics(mode, n_tasks, Metrics::new())
}

pub(crate) fn run_sw_parallel_metrics(
    mode: ModeSel,
    n_tasks: usize,
    metrics: Metrics,
) -> Result<VersionResult, SimError> {
    assert!(
        (1..=NUM_TILES).contains(&n_tasks),
        "n_tasks must be in 1..={NUM_TILES}"
    );
    let version = if n_tasks == 1 {
        VersionId::V2
    } else {
        VersionId::V4
    };
    let w = workload(mode);
    let t = sw_stage_times(mode);
    let (hw_iq, hw_idwt) = (hw_iq_time(mode), hw_idwt_time(mode));
    let mut sim = Simulation::new();
    if metrics.is_observed() {
        sim.enable_sched_probe();
    }
    let outputs = Outputs::new(NUM_TILES);
    let so = SharedObject::new(&mut sim, "hwsw_so", (), Fcfs::new());
    for k in 0..n_tasks {
        let dec = Arc::clone(&w.decoder);
        let (m2, o2) = (metrics.clone(), outputs.clone());
        let so2 = so.clone();
        SwTask::spawn(&mut sim, &format!("sw_task{k}"), move |env, ctx| {
            for i in (k..NUM_TILES).step_by(n_tasks) {
                let coeffs = env.eet(ctx, t.arith, || {
                    dec.entropy_decode_tile(i).expect("entropy decode")
                })?;
                // Blocking co-processor call: IQ then IDWT inside the
                // object, with arbiter grant plus by-value
                // argument/result copies (OSSS method calls serialise
                // their arguments).
                let dec2 = Arc::clone(&dec);
                let m3 = m2.clone();
                m2.credit(ctx.now(), -1);
                let samples = so2.call(ctx, move |_, ctx| {
                    ctx.wait(so_arb_delay(n_tasks) + so_copy_time())?;
                    let wavelet = dec2.dequantize_tile(&coeffs);
                    ctx.wait(hw_iq)?;
                    let t0 = ctx.now();
                    let samples = dec2.idwt_tile(wavelet);
                    ctx.wait(hw_idwt)?;
                    m3.idwt_span(t0, ctx.now());
                    ctx.wait(so_copy_time())?;
                    Ok(samples)
                })?;
                m2.credit(ctx.now(), 1);
                let samples = env.eet(ctx, t.ict, || dec.inverse_mct_tile(samples))?;
                let samples = env.eet(ctx, t.dc, || dec.dc_unshift_tile(samples))?;
                o2.place(i, samples);
                m2.tile_done(ctx.now());
            }
            Ok(())
        });
    }
    let report = sim.run()?;
    export_sched(&sim, &metrics);
    let wait = so.stats().total_arbitration_wait;
    finish(version, mode, &w, &report, &metrics, &outputs, wait)
}

/// Version 2 — HW/SW not parallel: the software task performs the
/// arithmetic decoding, then a **blocking** method call on the shared
/// object computes IQ + IDWT in hardware, then ICT + DC shift in software.
pub fn run_v2(mode: ModeSel) -> Result<VersionResult, SimError> {
    run_sw_parallel(mode, 1)
}

/// Version 4 — SW parallel (cp. 2): four software tasks decode disjoint
/// tile sets, sharing one IQ+IDWT co-processor object.
pub fn run_v4(mode: ModeSel) -> Result<VersionResult, SimError> {
    run_sw_parallel(mode, 4)
}

/// Shared structure of versions 3 and 5 (and, with channel/memory
/// refinements, 6a–7b): `n_sw_tasks` software tasks feed the HW/SW
/// shared object; the IDWT2D control block and the IDWT53/IDWT97 filter
/// blocks process tiles through the IDWT-params object.
pub(crate) struct PipelineModel {
    pub(crate) n_sw_tasks: usize,
    pub(crate) version: VersionId,
    pub(crate) policy: ArbPolicy,
}

/// Which arbitration policy the HW/SW shared object uses — an ablation
/// axis over the OSSS scheduler library.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbPolicy {
    /// First-come-first-served (the case study's choice).
    Fcfs,
    /// Round-robin over client identities.
    RoundRobin,
    /// Static priority (software tasks get ascending priorities).
    StaticPriority,
}

impl ArbPolicy {
    /// All policies, FCFS first.
    pub const ALL: [ArbPolicy; 3] = [
        ArbPolicy::Fcfs,
        ArbPolicy::RoundRobin,
        ArbPolicy::StaticPriority,
    ];

    fn arbiter(self) -> Box<dyn Arbiter> {
        match self {
            ArbPolicy::Fcfs => Box::new(Fcfs::new()),
            ArbPolicy::RoundRobin => Box::new(RoundRobin::new()),
            ArbPolicy::StaticPriority => Box::new(StaticPriority::new()),
        }
    }
}

impl std::fmt::Display for ArbPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArbPolicy::Fcfs => write!(f, "fcfs"),
            ArbPolicy::RoundRobin => write!(f, "round-robin"),
            ArbPolicy::StaticPriority => write!(f, "static-priority"),
        }
    }
}

pub(crate) fn run_pipeline_app(
    mode: ModeSel,
    cfg: PipelineModel,
    metrics: Metrics,
) -> Result<VersionResult, SimError> {
    let w = workload(mode);
    let t = sw_stage_times(mode);
    let (hw_iq, hw_idwt) = (hw_iq_time(mode), hw_idwt_time(mode));
    let copy = so_copy_time();
    // HW/SW object clients: the software tasks plus IDWT2D and the two
    // filter blocks; the params object serves the three IDWT components.
    let hwsw_arb = so_arb_delay(cfg.n_sw_tasks + 3);
    let params_arb = so_arb_delay(3);
    let mut sim = Simulation::new();
    if metrics.is_observed() {
        sim.enable_sched_probe();
    }
    let outputs = Outputs::new(NUM_TILES);
    let hwsw = SharedObject::new(&mut sim, "hwsw_so", HwSwState::new(2), cfg.policy.arbiter());
    let params = SharedObject::new(
        &mut sim,
        "idwt_params_so",
        ParamsState::default(),
        Fcfs::new(),
    );

    // Software tasks: arithmetic decoding + tile hand-off, then pick-up,
    // ICT and DC shift for their own tiles.
    for k in 0..cfg.n_sw_tasks {
        let dec = Arc::clone(&w.decoder);
        let o2 = outputs.clone();
        let m2 = metrics.clone();
        let hwsw = hwsw.clone();
        let n = cfg.n_sw_tasks;
        SwTask::spawn(&mut sim, &format!("sw_task{k}"), move |env, ctx| {
            for i in (k..NUM_TILES).step_by(n) {
                let coeffs = env.eet(ctx, t.arith, || {
                    dec.entropy_decode_tile(i).expect("entropy decode")
                })?;
                // Bounded hand-off buffer inside the shared object.
                hwsw.call_guarded(
                    ctx,
                    |s| s.pending.len() < s.capacity,
                    |s, ctx| {
                        ctx.wait(hwsw_arb + copy)?;
                        s.pending.push_back((i, coeffs));
                        Ok(())
                    },
                )?;
                m2.credit(ctx.now(), -1);
            }
            for i in (k..NUM_TILES).step_by(n) {
                let samples = hwsw.call_guarded(
                    ctx,
                    move |s| s.results.contains_key(&i),
                    move |s, ctx| {
                        ctx.wait(hwsw_arb + copy)?;
                        Ok(s.results.remove(&i).expect("guard held"))
                    },
                )?;
                m2.credit(ctx.now(), 1);
                let samples = env.eet(ctx, t.ict, || dec.inverse_mct_tile(samples))?;
                let samples = env.eet(ctx, t.dc, || dec.dc_unshift_tile(samples))?;
                o2.place(i, samples);
                m2.tile_done(ctx.now());
            }
            Ok(())
        });
    }

    // IDWT2D control block: drains the pending queue, performs IQ inside
    // the shared object, then drives a filter block through the params
    // object. One process — tiles serialise through it, but overlap with
    // the software pipeline.
    {
        let dec = Arc::clone(&w.decoder);
        let hwsw = hwsw.clone();
        let params = params.clone();
        sim.spawn_process("idwt2d_ctrl", move |ctx| loop {
            let i = hwsw.call_guarded(
                ctx,
                |s| !s.pending.is_empty(),
                |s, ctx| {
                    ctx.wait(hwsw_arb + copy)?;
                    let (i, coeffs) = s.pending.pop_front().expect("guard held");
                    let wavelet = dec.dequantize_tile(&coeffs);
                    ctx.wait(hw_iq)?;
                    s.wavelets.insert(i, wavelet);
                    Ok(i)
                },
            )?;
            params.call(ctx, |p, ctx| {
                ctx.wait(params_arb)?;
                p.request = Some(i);
                Ok(())
            })?;
            params.call_guarded(
                ctx,
                move |p| p.response == Some(i),
                |p, ctx| {
                    ctx.wait(params_arb)?;
                    p.response = None;
                    Ok(())
                },
            )?;
        });
    }

    // Filter blocks: IDWT53 serves the lossless path, IDWT97 the lossy
    // path; both contend for the params object (its arbiter is the
    // "arbitration unit between the three concurrent IDWT components").
    for (name, serves) in [("idwt53", ModeSel::Lossless), ("idwt97", ModeSel::Lossy)] {
        let dec = Arc::clone(&w.decoder);
        let hwsw = hwsw.clone();
        let params = params.clone();
        let m2 = metrics.clone();
        let active = serves == mode;
        sim.spawn_process(name, move |ctx| {
            loop {
                if !active {
                    // The other filter block stays idle in this mode.
                    return Ok(());
                }
                let i = params.call_guarded(
                    ctx,
                    |p| p.request.is_some(),
                    |p, ctx| {
                        ctx.wait(params_arb)?;
                        Ok(p.request.take().expect("guard held"))
                    },
                )?;
                // Fetch the dequantised tile from the shared object,
                // transform, store the spatial samples back.
                let wavelet = hwsw.call_guarded(
                    ctx,
                    move |s| s.wavelets.contains_key(&i),
                    move |s, ctx| {
                        ctx.wait(hwsw_arb + copy)?;
                        Ok(s.wavelets.remove(&i).expect("guard held"))
                    },
                )?;
                let samples = {
                    let t0 = ctx.now();
                    let out = dec.idwt_tile(wavelet);
                    ctx.wait(hw_idwt)?;
                    // On the Application Layer the IDWT time is the pure
                    // hardware compute — communication is still abstract.
                    m2.idwt_span(t0, ctx.now());
                    out
                };
                hwsw.call(ctx, move |s, ctx| {
                    ctx.wait(hwsw_arb + copy)?;
                    s.results.insert(i, samples);
                    Ok(())
                })?;
                params.call(ctx, |p, ctx| {
                    ctx.wait(params_arb)?;
                    p.response = Some(i);
                    Ok(())
                })?;
            }
        });
    }

    let report = sim.run()?;
    export_sched(&sim, &metrics);
    let wait = hwsw.stats().total_arbitration_wait + params.stats().total_arbitration_wait;
    finish(cfg.version, mode, &w, &report, &metrics, &outputs, wait)
}

/// The shared structure of versions 3 and 5 generalised over the
/// pipeline count: `n_sw_tasks` software pipelines feed the three-block
/// IDWT hardware pipeline through the HW/SW shared object. `n_sw_tasks
/// = 1` is version 3, `n_sw_tasks = 4` is version 5; other counts are
/// exploration points on the same axis.
///
/// # Errors
///
/// Propagates simulation failures.
///
/// # Panics
///
/// Panics if `n_sw_tasks` is zero or exceeds the tile count.
pub fn run_hw_sw_parallel(mode: ModeSel, n_sw_tasks: usize) -> Result<VersionResult, SimError> {
    assert!(
        (1..=NUM_TILES).contains(&n_sw_tasks),
        "n_sw_tasks must be in 1..={NUM_TILES}"
    );
    run_pipeline_app(
        mode,
        PipelineModel {
            n_sw_tasks,
            version: if n_sw_tasks == 1 {
                VersionId::V3
            } else {
                VersionId::V5
            },
            policy: ArbPolicy::Fcfs,
        },
        Metrics::new(),
    )
}

/// Runs the version 2↔4 axis (blocking co-processor, `n` software
/// pipelines) for each count in `counts` — the Application-Layer
/// scaling curve that the native tile-parallel backend's `workers(n)`
/// knob mirrors in real execution.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn sw_scaling_curve(
    mode: ModeSel,
    counts: &[usize],
) -> Result<Vec<(usize, VersionResult)>, SimError> {
    counts
        .iter()
        .map(|&n| run_sw_parallel(mode, n).map(|r| (n, r)))
        .collect()
}

/// Version 3 — HW/SW parallel: one software task plus the three-block
/// hardware pipeline.
pub fn run_v3(mode: ModeSel) -> Result<VersionResult, SimError> {
    run_hw_sw_parallel(mode, 1)
}

/// Version 5 — SW & HW/SW parallel: four software tasks plus the
/// hardware pipeline; the HW/SW shared object serves seven clients.
pub fn run_v5(mode: ModeSel) -> Result<VersionResult, SimError> {
    run_v5_with_policy(mode, ArbPolicy::Fcfs)
}

/// Version 5 with an explicit arbitration policy on the HW/SW shared
/// object (the policy ablation of the OSSS scheduler library).
pub fn run_v5_with_policy(mode: ModeSel, policy: ArbPolicy) -> Result<VersionResult, SimError> {
    run_pipeline_app(
        mode,
        PipelineModel {
            n_sw_tasks: 4,
            version: VersionId::V5,
            policy,
        },
        Metrics::new(),
    )
}

#[cfg(test)]
mod scaling_tests {
    use super::*;

    #[test]
    fn sw_pipeline_count_scales_decode_time() {
        for mode in ModeSel::ALL {
            let curve = sw_scaling_curve(mode, &[1, 2, 4]).expect("curve");
            for (n, r) in &curve {
                assert!(r.functional_ok, "{mode}: {n} pipelines output mismatch");
            }
            assert!(
                curve[0].1.decode_time > curve[1].1.decode_time
                    && curve[1].1.decode_time > curve[2].1.decode_time,
                "{mode}: decode time must fall with pipeline count: {:?}",
                curve
                    .iter()
                    .map(|(n, r)| (*n, r.decode_time))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn two_pipelines_land_between_v2_and_v4() {
        let mode = ModeSel::Lossless;
        let v2 = run_sw_parallel(mode, 1).expect("v2");
        let mid = run_sw_parallel(mode, 2).expect("n=2");
        let v4 = run_sw_parallel(mode, 4).expect("v4");
        assert_eq!(mid.version, VersionId::V4);
        assert!(v4.decode_time < mid.decode_time && mid.decode_time < v2.decode_time);
    }

    #[test]
    fn hw_pipeline_variant_scales_too() {
        let mode = ModeSel::Lossy;
        let one = run_hw_sw_parallel(mode, 1).expect("n=1");
        let two = run_hw_sw_parallel(mode, 2).expect("n=2");
        let four = run_hw_sw_parallel(mode, 4).expect("n=4");
        assert!(one.functional_ok && two.functional_ok && four.functional_ok);
        assert!(two.decode_time < one.decode_time);
        assert!(four.decode_time < two.decode_time);
    }

    #[test]
    fn native_parallel_backend_reproduces_model_reference() {
        // The design space the models explore in simulated time, the
        // native backend executes for real: same codestream, same
        // reference image, for 1, 2 and 4 pipelines.
        for mode in ModeSel::ALL {
            let w = workload(mode);
            for n in [1usize, 2, 4] {
                let out =
                    jpeg2000::parallel::decode_parallel(&w.codestream, n).expect("parallel decode");
                assert_eq!(out.image, *w.reference, "{mode}: {n} workers");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(t: SimTime) -> f64 {
        t.as_ms_f64()
    }

    #[test]
    fn v1_matches_the_analytic_total() {
        let r = run_v1(ModeSel::Lossless).expect("v1");
        assert!(r.functional_ok, "decoded image must match reference");
        let expected = sw_stage_times(ModeSel::Lossless).total() * NUM_TILES as u64;
        assert_eq!(r.decode_time, expected);
        // IDWT time = 16 × SW IDWT.
        let idwt = sw_stage_times(ModeSel::Lossless).idwt * NUM_TILES as u64;
        assert_eq!(r.idwt_time, idwt);
    }

    #[test]
    fn v2_speedup_is_about_10_19_percent() {
        for (mode, lo, hi) in [
            (ModeSel::Lossless, 1.05, 1.15),
            (ModeSel::Lossy, 1.12, 1.25),
        ] {
            let v1 = run_v1(mode).expect("v1");
            let v2 = run_v2(mode).expect("v2");
            assert!(v2.functional_ok);
            let speedup = ms(v1.decode_time) / ms(v2.decode_time);
            assert!(
                (lo..=hi).contains(&speedup),
                "{mode}: v2 speedup {speedup:.3} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn v3_improves_slightly_over_v2() {
        let mode = ModeSel::Lossless;
        let v2 = run_v2(mode).expect("v2");
        let v3 = run_v3(mode).expect("v3");
        assert!(v3.functional_ok);
        assert!(
            v3.decode_time < v2.decode_time,
            "pipeline should help: v2 {} vs v3 {}",
            v2.decode_time,
            v3.decode_time
        );
        // ... but only slightly (the arithmetic decoder dominates).
        let gain = ms(v2.decode_time) / ms(v3.decode_time);
        assert!(gain < 1.10, "gain {gain:.3} should be small");
    }

    #[test]
    fn v4_speedup_is_about_4_5x() {
        for (mode, lo, hi) in [(ModeSel::Lossless, 3.9, 4.8), (ModeSel::Lossy, 4.2, 5.3)] {
            let v1 = run_v1(mode).expect("v1");
            let v4 = run_v4(mode).expect("v4");
            assert!(v4.functional_ok);
            let speedup = ms(v1.decode_time) / ms(v4.decode_time);
            assert!(
                (lo..=hi).contains(&speedup),
                "{mode}: v4 speedup {speedup:.2} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn v5_is_slightly_slower_than_v4() {
        for mode in ModeSel::ALL {
            let v4 = run_v4(mode).expect("v4");
            let v5 = run_v5(mode).expect("v5");
            assert!(v5.functional_ok);
            assert!(
                v5.decode_time > v4.decode_time,
                "{mode}: v5 {} should exceed v4 {}",
                v5.decode_time,
                v4.decode_time
            );
            let ratio = ms(v5.decode_time) / ms(v4.decode_time);
            assert!(ratio < 1.25, "{mode}: v5/v4 {ratio:.3} should stay small");
            // The seven-client object shows real arbitration pressure.
            assert!(v5.so_arbitration_wait > SimTime::ZERO);
        }
    }

    #[test]
    fn all_app_versions_are_functionally_correct_lossy() {
        for (v, f) in [
            (
                VersionId::V1,
                run_v1 as fn(ModeSel) -> Result<VersionResult, SimError>,
            ),
            (VersionId::V2, run_v2),
            (VersionId::V3, run_v3),
            (VersionId::V4, run_v4),
            (VersionId::V5, run_v5),
        ] {
            let r = f(ModeSel::Lossy).expect("run");
            assert!(r.functional_ok, "{v} lossy output mismatch");
            assert_eq!(r.version, v);
        }
    }
}
