//! Application-Layer model versions 1–5, and the blocks of the
//! pipelined structure that every layer shares.
//!
//! All versions move **real tile data** through the simulated structure:
//! the entropy decoder, IQ, IDWT, ICT and DC-shift stages call the
//! [`jpeg2000`] staged decoder inside their EET blocks, and the decoded
//! image is compared against the reference decoder at the end of every
//! run.
//!
//! The pipelined structure (versions 3 and 5, refined as 6a–7b) is
//! written once. Its software task, IDWT2D control block and filter
//! blocks reach the shared objects through [`Port`]s: versions 3 and 5
//! bind them as direct OSSS method calls, the VTA versions as RMI over
//! channels.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use jpeg2000::codec::{StagedDecoder, TileCoeffs, TileSamples, TileWavelet};
use jpeg2000::image::Image;
use osss_core::sched::{Arbiter, Fcfs, RoundRobin, StaticPriority};
use osss_core::{CallOptions, SharedObject, SwTask, TaskEnv};
use osss_sim::probe::MetricsRegistry;
use osss_sim::trace::Tracer;
use osss_sim::{lock_unpoisoned, Context, SimError, SimReport, SimResult, SimTime, Simulation};
use osss_vta::{RmiService, Serialise, SoftwareProcessor, XilinxBlockRam};

use crate::timing::{
    hw_idwt_time, hw_iq_time, so_arb_delay, so_copy_time, sw_stage_times, vta_idwt_mem_accesses,
    FILTER_CMD_WORDS, NUM_TILES, PARAM_WORDS, TILE_WORDS,
};
use crate::workload::{workload, Workload};
use crate::{ModeSel, Model, VersionId, VersionResult};

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

    fn is_observed(&self) -> bool {
        self.tracer.is_some() || self.registry.is_some()
    }

    fn idwt(&self) -> SimTime {
        *lock_unpoisoned(&self.inner)
    }

    /// Accounts one IDWT busy interval `[start, end]`: accumulates the
    /// Table-1 IDWT time and, when observed, traces the `idwt.busy`
    /// signal as a 1→0 pulse — `examples/observability.rs` re-derives
    /// the IDWT column from exactly these pulses.
    fn idwt_span(&self, start: SimTime, end: SimTime) {
        *lock_unpoisoned(&self.inner) += end - start;
        if let Some(tr) = &self.tracer {
            tr.record_at(start, "idwt.busy", 1);
            tr.record_at(end, "idwt.busy", 0);
        }
    }

    /// Marks one tile fully decoded at `now`; traces the cumulative
    /// `sw.tiles_done` staircase (its last step lands exactly at the
    /// run's end time).
    fn tile_done(&self, now: SimTime) {
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
    fn credit(&self, now: SimTime, delta: i64) {
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
    fn new(n: usize) -> Self {
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

/// The HW/SW shared object's storage: pending entropy-decoded tiles,
/// dequantised tiles awaiting a filter block, and finished tiles.
pub(crate) struct HwSwState {
    pub(crate) pending: VecDeque<(usize, TileCoeffs)>,
    wavelets: HashMap<usize, TileWavelet>,
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
    request: Option<usize>,
    response: Option<usize>,
}

/// A payload whose only role is its serialised size in words — RMI costs
/// depend on the declared interface width, and moving real megabytes
/// through the byte buffers would change nothing but heat.
pub(crate) struct Words(pub(crate) usize);

impl Serialise for Words {
    fn serialised_bytes(&self) -> usize {
        self.0 * 4
    }
    fn write(&self, out: &mut Vec<u8>) {
        out.resize(out.len() + self.serialised_bytes(), 0);
    }
}

/// How a block reaches a shared object. The block's behaviour is written
/// once against the port; each layer binds it.
pub(crate) enum Port<T> {
    /// An Application-Layer OSSS method call whose body first charges
    /// the given delay: the object's grant latency plus any tile copy.
    /// The call requests its grant at the given priority, which only a
    /// static-priority arbiter reads.
    Direct(SharedObject<T>, SimTime, u32),
    /// A VTA remote method invocation over a channel.
    Rmi(RmiService<T>),
}

impl<T> Clone for Port<T> {
    fn clone(&self) -> Self {
        match self {
            Port::Direct(so, delay, priority) => Port::Direct(so.clone(), *delay, *priority),
            Port::Rmi(rmi) => Port::Rmi(rmi.clone()),
        }
    }
}

impl<T: Send + 'static> Port<T> {
    /// A guarded method call (an unguarded one passes `|_| true`).
    /// `words` are the request and response sizes the method's interface
    /// declares; only an RMI binding moves them.
    fn call<R>(
        &self,
        ctx: &Context,
        words: (usize, usize),
        guard: impl Fn(&T) -> bool,
        f: impl FnOnce(&mut T, &Context) -> SimResult<R>,
    ) -> SimResult<R> {
        match self {
            Port::Direct(so, delay, priority) => {
                let opts = CallOptions::new().priority(*priority);
                so.call_guarded_with(ctx, opts, guard, |s, ctx| {
                    ctx.wait(*delay)?;
                    f(s, ctx)
                })
            }
            Port::Rmi(rmi) => rmi.invoke_guarded(ctx, &Words(words.0), &Words(words.1), guard, f),
        }
    }
}

/// The layer the IDWT blocks are bound at. Refinement to the VTA adds
/// two things to their behaviour.
#[derive(Clone)]
pub(crate) enum Layer {
    /// The IDWT time is the filter block's hardware compute alone —
    /// communication is still abstract.
    App,
    /// Every lifting pass streams the tile through the HW/SW object's
    /// block RAM, and the IDWT time spans IDWT2D's whole params exchange,
    /// so it includes the now explicit communication.
    Vta(XilinxBlockRam<i16>),
}

/// One model run under construction: the kernel plus what every block
/// shares — the mode, its workload and the sinks.
pub(crate) struct Run {
    pub(crate) sim: Simulation,
    pub(crate) mode: ModeSel,
    pub(crate) w: Workload,
    pub(crate) metrics: Metrics,
    pub(crate) outputs: Outputs,
}

impl Run {
    pub(crate) fn new(mode: ModeSel, metrics: Metrics) -> Self {
        let mut sim = Simulation::new();
        if metrics.is_observed() {
            sim.enable_sched_probe();
        }
        Run {
            sim,
            mode,
            w: workload(mode),
            metrics,
            outputs: Outputs::new(NUM_TILES),
        }
    }

    /// Runs the simulation and exports the scheduler-probe snapshot into
    /// the observed registry (the probe is only enabled when observed).
    pub(crate) fn simulate(&mut self) -> Result<SimReport, SimError> {
        let report = self.sim.run()?;
        if let (Some(reg), Some(snap)) = (self.metrics.registry(), self.sim.sched_snapshot()) {
            snap.export_to(reg);
        }
        Ok(report)
    }

    /// Builds the [`VersionResult`] of a finished simulation.
    pub(crate) fn result(
        &self,
        version: VersionId,
        report: &SimReport,
        so_arbitration_wait: SimTime,
    ) -> Result<VersionResult, SimError> {
        let assembled = self
            .outputs
            .assemble(&self.w.decoder)
            .ok_or_else(|| SimError::model(format!("{version}: missing decoded tiles")))?;
        if let Some(reg) = self.metrics.registry() {
            reg.add_counter("model.tiles", *lock_unpoisoned(&self.metrics.tiles_done));
            reg.set_gauge(
                "model.decode_ps",
                i64::try_from(report.end_time.as_ps()).unwrap_or(i64::MAX),
            );
            reg.set_gauge(
                "model.idwt_ps",
                i64::try_from(self.metrics.idwt().as_ps()).unwrap_or(i64::MAX),
            );
            reg.set_gauge(
                "model.arb_wait_ps",
                i64::try_from(so_arbitration_wait.as_ps()).unwrap_or(i64::MAX),
            );
        }
        Ok(VersionResult {
            version,
            mode: self.mode,
            decode_time: report.end_time,
            idwt_time: self.metrics.idwt(),
            functional_ok: assembled == *self.w.reference,
            so_arbitration_wait,
        })
    }

    /// Software task `k` of `n` in the pipelined structure, on `cpu` at
    /// the VTA or unbound on the Application Layer: entropy-decodes its
    /// tiles into the HW/SW object's bounded buffer, then picks each
    /// transformed tile back up for ICT and DC shift.
    pub(crate) fn spawn_sw_task(
        &mut self,
        k: usize,
        n: usize,
        cpu: Option<&SoftwareProcessor>,
        hwsw: Port<HwSwState>,
    ) {
        let name = format!("sw_task{k}");
        let env = cpu.map_or_else(|| TaskEnv::application_layer(&name), |cpu| cpu.env(&name));
        let t = sw_stage_times(self.mode);
        let dec = Arc::clone(&self.w.decoder);
        let (m2, o2) = (self.metrics.clone(), self.outputs.clone());
        SwTask::spawn_with_env(&mut self.sim, &name, env, move |env, ctx| {
            for i in (k..NUM_TILES).step_by(n) {
                let coeffs = env.eet(ctx, t.arith, || {
                    dec.entropy_decode_tile(i).expect("entropy decode")
                })?;
                // Bounded hand-off buffer inside the shared object.
                hwsw.call(
                    ctx,
                    (TILE_WORDS, 0),
                    |s| s.pending.len() < s.capacity,
                    |s, _| {
                        s.pending.push_back((i, coeffs));
                        Ok(())
                    },
                )?;
                m2.credit(ctx.now(), -1);
            }
            for i in (k..NUM_TILES).step_by(n) {
                let samples = hwsw.call(
                    ctx,
                    (1, TILE_WORDS),
                    move |s| s.results.contains_key(&i),
                    move |s, _| Ok(s.results.remove(&i).expect("guard held")),
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

    /// The IDWT2D control block and the IDWT53/IDWT97 filter blocks.
    /// IDWT2D drains the pending buffer, performs IQ inside the HW/SW
    /// object, then drives a filter block through the params object. One
    /// process: tiles serialise through it, but overlap with the software
    /// tasks. IDWT53 serves the lossless path, IDWT97 the lossy one; both
    /// contend for the params object (its arbiter is the "arbitration
    /// unit between the three concurrent IDWT components").
    pub(crate) fn spawn_idwt_blocks(
        &mut self,
        hwsw: Port<HwSwState>,
        params: Port<ParamsState>,
        layer: Layer,
    ) {
        let (hw_iq, hw_idwt) = (hw_iq_time(self.mode), hw_idwt_time(self.mode));
        let vta = matches!(layer, Layer::Vta(_));
        let (dec, hwsw2, params2) = (Arc::clone(&self.w.decoder), hwsw.clone(), params.clone());
        let m2 = self.metrics.clone();
        self.sim.spawn_process("idwt2d_ctrl", move |ctx| loop {
            let i = hwsw2.call(
                ctx,
                (FILTER_CMD_WORDS, FILTER_CMD_WORDS),
                |s| !s.pending.is_empty(),
                |s, ctx| {
                    let (i, coeffs) = s.pending.pop_front().expect("guard held");
                    let wavelet = dec.dequantize_tile(&coeffs);
                    ctx.wait(hw_iq)?;
                    s.wavelets.insert(i, wavelet);
                    Ok(i)
                },
            )?;
            let t0 = ctx.now();
            params2.call(
                ctx,
                (PARAM_WORDS, 0),
                |_| true,
                |p, _| {
                    p.request = Some(i);
                    Ok(())
                },
            )?;
            params2.call(
                ctx,
                (PARAM_WORDS, PARAM_WORDS),
                move |p| p.response == Some(i),
                |p, _| {
                    p.response = None;
                    Ok(())
                },
            )?;
            if vta {
                m2.idwt_span(t0, ctx.now());
            }
        });

        let (mem_reads, mem_writes) = vta_idwt_mem_accesses(self.mode);
        for (name, serves) in [("idwt53", ModeSel::Lossless), ("idwt97", ModeSel::Lossy)] {
            let (dec, hwsw, params) = (Arc::clone(&self.w.decoder), hwsw.clone(), params.clone());
            let (m2, layer) = (self.metrics.clone(), layer.clone());
            let active = serves == self.mode;
            self.sim.spawn_process(name, move |ctx| loop {
                if !active {
                    // The other filter block stays idle in this mode.
                    return Ok(());
                }
                let i = params.call(
                    ctx,
                    (PARAM_WORDS, PARAM_WORDS),
                    |p| p.request.is_some(),
                    |p, _| Ok(p.request.take().expect("guard held")),
                )?;
                let wavelet = hwsw.call(
                    ctx,
                    (FILTER_CMD_WORDS, FILTER_CMD_WORDS),
                    move |s| s.wavelets.contains_key(&i),
                    move |s, _| Ok(s.wavelets.remove(&i).expect("guard held")),
                )?;
                let t0 = ctx.now();
                let samples = dec.idwt_tile(wavelet);
                match &layer {
                    Layer::App => {
                        ctx.wait(hw_idwt)?;
                        m2.idwt_span(t0, ctx.now());
                    }
                    Layer::Vta(bram) => {
                        bram.charge_burst(ctx, mem_reads, mem_writes)?;
                        ctx.wait(hw_idwt)?;
                    }
                }
                hwsw.call(
                    ctx,
                    (FILTER_CMD_WORDS, 0),
                    |_| true,
                    move |s, _| {
                        s.results.insert(i, samples);
                        Ok(())
                    },
                )?;
                params.call(
                    ctx,
                    (PARAM_WORDS, 0),
                    |_| true,
                    |p, _| {
                        p.response = Some(i);
                        Ok(())
                    },
                )?;
            });
        }
    }
}

/// Version 1 — software only: one task runs all five stages per tile.
pub(crate) fn sw_only(run: &mut Run) -> Result<(SimReport, SimTime), SimError> {
    let t = sw_stage_times(run.mode);
    let dec = Arc::clone(&run.w.decoder);
    let (m2, o2) = (run.metrics.clone(), run.outputs.clone());
    SwTask::spawn(&mut run.sim, "decoder_sw", move |env, ctx| {
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
    Ok((run.simulate()?, SimTime::ZERO))
}

/// Versions 2 and 4: `tasks` software tasks decode disjoint tile sets,
/// each performing the arithmetic decoding, then a **blocking** method
/// call on one shared object that computes IQ + IDWT in hardware, then
/// ICT + DC shift.
pub(crate) fn coprocessor(run: &mut Run, tasks: usize) -> Result<(SimReport, SimTime), SimError> {
    let t = sw_stage_times(run.mode);
    let (hw_iq, hw_idwt) = (hw_iq_time(run.mode), hw_idwt_time(run.mode));
    let so = SharedObject::new(&mut run.sim, "hwsw_so", (), Fcfs::new());
    for k in 0..tasks {
        let dec = Arc::clone(&run.w.decoder);
        let (m2, o2, so2) = (run.metrics.clone(), run.outputs.clone(), so.clone());
        SwTask::spawn(&mut run.sim, &format!("sw_task{k}"), move |env, ctx| {
            for i in (k..NUM_TILES).step_by(tasks) {
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
                    ctx.wait(so_arb_delay(tasks) + so_copy_time())?;
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
    let report = run.simulate()?;
    Ok((report, so.stats().total_arbitration_wait))
}

/// Versions 3 and 5: `tasks` software tasks feed the three-block IDWT
/// hardware pipeline through the HW/SW object, whose arbiter follows
/// `policy`.
pub(crate) fn pipeline(
    run: &mut Run,
    tasks: usize,
    policy: ArbPolicy,
) -> Result<(SimReport, SimTime), SimError> {
    let hwsw = SharedObject::new(&mut run.sim, "hwsw_so", HwSwState::new(2), policy.arbiter());
    let params = SharedObject::new(
        &mut run.sim,
        "idwt_params_so",
        ParamsState::default(),
        Fcfs::new(),
    );
    // The grant latency grows with an object's clients: the software
    // tasks plus IDWT2D and the two filter blocks at the HW/SW object,
    // the three IDWT components at the params object. Tiles are also
    // copied into and out of the HW/SW object's storage. Software task k
    // requests at priority k + 1, above the IDWT blocks' 0.
    let hwsw_delay = so_arb_delay(tasks + 3) + so_copy_time();
    for k in 0..tasks {
        let port = Port::Direct(hwsw.clone(), hwsw_delay, k as u32 + 1);
        run.spawn_sw_task(k, tasks, None, port);
    }
    run.spawn_idwt_blocks(
        Port::Direct(hwsw.clone(), hwsw_delay, 0),
        Port::Direct(params.clone(), so_arb_delay(3), 0),
        Layer::App,
    );
    let report = run.simulate()?;
    let wait = hwsw.stats().total_arbitration_wait + params.stats().total_arbitration_wait;
    Ok((report, wait))
}

/// Which arbitration policy the HW/SW shared object uses — an ablation
/// axis over the OSSS scheduler library.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbPolicy {
    /// First-come-first-served (the case study's choice).
    Fcfs,
    /// Round-robin over client identities.
    RoundRobin,
    /// Static priority: software task k requests at priority k + 1, so
    /// later tasks win over earlier ones and every task over the IDWT
    /// blocks (priority 0); ties go by arrival.
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
    Model::Coprocessor { tasks: n_tasks }.run(mode, Metrics::new())
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
    Model::Pipeline {
        tasks: n_sw_tasks,
        policy: ArbPolicy::Fcfs,
    }
    .run(mode, Metrics::new())
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

/// Version 5 with an explicit arbitration policy on the HW/SW shared
/// object (the policy ablation of the OSSS scheduler library).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_v5_with_policy(mode: ModeSel, policy: ArbPolicy) -> Result<VersionResult, SimError> {
    Model::Pipeline { tasks: 4, policy }.run(mode, Metrics::new())
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
    use crate::run_version;

    fn ms(t: SimTime) -> f64 {
        t.as_ms_f64()
    }

    #[test]
    fn v1_matches_the_analytic_total() {
        let r = run_version(VersionId::V1, ModeSel::Lossless).expect("v1");
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
            let v1 = run_version(VersionId::V1, mode).expect("v1");
            let v2 = run_version(VersionId::V2, mode).expect("v2");
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
        let v2 = run_version(VersionId::V2, mode).expect("v2");
        let v3 = run_version(VersionId::V3, mode).expect("v3");
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
            let v1 = run_version(VersionId::V1, mode).expect("v1");
            let v4 = run_version(VersionId::V4, mode).expect("v4");
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
            let v4 = run_version(VersionId::V4, mode).expect("v4");
            let v5 = run_version(VersionId::V5, mode).expect("v5");
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
        for v in [
            VersionId::V1,
            VersionId::V2,
            VersionId::V3,
            VersionId::V4,
            VersionId::V5,
        ] {
            let r = run_version(v, ModeSel::Lossy).expect("run");
            assert!(r.functional_ok, "{v} lossy output mismatch");
            assert_eq!(r.version, v);
        }
    }
}
