//! # jpeg2000-models — the DATE 2008 case-study design space
//!
//! The nine JPEG 2000 decoder models of the paper's Table 1, built on the
//! OSSS layers and carrying **real tile data** from the [`jpeg2000`]
//! codec through every simulated component (so functional correctness is
//! checked inside the timed experiments):
//!
//! | Version | Layer | Structure |
//! |---|---|---|
//! | 1 | Application | software only |
//! | 2 | Application | HW/SW, sequential co-processor calls |
//! | 3 | Application | HW/SW pipelined, 3 IDWT hardware blocks |
//! | 4 | Application | 4 parallel software tasks (cp. 2) |
//! | 5 | Application | 4 SW tasks + HW pipeline (cp. 3) |
//! | 6a/6b | VTA | mapping of 3 — shared bus only / bus + P2P |
//! | 7a/7b | VTA | mapping of 5 — shared bus only / bus + P2P |
//!
//! Timing is calibrated from the paper's published profile (Figure 1
//! percentages, 180 ms arithmetic decoding per tile) in [`timing`];
//! the VTA versions add channel transfer and explicit-memory costs
//! through the `osss-vta` resource models.
//!
//! [`run_version`] executes one model; [`table1`] regenerates the whole
//! table; [`report`] formats it and checks the paper-shape relations.
//!
//! ## Example
//!
//! ```no_run
//! use jpeg2000_models::{run_version, ModeSel, VersionId};
//!
//! let r = run_version(VersionId::V1, ModeSel::Lossless).unwrap();
//! assert!(r.functional_ok);
//! println!("v1 decodes 16 tiles in {}", r.decode_time);
//! ```

#![forbid(unsafe_code)]

mod app;
pub use app::{
    run_hw_sw_parallel, run_sw_parallel, run_v5_with_policy, sw_scaling_curve, ArbPolicy,
};
pub mod observe;
pub mod profile;
pub mod report;
pub mod synth;
pub mod timing;
mod vta;
pub use vta::FaultRunResult;
pub mod workload;

use osss_sim::{SimError, SimTime};
// Re-exported so fault-sweep callers need not depend on `osss-vta`.
pub use osss_vta::{FaultConfig, RetryPolicy};

/// Lossless (5/3) or lossy (9/7) operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModeSel {
    /// Reversible path.
    Lossless,
    /// Irreversible path.
    Lossy,
}

impl ModeSel {
    /// Both modes, lossless first (Table 1 column order).
    pub const ALL: [ModeSel; 2] = [ModeSel::Lossless, ModeSel::Lossy];
}

impl std::fmt::Display for ModeSel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModeSel::Lossless => write!(f, "lossless"),
            ModeSel::Lossy => write!(f, "lossy"),
        }
    }
}

/// The nine model versions of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VersionId {
    /// Software only.
    V1,
    /// HW/SW not parallel.
    V2,
    /// HW/SW parallel (3 IDWT modules).
    V3,
    /// SW parallel (cp. 2).
    V4,
    /// SW & HW/SW parallel (cp. 3).
    V5,
    /// VTA mapping of 3, HW/SW SO connected to bus only.
    V6a,
    /// VTA mapping of 3, bus + point-to-point.
    V6b,
    /// VTA mapping of 5, bus only.
    V7a,
    /// VTA mapping of 5, bus + point-to-point.
    V7b,
}

impl VersionId {
    /// All versions in table order.
    pub const ALL: [VersionId; 9] = [
        VersionId::V1,
        VersionId::V2,
        VersionId::V3,
        VersionId::V4,
        VersionId::V5,
        VersionId::V6a,
        VersionId::V6b,
        VersionId::V7a,
        VersionId::V7b,
    ];

    /// The Table 1 row description.
    pub fn description(self) -> &'static str {
        match self {
            VersionId::V1 => "SW only",
            VersionId::V2 => "HW/SW not parallel",
            VersionId::V3 => "HW/SW parallel (3 IDWT modules)",
            VersionId::V4 => "SW parallel (cp. 2)",
            VersionId::V5 => "SW & HW/SW parallel (cp. 3)",
            VersionId::V6a => "VTA of 3: HW/SW SO on bus only",
            VersionId::V6b => "VTA of 3: bus & P2P",
            VersionId::V7a => "VTA of 5: HW/SW SO on bus only",
            VersionId::V7b => "VTA of 5: bus & P2P",
        }
    }

    /// Whether this is a Virtual-Target-Architecture-layer model.
    pub fn is_vta(self) -> bool {
        matches!(
            self,
            VersionId::V6a | VersionId::V6b | VersionId::V7a | VersionId::V7b
        )
    }
}

impl std::fmt::Display for VersionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            VersionId::V1 => "1",
            VersionId::V2 => "2",
            VersionId::V3 => "3",
            VersionId::V4 => "4",
            VersionId::V5 => "5",
            VersionId::V6a => "6a",
            VersionId::V6b => "6b",
            VersionId::V7a => "7a",
            VersionId::V7b => "7b",
        };
        write!(f, "{s}")
    }
}

/// The outcome of simulating one model version in one mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionResult {
    /// Which model ran.
    pub version: VersionId,
    /// Which mode.
    pub mode: ModeSel,
    /// Time to decode all 16 tiles (3 components), the paper's
    /// "Decoding Time" column.
    pub decode_time: SimTime,
    /// Accumulated time spent in the IDWT subsystem, the paper's
    /// "IDWT Time" column.
    pub idwt_time: SimTime,
    /// Whether the decoded image matched the reference decoder exactly.
    pub functional_ok: bool,
    /// Total arbitration wait observed at the HW/SW shared object
    /// (zero where no such object exists).
    pub so_arbitration_wait: SimTime,
}

/// One point of the design space: a structure, its software-task count
/// and the layer its blocks are bound at. Every entry point runs one.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Model {
    /// Version 1: one software task runs all five stages.
    SwOnly,
    /// Versions 2 and 4: the tasks share a blocking IQ+IDWT co-processor.
    Coprocessor { tasks: usize },
    /// Versions 3 and 5: the tasks feed the three-block IDWT pipeline.
    Pipeline { tasks: usize, policy: ArbPolicy },
    /// Versions 6a–7b: the pipeline mapped onto the VTA, with the IDWT
    /// data links on the bus or on point-to-point channels.
    Vta { tasks: usize, p2p: bool },
}

impl Model {
    /// The Table-1 point of `version`: the 2/3/6 rows run one software
    /// task, the 4/5/7 rows four.
    pub(crate) fn of(version: VersionId) -> Model {
        use VersionId::*;
        let tasks = match version {
            V4 | V5 | V7a | V7b => 4,
            _ => 1,
        };
        match version {
            V1 => Model::SwOnly,
            V2 | V4 => Model::Coprocessor { tasks },
            V3 | V5 => Model::Pipeline {
                tasks,
                policy: ArbPolicy::Fcfs,
            },
            V6a | V7a => Model::Vta { tasks, p2p: false },
            V6b | V7b => Model::Vta { tasks, p2p: true },
        }
    }

    fn tasks(self) -> usize {
        match self {
            Model::SwOnly => 1,
            Model::Coprocessor { tasks }
            | Model::Pipeline { tasks, .. }
            | Model::Vta { tasks, .. } => tasks,
        }
    }

    /// The Table-1 row a point belongs to, the inverse of [`Model::of`]
    /// for any task count.
    fn version(self) -> VersionId {
        use VersionId::*;
        let (one_task, more) = match self {
            Model::SwOnly => (V1, V1),
            Model::Coprocessor { .. } => (V2, V4),
            Model::Pipeline { .. } => (V3, V5),
            Model::Vta { p2p: false, .. } => (V6a, V7a),
            Model::Vta { p2p: true, .. } => (V6b, V7b),
        };
        if self.tasks() == 1 {
            one_task
        } else {
            more
        }
    }

    /// Simulates this point in `mode`, emitting into `metrics`.
    ///
    /// # Panics
    ///
    /// Panics if the task count is zero or exceeds the tile count.
    pub(crate) fn run(
        self,
        mode: ModeSel,
        metrics: app::Metrics,
    ) -> Result<VersionResult, SimError> {
        assert!(
            (1..=timing::NUM_TILES).contains(&self.tasks()),
            "1..={} software tasks",
            timing::NUM_TILES
        );
        let mut run = app::Run::new(mode, metrics);
        let (report, wait) = match self {
            Model::SwOnly => app::sw_only(&mut run),
            Model::Coprocessor { tasks } => app::coprocessor(&mut run, tasks),
            Model::Pipeline { tasks, policy } => app::pipeline(&mut run, tasks, policy),
            Model::Vta { tasks, p2p } => vta::pipeline(&mut run, tasks, p2p),
        }?;
        run.result(self.version(), &report, wait)
    }
}

/// Runs one model version and returns its measurements.
///
/// # Errors
///
/// Propagates simulation failures (process panics, model errors).
pub fn run_version(version: VersionId, mode: ModeSel) -> Result<VersionResult, SimError> {
    Model::of(version).run(mode, app::Metrics::new())
}

/// Runs a VTA scaling exploration point: `n_sw_tasks` software tasks on
/// as many processors, with the IDWT data links on the shared bus
/// (`p2p = false`, the 6a/7a mapping) or on point-to-point channels
/// (`p2p = true`, the 6b/7b mapping). One task is version 6a/6b itself,
/// four are 7a/7b. Used by the scaling ablation that backs the paper's
/// closing claim that "7b does better scale with increasing
/// parallelism".
///
/// # Errors
///
/// Propagates simulation failures.
///
/// # Panics
///
/// Panics if `n_sw_tasks` is zero or exceeds the tile count.
pub fn run_scaling(mode: ModeSel, n_sw_tasks: usize, p2p: bool) -> Result<VersionResult, SimError> {
    Model::Vta {
        tasks: n_sw_tasks,
        p2p,
    }
    .run(mode, app::Metrics::new())
}

/// Decodes the Table-1 workload with the software task's bus traffic
/// passed through a deterministic fault process and the reliable-RMI
/// protocol. Tiles recovered within the retry budget stay bit-exact;
/// tiles past it render mid-gray — the run itself never fails on
/// transport faults.
///
/// # Errors
///
/// Propagates simulation failures (never transport faults).
pub fn run_fault_injection(
    mode: ModeSel,
    fault: FaultConfig,
    policy: RetryPolicy,
) -> Result<FaultRunResult, SimError> {
    vta::run_fault_vta(mode, fault, policy)
}

/// Runs [`run_fault_injection`] for every `(fault, policy)` point.
///
/// # Errors
///
/// Propagates the first simulation failure.
pub fn fault_sweep(
    mode: ModeSel,
    points: &[(FaultConfig, RetryPolicy)],
) -> Result<Vec<FaultRunResult>, SimError> {
    points
        .iter()
        .map(|&(fault, policy)| run_fault_injection(mode, fault, policy))
        .collect()
}

/// The default fault-rate axis of the robustness experiment: from a
/// fault-free transport through rates the retry budget absorbs, up to a
/// loss rate that exhausts a deliberately small budget and forces
/// per-tile degradation. All points derive from `seed` so the whole
/// sweep replays bit-identically.
pub fn fault_axis(seed: u64) -> Vec<(FaultConfig, RetryPolicy)> {
    // A full tile frame is ~32.8k words ≈ 983 µs on the 100 MHz OPB, so
    // a 2 ms deadline comfortably covers one transfer.
    let policy = RetryPolicy::new(SimTime::ms(2)).with_max_retries(8);
    vec![
        (FaultConfig::none(seed), policy),
        (
            FaultConfig::none(seed)
                .with_drops(1e-3)
                .with_bit_flips(1e-7),
            policy,
        ),
        (
            FaultConfig::none(seed)
                .with_drops(1e-2)
                .with_bit_flips(1e-6),
            policy,
        ),
        (
            FaultConfig::none(seed).with_drops(0.1).with_bit_flips(1e-5),
            policy,
        ),
        // Past the budget: every other frame lost, most large frames
        // corrupted, only one retry — tiles must degrade, not fail.
        (
            FaultConfig::none(seed).with_drops(0.5).with_bit_flips(3e-5),
            RetryPolicy::new(SimTime::ms(2)).with_max_retries(1),
        ),
    ]
}

/// Regenerates the full Table 1 (all versions × both modes).
///
/// # Errors
///
/// Propagates the first simulation failure.
pub fn table1() -> Result<Vec<VersionResult>, SimError> {
    let mut out = Vec::with_capacity(18);
    for version in VersionId::ALL {
        for mode in ModeSel::ALL {
            out.push(run_version(version, mode)?);
        }
    }
    Ok(out)
}
