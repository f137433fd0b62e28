//! # osss-jpeg2000 — facade crate
//!
//! Reproduction of *"SystemC-based Modelling, Seamless Refinement, and
//! Synthesis of a JPEG 2000 Decoder"* (DATE 2008) as a Rust workspace.
//! This crate re-exports the workspace members under one roof:
//!
//! * [`sim`] — deterministic discrete-event kernel (SystemC substitute)
//! * [`osss`] — OSSS Application Layer (shared objects, EET blocks, tasks)
//! * [`vta`] — Virtual Target Architecture layer (processors, buses,
//!   channels, RMI, memories)
//! * [`fossy`] — synthesis flow (IR, passes, VHDL/C/MHS/MSS emitters,
//!   Virtex-4 estimator)
//! * [`jpeg2000`] — the complete JPEG 2000 codec
//! * [`models`] — the nine case-study decoder models and the paper's
//!   experiments
//!
//! See `examples/quickstart.rs` for a five-minute tour and DESIGN.md /
//! EXPERIMENTS.md for the reproduction methodology.
//!
//! ## Example
//!
//! ```
//! use osss_jpeg2000::sim::{Simulation, SimTime};
//! use osss_jpeg2000::osss::{SharedObject, sched::Fcfs};
//!
//! # fn main() -> Result<(), osss_jpeg2000::sim::SimError> {
//! let mut sim = Simulation::new();
//! let so = SharedObject::new(&mut sim, "co_processor", 0u32, Fcfs::new());
//! let so2 = so.clone();
//! sim.spawn_process("client", move |ctx| {
//!     so2.call(ctx, |state, ctx| {
//!         *state += 1;
//!         ctx.wait(SimTime::us(10))
//!     })
//! });
//! assert_eq!(sim.run()?.end_time, SimTime::us(10));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use fossy;
pub use jpeg2000;
pub use jpeg2000_models as models;
pub use osss_core as osss;
pub use osss_sim as sim;
pub use osss_vta as vta;

pub use jpeg2000::chaos::{ChaosConfig, ChaosProxy, ChaosProxyStats, ChaosStats};
pub use jpeg2000::codec::{decode_tolerant, DecodeReport, DecodeStage, TileFailure};
pub use jpeg2000::error::{CodecError, ErrorSite};
pub use jpeg2000::net::{
    CircuitBreaker, CircuitState, Client, NetError, NetResponse, NetRetryPolicy, WireError,
    WireReport,
};
pub use jpeg2000::parallel::{
    decode_parallel, decode_parallel_observed, decode_tolerant_parallel, ParallelStats,
};
pub use jpeg2000::scratch::{DecodeCounters, DecodeScratch};
pub use jpeg2000::server::{DecodeServer, ServerConfig, ServerStats};
pub use jpeg2000::service::{
    DecodeService, Request, RequestKind, ServedFrom, ServiceConfig, ServiceError, ServiceResponse,
    ServiceStats, Ticket,
};
pub use jpeg2000_models::observe::{
    derive_from_trace, run_version_observed, ObservedRun, TraceDerived,
};
pub use osss_sim::probe::{MetricsRegistry, MetricsSnapshot};
pub use osss_sim::trace::{TraceRecord, Tracer};
