//! # osss-core — the OSSS Application Layer
//!
//! Re-implementation of the OSSS (Oldenburg System Synthesis Subset)
//! Application-Layer modelling concepts from the DATE 2008 JPEG 2000
//! case study:
//!
//! * [`SharedObject`] — passive objects offering **blocking, method-based
//!   communication** between active components, with pluggable arbitration
//!   ([`sched::Fcfs`], [`sched::RoundRobin`], [`sched::StaticPriority`])
//!   and *guarded methods*.
//! * [`TaskEnv::eet`] — Estimated Execution Time annotation blocks. On
//!   the Application Layer an EET simply elapses simulated time; on the
//!   VTA layer the same call consumes exclusive processor time through an
//!   [`EetSink`] (see `osss-vta`), which is exactly the paper's
//!   "seamless refinement" property: behaviour code is written once.
//! * [`SwTask`] — the software task, one process with its [`TaskEnv`];
//!   hardware blocks are plain kernel processes.
//!
//! ## Example
//!
//! ```
//! use osss_sim::{Simulation, SimTime};
//! use osss_core::{SharedObject, sched::Fcfs, TaskEnv};
//!
//! # fn main() -> Result<(), osss_sim::SimError> {
//! let mut sim = Simulation::new();
//! // A shared object wrapping a co-processor state.
//! let so = SharedObject::new(&mut sim, "iq_idwt", 0u64, Fcfs::new());
//!
//! let env = TaskEnv::application_layer("decoder");
//! let so2 = so.clone();
//! sim.spawn_process("sw_task", move |ctx| {
//!     // Blocking method call: does not return until the body completes.
//!     let sum = so2.call(ctx, |state, ctx| {
//!         *state += 42;
//!         ctx.wait(SimTime::us(10))?; // the co-processor's compute time
//!         Ok(*state)
//!     })?;
//!     assert_eq!(sum, 42);
//!     env.eet(ctx, SimTime::us(5), || ())?; // annotated software work
//!     Ok(())
//! });
//! assert_eq!(sim.run()?.end_time, SimTime::us(15));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod eet;
pub mod sched;
mod shared;
mod task;

pub use eet::{EetSink, TaskEnv, UnboundTime};
pub use shared::{CallOptions, SharedObject, SoStats};
pub use task::SwTask;
