//! # osss-vta — the OSSS Virtual Target Architecture layer
//!
//! The second OSSS modelling layer: the Application Model's logical
//! components are mapped onto architecture resources, adding
//! cycle-accurate communication and memory timing while leaving the
//! behaviour code untouched (the paper's *seamless refinement*).
//!
//! * [`SoftwareProcessor`] — software tasks map N:1 onto processors; an
//!   EET block then consumes **exclusive CPU time** instead of free time.
//! * [`OpbBus`] / [`P2pChannel`] — OSSS Channels: a shared multi-master
//!   bus (the case study's IBM OPB) and dedicated point-to-point links,
//!   both behind the [`Channel`] trait.
//! * [`RmiService`] — the Remote Method Invocation layer that carries the
//!   Application Layer's method calls over any channel: serialise the
//!   arguments, transfer, execute under the shared object's arbitration,
//!   transfer the results back.
//! * [`Serialise`] — cuts user data (tiles!) into bus words.
//! * [`FaultyChannel`] / [`ReliableRmi`] — the robustness layer: a
//!   seeded, deterministic transport fault injector and a CRC-framed,
//!   retrying RMI protocol that survives it (timeout, bounded retries,
//!   exponential backoff).
//! * [`XilinxBlockRam`] — explicit memory; inserting it into a shared
//!   object is what inflates the VTA IDWT times in Table 1.
//! * [`PlatformDesc`] — a declarative description of the assembled
//!   platform, consumed by `fossy`'s MHS/MSS emitters.
//!
//! ## Example: one EET, two mappings
//!
//! ```
//! use osss_sim::{Simulation, SimTime, Frequency};
//! use osss_core::TaskEnv;
//! use osss_vta::SoftwareProcessor;
//!
//! # fn main() -> Result<(), osss_sim::SimError> {
//! let mut sim = Simulation::new();
//! let cpu = SoftwareProcessor::new(&mut sim, "ppc405", Frequency::mhz(100));
//! // Two tasks on ONE processor: their EETs serialise.
//! for i in 0..2 {
//!     let env = cpu.env(&format!("task{i}"));
//!     sim.spawn_process(&format!("task{i}"), move |ctx| {
//!         env.eet(ctx, SimTime::ms(10), || ())
//!     });
//! }
//! assert_eq!(sim.run()?.end_time, SimTime::ms(20));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod bus;
mod channel;
mod fault;
mod mem;
mod p2p;
mod platform;
mod processor;
mod reliable;
mod rmi;
mod serialise;

pub use bus::{BusConfig, OpbBus};
pub use channel::{Channel, ChannelStats, TransferOutcome};
pub use fault::{FaultConfig, FaultStats, FaultyChannel};
pub use mem::{MemStats, XilinxBlockRam};
pub use p2p::P2pChannel;
pub use platform::{BusDesc, MemoryDesc, P2pDesc, PlatformDesc, ProcessorDesc};
pub use processor::{CpuStats, SoftwareProcessor};
pub use reliable::{
    check_frame, encode_frame, ReliableRmi, RetryPolicy, RmiError, RmiStats, RELIABLE_TRAILER_WORDS,
};
pub use rmi::RmiService;
pub use serialise::{Deserialise, Serialise, WORD_BYTES};
