//! # osss-sim — a deterministic discrete-event simulation kernel
//!
//! This crate is the substrate the OSSS methodology runs on. It plays the
//! role the OSCI SystemC kernel plays for the original OSSS library:
//! cooperative processes, blocking waits, and events with delta and
//! timed notification — all with a deterministic scheduling order. The
//! OSSS layers build their shared objects, software tasks and VTA
//! channels from these alone, so SystemC's primitive channels (signals
//! and their update phase, FIFOs, mutexes, semaphores) have no
//! counterpart here.
//!
//! Processes are OS threads driven **cooperatively**: exactly one process
//! runs at any instant, and control returns to the scheduler whenever a
//! process calls one of the [`Context`] wait operations. This gives the
//! blocking-method-call semantics OSSS shared objects require without any
//! data races (the kernel and the running process strictly alternate).
//!
//! ## Example
//!
//! ```
//! use osss_sim::{Simulation, SimTime};
//!
//! # fn main() -> Result<(), osss_sim::SimError> {
//! let mut sim = Simulation::new();
//! let ping = sim.event("ping");
//!
//! let ping2 = ping.clone();
//! sim.spawn_process("producer", move |ctx| {
//!     ctx.wait(SimTime::ns(10))?;
//!     ctx.notify(&ping2);
//!     Ok(())
//! });
//! sim.spawn_process("consumer", move |ctx| {
//!     ctx.wait_event(&ping)?;
//!     assert_eq!(ctx.now(), SimTime::ns(10));
//!     Ok(())
//! });
//!
//! let report = sim.run()?;
//! assert_eq!(report.end_time, SimTime::ns(10));
//! # Ok(())
//! # }
//! ```

// The one exception is `checksum::crc32`'s call into its carry-less
// fold, made only after the CPU features it needs are detected.
#![deny(unsafe_code)]

pub mod checksum;
mod context;
mod error;
mod event;
mod kernel;
pub mod probe;
mod time;
pub mod trace;
pub mod vcd;

pub use context::Context;
pub use error::{SimError, SimResult};
pub use event::Event;
pub use kernel::{ProcId, SimReport, Simulation};
pub use time::{Frequency, SimTime};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering from poisoning.
///
/// Poisoning only records that *some* thread panicked while holding the
/// guard; it does not mean the data is broken. When a process thread
/// panics, the kernel catches it and keeps locking its own state and the
/// shared objects' to report the panic as a [`SimError`] and tear the run
/// down, instead of panicking again in every other process. The decode
/// service's queue and caches, the server's connection queue and the
/// chaos proxy's stats leave their state consistent before anything in
/// them can panic, so they keep serving (regressions:
/// `lock_survives_a_panic_while_held`,
/// `process_panic_is_reported_as_error`,
/// `service_survives_a_poisoned_lock`).
pub fn lock_unpoisoned<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_survives_a_panic_while_held() {
        let m = std::sync::Arc::new(Mutex::new(0));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = lock_unpoisoned(&m2);
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        *lock_unpoisoned(&m) = 7;
        assert_eq!(*lock_unpoisoned(&m), 7);
    }
}
