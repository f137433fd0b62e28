//! # fossy — a FOSSY-style high-level synthesis flow
//!
//! Re-implementation of the role the FOSSY tool (Functional Oldenburg
//! System SYnthesiser) plays in the OSSS flow: transform the synthesisable
//! subset description of the hardware subsystem into
//!
//! * **VHDL** for the hardware blocks — with FOSSY's signature
//!   transformation: *all functions and procedures inlined into a single
//!   explicit state machine, identifiers preserved* ([`passes`],
//!   [`emit::vhdl`]);
//! * **C** for the software tasks, linked against an OSSS embedded
//!   runtime ([`emit::c`]);
//! * **MHS/MSS platform files** for the EDK-style project of the target
//!   board ([`emit::platform`]).
//!
//! Because Xilinx ISE/XST cannot be run here, [`estimate`] provides a
//! consistent Virtex-4 technology mapper (4-input LUTs, slice flip-flops,
//! occupied slices, equivalent gates, fmax from the critical path) used
//! to regenerate Table 2 of the paper. [`idwt`] contains the case study's
//! IDWT53/IDWT97 designs in both styles — the FOSSY input (functions +
//! one control FSM) and the hand-written reference (pipelined processes).
//!
//! ## Example
//!
//! ```
//! use fossy::idwt;
//! use fossy::passes::inline_entity;
//! use fossy::emit::vhdl;
//! use fossy::estimate::{estimate_entity, Virtex4};
//!
//! let input = idwt::idwt53_fossy_input();
//! let synthesised = inline_entity(&input);       // the FOSSY transformation
//! let code = vhdl::emit_entity(&synthesised);
//! assert!(code.contains("entity idwt53"));
//! let report = estimate_entity(&synthesised, &Virtex4::lx25());
//! assert!(report.luts > 0 && report.fmax_mhz > 50.0);
//! ```

#![forbid(unsafe_code)]

pub mod build;
pub mod emit;
pub mod estimate;
pub mod idwt;
pub mod interp;
pub mod ir;
pub mod passes;
