//! # jpeg2000 — a self-contained JPEG 2000 Part-1 style codec
//!
//! The DATE 2008 OSSS case study decodes JPEG 2000 imagery: MQ arithmetic
//! decoding (EBCOT Tier-1), inverse quantisation, inverse DWT (5/3
//! lossless, 9/7 lossy), inverse component transform and DC level shift,
//! processed tile by tile. The original study consumed a proprietary
//! Thales C++ implementation and conformance imagery; neither is available
//! offline, so this crate implements **both the encoder and the decoder**
//! from the published Part-1 algorithms — the encoder generates the
//! workload, the decoder is the system under study.
//!
//! Pipeline (decoder direction):
//!
//! ```text
//! codestream ─▶ T2 packets ─▶ MQ/T1 entropy decode ─▶ IQ ─▶ IDWT ─▶ ICT/RCT ─▶ DC shift ─▶ image
//! ```
//!
//! * [`mq`] — the MQ binary arithmetic coder (47-state table, byte stuffing).
//! * [`t1`] — EBCOT Tier-1 bit-plane coding (3 passes, 19 contexts).
//! * [`t2`] — tag trees and packet headers (quality layers, RLCP order).
//! * [`dwt`] — LeGall 5/3 (reversible) and CDF 9/7 (irreversible) lifting;
//!   the 9/7 inverse runs in Q16 fixed point.
//! * [`quant`] — dead-zone scalar quantiser.
//! * [`ct`] — RCT/ICT component transforms and DC level shift.
//! * [`codestream`] — marker-segment writer/parser.
//! * [`codec`] — tiled top-level [`codec::encode`] / [`codec::decode`],
//!   plus the stage-instrumented decoder behind the Figure-1 profile.
//! * [`parallel`] — tile-parallel [`parallel::decode_parallel`], the
//!   native mirror of the paper's 1/2/4-pipeline model versions.
//! * [`scratch`] — the [`scratch::DecodeScratch`] arena of reusable
//!   Tier-1/DWT buffers (one per decode, or one per parallel worker).
//! * [`service`] — the persistent [`service::DecodeService`]: a
//!   long-lived worker pool with a bounded queue, per-request deadlines
//!   and a two-level (header/image) LRU cache for repeat streams.
//! * [`fuzz`] — deterministic structure-aware mutation engine for
//!   fault-injection testing of the whole decode surface (see
//!   `tests/fuzz_decode.rs`); [`codec::decode_tolerant`] is the
//!   error-resilient entry point it exercises.
//! * [`net`] / [`server`] — a length-prefixed, CRC-framed wire
//!   protocol and a std-only TCP front-end ([`server::DecodeServer`])
//!   over the decode service, with a blocking [`net::Client`] that
//!   retries on backpressure.
//! * [`chaos`] — a deterministic TCP chaos proxy
//!   ([`chaos::ChaosProxy`]) that injects partial writes, stalls, byte
//!   corruption, connection drops and blackholes between client and
//!   server from a seeded, replayable schedule (see `tests/chaos.rs`).
//!
//! ## Example
//!
//! ```
//! use jpeg2000::image::Image;
//! use jpeg2000::codec::{encode, decode, EncodeParams, Mode};
//!
//! # fn main() -> Result<(), jpeg2000::error::CodecError> {
//! let img = Image::synthetic_rgb(64, 64, 7);
//! let bytes = encode(&img, &EncodeParams::new(Mode::Lossless))?;
//! let out = decode(&bytes)?;
//! assert_eq!(img, out.image); // 5/3 + RCT is bit-exact
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod chaos;
pub mod codec;
pub mod codestream;
pub mod ct;
pub mod dwt;
pub mod error;
#[cfg(test)]
mod explore;
pub mod fuzz;
pub mod image;
pub mod io;
pub mod mq;
pub mod net;
pub mod parallel;
pub mod quant;
pub mod scratch;
pub mod server;
pub mod service;
pub mod t1;
pub mod t2;
pub mod tile;

/// `Duration` → [`osss_sim::SimTime`], saturating: `as_nanos()` is
/// `u128` and `SimTime::ns` multiplies unchecked, so clamp at both
/// steps. The service and server histograms share it, so
/// `server.latency` and `service.service_time` are directly comparable.
pub(crate) fn sim_time(d: std::time::Duration) -> osss_sim::SimTime {
    let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    osss_sim::SimTime::ps(ns.saturating_mul(1_000))
}
