//! The Figure 1 experiment: per-stage execution-time profile of the
//! software-only decoder.
//!
//! The paper profiled a C implementation on the target processor; here
//! the Rust decoder is profiled natively (wall clock per stage) and the
//! resulting shares are compared against the published percentages.

use std::time::Instant;

use jpeg2000::codec::{decode, encode, EncodeParams, Mode};
use jpeg2000::image::Image;
use jpeg2000::scratch::DecodeScratch;
use osss_sim::SimTime;

use crate::timing::{figure1_shares, ARITH_PER_TILE};
use crate::workload::workload;
use crate::ModeSel;

/// Measured and published per-stage shares, in percent, ordered
/// `[arith decoder, IQ, IDWT, ICT, DC shift]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileResult {
    /// Which mode was profiled.
    pub mode: ModeSel,
    /// Shares measured on this machine's decoder.
    pub measured: [f64; 5],
    /// The shares Figure 1 reports.
    pub paper: [f64; 5],
}

impl ProfileResult {
    /// Whether the measured profile is entropy-decoder dominated, the
    /// property the whole case study builds on.
    pub fn entropy_dominates(&self) -> bool {
        self.measured[0] > 50.0
    }
}

/// Profiles a decode of a synthetic image and reports the stage shares.
///
/// `size` is the square image edge; larger images give more stable
/// shares (256 is a good default).
///
/// # Panics
///
/// Panics if encoding or decoding the synthetic workload fails — that
/// would be a codec bug, not a usage error.
pub fn profile(mode: ModeSel, size: usize) -> ProfileResult {
    let image = Image::synthetic_rgb(size, size, 1);
    let params = match mode {
        ModeSel::Lossless => EncodeParams::new(Mode::Lossless),
        ModeSel::Lossy => EncodeParams::new(Mode::lossy_default()),
    }
    .tile_size(size / 4, size / 4);
    let bytes = encode(&image, &params).expect("encode profile workload");
    let out = decode(&bytes).expect("decode profile workload");
    ProfileResult {
        mode,
        measured: out.timings.shares(),
        paper: figure1_shares(mode),
    }
}

/// Native per-tile entropy-decode time of the *pre-optimisation* Tier-1
/// kernel on the Table-1 workload, in ns. Measured on this machine
/// immediately before the flags-lattice rewrite; the same numbers live
/// in `BENCH_decode.json` under `baseline_pre_pr`. The paper's 180 ms
/// `OSSS_EET` annotation corresponds to *that* implementation, so the
/// ratio of a fresh measurement to this anchor is exactly the factor by
/// which the software EET must shrink for the simulation to keep
/// tracking the shipped kernel.
pub fn pre_optimisation_entropy_ns(mode: ModeSel) -> u64 {
    match mode {
        ModeSel::Lossless => 729_004,
        ModeSel::Lossy => 795_882,
    }
}

/// The arithmetic-stage software EET, re-derived from a kernel
/// measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArithEet {
    /// Which mode was measured.
    pub mode: ModeSel,
    /// Fresh per-tile entropy-decode time of the current kernel, ns.
    pub measured_ns: u64,
    /// `pre_optimisation_entropy_ns / measured_ns` — how much faster the
    /// current kernel is than the one the paper anchor describes.
    pub kernel_speedup: f64,
    /// The paper's anchor: 180 ms per tile on the target CPU.
    pub paper: SimTime,
    /// The anchor scaled by the measured speedup — what the software
    /// timing annotation should be for the optimised implementation.
    pub rederived: SimTime,
}

/// Scales the paper's 180 ms arithmetic anchor by the ratio of the given
/// measurement to the pre-optimisation native baseline. Pure so it can
/// be tested deterministically; see [`measure_arith_eet`] for the
/// measuring front-end.
pub fn rederive_arith_eet(mode: ModeSel, measured_ns: u64) -> ArithEet {
    let baseline = pre_optimisation_entropy_ns(mode);
    let speedup = baseline as f64 / measured_ns.max(1) as f64;
    let rederived = SimTime::ps((ARITH_PER_TILE.as_ps() as f64 / speedup) as u64);
    ArithEet {
        mode,
        measured_ns: measured_ns.max(1),
        kernel_speedup: speedup,
        paper: ARITH_PER_TILE,
        rederived,
    }
}

/// Measures the current Tier-1 kernel on the Table-1 workload
/// (best-of-`samples` per-tile entropy decode, one reused scratch arena)
/// and re-derives the arithmetic-stage software EET from it.
pub fn measure_arith_eet(mode: ModeSel, samples: usize) -> ArithEet {
    let wl = workload(mode);
    let tiles = wl.decoder.num_tiles();
    let mut scratch = DecodeScratch::new();
    let mut best = u64::MAX;
    for _ in 0..samples.max(1) {
        let t0 = Instant::now();
        for t in 0..tiles {
            let _ = wl
                .decoder
                .entropy_decode_tile_with(t, &mut scratch)
                .expect("entropy decode workload tile");
        }
        // `as_nanos()` is u128; a plain `as u64` cast would silently
        // wrap a pathological (stalled-clock) measurement. Saturate
        // instead — `u64::MAX` ns keeps the `min` fold correct.
        best = best.min(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    rederive_arith_eet(mode, best / tiles.max(1) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_shares_sum_to_100() {
        let p = profile(ModeSel::Lossless, 64);
        let sum: f64 = p.measured.iter().sum();
        assert!((sum - 100.0).abs() < 1e-6);
    }

    #[test]
    fn entropy_decoder_dominates_both_modes() {
        for mode in ModeSel::ALL {
            let p = profile(mode, 64);
            assert!(p.entropy_dominates(), "{mode}: measured {:?}", p.measured);
        }
    }

    #[test]
    fn rederived_eet_scales_with_measured_kernel() {
        // A kernel exactly at the baseline keeps the paper anchor.
        let same = rederive_arith_eet(
            ModeSel::Lossless,
            pre_optimisation_entropy_ns(ModeSel::Lossless),
        );
        assert!((same.kernel_speedup - 1.0).abs() < 1e-9);
        assert_eq!(same.rederived, same.paper);

        // A 2x-faster kernel halves the EET.
        let half = rederive_arith_eet(
            ModeSel::Lossy,
            pre_optimisation_entropy_ns(ModeSel::Lossy) / 2,
        );
        assert!((half.kernel_speedup - 2.0).abs() < 1e-2);
        let ratio = half.paper.as_ps() as f64 / half.rederived.as_ps() as f64;
        assert!((ratio - half.kernel_speedup).abs() < 1e-2);
    }

    #[test]
    fn rederive_survives_degenerate_measurements() {
        // A zero measurement (timer resolution floor) must not divide
        // by zero — it clamps to 1 ns.
        let z = rederive_arith_eet(ModeSel::Lossless, 0);
        assert_eq!(z.measured_ns, 1);
        assert!(z.kernel_speedup.is_finite() && z.kernel_speedup > 0.0);
        // An absurdly slow measurement keeps everything finite too.
        let slow = rederive_arith_eet(ModeSel::Lossy, u64::MAX);
        assert!(slow.kernel_speedup > 0.0);
        assert!(slow.rederived.as_ps() > 0);
    }

    /// The EET re-derivation has exactly two inputs besides the fresh
    /// measurement: the paper's 180 ms/tile anchor and the
    /// pre-optimisation native entropy baseline. Neither depends on the
    /// reconstruction stages, so datapath work (e.g. the fixed-point
    /// DWT rewrite) must leave them — and every simulated latency built
    /// on them — untouched. Pin both, and cross-check that the
    /// committed `BENCH_decode.json` still records the same anchor
    /// under `baseline_pre_pr`.
    #[test]
    fn eet_derivation_inputs_are_pinned() {
        assert_eq!(pre_optimisation_entropy_ns(ModeSel::Lossless), 729_004);
        assert_eq!(pre_optimisation_entropy_ns(ModeSel::Lossy), 795_882);
        assert_eq!(ARITH_PER_TILE, SimTime::ms(180));

        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_decode.json");
        let json = std::fs::read_to_string(path).expect("committed BENCH_decode.json");
        let pre_pr = &json[json
            .find("\"baseline_pre_pr\"")
            .expect("baseline_pre_pr block")..];
        let entropy = &pre_pr[pre_pr
            .find("\"entropy_per_tile_ns\"")
            .expect("entropy_per_tile_ns block")..];
        let entropy = &entropy[..entropy.find('}').expect("closing brace") + 1];
        for (name, mode) in [("lossless", ModeSel::Lossless), ("lossy", ModeSel::Lossy)] {
            let v = &entropy[entropy.find(&format!("\"{name}\"")).expect(name)..];
            let digits: String = v
                .chars()
                .skip_while(|c| !c.is_ascii_digit())
                .take_while(|c| c.is_ascii_digit())
                .collect();
            assert_eq!(
                digits.parse::<u64>().unwrap(),
                pre_optimisation_entropy_ns(mode),
                "{name}: BENCH_decode.json baseline_pre_pr drifted from the EET anchor"
            );
        }
    }

    #[test]
    fn measured_eet_is_sane_and_not_slower_than_paper_anchor_by_much() {
        for mode in ModeSel::ALL {
            let eet = measure_arith_eet(mode, 3);
            assert!(eet.measured_ns > 0);
            assert_eq!(eet.paper, ARITH_PER_TILE);
            // The Tier-1 kernel should not regress below the
            // pre-optimisation baseline; a wide margin keeps the test
            // robust on loaded CI machines. The baseline was measured
            // on an optimised build, so the comparison only means
            // something in release mode.
            if cfg!(debug_assertions) {
                assert!(eet.kernel_speedup > 0.0);
            } else {
                assert!(
                    eet.kernel_speedup > 0.5,
                    "{mode}: speedup {:.2}",
                    eet.kernel_speedup
                );
            }
            assert!(eet.rederived.as_ps() > 0);
        }
    }
}
