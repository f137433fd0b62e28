//! # osss-bench — benchmark harness for the paper's tables and figures
//!
//! One Criterion bench per evaluation artefact:
//!
//! | Bench | Regenerates |
//! |---|---|
//! | `table1_app` | Table 1, Application-Layer rows (versions 1–5) |
//! | `table1_vta` | Table 1, VTA rows (6a, 6b, 7a, 7b) |
//! | `table2_synth` | Table 2 (FOSSY vs reference synthesis) |
//! | `fig1_profile` | Figure 1 (per-stage decode profile) |
//! | `fig4_synthesis_flow` | Figure 4 (artefact generation) |
//! | `codec_kernels` | the codec's hot kernels (MQ, T1, DWT) |
//! | `kernel_overhead` | the simulation kernel's context-switch cost |
//!
//! Run them all with `cargo bench --workspace`; the printable tables come
//! from the `jpeg2000-models` binaries instead (`table1_simulation`,
//! `table2_synthesis`, `figure1_profile`).

use jpeg2000::codec::{encode, EncodeParams, Mode};
use jpeg2000::image::Image;
use std::time::Instant;

/// Best-of-`samples` wall-clock of `f`, in ns. Min (not mean) because
/// scheduler noise on a small shared host only ever adds time.
pub fn best_ns(samples: usize, mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..samples {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    best
}

/// A small encoded workload shared by the codec kernel benches.
pub fn encoded_workload(lossless: bool, size: usize) -> (Image, Vec<u8>) {
    let image = Image::synthetic_rgb(size, size, 77);
    let mode = if lossless {
        Mode::Lossless
    } else {
        Mode::lossy_default()
    };
    let bytes = encode(
        &image,
        &EncodeParams::new(mode).tile_size(size / 2, size / 2),
    )
    .expect("encode bench workload");
    (image, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_builder_works() {
        let (img, bytes) = encoded_workload(true, 32);
        assert_eq!(img.width, 32);
        assert!(!bytes.is_empty());
    }
}
