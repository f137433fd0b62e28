//! # osss-bench — benchmark harness for the paper's tables and figures
//!
//! One bench per evaluation artefact, plus the codec, serving and
//! network benches that track this implementation's own speed:
//!
//! | Bench | Measures |
//! |---|---|
//! | `table1_app` | Table 1, Application-Layer rows (versions 1–5) |
//! | `table1_vta` | Table 1, VTA rows (6a, 6b, 7a, 7b) |
//! | `table2_synth` | Table 2 (FOSSY vs reference synthesis) |
//! | `fig1_profile` | Figure 1 (per-stage decode profile) |
//! | `fig4_synthesis_flow` | Figure 4 (artefact generation) |
//! | `kernel_overhead` | the simulation kernel's context-switch cost |
//! | `parallel_scaling` | tile-parallel decode vs sequential |
//! | `t1_throughput` | the codec kernels (MQ, Tier-1, DWT) and end-to-end decode; gated, writes `BENCH_decode.json` |
//! | `serve_throughput` | the decode service's cold and cached paths; writes `BENCH_serve.json` |
//! | `net_throughput` | the service over loopback TCP, and CRC-32; writes `BENCH_net.json` |
//! | `chaos_soak` | goodput direct, through a clean and through a lossy proxy; writes `BENCH_chaos.json` |
//!
//! Run them all with `cargo bench --workspace`; append `-- --test` (or
//! set `BENCH_QUICK`) for a smoke pass that times each case once and
//! writes no JSON. The printable tables come from the
//! `jpeg2000-models` binaries instead (`table1_simulation`,
//! `table2_synthesis`, `figure1_profile`).

#![forbid(unsafe_code)]

use jpeg2000::codec::{encode, EncodeParams, Mode};
use jpeg2000::image::Image;
use std::hint::black_box;
use std::time::{Duration, Instant};

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

/// True for a reduced smoke pass: when any argument is `--test` (as
/// `cargo test --benches` and `cargo bench -- --test` pass it) or
/// `BENCH_QUICK` is set.
pub fn quick() -> bool {
    std::env::args().any(|a| a == "--test") || std::env::var_os("BENCH_QUICK").is_some()
}

/// Times `f`: one warm-up call, then the best of `samples` calls, or a
/// single call in [`quick`] mode. Each result goes through
/// [`black_box`] so the work cannot be optimised away. Prints one
/// `group/case` line and returns the time in ns.
pub fn bench<R>(group: &str, case: &str, samples: usize, mut f: impl FnMut() -> R) -> u64 {
    let samples = if quick() {
        1
    } else {
        black_box(f());
        samples
    };
    let ns = best_ns(samples, || {
        black_box(f());
    });
    println!(
        "{group}/{case}: {:?} (best of {samples})",
        Duration::from_nanos(ns)
    );
    ns
}

/// `BENCH_<name>.json` at the repository root.
pub fn json_path(name: &str) -> String {
    format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"))
}

/// Writes `json` to [`json_path`], except in [`quick`] mode, so a noisy
/// smoke pass never overwrites a recorded trajectory.
pub fn write_json(name: &str, json: &str) {
    if quick() {
        println!("quick mode: skipping BENCH_{name}.json");
        return;
    }
    let path = json_path(name);
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
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
    fn bench_warms_up_then_takes_the_best_of_n() {
        let mut calls = 0;
        bench("g", "c", 3, || calls += 1);
        assert_eq!(calls, if quick() { 1 } else { 1 + 3 });
    }

    #[test]
    fn workload_builder_works() {
        let (img, bytes) = encoded_workload(true, 32);
        assert_eq!(img.width, 32);
        assert!(!bytes.is_empty());
    }
}
