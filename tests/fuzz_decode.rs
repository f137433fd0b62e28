//! Deterministic fuzz / fault-injection harness over the decode surface.
//!
//! Structure-aware seeded mutations (see `jpeg2000::fuzz`) of valid
//! codestreams are thrown at every public decode entry point. The
//! contract under test: **no input may panic or hang** — malformed
//! bytes produce structured `CodecError`s (strict API) or a best-effort
//! image plus `DecodeReport` (tolerant API), never a crash.
//!
//! Reproducibility: every case is identified by `(FUZZ_SEED, seed
//! stream name, iteration)`. A failing input is written to
//! `tests/corpus/` and the harness panics with the triple; the corpus
//! file is then replayed forever after by `corpus_replays_cleanly`.
//!
//! Knobs (environment):
//! * `FUZZ_ITERS` — mutations per seed stream (default: 30 for the
//!   smoke test, 2000 for the `#[ignore]`d deep test).
//! * `FUZZ_SEED` — master RNG seed (default fixed, so CI runs are
//!   deterministic).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use osss_jpeg2000::jpeg2000::codec::{decode, decode_tolerant};
use osss_jpeg2000::jpeg2000::fuzz::{
    exercise_decode_surface, marker_boundaries, seed_streams, Mutator,
};

/// Wall-clock budget per mutated input across the whole decode surface
/// (debug builds on loaded CI machines included). A decoder hang —
/// an unbounded parse loop — shows up as a budget overrun.
const CASE_BUDGET: Duration = Duration::from_secs(30);

const DEFAULT_SMOKE_ITERS: usize = 30;
/// 2000 per seed × 5 seed streams = 10 000 mutations, the CI-smoke
/// floor from the issue's acceptance criteria.
const DEFAULT_DEEP_ITERS: usize = 2000;
const DEFAULT_SEED: u64 = 0x4A50_3230_3030_2101; // "JP2000!."-flavoured

fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_u64(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// Runs the full decode surface on `bytes` inside a watchdog: a worker
/// thread executes, the caller waits with a deadline. Panics are caught
/// (`Err("panic")`), deadline overruns detected (`Err("hang")` — the
/// stuck thread is leaked, which is fine for a test process).
fn run_case(bytes: Vec<u8>) -> Result<(), &'static str> {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let ok = catch_unwind(AssertUnwindSafe(|| exercise_decode_surface(&bytes))).is_ok();
        let _ = tx.send(ok);
    });
    match rx.recv_timeout(CASE_BUDGET) {
        Ok(true) => Ok(()),
        Ok(false) => Err("panic"),
        Err(_) => Err("hang (wall-clock budget exceeded)"),
    }
}

/// The shared fuzz loop: `iters` mutations of every seed stream. On
/// failure the offending input is persisted to the corpus and the test
/// panics with everything needed to reproduce.
fn fuzz_all_seeds(iters: usize, master_seed: u64) {
    for (name, seed_bytes) in seed_streams() {
        // Derive a per-stream RNG so adding a seed stream does not
        // shift the mutation sequence of the others.
        let stream_seed = master_seed ^ (name.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut mutator = Mutator::new(stream_seed);
        for i in 0..iters {
            let (mutated, mutation) = mutator.mutate(&seed_bytes);
            if let Err(kind) = run_case(mutated.clone()) {
                let file = corpus_dir().join(format!("{kind}-{name}-{master_seed:#x}-{i}.j2k"));
                let _ = std::fs::create_dir_all(corpus_dir());
                let _ = std::fs::write(&file, &mutated);
                panic!(
                    "decode surface {kind} — seed stream `{name}`, FUZZ_SEED {master_seed:#x}, \
                     iteration {i}, mutation {} ({}); input saved to {}",
                    mutation.kind,
                    mutation.detail,
                    file.display()
                );
            }
        }
    }
}

/// Tier-1 smoke: a bounded deterministic slice of the mutation space on
/// every `cargo test`. The deep version below covers the acceptance
/// floor of ≥ 10k mutations in release builds (CI fuzz job).
#[test]
fn fuzz_smoke_no_panic_no_hang() {
    fuzz_all_seeds(
        env_usize("FUZZ_ITERS", DEFAULT_SMOKE_ITERS),
        env_u64("FUZZ_SEED", DEFAULT_SEED),
    );
}

/// ≥ 10 000 seeded mutations across both coding modes. Run by the CI
/// fuzz job as `cargo test --release -- --ignored fuzz_deep`.
#[test]
#[ignore = "deep fuzz (10k mutations): run in release, e.g. via the CI fuzz job"]
fn fuzz_deep_10k_mutations() {
    fuzz_all_seeds(
        env_usize("FUZZ_ITERS", DEFAULT_DEEP_ITERS),
        env_u64("FUZZ_SEED", DEFAULT_SEED),
    );
}

/// Every input that ever crashed the decoder is replayed on every test
/// run — the corpus is the regression memory of the fuzz harness.
#[test]
fn corpus_replays_cleanly() {
    let dir = corpus_dir();
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return; // no corpus yet
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "j2k"))
        .collect();
    files.sort();
    for f in files {
        let bytes = std::fs::read(&f).expect("corpus file readable");
        if let Err(kind) = run_case(bytes) {
            panic!("corpus input {} regressed: {kind}", f.display());
        }
    }
}

/// Exhaustive truncation sweep, strict API: every byte-length prefix of
/// the pinned Table-1 streams must fail (or, at full length, succeed)
/// without panicking. Strict parsing fails fast, so the full sweep is
/// cheap even in debug builds.
#[test]
fn truncation_sweep_strict_every_prefix() {
    for (name, bytes) in seed_streams().into_iter().take(2) {
        for cut in 0..=bytes.len() {
            let r = decode(&bytes[..cut]);
            if cut == bytes.len() {
                assert!(r.is_ok(), "{name}: full stream must decode");
            } else {
                assert!(r.is_err(), "{name}: prefix {cut} cannot be a valid stream");
            }
        }
    }
}

/// Truncation sweep, tolerant API: `decode_tolerant` on prefixes. The
/// default run covers every marker boundary (±2 bytes) plus a byte
/// stride; the `#[ignore]`d exhaustive version covers every prefix in
/// release builds. Invariant: once the main header parses, the output
/// image always has the SIZ geometry.
#[test]
fn truncation_sweep_tolerant_boundaries() {
    for (name, bytes) in seed_streams().into_iter().take(2) {
        let mut cuts: Vec<usize> = marker_boundaries(&bytes)
            .into_iter()
            .flat_map(|p| [p.saturating_sub(2), p, (p + 2).min(bytes.len())])
            .collect();
        cuts.extend((0..=bytes.len()).step_by(997));
        cuts.sort_unstable();
        cuts.dedup();
        for cut in cuts {
            tolerant_prefix_holds_geometry(name, &bytes, cut);
        }
    }
}

/// Exhaustive tolerant sweep — every prefix of both Table-1 streams.
/// O(prefix-count × decode), so kept out of the debug tier-1 run.
#[test]
#[ignore = "exhaustive tolerant truncation sweep: run in release via the CI fuzz job"]
fn truncation_sweep_tolerant_every_prefix() {
    for (name, bytes) in seed_streams().into_iter().take(2) {
        for cut in 0..=bytes.len() {
            tolerant_prefix_holds_geometry(name, &bytes, cut);
        }
    }
}

fn tolerant_prefix_holds_geometry(name: &str, bytes: &[u8], cut: usize) {
    match decode_tolerant(&bytes[..cut]) {
        Ok((image, report)) => {
            // Geometry invariant: the image matches the SIZ header.
            assert_eq!(
                (image.width, image.height),
                (128, 128),
                "{name}: prefix {cut}"
            );
            if cut < bytes.len() {
                assert!(
                    !report.is_clean(),
                    "{name}: prefix {cut} lost data but reported clean"
                );
            }
        }
        Err(_) => {
            // Acceptable only while the main header is incomplete.
            // Both Table-1 streams share the same header layout:
            // SOC(2) + SIZ(2+2+16+2+3) + COD(2+2+7) + QCD ends later;
            // any cut past the QCD segment has a full main header.
            let segs = osss_jpeg2000::jpeg2000::fuzz::scan_markers(bytes);
            let header_end = segs
                .iter()
                .find(|s| s.marker == osss_jpeg2000::jpeg2000::codestream::MARKER_QCD)
                .map(|s| s.offset + s.len)
                .expect("seed has QCD");
            assert!(
                cut < header_end,
                "{name}: prefix {cut} has a complete main header yet decode_tolerant failed"
            );
        }
    }
}

/// Named regression: the corrupt-single-tile acceptance scenario at the
/// integration level (the unit-level twin lives in `codec.rs`), via the
/// facade exports.
#[test]
fn facade_tolerant_exports_work() {
    use osss_jpeg2000::jpeg2000::codec::{encode, EncodeParams, Mode};
    use osss_jpeg2000::jpeg2000::image::Image;

    let img = Image::synthetic_rgb(64, 64, 31);
    let bytes = encode(&img, &EncodeParams::new(Mode::Lossless).tile_size(32, 32)).unwrap();
    let (seq, seq_report) = osss_jpeg2000::decode_tolerant(&bytes).unwrap();
    let (par, par_report) = osss_jpeg2000::decode_tolerant_parallel(&bytes, 4).unwrap();
    assert!(seq_report.is_clean() && par_report.is_clean());
    assert_eq!(seq, par);
    assert_eq!(seq, decode(&bytes).unwrap().image);
}
