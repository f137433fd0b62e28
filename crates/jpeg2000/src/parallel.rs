//! Tile-parallel decoding.
//!
//! JPEG 2000 tiles are self-contained codestream segments: every stage
//! of the [`StagedDecoder`] takes `&self` and touches only the tile it
//! was given, and the tiles' image regions are disjoint. The paper's
//! Application-Layer exploration (model versions 2–5) exploits exactly
//! this — 1, 2 or 4 decoder pipelines over independent tiles. This
//! module is the native-execution mirror of that design space: a pool
//! of worker threads draining a shared atomic tile queue, bit-exact
//! against the sequential [`decode`](crate::codec::decode).
//!
//! ```
//! use jpeg2000::image::Image;
//! use jpeg2000::codec::{encode, decode, EncodeParams, Mode};
//! use jpeg2000::parallel::decode_parallel;
//!
//! # fn main() -> Result<(), jpeg2000::error::CodecError> {
//! let img = Image::synthetic_rgb(64, 64, 7);
//! let bytes = encode(&img, &EncodeParams::new(Mode::Lossless).tile_size(16, 16))?;
//! let par = decode_parallel(&bytes, 4)?;
//! assert_eq!(par.image, decode(&bytes)?.image); // bit-exact
//! # Ok(())
//! # }
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::codec::{DecodeReport, DecodeTimings, DecodedImage, RequestKind, StagedDecoder};
use crate::error::CodecResult;
use crate::image::Image;
use crate::scratch::{DecodeCounters, DecodeScratch};

/// Observer invoked as `(worker, tile)` the moment a worker claims a
/// tile off the shared queue — before any decode work on it happens.
pub type TileProbe<'p> = &'p (dyn Fn(usize, usize) + Sync);

/// Resolves a requested worker count: `0` means "one pipeline per
/// available hardware thread". The `available_parallelism` probe is a
/// syscall, and it used to be paid on every decode request — on the
/// service hot path that is pure overhead for a value that cannot
/// change mid-process, so it is probed once and cached for the life of
/// the process. Shared by [`decode_parallel`],
/// [`decode_tolerant_parallel`] and
/// [`crate::service::DecodeService`].
pub fn resolve_workers(requested: usize) -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    match requested {
        0 => *AUTO.get_or_init(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }),
        n => n,
    }
}

/// What a parallel decode did: worker-level tile distribution plus the
/// decoder work counters merged across all workers' scratch arenas.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Worker threads actually used (after capping by the tile count).
    pub workers: usize,
    /// Tiles decoded by each worker, indexed by worker id.
    pub per_worker_tiles: Vec<u64>,
    /// Merged [`DecodeCounters`] of every worker.
    pub counters: DecodeCounters,
}

/// Decodes a codestream with `workers` parallel tile pipelines.
///
/// Output is bit-exact with the sequential [`decode`](crate::codec::decode):
/// tiles cover disjoint image regions, so assembling them in any order
/// yields the same image. Per-stage [`DecodeTimings`] are summed over
/// tiles exactly as in the sequential decoder — with `n` workers the
/// wall-clock time is roughly `timings.total() / n`.
///
/// `workers == 0` selects `std::thread::available_parallelism`. A
/// worker count exceeding the number of tiles is safe. `workers == 1`
/// decodes on the calling thread without spawning.
///
/// # Errors
///
/// Any [`CodecError`](crate::error::CodecError) from parsing or entropy
/// decoding; among several
/// failing tiles the lowest-indexed tile's error is returned, matching
/// the sequential decoder.
pub fn decode_parallel(bytes: &[u8], workers: usize) -> CodecResult<DecodedImage> {
    decode_parallel_observed(bytes, workers, None).map(|(img, _)| img)
}

/// [`decode_parallel`] plus observability: returns the per-worker tile
/// distribution and merged decoder work counters, and invokes `probe`
/// (if any) as each tile is claimed. With `probe: None` this adds only
/// the per-tile counter tallies the scratch arenas collect anyway.
///
/// # Errors
///
/// Exactly those of [`decode_parallel`].
pub fn decode_parallel_observed(
    bytes: &[u8],
    workers: usize,
    probe: Option<TileProbe<'_>>,
) -> CodecResult<(DecodedImage, ParallelStats)> {
    decode_tiles_parallel(bytes, RequestKind::Strict, workers, probe)
        .map(|(out, _, stats)| (out, stats))
}

/// Tolerant decoding with `workers` parallel tile pipelines — the
/// parallel form of [`decode_tolerant`](crate::codec::decode_tolerant).
/// Each tile's failures are collected separately and merged in tile
/// order (after the tile-parse failures) under the single global
/// [`crate::codec::MAX_REPORTED_ERRORS`] cap, so the merged
/// [`DecodeReport`] equals the sequential tolerant decoder's report —
/// same failures, same order, same capped set — for any worker count
/// and any scheduling.
///
/// # Errors
///
/// Main-header failures only.
pub fn decode_tolerant_parallel(
    bytes: &[u8],
    workers: usize,
) -> CodecResult<(Image, DecodeReport)> {
    decode_tiles_parallel(bytes, RequestKind::Tolerant, workers, None)
        .map(|(out, report, _)| (out.image, report))
}

/// The claim loop behind both entry points: `workers` threads (the
/// caller itself when there is one) drain a shared atomic tile queue,
/// each running [`StagedDecoder::decode_tile`] with its own
/// [`DecodeScratch`] arena, reused across every tile it claims — no
/// cross-thread buffer sharing, no per-block allocation. Tiles are
/// assembled in tile order, so the lowest-indexed tile's error wins and
/// per-tile reports merge exactly as the sequential loop records them.
fn decode_tiles_parallel(
    bytes: &[u8],
    kind: RequestKind,
    workers: usize,
    probe: Option<TileProbe<'_>>,
) -> CodecResult<(DecodedImage, DecodeReport, ParallelStats)> {
    let (dec, mut report) = StagedDecoder::open(bytes, kind)?;
    let num_tiles = dec.num_tiles();
    let workers = resolve_workers(workers).min(num_tiles.max(1));
    let next = AtomicUsize::new(0);
    let claim = |worker: usize| {
        let mut scratch = DecodeScratch::new();
        let mut timings = DecodeTimings::default();
        let mut done = Vec::new();
        loop {
            let t = next.fetch_add(1, Ordering::Relaxed);
            if t >= num_tiles {
                return (done, timings, scratch.counters());
            }
            if let Some(p) = probe {
                p(worker, t);
            }
            let mut tile_report = DecodeReport::default();
            let samples = dec.decode_tile(t, kind, &mut scratch, &mut tile_report, &mut timings);
            done.push((t, samples, tile_report));
        }
    };
    let per_worker: Vec<_> = if workers <= 1 {
        vec![claim(0)]
    } else {
        std::thread::scope(|scope| {
            let claim = &claim;
            let handles: Vec<_> = (0..workers)
                .map(|w| scope.spawn(move || claim(w)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    };

    let mut stats = ParallelStats {
        workers,
        per_worker_tiles: Vec::with_capacity(workers),
        counters: DecodeCounters::default(),
    };
    let mut timings = DecodeTimings::default();
    let mut per_tile = Vec::with_capacity(num_tiles);
    for (done, worker_timings, counters) in per_worker {
        stats.per_worker_tiles.push(done.len() as u64);
        stats.counters.merge(&counters);
        timings.merge(&worker_timings);
        per_tile.extend(done);
    }
    per_tile.sort_by_key(|&(t, _, _)| t);
    let mut image = dec.output_image(kind);
    for (_, samples, tile_report) in per_tile {
        dec.place_tile(&mut image, &samples?);
        report.merge(tile_report);
    }
    Ok((DecodedImage { image, timings }, report, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode, encode, EncodeParams, Mode};
    use crate::image::Image;

    fn roundtrip_bytes(w: usize, h: usize, tile: usize, mode: Mode, seed: u64) -> Vec<u8> {
        let img = Image::synthetic_rgb(w, h, seed);
        encode(&img, &EncodeParams::new(mode).tile_size(tile, tile)).expect("encode")
    }

    #[test]
    fn parallel_matches_sequential_lossless() {
        let bytes = roundtrip_bytes(96, 64, 32, Mode::Lossless, 11);
        let seq = decode(&bytes).expect("seq");
        for workers in [0, 1, 2, 3, 4, 8] {
            let par = decode_parallel(&bytes, workers).expect("par");
            assert_eq!(par.image, seq.image, "workers = {workers}");
        }
    }

    #[test]
    fn parallel_matches_sequential_lossy() {
        let bytes = roundtrip_bytes(64, 96, 16, Mode::lossy_default(), 12);
        let seq = decode(&bytes).expect("seq");
        let par = decode_parallel(&bytes, 4).expect("par");
        assert_eq!(par.image, seq.image);
    }

    #[test]
    fn more_workers_than_tiles_is_safe() {
        // Single tile, many workers.
        let bytes = roundtrip_bytes(24, 24, 32, Mode::Lossless, 13);
        let par = decode_parallel(&bytes, 64).expect("par");
        assert_eq!(par.image, decode(&bytes).expect("seq").image);
    }

    #[test]
    fn corrupt_stream_errors_match_sequential() {
        let mut bytes = roundtrip_bytes(64, 64, 16, Mode::Lossless, 15);
        // Truncate inside the tile data: both paths must reject, not panic.
        bytes.truncate(bytes.len() / 2);
        let seq = decode(&bytes);
        let par = decode_parallel(&bytes, 4);
        assert!(seq.is_err());
        assert!(par.is_err());
    }

    #[test]
    fn observed_decode_counts_workers_tiles_and_decoder_work() {
        // 96×96 with 32×32 tiles = 9 tiles.
        let bytes = roundtrip_bytes(96, 96, 32, Mode::Lossless, 17);
        let claims = std::sync::Mutex::new(Vec::<(usize, usize)>::new());
        let probe = |w: usize, t: usize| claims.lock().expect("probe lock").push((w, t));
        let (par, stats) = decode_parallel_observed(&bytes, 3, Some(&probe)).expect("par");
        assert_eq!(par.image, decode(&bytes).expect("seq").image);
        assert_eq!(stats.workers, 3);
        assert_eq!(stats.per_worker_tiles.len(), 3);
        assert_eq!(stats.per_worker_tiles.iter().sum::<u64>(), 9);
        assert_eq!(stats.counters.tiles, 9);
        assert_eq!(stats.counters.samples_out, 96 * 96 * 3);
        assert!(stats.counters.code_blocks >= 9, "≥1 block per tile");
        assert!(stats.counters.coding_passes > 0);
        assert!(stats.counters.mq_renorms > 0);
        assert!(stats.counters.bytes_in > 0);
        // Every tile claimed exactly once, by a valid worker.
        let mut claimed = claims.into_inner().expect("claims");
        assert!(claimed.iter().all(|&(w, _)| w < 3));
        claimed.sort_unstable_by_key(|&(_, t)| t);
        let tiles: Vec<usize> = claimed.iter().map(|&(_, t)| t).collect();
        assert_eq!(tiles, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn observed_single_worker_runs_inline() {
        let bytes = roundtrip_bytes(64, 64, 32, Mode::Lossless, 18);
        let (par, stats) = decode_parallel_observed(&bytes, 1, None).expect("par");
        assert_eq!(par.image, decode(&bytes).expect("seq").image);
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.per_worker_tiles, vec![4]);
        assert_eq!(stats.counters.arena_reuses, 3, "4 tiles, one arena");
    }

    #[test]
    fn auto_worker_resolver_is_cached_and_nonzero() {
        // `0` resolves through the `OnceLock`'d probe: at least one
        // worker, and the same answer on every call (the probe runs at
        // most once per process).
        let first = resolve_workers(0);
        assert!(first >= 1);
        for _ in 0..3 {
            assert_eq!(resolve_workers(0), first);
        }
        // Explicit counts pass through untouched.
        for n in [1usize, 2, 7, 64] {
            assert_eq!(resolve_workers(n), n);
        }
    }

    #[test]
    fn auto_workers_on_a_single_tile_stream() {
        // workers == 0 with a single tile: the resolved count is capped
        // by the tile count, decodes inline, and stays bit-exact.
        let bytes = roundtrip_bytes(24, 24, 32, Mode::Lossless, 19);
        let seq = decode(&bytes).expect("seq");
        let (par, stats) = decode_parallel_observed(&bytes, 0, None).expect("par");
        assert_eq!(par.image, seq.image);
        assert_eq!(stats.workers, 1, "1 tile caps any resolved worker count");
        let (_, report) = decode_tolerant_parallel(&bytes, 0).expect("tolerant");
        assert!(report.is_clean());
    }

    /// Corrupts the body of every tile-part in `bytes` (past the
    /// 12-byte SOT segment + 2-byte SOD marker) with 0xFF, which no
    /// packet header can start with.
    fn corrupt_every_tile(bytes: &[u8]) -> Vec<u8> {
        let mut bad = bytes.to_vec();
        for seg in crate::fuzz::scan_markers(bytes) {
            if seg.marker == crate::codestream::MARKER_SOT {
                for b in &mut bad[seg.offset + 14..seg.offset + seg.len] {
                    *b = 0xFF;
                }
            }
        }
        bad
    }

    #[test]
    fn tolerant_report_is_deterministic_past_the_error_cap() {
        // Regression for the report-divergence concern: with more
        // corrupt tiles than MAX_REPORTED_ERRORS, the *set* of
        // reported failures must be the first 64 in tile order — never
        // a function of which worker got scheduled first — and exactly
        // equal to the sequential tolerant report.
        use crate::codec::{decode_tolerant, MAX_REPORTED_ERRORS};
        // 160×160 with 16×16 tiles = 100 tiles, all corrupted.
        let img = Image::synthetic_grey(160, 160, 23);
        let bytes =
            encode(&img, &EncodeParams::new(Mode::Lossless).tile_size(16, 16)).expect("encode");
        let bad = corrupt_every_tile(&bytes);
        let (seq_img, seq_report) = decode_tolerant(&bad).expect("seq tolerant");
        assert_eq!(
            seq_report.failures.len(),
            MAX_REPORTED_ERRORS,
            "the workload must overflow the cap for this test to bite"
        );
        // The capped set is a tile-ordered prefix of the failures, so
        // tiles past the cap never appear before earlier ones.
        let tiles: Vec<usize> = seq_report.failures.iter().filter_map(|f| f.tile).collect();
        assert!(tiles.windows(2).all(|w| w[0] <= w[1]), "tile order");
        assert_eq!(tiles.first(), Some(&0));
        for workers in [1usize, 4] {
            // Several repetitions so a scheduling-dependent merge would
            // actually get a chance to differ.
            for _ in 0..4 {
                let (par_img, par_report) =
                    decode_tolerant_parallel(&bad, workers).expect("par tolerant");
                assert_eq!(par_img, seq_img, "workers = {workers}");
                assert_eq!(par_report, seq_report, "workers = {workers}");
            }
        }
    }

    #[test]
    fn timings_are_summed_over_tiles() {
        let bytes = roundtrip_bytes(96, 96, 32, Mode::Lossless, 16);
        let par = decode_parallel(&bytes, 4).expect("par");
        assert!(par.timings.total() > std::time::Duration::ZERO);
    }
}
