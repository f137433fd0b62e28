//! The replay phase of a traced run: re-decodes traced requests in
//! process through the `StagedDecoder` stage functions, one span per
//! call, and checks the stage sums against the decoder's own
//! `DecodedImage::timings`.
//!
//! Strict and tolerant requests replay stage by stage (T2+T1/MQ
//! entropy, IQ, IDWT, MCT, DC shift, placement). Quality and thumbnail
//! requests have no public stage split, so each tile is one
//! `codec.partial` span around `decode_tile_quality_with` /
//! `decode_tile_thumbnail_with`.

use crate::corpus::digest;
use crate::design;
use crate::report::Values;
use crate::stats::{percentile, ratio, sorted};
use crate::trace::{SpanLog, NO_PARENT};
use jpeg2000::codec::{decode, StagedDecoder};
use jpeg2000::image::Image;
use jpeg2000::scratch::{DecodeCounters, DecodeScratch};
use jpeg2000::service::RequestKind;
use std::time::Instant;

/// Nanoseconds per stage, summed over tiles.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StageNs {
    /// `StagedDecoder::new` / `new_tolerant`.
    pub parse: u64,
    /// `entropy_decode_tile_with` / `entropy_decode_tile_tolerant_with`.
    pub entropy: u64,
    /// `dequantize_tile`.
    pub quant: u64,
    /// `idwt_tile_with`.
    pub dwt: u64,
    /// `inverse_mct_tile`.
    pub mct: u64,
    /// `dc_unshift_tile`.
    pub dc_shift: u64,
    /// `place_tile`.
    pub place: u64,
    /// `decode_tile_quality_with` / `decode_tile_thumbnail_with`.
    pub partial: u64,
}

impl StageNs {
    /// The five stages `DecodeTimings` covers.
    pub fn decode_sum(&self) -> u64 {
        self.entropy + self.quant + self.dwt + self.mct + self.dc_shift
    }

    /// Every replayed call.
    pub fn total(&self) -> u64 {
        self.parse + self.decode_sum() + self.place + self.partial
    }

    fn add(&mut self, o: &StageNs) {
        self.parse += o.parse;
        self.entropy += o.entropy;
        self.quant += o.quant;
        self.dwt += o.dwt;
        self.mct += o.mct;
        self.dc_shift += o.dc_shift;
        self.place += o.place;
        self.partial += o.partial;
    }
}

/// One replayed decode.
#[derive(Debug)]
pub struct Replayed {
    /// The reconstructed image.
    pub image: Image,
    /// No tolerant failure was recorded.
    pub clean: bool,
    /// Per-stage time.
    pub stages: StageNs,
    /// The scratch arena's work counters.
    pub counters: DecodeCounters,
}

fn ns(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.saturating_duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

/// Re-decodes `bytes` as `kind` through the stage functions, recording
/// one span per call under a `replay` root for request `req`.
///
/// # Errors
///
/// The decoder's error, rendered.
pub fn replay(
    bytes: &[u8],
    kind: RequestKind,
    log: &mut SpanLog,
    req: u64,
) -> Result<Replayed, String> {
    let err = |e: jpeg2000::error::CodecError| e.to_string();
    let mut st = StageNs::default();
    let t0 = Instant::now();
    let root = log.open_at("replay", req, NO_PARENT, t0);
    let parsed = if kind == RequestKind::Tolerant {
        StagedDecoder::new_tolerant(bytes).map(|(d, report)| (d, report.is_clean()))
    } else {
        StagedDecoder::new(bytes).map(|d| (d, true))
    };
    let t1 = Instant::now();
    log.record("codestream.parse", req, root, t0, t1);
    st.parse = ns(t0, t1);
    let (dec, mut clean) = parsed.map_err(err)?;
    let mut scratch = DecodeScratch::new();
    let mut image = match kind {
        RequestKind::Thumbnail { max_res } => {
            let (w, h) = dec.thumbnail_size(max_res);
            let hdr = dec.header();
            Image::new(w, h, hdr.depth, usize::from(hdr.num_components))
        }
        _ => dec.blank_image(),
    };
    let mut errors = Vec::new();
    for t in 0..dec.num_tiles() {
        let a = Instant::now();
        let samples = match kind {
            RequestKind::Strict | RequestKind::Tolerant => {
                let coeffs = if kind == RequestKind::Tolerant {
                    dec.entropy_decode_tile_tolerant_with(t, &mut scratch, &mut errors)
                } else {
                    dec.entropy_decode_tile_with(t, &mut scratch).map_err(err)?
                };
                let b = Instant::now();
                let wavelet = dec.dequantize_tile(&coeffs);
                let c = Instant::now();
                let samples = dec.idwt_tile_with(wavelet, &mut scratch);
                let d = Instant::now();
                let samples = dec.inverse_mct_tile(samples);
                let e = Instant::now();
                let samples = dec.dc_unshift_tile(samples);
                let f = Instant::now();
                log.record("entropy", req, root, a, b);
                log.record("quant", req, root, b, c);
                log.record("dwt", req, root, c, d);
                log.record("ct.mct", req, root, d, e);
                log.record("ct.dc_shift", req, root, e, f);
                st.entropy += ns(a, b);
                st.quant += ns(b, c);
                st.dwt += ns(c, d);
                st.mct += ns(d, e);
                st.dc_shift += ns(e, f);
                samples
            }
            RequestKind::Quality { max_layers } => {
                let s = dec
                    .decode_tile_quality_with(t, max_layers, &mut scratch)
                    .map_err(err)?;
                let b = Instant::now();
                log.record("codec.partial", req, root, a, b);
                st.partial += ns(a, b);
                s
            }
            RequestKind::Thumbnail { max_res } => {
                let s = dec
                    .decode_tile_thumbnail_with(t, max_res, &mut scratch)
                    .map_err(err)?;
                let b = Instant::now();
                log.record("codec.partial", req, root, a, b);
                st.partial += ns(a, b);
                s
            }
        };
        let p = Instant::now();
        dec.place_tile(&mut image, &samples);
        let q = Instant::now();
        log.record("codec.place", req, root, p, q);
        st.place += ns(p, q);
    }
    log.close_at(root, Instant::now());
    clean &= errors.is_empty();
    Ok(Replayed {
        image,
        clean,
        stages: st,
        counters: scratch.counters(),
    })
}

/// Replay results aggregated into the decode layers' metrics.
#[derive(Debug, Default)]
pub struct LayerStats {
    /// Stage-by-stage replays (strict, tolerant).
    pub full_images: u64,
    /// Whole-tile replays (quality, thumbnail).
    pub partial_images: u64,
    /// Stage time over every replay.
    pub stages: StageNs,
    /// Work counters of the stage-by-stage replays.
    pub full_counters: DecodeCounters,
    /// `StagedDecoder::new` time of each replay, in µs.
    pub parse_us: Vec<f64>,
    /// Per strict replay: its five-stage span sum and the decoder's own
    /// `timings.total()` for the same stream, for the consistency check.
    pub stage_pairs: Vec<(u64, u64)>,
    /// Replays whose image or report differed from the reference.
    pub mismatches: Vec<String>,
}

impl LayerStats {
    /// Replays `bytes` as `kind`, checks the image against
    /// `expected_digest`, and for strict requests also runs the one-shot
    /// `decode` to compare its `timings` with the replayed stage sums.
    /// An untimed `decode` first warms the caches for both, so the
    /// comparison does not charge the first run for fetching the stream.
    pub fn replay(
        &mut self,
        bytes: &[u8],
        kind: RequestKind,
        expected_digest: u64,
        log: &mut SpanLog,
        req: u64,
    ) {
        let strict = kind == RequestKind::Strict;
        let program = || decode(bytes).map(|d| d.timings.total().as_nanos() as u64);
        if strict {
            let _ = program();
        }
        let r = match replay(bytes, kind, log, req) {
            Ok(r) => r,
            Err(e) => {
                self.mismatches
                    .push(format!("replay of {kind:?} failed: {e}"));
                return;
            }
        };
        if strict {
            match program() {
                Ok(p) => self.stage_pairs.push((r.stages.decode_sum(), p)),
                Err(e) => self.mismatches.push(format!("one-shot decode failed: {e}")),
            }
        }
        if digest(&r.image) != expected_digest || !r.clean {
            self.mismatches.push(format!(
                "replayed {kind:?} image differs from its reference"
            ));
        }
        self.stages.add(&r.stages);
        self.parse_us.push(r.stages.parse as f64 / 1e3);
        match kind {
            RequestKind::Strict | RequestKind::Tolerant => {
                self.full_images += 1;
                self.full_counters.merge(&r.counters);
            }
            _ => self.partial_images += 1,
        }
    }

    /// Median over strict replays of the gap between a stream's
    /// replayed stage sum and the decoder's own timings, in percent of
    /// the latter; `None` without strict replays. The median keeps one
    /// decode that a host stall hit from deciding the check.
    pub fn stage_sum_error(&self) -> Option<f64> {
        let gaps: Vec<f64> = self
            .stage_pairs
            .iter()
            .filter(|(_, program)| *program > 0)
            .map(|&(replay, program)| (replay as f64 / program as f64 - 1.0).abs() * 100.0)
            .collect();
        (!gaps.is_empty()).then(|| percentile(&sorted(gaps), 50.0))
    }

    /// Adds the replay's wrong answers to `problems`, and a problem when
    /// the replayed stage sums and the decoder's own timings disagree
    /// beyond [`design::STAGE_SUM_TOLERANCE`].
    pub fn check(&self, problems: &mut Vec<String>) {
        problems.extend(self.mismatches.iter().cloned());
        if let Some(e) = self.stage_sum_error() {
            if e > design::STAGE_SUM_TOLERANCE * 100.0 {
                problems.push(format!(
                    "replayed stage sums differ from DecodedImage::timings by {e:.1}%"
                ));
            }
        }
    }

    /// Sets the codestream, entropy, quant, dwt, ct and codec metrics.
    pub fn set_metrics(&self, v: &mut Values) {
        let full = self.full_images as f64;
        let all = (self.full_images + self.partial_images) as f64;
        let total = self.stages.total() as f64;
        let c = &self.full_counters;
        let n = self.full_images + self.partial_images;
        let per_image = |ns: u64, images: f64| ratio(ns as f64 / 1e6, images);
        let share = |ns: u64| ratio(ns as f64, total);
        let s = &self.stages;
        v.set(
            "codestream.parse_us",
            percentile(&sorted(self.parse_us.clone()), 50.0),
            n,
        );
        v.set(
            "entropy.ms_per_image",
            per_image(s.entropy, full),
            self.full_images,
        );
        v.set("entropy.share", share(s.entropy), n);
        v.set(
            "entropy.code_blocks",
            ratio(c.code_blocks as f64, full),
            self.full_images,
        );
        v.set(
            "entropy.coding_passes",
            ratio(c.coding_passes as f64, full),
            self.full_images,
        );
        v.set(
            "entropy.mq_renorms",
            ratio(c.mq_renorms as f64, full),
            self.full_images,
        );
        v.set(
            "entropy.bytes_in",
            ratio(c.bytes_in as f64, full),
            self.full_images,
        );
        v.set(
            "entropy.ns_per_pass",
            ratio(s.entropy as f64, c.coding_passes as f64),
            self.full_images,
        );
        for (ms, sh, stage_ns) in [
            ("quant.ms_per_image", "quant.share", s.quant),
            ("dwt.ms_per_image", "dwt.share", s.dwt),
            ("ct.mct_ms_per_image", "ct.mct_share", s.mct),
            ("ct.dc_shift_ms_per_image", "ct.dc_shift_share", s.dc_shift),
        ] {
            v.set(ms, per_image(stage_ns, full), self.full_images);
            v.set(sh, share(stage_ns), n);
        }
        v.set("codec.place_ms_per_image", per_image(s.place, all), n);
        v.set("codec.place_share", share(s.place), n);
        v.set(
            "codec.partial_ms_per_image",
            per_image(s.partial, self.partial_images as f64),
            self.partial_images,
        );
        v.set("codec.partial_share", share(s.partial), n);
        if let Some(e) = self.stage_sum_error() {
            v.set(
                "trace.stage_sum_error_pct",
                e,
                self.stage_pairs.len() as u64,
            );
        }
    }
}
