//! Deterministic, structure-aware fuzzing of the decode surface.
//!
//! The paper's deployment target is a set-top box decoding whatever
//! bitstream the transport delivers; the decoder must treat every byte
//! as hostile. This module is the fault-injection engine behind
//! `tests/fuzz_decode.rs` and the CI fuzz-smoke job: starting from
//! *valid* encoded codestreams, a seeded [`Mutator`] applies
//! structure-aware damage — bit flips, truncations at marker
//! boundaries, length-field corruption, segment splices, duplicated and
//! deleted marker segments, region overwrites — and
//! [`exercise_decode_surface`] asserts the whole public decode surface
//! survives: structured [`crate::error::CodecError`]s are fine, panics
//! and hangs are bugs.
//!
//! Everything is deterministic: the same `(seed, iteration)` pair
//! reproduces the same mutated stream on every platform, so a CI
//! failure is replayable locally from the two numbers alone.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::codec::{
    decode, decode_quality, decode_thumbnail, decode_tolerant, encode, EncodeParams, Mode,
};
use crate::codestream::{
    parse_codestream_tolerant, MARKER_COD, MARKER_EOC, MARKER_QCD, MARKER_SIZ, MARKER_SOC,
    MARKER_SOT,
};
use crate::image::Image;
use crate::parallel::{decode_parallel, decode_tolerant_parallel};

/// A marker segment located by [`scan_markers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkerSeg {
    /// The 16-bit marker code (`0xFF4F` …).
    pub marker: u16,
    /// Byte offset of the marker itself.
    pub offset: usize,
    /// Total segment length in bytes, marker included (2 for the bare
    /// `SOC`/`EOC` markers, `Psot` for a whole tile-part).
    pub len: usize,
}

/// Walks a *well-formed* codestream (a fuzz seed, produced by our own
/// encoder) and returns its marker segments in order. Stops at `EOC`
/// or at the first structure it cannot follow — callers only use this
/// on valid seeds, where it always reaches `EOC`.
pub fn scan_markers(bytes: &[u8]) -> Vec<MarkerSeg> {
    let mut segs = Vec::new();
    let mut pos = 0usize;
    let rd_u16 = |p: usize| -> Option<u16> {
        Some(u16::from_be_bytes([*bytes.get(p)?, *bytes.get(p + 1)?]))
    };
    let rd_u32 = |p: usize| -> Option<u32> {
        Some(u32::from_be_bytes([
            *bytes.get(p)?,
            *bytes.get(p + 1)?,
            *bytes.get(p + 2)?,
            *bytes.get(p + 3)?,
        ]))
    };
    while let Some(marker) = rd_u16(pos) {
        let len = match marker {
            MARKER_SOC => 2,
            MARKER_EOC => {
                segs.push(MarkerSeg {
                    marker,
                    offset: pos,
                    len: 2,
                });
                break;
            }
            MARKER_SIZ | MARKER_COD | MARKER_QCD => match rd_u16(pos + 2) {
                Some(l) => 2 + l as usize,
                None => break,
            },
            MARKER_SOT => match rd_u32(pos + 6) {
                // Psot counts from the SOT marker to the end of the
                // tile-part, so it *is* the segment length.
                Some(psot) if psot >= 14 => psot as usize,
                _ => break,
            },
            _ => break,
        };
        segs.push(MarkerSeg {
            marker,
            offset: pos,
            len,
        });
        pos += len;
    }
    segs
}

/// Every structurally interesting truncation point of a valid stream:
/// each marker boundary (start and end of every segment), for
/// truncation-sweep style mutations.
pub fn marker_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut points: Vec<usize> = scan_markers(bytes)
        .iter()
        .flat_map(|s| [s.offset, s.offset + s.len])
        .collect();
    points.push(bytes.len());
    points.sort_unstable();
    points.dedup();
    points
}

/// What a [`Mutator`] did to a seed stream — enough to name and
/// reproduce a failure.
#[derive(Debug, Clone)]
pub struct Mutation {
    /// Mutation family (`"bit-flip"`, `"truncate-marker"`, …).
    pub kind: &'static str,
    /// Human-readable specifics (offsets, lengths, values).
    pub detail: String,
}

/// Seeded structure-aware mutation engine. Deterministic: a `Mutator`
/// built from the same seed produces the same mutation sequence.
#[derive(Debug, Clone)]
pub struct Mutator {
    rng: StdRng,
}

impl Mutator {
    /// A mutation engine with a fixed seed.
    pub fn new(seed: u64) -> Self {
        Mutator {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Applies one randomly chosen mutation to `seed_bytes`.
    pub fn mutate(&mut self, seed_bytes: &[u8]) -> (Vec<u8>, Mutation) {
        let segs = scan_markers(seed_bytes);
        let kind = self.rng.gen_range(0u32..8);
        match kind {
            0 => self.bit_flips(seed_bytes),
            1 => self.truncate_at_marker(seed_bytes, &segs),
            2 => self.truncate_random(seed_bytes),
            3 => self.corrupt_length_field(seed_bytes, &segs),
            4 => self.splice(seed_bytes),
            5 => self.duplicate_segment(seed_bytes, &segs),
            6 => self.delete_segment(seed_bytes, &segs),
            _ => self.overwrite_region(seed_bytes),
        }
    }

    /// Flips 1–8 random bits.
    fn bit_flips(&mut self, bytes: &[u8]) -> (Vec<u8>, Mutation) {
        let mut out = bytes.to_vec();
        let n = self.rng.gen_range(1usize..=8);
        let mut offsets = Vec::with_capacity(n);
        for _ in 0..n {
            let i = self.rng.gen_range(0..out.len());
            out[i] ^= 1 << self.rng.gen_range(0u32..8);
            offsets.push(i);
        }
        (
            out,
            Mutation {
                kind: "bit-flip",
                detail: format!("{n} flips at {offsets:?}"),
            },
        )
    }

    /// Truncates at a marker boundary, optionally a few bytes past it
    /// (cutting mid-segment-header).
    fn truncate_at_marker(&mut self, bytes: &[u8], segs: &[MarkerSeg]) -> (Vec<u8>, Mutation) {
        if segs.is_empty() {
            return self.truncate_random(bytes);
        }
        let s = segs[self.rng.gen_range(0..segs.len())];
        let extra = self.rng.gen_range(0usize..=12);
        let cut = (s.offset + extra).min(bytes.len());
        (
            bytes[..cut].to_vec(),
            Mutation {
                kind: "truncate-marker",
                detail: format!("cut at {cut} (marker {:#06x} + {extra})", s.marker),
            },
        )
    }

    /// Truncates at a uniformly random byte length.
    fn truncate_random(&mut self, bytes: &[u8]) -> (Vec<u8>, Mutation) {
        let cut = self.rng.gen_range(0..=bytes.len());
        (
            bytes[..cut].to_vec(),
            Mutation {
                kind: "truncate-random",
                detail: format!("cut at {cut}"),
            },
        )
    }

    /// Overwrites a length-bearing field of a random segment: the
    /// 16-bit `Lxxx` of SIZ/COD/QCD/SOT or the 32-bit `Psot`.
    fn corrupt_length_field(&mut self, bytes: &[u8], segs: &[MarkerSeg]) -> (Vec<u8>, Mutation) {
        let candidates: Vec<MarkerSeg> = segs
            .iter()
            .copied()
            .filter(|s| !matches!(s.marker, MARKER_SOC | MARKER_EOC))
            .collect();
        if candidates.is_empty() {
            return self.bit_flips(bytes);
        }
        let s = candidates[self.rng.gen_range(0..candidates.len())];
        let mut out = bytes.to_vec();
        let detail = if s.marker == MARKER_SOT && self.rng.gen_bool(0.5) {
            // Psot at offset+6: 32-bit, the field that delimits tile data.
            let v: u32 = match self.rng.gen_range(0u32..3) {
                0 => self.rng.gen::<u32>(),
                1 => self.rng.gen_range(0u32..32),
                _ => u32::MAX,
            };
            if s.offset + 10 <= out.len() {
                out[s.offset + 6..s.offset + 10].copy_from_slice(&v.to_be_bytes());
            }
            format!("Psot at {} := {v}", s.offset + 6)
        } else {
            let v: u16 = match self.rng.gen_range(0u32..3) {
                0 => self.rng.gen::<u16>(),
                1 => self.rng.gen_range(0u16..16),
                _ => u16::MAX,
            };
            if s.offset + 4 <= out.len() {
                out[s.offset + 2..s.offset + 4].copy_from_slice(&v.to_be_bytes());
            }
            format!("len field of {:#06x} at {} := {v}", s.marker, s.offset + 2)
        };
        (
            out,
            Mutation {
                kind: "length-corrupt",
                detail,
            },
        )
    }

    /// Copies a random chunk of the stream over another position
    /// (in-place splice, length preserved).
    fn splice(&mut self, bytes: &[u8]) -> (Vec<u8>, Mutation) {
        let mut out = bytes.to_vec();
        if out.len() < 4 {
            return self.bit_flips(bytes);
        }
        let len = self.rng.gen_range(1..=(out.len() / 2).max(1));
        let src = self.rng.gen_range(0..=out.len() - len);
        let dst = self.rng.gen_range(0..=out.len() - len);
        let chunk = out[src..src + len].to_vec();
        out[dst..dst + len].copy_from_slice(&chunk);
        (
            out,
            Mutation {
                kind: "splice",
                detail: format!("{len} bytes {src} -> {dst}"),
            },
        )
    }

    /// Inserts a copy of a whole marker segment after itself.
    fn duplicate_segment(&mut self, bytes: &[u8], segs: &[MarkerSeg]) -> (Vec<u8>, Mutation) {
        if segs.is_empty() {
            return self.bit_flips(bytes);
        }
        let s = segs[self.rng.gen_range(0..segs.len())];
        let end = (s.offset + s.len).min(bytes.len());
        let mut out = Vec::with_capacity(bytes.len() + s.len);
        out.extend_from_slice(&bytes[..end]);
        out.extend_from_slice(&bytes[s.offset..end]);
        out.extend_from_slice(&bytes[end..]);
        (
            out,
            Mutation {
                kind: "duplicate-segment",
                detail: format!("marker {:#06x} at {}", s.marker, s.offset),
            },
        )
    }

    /// Removes a whole marker segment.
    fn delete_segment(&mut self, bytes: &[u8], segs: &[MarkerSeg]) -> (Vec<u8>, Mutation) {
        if segs.is_empty() {
            return self.bit_flips(bytes);
        }
        let s = segs[self.rng.gen_range(0..segs.len())];
        let end = (s.offset + s.len).min(bytes.len());
        let mut out = Vec::with_capacity(bytes.len());
        out.extend_from_slice(&bytes[..s.offset]);
        out.extend_from_slice(&bytes[end..]);
        (
            out,
            Mutation {
                kind: "delete-segment",
                detail: format!("marker {:#06x} at {}", s.marker, s.offset),
            },
        )
    }

    /// Overwrites a random region with a constant byte (0x00 or 0xFF —
    /// 0xFF runs are marker-adjacent and stress the resync logic).
    fn overwrite_region(&mut self, bytes: &[u8]) -> (Vec<u8>, Mutation) {
        let mut out = bytes.to_vec();
        if out.is_empty() {
            return (
                out,
                Mutation {
                    kind: "overwrite",
                    detail: "empty input".into(),
                },
            );
        }
        let len = self.rng.gen_range(1..=out.len());
        let start = self.rng.gen_range(0..=out.len() - len);
        let fill = if self.rng.gen_bool(0.5) { 0x00 } else { 0xFF };
        for b in &mut out[start..start + len] {
            *b = fill;
        }
        (
            out,
            Mutation {
                kind: "overwrite",
                detail: format!("{len} bytes at {start} := {fill:#04x}"),
            },
        )
    }
}

/// The valid codestreams fuzzing starts from: the pinned Table-1
/// workload in both modes, plus smaller images covering single-tile,
/// multi-tile, grey, and non-tile-divisible geometry.
pub fn seed_streams() -> Vec<(&'static str, Vec<u8>)> {
    let enc = |img: &Image, p: &EncodeParams| encode(img, p).expect("fuzz seed must encode");
    let t1 = Image::synthetic_rgb(128, 128, 2008);
    vec![
        (
            "table1-lossless",
            enc(&t1, &EncodeParams::new(Mode::Lossless).tile_size(32, 32)),
        ),
        (
            "table1-lossy",
            enc(
                &t1,
                &EncodeParams::new(Mode::lossy_default()).tile_size(32, 32),
            ),
        ),
        (
            "grey-single-tile",
            enc(
                &Image::synthetic_grey(33, 21, 5),
                &EncodeParams::new(Mode::Lossless),
            ),
        ),
        (
            "rgb-ragged-tiles",
            enc(
                &Image::synthetic_rgb(70, 50, 6),
                &EncodeParams::new(Mode::Lossless).tile_size(32, 32),
            ),
        ),
        (
            "lossy-ragged-tiles",
            enc(
                &Image::synthetic_rgb(48, 80, 7),
                &EncodeParams::new(Mode::lossy_default()).tile_size(16, 16),
            ),
        ),
    ]
}

/// Runs every public decode entry point on `bytes`, discarding results:
/// structured errors are expected, panics are bugs (callers wrap this
/// in `catch_unwind` and a wall-clock watchdog). Also asserts two
/// tolerant-decode invariants: whenever the main header parses,
/// [`decode_tolerant`] must return an image of exactly the SIZ
/// dimensions; and whenever strict [`decode`] succeeds,
/// [`decode_tolerant`] must return the same image with a clean report —
/// the equivalence on which the decode service answers tolerant
/// requests from a cached strict image.
pub fn exercise_decode_surface(bytes: &[u8]) {
    let strict = decode(bytes);
    for layers in [0usize, 1, 2, usize::MAX] {
        let _ = decode_quality(bytes, layers);
    }
    for max_res in [0usize, 1, 5, usize::MAX] {
        let _ = decode_thumbnail(bytes, max_res);
    }
    for workers in [1usize, 4] {
        let _ = decode_parallel(bytes, workers);
    }
    let header = parse_codestream_tolerant(bytes).map(|p| p.header);
    let tolerant = decode_tolerant(bytes);
    match (&tolerant, header) {
        (Ok((image, _report)), Ok(h)) => {
            assert_eq!(
                (image.width, image.height),
                (h.width as usize, h.height as usize),
                "decode_tolerant geometry must match SIZ"
            );
        }
        (Ok(_), Err(_)) => panic!("decode_tolerant succeeded where the header parser failed"),
        (Err(_), _) => {}
    }
    if let Ok(strict) = strict {
        let (image, report) = tolerant.expect("decode_tolerant fails where decode succeeds");
        assert!(image == strict.image, "decode_tolerant's image differs");
        assert!(report.is_clean(), "decode_tolerant reports {report:?}");
    }
    let _ = decode_tolerant_parallel(bytes, 4);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_walks_a_valid_stream_to_eoc() {
        for (name, bytes) in seed_streams() {
            let segs = scan_markers(&bytes);
            assert_eq!(segs.first().map(|s| s.marker), Some(MARKER_SOC), "{name}");
            assert_eq!(segs.last().map(|s| s.marker), Some(MARKER_EOC), "{name}");
            // Segments must tile the stream exactly.
            let mut pos = 0;
            for s in &segs {
                assert_eq!(s.offset, pos, "{name}: gap before {:#06x}", s.marker);
                pos += s.len;
            }
            assert_eq!(pos, bytes.len(), "{name}: stream not fully covered");
        }
    }

    #[test]
    fn mutator_is_deterministic() {
        let (_, bytes) = &seed_streams()[2];
        let run = |seed| {
            let mut m = Mutator::new(seed);
            (0..20).map(|_| m.mutate(bytes).0).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn boundaries_are_sorted_and_bounded() {
        let (_, bytes) = &seed_streams()[0];
        let pts = marker_boundaries(bytes);
        assert!(pts.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*pts.last().unwrap(), bytes.len());
    }
}
