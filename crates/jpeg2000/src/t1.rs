//! EBCOT Tier-1: context-adaptive bit-plane coding of code-blocks
//! (ITU-T T.800 Annex D).
//!
//! Each code-block's quantised magnitudes are coded bit-plane by bit-plane
//! in three passes — significance propagation, magnitude refinement and
//! cleanup — through the [`crate::mq`] arithmetic coder with 19 adaptive
//! contexts. Together with the MQ coder this is the stage the paper calls
//! the *arithmetic decoder*, the one that consumes ~88 % of the decode
//! time and gets parallelised four ways in model versions 4/5.
//!
//! # The stripe state
//!
//! The scan visits code-blocks in stripes four rows high, column by
//! column, so the coder keeps one `u32` *state word* per column of a
//! stripe (openjpeg's `t1.c` layout), in an array padded by one column
//! on each side and one stripe row above and below:
//!
//! - bits 0..=17 hold the significance of the column's 3×6 window, bit
//!   `3r + c` for window rows −1..=4 (`r` = row + 1) and columns
//!   W/own/E (`c` = 0/1/2);
//! - row `ci`'s sign, refined and visited bits sit at `19/20/21 + 3ci`;
//! - the signs of the rows just above and below the stripe sit at bits
//!   18 and 31.
//!
//! So `f >> 3ci` puts row `ci`'s 3×3 neighbourhood in bits 0..=8 (its
//! own significance at bit 4), which indexes a 512-entry zero-coding LUT
//! per band orientation, and a pass finds the rows of a column it must
//! code with a few masks over one word — refinement candidates are
//! `(f >> 4) & !(f >> 21) & 0x249`, one bit per row at `3ci` — and walks
//! them with `trailing_zeros` instead of testing every sample. When a
//! sample turns significant, `set_significant` ORs one bit into the W
//! and E words (the shared window makes it that row's E or W, the row
//! above's SE or SW and the row below's NE or NW at once), plus three
//! bits and the sign into the adjacent stripe's words for rows 0 and 3.
//! The cleanup pass clears each column's visited bits as it leaves it.
//!
//! The LUTs are built at compile time from the T.800 context tables
//! (`zc_table_hv` / `zc_table_diag` and the sign-coding contribution
//! rules), which remain the oracle: the original per-sample
//! implementation is retained in `t1::reference` (under `cfg(test)` or
//! the `reference-t1` feature) and property-tested to be bit-exact
//! against this path. The encoder and decoder share the three pass
//! walks; a `Coder` says what each decision does.
//!
//! The decoder writes signed coefficients straight into the caller's
//! tile plane ([`T1Scratch::decode_into`]): ±`1 << p` when a sample
//! turns significant at plane `p`, ±`bit << p` at each refinement.

use std::hint::select_unpredictable as select;

use crate::mq::{MqContext, MqDecoder, MqEncoder};
use crate::tile::BandKind;

/// The retained pre-optimisation implementation, kept as the bit-exactness
/// oracle for property tests and the `t1_throughput` bench.
#[cfg(any(test, feature = "reference-t1"))]
#[path = "t1_reference.rs"]
pub mod reference;

/// Number of adaptive contexts used by Tier-1.
pub const NUM_CONTEXTS: usize = 19;

// Context index blocks.
const CTX_ZC: usize = 0; // 0..=8  zero coding / significance
const CTX_SC: usize = 9; // 9..=13 sign coding
const CTX_MR: usize = 14; // 14..=16 magnitude refinement
const CTX_RL: usize = 17; // run-length
const CTX_UNI: usize = 18; // uniform

type Contexts = [MqContext; NUM_CONTEXTS];

// ---------------------------------------------------------------------------
// Stripe state
// ---------------------------------------------------------------------------

/// Bit `3ci` for each row `ci` of a stripe: the row positions of every
/// per-row mask below, and of the candidate masks the passes walk.
const ROWS: u32 = 0x249;
/// The 18 significance bits of a column's 3×6 window.
const SIG_WINDOW: u32 = 0x3_FFFF;
/// Row 0's significance, sign, refined and visited bits; row `ci`'s are
/// these shifted left by `3ci`.
const SIG0: u32 = 1 << 4;
const SIGN0: u32 = 1 << 19;
const REFINED0: u32 = 1 << 20;
const VISITED0: u32 = 1 << 21;
/// All four rows' visited bits.
const VISITED: u32 = ROWS << 21;
/// Sign of the row above the stripe (row −1) and below it (row 4).
const SIGN_ABOVE: u32 = 1 << 18;
const SIGN_BELOW: u32 = 1 << 31;
/// A row's 3×3 neighbourhood in `f >> 3ci`, without the centre.
const NEIGHBOURS: u32 = 0x1EF;

/// Sizes `flags` for a `w × h` block and clears it: `w + 2` words per
/// stripe row, with a padding column on each side and a padding stripe
/// row above and below, so border samples write into padding harmlessly.
fn reset_flags(flags: &mut Vec<u32>, w: usize, h: usize) {
    flags.clear();
    flags.resize((w + 2) * (h.div_ceil(4) + 2), 0);
}

/// The rows of a stripe that lie inside the block: all four, or the
/// first `h - y0` of the last stripe.
fn valid_rows(h: usize, y0: usize) -> u32 {
    ROWS & ((1 << (3 * (h - y0).min(4))) - 1)
}

/// Marks row `r / 3` of the column at word `fi` significant with sign
/// `neg`: ORs its significance into the W and E words, and for rows 0
/// and 3 three bits and the sign into the adjacent stripe's words.
/// Returns the bits to OR into the column's own word, which the passes
/// keep in a register.
#[inline]
fn set_significant(flags: &mut [u32], fi: usize, fstride: usize, r: u32, neg: bool) -> u32 {
    flags[fi - 1] |= 1 << (r + 5);
    flags[fi + 1] |= 1 << (r + 3);
    if r == 0 {
        let n = fi - fstride;
        flags[n - 1] |= 1 << 17;
        flags[n] |= (1 << 16) | ((neg as u32) * SIGN_BELOW);
        flags[n + 1] |= 1 << 15;
    } else if r == 9 {
        let s = fi + fstride;
        flags[s - 1] |= 1 << 2;
        flags[s] |= (1 << 1) | ((neg as u32) * SIGN_ABOVE);
        flags[s + 1] |= 1;
    }
    (SIG0 | ((neg as u32) * SIGN0)) << r
}

/// The insignificant rows of a column word with a significant neighbour:
/// the significance pass's candidates, one bit per row at `3ci`.
#[inline]
fn zc_candidates(f: u32) -> u32 {
    // Per window row r at bit 3r: any of its three samples, and its W or
    // E sample. Row ci's neighbours are window rows ci and ci + 2 whole
    // and the W/E samples of window row ci + 1.
    let any = (f | f >> 1 | f >> 2) & 0x9249;
    let sides = (f | f >> 2) & 0x9249;
    (any | sides >> 3 | any >> 6) & !(f >> 4) & ROWS
}

/// The LL/LH significance table (HL uses it with h and v swapped).
pub(crate) const fn zc_table_hv(h: u32, v: u32, d: u32) -> usize {
    match h {
        2 => 8,
        1 => {
            if v >= 1 {
                7
            } else if d >= 1 {
                6
            } else {
                5
            }
        }
        _ => match v {
            2 => 4,
            1 => 3,
            _ => {
                if d >= 2 {
                    2
                } else if d == 1 {
                    1
                } else {
                    0
                }
            }
        },
    }
}

/// The HH significance table, keyed on the diagonal count first.
pub(crate) const fn zc_table_diag(d: u32, hv: u32) -> usize {
    match d {
        0 => {
            if hv >= 2 {
                2
            } else if hv == 1 {
                1
            } else {
                0
            }
        }
        1 => {
            if hv >= 2 {
                5
            } else if hv == 1 {
                4
            } else {
                3
            }
        }
        2 => {
            if hv >= 1 {
                7
            } else {
                6
            }
        }
        _ => 8,
    }
}

/// `(horizontal, vertical, diagonal)` significant-neighbour counts of a
/// 3×3 window (bits 0..=8: NW N NE / W centre E / SW S SE).
const fn window_counts(f: usize) -> (u32, u32, u32) {
    const fn bit(f: usize, k: usize) -> u32 {
        ((f >> k) & 1) as u32
    }
    (
        bit(f, 3) + bit(f, 5),
        bit(f, 1) + bit(f, 7),
        bit(f, 0) + bit(f, 2) + bit(f, 6) + bit(f, 8),
    )
}

/// Builds a band orientation's zero-coding LUT over the 3×3 window.
const fn build_zc_lut(kind: BandKind) -> [u8; 512] {
    let mut t = [0u8; 512];
    let mut f = 0usize;
    while f < 512 {
        let (h, v, d) = window_counts(f);
        t[f] = match kind {
            BandKind::Ll | BandKind::Lh => zc_table_hv(h, v, d),
            BandKind::Hl => zc_table_hv(v, h, d),
            BandKind::Hh => zc_table_diag(d, h + v),
        } as u8;
        f += 1;
    }
    t
}

/// Sign contribution of one neighbour: +1 significant positive,
/// −1 significant negative, 0 insignificant.
const fn sign_contrib(sig: bool, neg: bool) -> i32 {
    if !sig {
        0
    } else if neg {
        -1
    } else {
        1
    }
}

const fn clamp1(v: i32) -> i32 {
    if v > 1 {
        1
    } else if v < -1 {
        -1
    } else {
        v
    }
}

/// Builds the sign-coding LUT. Index bits: 1/3/5/7 the significance of
/// N/W/E/S (where `f >> 3ci` has them), 0/2/4/6 the negativity of
/// W/E/N/S. Entry: low 3 bits the context offset (0..=4), bit 3 the XOR
/// flag.
const fn build_sc_lut() -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        let cw = sign_contrib(i & 0x08 != 0, i & 0x01 != 0);
        let ce = sign_contrib(i & 0x20 != 0, i & 0x04 != 0);
        let cn = sign_contrib(i & 0x02 != 0, i & 0x10 != 0);
        let cs = sign_contrib(i & 0x80 != 0, i & 0x40 != 0);
        let hc = clamp1(cw + ce);
        let vc = clamp1(cn + cs);
        // The T.800 sign-coding table (offset, xor), mirrored for hc < 0.
        let (off, xor) = if hc == 1 {
            (
                if vc == 1 {
                    4
                } else if vc == 0 {
                    3
                } else {
                    2
                },
                0u8,
            )
        } else if hc == 0 {
            (if vc == 0 { 0 } else { 1 }, (vc < 0) as u8)
        } else {
            (
                if vc == 1 {
                    2
                } else if vc == 0 {
                    3
                } else {
                    4
                },
                1u8,
            )
        };
        t[i] = off | (xor << 3);
        i += 1;
    }
    t
}

/// Zero-coding LUTs indexed by a row's 3×3 window, per orientation.
const LUT_ZC_HV: [u8; 512] = build_zc_lut(BandKind::Ll);
const LUT_ZC_VH: [u8; 512] = build_zc_lut(BandKind::Hl);
const LUT_ZC_DIAG: [u8; 512] = build_zc_lut(BandKind::Hh);
/// Sign-coding LUT (offset + XOR), see [`build_sc_lut`].
const LUT_SC: [u8; 256] = build_sc_lut();

/// The zero-coding LUT for a band orientation.
#[inline]
fn zc_lut(kind: BandKind) -> &'static [u8; 512] {
    match kind {
        BandKind::Ll | BandKind::Lh => &LUT_ZC_HV,
        BandKind::Hl => &LUT_ZC_VH,
        BandKind::Hh => &LUT_ZC_DIAG,
    }
}

/// Sign-coding context and XOR bit of row `r / 3` of the column whose
/// word is `f` (at `fi`): the N/W/E/S significance from `f`'s window,
/// the W and E signs from the neighbouring words, and the N and S signs
/// from `f` — for row 0 the sign of the stripe above's last row.
#[inline]
fn sc_context(flags: &[u32], fi: usize, f: u32, r: u32) -> (usize, bool) {
    let north = if r == 0 { f >> 18 } else { f >> (r + 16) };
    let lu = (f >> r) & 0xAA
        | (flags[fi - 1] >> (r + 19)) & 1
        | ((flags[fi + 1] >> (r + 19)) & 1) << 2
        | (north & 1) << 4
        | ((f >> (r + 22)) & 1) << 6;
    let e = LUT_SC[lu as usize];
    (CTX_SC + (e & 7) as usize, e & 8 != 0)
}

/// Magnitude-refinement context of row `r / 3` of the column word `f`.
#[inline]
fn mr_context(f: u32, r: u32) -> usize {
    if f & REFINED0 << r != 0 {
        CTX_MR + 2
    } else if (f >> r) & NEIGHBOURS != 0 {
        CTX_MR + 1
    } else {
        CTX_MR
    }
}

// ---------------------------------------------------------------------------
// The three passes, shared by the encoder and the decoder
// ---------------------------------------------------------------------------

/// What a coding pass does with each decision. The passes walk the
/// stripe state and pick contexts; the decoder takes each decision from
/// the MQ codeword and writes the coefficient, the encoder reads the
/// coefficient and codes the decision. Sample `i` indexes the coder's
/// own plane.
trait Coder {
    /// Zero coding: whether sample `i` turns significant at this plane.
    fn bit(&mut self, cx: &mut MqContext, i: usize) -> bool;
    /// Sign coding of sample `i`, which just turned significant, with
    /// the context's XOR bit; returns whether it is negative.
    fn sign(&mut self, cx: &mut MqContext, xor: bool, i: usize) -> bool;
    /// Magnitude refinement of sample `i`.
    fn refine(&mut self, cx: &mut MqContext, i: usize);
    /// Run-length coding of the four-sample column from `i` (rows
    /// `stride` apart): the row of its first sample to turn significant,
    /// if any.
    fn run(&mut self, ctxs: &mut Contexts, i: usize, stride: usize) -> Option<u32>;
}

/// Significance propagation: every insignificant sample with a
/// significant neighbour. Takes and returns the coder by value, so the
/// decoder's A, C and CT stay in registers for the whole pass.
fn sig_pass<C: Coder>(
    mut c: C,
    ctxs: &mut Contexts,
    flags: &mut [u32],
    (w, h, stride): (usize, usize, usize),
    zc: &[u8; 512],
) -> C {
    let fstride = w + 2;
    for (s, y0) in (0..h).step_by(4).enumerate() {
        let valid = valid_rows(h, y0);
        let fi0 = (s + 1) * fstride + 1;
        for x in 0..w {
            let fi = fi0 + x;
            let mut f = flags[fi];
            let mut cand = zc_candidates(f) & valid;
            if cand == 0 {
                continue;
            }
            let col = y0 * stride + x;
            while cand != 0 {
                let r = cand.trailing_zeros();
                let i = col + (r / 3) as usize * stride;
                let cx = CTX_ZC + zc[((f >> r) & 0x1FF) as usize] as usize;
                if c.bit(&mut ctxs[cx], i) {
                    let (sc, xor) = sc_context(flags, fi, f, r);
                    let neg = c.sign(&mut ctxs[sc], xor, i);
                    f |= set_significant(flags, fi, fstride, r, neg);
                    // Only the next row gains a neighbour; the rows
                    // above were already visited.
                    cand = zc_candidates(f) & valid & (!1 << r);
                } else {
                    cand &= cand - 1;
                }
                f |= VISITED0 << r;
            }
            flags[fi] = f;
        }
    }
    c
}

/// Magnitude refinement: every significant sample the significance pass
/// of this plane did not visit.
fn ref_pass<C: Coder>(
    mut c: C,
    ctxs: &mut Contexts,
    flags: &mut [u32],
    (w, h, stride): (usize, usize, usize),
) -> C {
    let fstride = w + 2;
    for (s, y0) in (0..h).step_by(4).enumerate() {
        let fi0 = (s + 1) * fstride + 1;
        for x in 0..w {
            let f = flags[fi0 + x];
            let mut cand = (f >> 4) & !(f >> 21) & ROWS;
            if cand == 0 {
                continue;
            }
            let col = y0 * stride + x;
            let mut refined = 0;
            while cand != 0 {
                let r = cand.trailing_zeros();
                c.refine(&mut ctxs[mr_context(f, r)], col + (r / 3) as usize * stride);
                refined |= REFINED0 << r;
                cand &= cand - 1;
            }
            flags[fi0 + x] = f | refined;
        }
    }
    c
}

/// Cleanup: every sample neither significant nor visited, with
/// run-length coding of full columns whose whole window is insignificant
/// and unvisited. Clears each column's visited bits behind it.
fn cleanup_pass<C: Coder>(
    mut c: C,
    ctxs: &mut Contexts,
    flags: &mut [u32],
    (w, h, stride): (usize, usize, usize),
    zc: &[u8; 512],
) -> C {
    let fstride = w + 2;
    for (s, y0) in (0..h).step_by(4).enumerate() {
        let valid = valid_rows(h, y0);
        let full = valid == ROWS;
        let fi0 = (s + 1) * fstride + 1;
        for x in 0..w {
            let fi = fi0 + x;
            let col = y0 * stride + x;
            let mut f = flags[fi];
            let mut cand = !(f >> 4 | f >> 21) & valid;
            if full && f & (SIG_WINDOW | VISITED) == 0 {
                let Some(k) = c.run(ctxs, col, stride) else {
                    continue; // whole column stays zero
                };
                let r = 3 * k;
                let i = col + k as usize * stride;
                let (sc, xor) = sc_context(flags, fi, f, r);
                let neg = c.sign(&mut ctxs[sc], xor, i);
                f |= set_significant(flags, fi, fstride, r, neg);
                cand &= !1 << r;
            }
            while cand != 0 {
                let r = cand.trailing_zeros();
                let i = col + (r / 3) as usize * stride;
                let cx = CTX_ZC + zc[((f >> r) & 0x1FF) as usize] as usize;
                if c.bit(&mut ctxs[cx], i) {
                    let (sc, xor) = sc_context(flags, fi, f, r);
                    let neg = c.sign(&mut ctxs[sc], xor, i);
                    f |= set_significant(flags, fi, fstride, r, neg);
                }
                cand &= cand - 1;
            }
            flags[fi] = f & !VISITED;
        }
    }
    c
}

/// One coding pass of the EBCOT schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PassKind {
    Significance,
    Refinement,
    Cleanup,
}

impl PassKind {
    /// The pass after this one at plane `p`, with its plane: cleanup
    /// ends a plane, significance starts the next one down.
    fn next(self, p: u32) -> (PassKind, u32) {
        match self {
            PassKind::Cleanup => (PassKind::Significance, p.wrapping_sub(1)),
            PassKind::Significance => (PassKind::Refinement, p),
            PassKind::Refinement => (PassKind::Cleanup, p),
        }
    }
}

/// The EBCOT pass schedule for `mb` bit-planes as a list, for the
/// reference coder: cleanup only on the most significant plane, all
/// three passes below it. The boolean marks passes after which the
/// per-plane VISITED flags reset. The stripe-state coder steps through
/// the same schedule with [`PassKind::next`].
#[cfg(any(test, feature = "reference-t1"))]
fn pass_sequence(mb: u32) -> Vec<(PassKind, u32, bool)> {
    let mut seq = Vec::new();
    for p in (0..mb).rev() {
        if p != mb - 1 {
            seq.push((PassKind::Significance, p, false));
            seq.push((PassKind::Refinement, p, false));
        }
        seq.push((PassKind::Cleanup, p, true));
    }
    seq
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

/// Result of encoding one code-block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct T1EncodedBlock {
    /// The MQ codeword segment (all passes, single segment).
    pub data: Vec<u8>,
    /// Number of coding passes contained (`3·Mb − 2`, or 0 for an
    /// all-zero block).
    pub num_passes: u32,
    /// Number of magnitude bit-planes `Mb`.
    pub num_bitplanes: u8,
}

/// The initial context states mandated by the standard: UNIFORM starts at
/// state 46, run-length at 3, the all-zero-neighbourhood ZC context at 4,
/// everything else at 0.
pub fn initial_contexts() -> [MqContext; NUM_CONTEXTS] {
    let mut ctxs = [MqContext::with_state(0); NUM_CONTEXTS];
    ctxs[CTX_ZC] = MqContext::with_state(4);
    ctxs[CTX_RL] = MqContext::with_state(3);
    ctxs[CTX_UNI] = MqContext::with_state(46);
    ctxs
}

/// Encodes one code-block of quantised coefficients.
///
/// `mags` holds the magnitudes, `negative` the sign of each sample
/// (`true` = negative), both row-major `w × h`.
///
/// # Panics
///
/// Panics if the slice lengths do not match `w * h`.
pub fn encode_block(
    mags: &[u32],
    negative: &[bool],
    w: usize,
    h: usize,
    kind: BandKind,
) -> T1EncodedBlock {
    let (mut segments, mb) = encode_block_layers(mags, negative, w, h, kind, 1);
    match segments.pop() {
        Some(seg) => T1EncodedBlock {
            data: seg.data,
            num_passes: seg.num_passes,
            num_bitplanes: mb,
        },
        None => T1EncodedBlock {
            data: Vec::new(),
            num_passes: 0,
            num_bitplanes: 0,
        },
    }
}

/// One MQ codeword segment of a layered code-block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct T1Segment {
    /// The terminated MQ codeword covering this segment's passes.
    pub data: Vec<u8>,
    /// Number of coding passes in the segment.
    pub num_passes: u32,
}

/// The encoder's side of each decision: read from the coefficients,
/// coded into the MQ encoder.
struct Encode<'a> {
    mq: &'a mut MqEncoder,
    mags: &'a [u32],
    negative: &'a [bool],
    p: u32,
}

impl Encode<'_> {
    #[inline(always)]
    fn plane_bit(&self, i: usize) -> bool {
        (self.mags[i] >> self.p) & 1 != 0
    }
}

impl Coder for Encode<'_> {
    #[inline(always)]
    fn bit(&mut self, cx: &mut MqContext, i: usize) -> bool {
        let bit = self.plane_bit(i);
        self.mq.encode(cx, bit);
        bit
    }

    #[inline(always)]
    fn sign(&mut self, cx: &mut MqContext, xor: bool, i: usize) -> bool {
        self.mq.encode(cx, self.negative[i] ^ xor);
        self.negative[i]
    }

    #[inline(always)]
    fn refine(&mut self, cx: &mut MqContext, i: usize) {
        self.mq.encode(cx, self.plane_bit(i));
    }

    #[inline(always)]
    fn run(&mut self, ctxs: &mut Contexts, i: usize, stride: usize) -> Option<u32> {
        let first = (0..4).find(|&k| self.plane_bit(i + k as usize * stride));
        self.mq.encode(&mut ctxs[CTX_RL], first.is_some());
        if let Some(k) = first {
            self.mq.encode(&mut ctxs[CTX_UNI], k & 2 != 0);
            self.mq.encode(&mut ctxs[CTX_UNI], k & 1 != 0);
        }
        first
    }
}

/// Encodes one code-block into `num_layers` independently terminated MQ
/// codeword segments (the standard's codeword-termination mode): contexts
/// persist across segments, but each segment's arithmetic codeword is
/// flushed, so a decoder holding only the first *k* segments can decode
/// exactly their passes — the mechanism behind quality layers.
///
/// Passes distribute evenly over layers with earlier layers taking the
/// remainder (most-significant data first). Returns the segments (empty
/// for an all-zero block) and the bit-plane count `Mb`.
///
/// # Panics
///
/// Panics if the slice lengths do not match `w * h` or `num_layers == 0`.
pub fn encode_block_layers(
    mags: &[u32],
    negative: &[bool],
    w: usize,
    h: usize,
    kind: BandKind,
    num_layers: usize,
) -> (Vec<T1Segment>, u8) {
    assert_eq!(mags.len(), w * h);
    assert_eq!(negative.len(), w * h);
    assert!(num_layers > 0, "at least one layer");
    let mb = mags
        .iter()
        .map(|&m| 32 - m.leading_zeros())
        .max()
        .unwrap_or(0) as u8;
    if mb == 0 {
        return (Vec::new(), 0);
    }
    let total = 3 * mb as usize - 2;
    // Contiguous pass ranges per layer, remainder to the earliest layers.
    let mut boundaries = Vec::with_capacity(num_layers);
    let (base, rem) = (total / num_layers, total % num_layers);
    let mut acc = 0usize;
    for l in 0..num_layers {
        acc += base + usize::from(l < rem);
        boundaries.push(acc);
    }

    let zc = zc_lut(kind);
    let mut flags = Vec::new();
    reset_flags(&mut flags, w, h);
    let mut ctxs = initial_contexts();
    let mut mq = MqEncoder::new();
    let mut segments = Vec::with_capacity(num_layers);
    let mut passes_in_segment = 0u32;
    let mut next_boundary = 0usize;
    let (mut pass, mut p) = (PassKind::Cleanup, mb as u32 - 1);
    for i in 0..total {
        let c = Encode {
            mq: &mut mq,
            mags,
            negative,
            p,
        };
        let geom = (w, h, w);
        let _ = match pass {
            PassKind::Significance => sig_pass(c, &mut ctxs, &mut flags, geom, zc),
            PassKind::Refinement => ref_pass(c, &mut ctxs, &mut flags, geom),
            PassKind::Cleanup => cleanup_pass(c, &mut ctxs, &mut flags, geom, zc),
        };
        (pass, p) = pass.next(p);
        passes_in_segment += 1;
        if i + 1 == boundaries[next_boundary] {
            let done = std::mem::take(&mut mq);
            segments.push(T1Segment {
                data: done.finish(),
                num_passes: passes_in_segment,
            });
            passes_in_segment = 0;
            next_boundary += 1;
        }
    }
    debug_assert_eq!(passes_in_segment, 0, "all passes flushed");
    (segments, mb)
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

/// Reusable Tier-1 decode state: the stripe state words, grown to the
/// largest code-block seen and reused, plus the work counters. The
/// coefficients go straight into the caller's plane
/// ([`T1Scratch::decode_into`]), so the scratch holds no per-block
/// planes.
#[derive(Debug, Clone, Default)]
pub struct T1Scratch {
    flags: Vec<u32>,
    counters: T1Counters,
}

/// Running Tier-1 work counters, accumulated across every block a
/// [`T1Scratch`] decodes. Plain integer adds on the per-block (not
/// per-decision) path — free to keep enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct T1Counters {
    /// Code-blocks decoded.
    pub blocks: u64,
    /// Coding passes executed.
    pub coding_passes: u64,
    /// Compressed bytes consumed.
    pub bytes_in: u64,
    /// MQ renormalisations: decisions whose new A fell below 0x8000.
    pub mq_renorms: u64,
}

impl T1Counters {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &T1Counters) {
        self.blocks = self.blocks.saturating_add(other.blocks);
        self.coding_passes = self.coding_passes.saturating_add(other.coding_passes);
        self.bytes_in = self.bytes_in.saturating_add(other.bytes_in);
        self.mq_renorms = self.mq_renorms.saturating_add(other.mq_renorms);
    }
}

/// The largest bit-plane count [`T1Scratch::decode_into`] accepts: every
/// magnitude below `1 << 30` fits an `i32` coefficient with its sign.
/// The codec passes at most [`crate::codec::KMAX`] = 18.
const MAX_BITPLANES: u8 = 30;

impl T1Scratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The work counters accumulated so far.
    pub fn counters(&self) -> T1Counters {
        self.counters
    }

    /// Decodes a code-block from one or more terminated codeword
    /// segments (the layered form of [`encode_block_layers`]) straight
    /// into a coefficient plane: sample `(x, y)` lands in
    /// `out[y * stride + x]` as a signed magnitude. `mb` is the bit-plane
    /// count signalled by the packet header's zero-bit-plane field; fewer
    /// passes than the full schedule yield the standard's partial
    /// (quality-truncated) reconstruction.
    ///
    /// `out`'s block region must be zero on entry: a sample turning
    /// significant is stored, later refinement bits are added to it.
    ///
    /// # Panics
    ///
    /// Panics if `mb` exceeds 30 (the `i32` plane's bound), if
    /// `stride < w`, or if `out` is too short for `h` rows of `stride`
    /// (the last one `w` long).
    #[allow(clippy::too_many_arguments)]
    pub fn decode_into(
        &mut self,
        segments: &[(&[u8], u32)],
        w: usize,
        h: usize,
        kind: BandKind,
        mb: u8,
        out: &mut [i32],
        stride: usize,
    ) {
        assert!(mb <= MAX_BITPLANES, "{mb} bit-planes overflow i32");
        self.counters.blocks += 1;
        self.counters.coding_passes += segments.iter().map(|&(_, n)| n as u64).sum::<u64>();
        self.counters.bytes_in += segments.iter().map(|&(d, _)| d.len() as u64).sum::<u64>();
        if mb == 0 || w == 0 || h == 0 {
            return;
        }
        assert!(
            stride >= w && out.len() >= (h - 1) * stride + w,
            "a {w}x{h} block does not fit a plane of {} samples with stride {stride}",
            out.len()
        );
        reset_flags(&mut self.flags, w, h);
        let zc = zc_lut(kind);
        let geom = (w, h, stride);
        let mut ctxs = initial_contexts();
        let (mut pass, mut p) = (PassKind::Cleanup, mb as u32 - 1);
        let mut left = 3 * mb as u32 - 2; // passes left in the schedule
        for &(data, n) in segments {
            if left == 0 {
                break;
            }
            let mut mq = MqDecoder::new(data);
            for _ in 0..n.min(left) {
                let c = Decode {
                    mq,
                    out: &mut *out,
                    one: 1 << p,
                };
                let flags = &mut self.flags;
                mq = match pass {
                    PassKind::Significance => sig_pass(c, &mut ctxs, flags, geom, zc).mq,
                    PassKind::Refinement => ref_pass(c, &mut ctxs, flags, geom).mq,
                    PassKind::Cleanup => cleanup_pass(c, &mut ctxs, flags, geom, zc).mq,
                };
                (pass, p) = pass.next(p);
            }
            left -= n.min(left);
            self.counters.mq_renorms += mq.renorms();
        }
    }
}

/// The decoder's side of each decision: taken from the MQ codeword,
/// written into the coefficient plane.
struct Decode<'a, 'o> {
    mq: MqDecoder<'a>,
    out: &'o mut [i32],
    /// `1 << p` for the pass's plane `p`.
    one: i32,
}

impl Coder for Decode<'_, '_> {
    #[inline(always)]
    fn bit(&mut self, cx: &mut MqContext, _i: usize) -> bool {
        self.mq.decode(cx)
    }

    #[inline(always)]
    fn sign(&mut self, cx: &mut MqContext, xor: bool, i: usize) -> bool {
        let neg = self.mq.decode(cx) ^ xor;
        self.out[i] = select(neg, -self.one, self.one);
        neg
    }

    #[inline(always)]
    fn refine(&mut self, cx: &mut MqContext, i: usize) {
        // Branch-free: refinement bits are near-random, so a branch on
        // them would mispredict. `(b ^ s) - s` is `b` with `v`'s sign.
        let b = self.one & -(self.mq.decode(cx) as i32);
        let v = self.out[i];
        let s = v >> 31;
        self.out[i] = v + ((b ^ s) - s);
    }

    #[inline(always)]
    fn run(&mut self, ctxs: &mut Contexts, _i: usize, _stride: usize) -> Option<u32> {
        if !self.mq.decode(&mut ctxs[CTX_RL]) {
            return None;
        }
        let hi = self.mq.decode(&mut ctxs[CTX_UNI]) as u32;
        Some(hi << 1 | self.mq.decode(&mut ctxs[CTX_UNI]) as u32)
    }
}

/// Decodes one code-block back into `(magnitudes, negative)` arrays.
///
/// `num_passes` is the pass count from the packet header; the number of
/// bit-planes is `(num_passes + 2) / 3`.
pub fn decode_block(
    data: &[u8],
    w: usize,
    h: usize,
    kind: BandKind,
    num_passes: u32,
) -> (Vec<u32>, Vec<bool>) {
    if num_passes == 0 {
        return (vec![0; w * h], vec![false; w * h]);
    }
    let mb = num_passes.div_ceil(3);
    decode_block_segments(&[(data, num_passes)], w, h, kind, mb as u8)
}

/// [`T1Scratch::decode_into`] on a fresh scratch and plane, split into
/// `(magnitudes, negative)` arrays.
pub fn decode_block_segments(
    segments: &[(&[u8], u32)],
    w: usize,
    h: usize,
    kind: BandKind,
    mb: u8,
) -> (Vec<u32>, Vec<bool>) {
    let mut plane = vec![0i32; w * h];
    T1Scratch::new().decode_into(segments, w, h, kind, mb, &mut plane, w);
    (
        plane.iter().map(|v| v.unsigned_abs()).collect(),
        plane.iter().map(|&v| v < 0).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn roundtrip(mags: Vec<u32>, negative: Vec<bool>, w: usize, h: usize, kind: BandKind) {
        let enc = encode_block(&mags, &negative, w, h, kind);
        let (dm, dn) = decode_block(&enc.data, w, h, kind, enc.num_passes);
        assert_eq!(dm, mags, "magnitudes {w}x{h} {kind:?}");
        // Signs only matter where magnitude is non-zero.
        for i in 0..mags.len() {
            if mags[i] != 0 {
                assert_eq!(dn[i], negative[i], "sign at {i}");
            }
        }
    }

    fn random_block(
        w: usize,
        h: usize,
        seed: u64,
        zero_prob: f64,
        max_mag: u32,
    ) -> (Vec<u32>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mags: Vec<u32> = (0..w * h)
            .map(|_| {
                if rng.gen_bool(zero_prob) {
                    0
                } else {
                    rng.gen_range(1..=max_mag)
                }
            })
            .collect();
        let negative: Vec<bool> = (0..w * h).map(|_| rng.gen_bool(0.5)).collect();
        (mags, negative)
    }

    #[test]
    fn all_zero_block_has_no_passes() {
        let enc = encode_block(&[0; 16], &[false; 16], 4, 4, BandKind::Ll);
        assert_eq!(enc.num_passes, 0);
        assert_eq!(enc.num_bitplanes, 0);
        assert!(enc.data.is_empty());
        let (m, _) = decode_block(&enc.data, 4, 4, BandKind::Ll, 0);
        assert!(m.iter().all(|&v| v == 0));
    }

    #[test]
    fn single_coefficient_roundtrip() {
        let mut mags = vec![0u32; 64];
        let mut neg = vec![false; 64];
        mags[27] = 13;
        neg[27] = true;
        roundtrip(mags, neg, 8, 8, BandKind::Hl);
    }

    #[test]
    fn passes_formula() {
        let mut mags = vec![0u32; 16];
        mags[0] = 0b101; // 3 bit-planes
        let enc = encode_block(&mags, &[false; 16], 4, 4, BandKind::Ll);
        assert_eq!(enc.num_bitplanes, 3);
        assert_eq!(enc.num_passes, 7);
    }

    #[test]
    fn dense_random_blocks_roundtrip_all_orientations() {
        for kind in [BandKind::Ll, BandKind::Hl, BandKind::Lh, BandKind::Hh] {
            let (mags, neg) = random_block(16, 16, 42, 0.3, 255);
            roundtrip(mags, neg, 16, 16, kind);
        }
    }

    #[test]
    fn sparse_random_blocks_roundtrip() {
        for seed in 0..5 {
            let (mags, neg) = random_block(32, 32, seed, 0.95, 1000);
            roundtrip(mags, neg, 32, 32, BandKind::Hh);
        }
    }

    #[test]
    fn non_multiple_of_four_heights() {
        for h in [1usize, 2, 3, 5, 6, 7, 9] {
            let (mags, neg) = random_block(7, h, h as u64, 0.5, 63);
            roundtrip(mags, neg, 7, h, BandKind::Lh);
        }
    }

    #[test]
    fn single_row_and_column_blocks() {
        let (mags, neg) = random_block(16, 1, 3, 0.4, 15);
        roundtrip(mags, neg, 16, 1, BandKind::Ll);
        let (mags, neg) = random_block(1, 16, 4, 0.4, 15);
        roundtrip(mags, neg, 1, 16, BandKind::Hh);
    }

    #[test]
    fn large_magnitudes() {
        let mut mags = vec![0u32; 64];
        mags[0] = 65_535;
        mags[63] = 32_768;
        let mut neg = vec![false; 64];
        neg[63] = true;
        roundtrip(mags, neg, 8, 8, BandKind::Ll);
    }

    #[test]
    fn compression_is_effective_on_sparse_data() {
        let (mags, neg) = random_block(64, 64, 5, 0.98, 127);
        let enc = encode_block(&mags, &neg, 64, 64, BandKind::Hh);
        // 4096 samples, ~2% significant: far below raw size.
        assert!(
            enc.data.len() < 1200,
            "sparse block should compress, got {} bytes",
            enc.data.len()
        );
    }

    #[test]
    fn layered_encoding_roundtrips_for_any_layer_count() {
        let (mags, neg) = random_block(16, 16, 21, 0.5, 511);
        let reference = encode_block(&mags, &neg, 16, 16, BandKind::Lh);
        for layers in 1..=7 {
            let (segments, mb) = encode_block_layers(&mags, &neg, 16, 16, BandKind::Lh, layers);
            assert_eq!(mb, reference.num_bitplanes);
            let total: u32 = segments.iter().map(|s| s.num_passes).sum();
            assert_eq!(total, reference.num_passes, "{layers} layers");
            let refs: Vec<(&[u8], u32)> = segments
                .iter()
                .map(|s| (s.data.as_slice(), s.num_passes))
                .collect();
            let (dm, dn) = decode_block_segments(&refs, 16, 16, BandKind::Lh, mb);
            assert_eq!(dm, mags, "{layers} layers");
            for i in 0..mags.len() {
                if mags[i] != 0 {
                    assert_eq!(dn[i], neg[i]);
                }
            }
        }
    }

    #[test]
    fn truncated_layers_give_progressively_better_magnitudes() {
        let (mags, neg) = random_block(16, 16, 22, 0.4, 1023);
        let (segments, mb) = encode_block_layers(&mags, &neg, 16, 16, BandKind::Hl, 4);
        let mut last_err = u64::MAX;
        for keep in 1..=4 {
            let refs: Vec<(&[u8], u32)> = segments[..keep]
                .iter()
                .map(|s| (s.data.as_slice(), s.num_passes))
                .collect();
            let (dm, _) = decode_block_segments(&refs, 16, 16, BandKind::Hl, mb);
            let err: u64 = dm
                .iter()
                .zip(&mags)
                .map(|(&a, &b)| (a as i64 - b as i64).unsigned_abs())
                .sum();
            assert!(
                err <= last_err,
                "keeping {keep} layers must not increase error: {err} > {last_err}"
            );
            last_err = err;
        }
        assert_eq!(last_err, 0, "all layers reconstruct exactly");
    }

    #[test]
    fn pass_sequence_shape() {
        assert!(pass_sequence(0).is_empty());
        let s1 = pass_sequence(1);
        assert_eq!(s1.len(), 1);
        assert_eq!(s1[0].0, PassKind::Cleanup);
        let s3 = pass_sequence(3);
        assert_eq!(s3.len(), 7); // 3*3 - 2
        assert_eq!(s3[0], (PassKind::Cleanup, 2, true));
        assert_eq!(s3[1], (PassKind::Significance, 1, false));
        assert_eq!(s3[6], (PassKind::Cleanup, 0, true));
    }

    #[test]
    fn context_tables_cover_expected_ranges() {
        for h in 0..=2u32 {
            for v in 0..=2u32 {
                for d in 0..=4u32 {
                    assert!(zc_table_hv(h, v, d) <= 8);
                    assert!(zc_table_diag(d, h + v) <= 8);
                }
            }
        }
    }

    #[test]
    fn initial_context_states() {
        let c = initial_contexts();
        assert_eq!(c[CTX_UNI].state(), 46);
        assert_eq!(c[CTX_RL].state(), 3);
        assert_eq!(c[CTX_ZC].state(), 4);
        assert_eq!(c[CTX_ZC + 1].state(), 0);
        assert_eq!(c[CTX_SC].state(), 0);
    }

    /// Splits a signed coefficient plane into `(magnitudes, negative)`.
    fn split(plane: &[i32]) -> (Vec<u32>, Vec<bool>) {
        (
            plane.iter().map(|v| v.unsigned_abs()).collect(),
            plane.iter().map(|&v| v < 0).collect(),
        )
    }

    #[test]
    fn scratch_decode_matches_plain_and_is_reusable() {
        let mut scratch = T1Scratch::new();
        // Decreasing then increasing sizes: buffers shrink and regrow.
        for (w, h, seed) in [(32usize, 32usize, 1u64), (8, 8, 2), (16, 5, 3), (64, 64, 4)] {
            let (mags, neg) = random_block(w, h, seed, 0.6, 511);
            let enc = encode_block(&mags, &neg, w, h, BandKind::Hl);
            let plain = decode_block(&enc.data, w, h, BandKind::Hl, enc.num_passes);
            let mb = enc.num_passes.div_ceil(3) as u8;
            let mut plane = vec![0i32; w * h];
            let segs: &[(&[u8], u32)] = &[(&enc.data, enc.num_passes)];
            scratch.decode_into(segs, w, h, BandKind::Hl, mb, &mut plane, w);
            let (sm, sn) = split(&plane);
            assert_eq!(sm, plain.0, "{w}x{h}");
            assert_eq!(sn, plain.1, "{w}x{h}");
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn decode_into_rejects_a_plane_too_small_for_the_block() {
        let (mags, neg) = random_block(8, 8, 5, 0.5, 255);
        let enc = encode_block(&mags, &neg, 8, 8, BandKind::Ll);
        let mut plane = vec![0i32; 8 * 7 + 7];
        let segs: &[(&[u8], u32)] = &[(&enc.data, enc.num_passes)];
        T1Scratch::new().decode_into(segs, 8, 8, BandKind::Ll, enc.num_bitplanes, &mut plane, 8);
    }

    #[test]
    fn decode_into_writes_only_its_block_at_an_offset() {
        let (pw, ph) = (40usize, 30usize);
        let cases = [
            (16usize, 13usize, 5usize, 7usize, BandKind::Hh, 1u64),
            (1, 9, 39, 0, BandKind::Ll, 2),
            (23, 4, 0, 26, BandKind::Lh, 3),
            (7, 30, 20, 0, BandKind::Hl, 4),
        ];
        for (w, h, x0, y0, kind, seed) in cases {
            let (mags, neg) = random_block(w, h, seed, 0.5, (1 << 18) - 1);
            let enc = encode_block(&mags, &neg, w, h, kind);
            let (rm, rn) = reference::decode_block(&enc.data, w, h, kind, enc.num_passes);
            let mut plane = vec![0i32; pw * ph];
            let segs: &[(&[u8], u32)] = &[(&enc.data, enc.num_passes)];
            let at = y0 * pw + x0;
            T1Scratch::new().decode_into(segs, w, h, kind, enc.num_bitplanes, &mut plane[at..], pw);
            for y in 0..ph {
                for x in 0..pw {
                    let v = plane[y * pw + x];
                    if (x0..x0 + w).contains(&x) && (y0..y0 + h).contains(&y) {
                        let j = (y - y0) * w + x - x0;
                        let m = rm[j] as i32;
                        assert_eq!(v, if rn[j] { -m } else { m }, "{w}x{h} at ({x}, {y})");
                    } else {
                        assert_eq!(v, 0, "{w}x{h} wrote outside its block at ({x}, {y})");
                    }
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // LUT-vs-oracle checks: the compile-time tables must agree with the
    // T.800 context logic (exhaustively) and the stripe-state coder with
    // the retained reference implementation (property-tested).
    // -----------------------------------------------------------------

    #[test]
    fn zc_luts_match_oracle_tables_exhaustively() {
        // The 3x3 window: bits 0..=2 NW N NE, 3..=5 W centre E, 6..=8 SW S SE.
        for f in 0usize..512 {
            let bit = |k: usize| ((f >> k) & 1) as u32;
            let h = bit(3) + bit(5);
            let v = bit(1) + bit(7);
            let d = bit(0) + bit(2) + bit(6) + bit(8);
            assert_eq!(LUT_ZC_HV[f] as usize, zc_table_hv(h, v, d), "window {f:#x}");
            assert_eq!(LUT_ZC_VH[f] as usize, zc_table_hv(v, h, d), "window {f:#x}");
            assert_eq!(
                LUT_ZC_DIAG[f] as usize,
                zc_table_diag(d, h + v),
                "window {f:#x}"
            );
        }
    }

    #[test]
    fn sc_lut_matches_reference_grid_exhaustively() {
        // A 3-wide block of three stripes. The centre sample sits in the
        // middle stripe at each row in turn, so rows 0 and 3 take their
        // N or S neighbour, and its sign, from the adjacent stripe.
        let (w, h) = (3usize, 12usize);
        let fstride = w + 2;
        let word = |x: usize, y: usize| (y / 4 + 1) * fstride + x + 1;
        for ci in 0..4 {
            let (cx, cy) = (1usize, 4 + ci);
            // All sign/significance assignments of the 4 h/v neighbours.
            for m in 0usize..256 {
                let mut rflags = vec![0u8; w * h];
                let mut rneg = vec![false; w * h];
                let mut flags = Vec::new();
                reset_flags(&mut flags, w, h);
                let neighbours = [(cx - 1, cy), (cx + 1, cy), (cx, cy - 1), (cx, cy + 1)];
                for (k, (x, y)) in neighbours.into_iter().enumerate() {
                    let (sig, neg) = (m >> k & 1 != 0, m >> (k + 4) & 1 != 0);
                    if sig {
                        rflags[y * w + x] = reference::F_SIG;
                        rneg[y * w + x] = neg;
                        let fi = word(x, y);
                        let r = 3 * (y % 4) as u32;
                        flags[fi] |= set_significant(&mut flags, fi, fstride, r, neg);
                    }
                }
                let grid = reference::Grid {
                    w,
                    h,
                    flags: &rflags,
                    negative: &rneg,
                };
                let fi = word(cx, cy);
                assert_eq!(
                    sc_context(&flags, fi, flags[fi], 3 * ci as u32),
                    grid.sc_context(cx, cy),
                    "row {ci}, mask {m:#x}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The stripe-state encoder emits byte-identical segments to the
        /// reference encoder over random geometries (1×1 up to 64×64),
        /// all four band orientations, lossless-scale and lossy-scale
        /// magnitudes, and any layer count.
        #[test]
        fn lattice_encode_is_bit_exact_vs_reference(
            w in 1usize..=64,
            h in 1usize..=64,
            kind_sel in 0usize..4,
            layers in 1usize..=4,
            dense in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let kind = [BandKind::Ll, BandKind::Hl, BandKind::Lh, BandKind::Hh][kind_sel];
            let (zero_prob, max_mag) = if dense { (0.3, 40_000) } else { (0.9, 255) };
            let (mags, neg) = random_block(w, h, seed, zero_prob, max_mag);
            let (fast, fast_mb) = encode_block_layers(&mags, &neg, w, h, kind, layers);
            let (refr, ref_mb) = reference::encode_block_layers(&mags, &neg, w, h, kind, layers);
            prop_assert_eq!(fast_mb, ref_mb);
            prop_assert_eq!(fast, refr);
        }

        /// The stripe-state decoder reconstructs exactly what the
        /// reference decoder does, including partial (pass-truncated)
        /// segment sets.
        #[test]
        fn lattice_decode_is_bit_exact_vs_reference(
            w in 1usize..=64,
            h in 1usize..=64,
            kind_sel in 0usize..4,
            keep_num in 1u32..=100,
            seed in any::<u64>(),
        ) {
            let kind = [BandKind::Ll, BandKind::Hl, BandKind::Lh, BandKind::Hh][kind_sel];
            let (mags, neg) = random_block(w, h, seed, 0.6, 4095);
            let enc = encode_block(&mags, &neg, w, h, kind);
            if enc.num_passes > 0 {
                // Truncate to a random prefix of the coding passes.
                let keep = 1 + keep_num % enc.num_passes;
                let mb = enc.num_passes.div_ceil(3) as u8;
                let segs: &[(&[u8], u32)] = &[(&enc.data, keep)];
                let fast = decode_block_segments(segs, w, h, kind, mb);
                let refr = reference::decode_block_segments(segs, w, h, kind, mb);
                prop_assert_eq!(fast, refr);
            }
        }

        /// Layered decodes match the reference for any kept prefix of
        /// 1..=6 segments whose last segment is cut to a prefix of its
        /// passes and of its bytes, on every orientation and on heights
        /// that are not multiples of 4, with magnitudes up to 2^18 − 1.
        #[test]
        fn layered_decode_is_bit_exact_vs_reference(
            w in 1usize..=64,
            h in 1usize..=64,
            kind_sel in 0usize..4,
            layers in 1usize..=6,
            keep_sel in any::<usize>(),
            cut_passes in any::<u32>(),
            cut_bytes in any::<usize>(),
            dense in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let kind = [BandKind::Ll, BandKind::Hl, BandKind::Lh, BandKind::Hh][kind_sel];
            let (zero_prob, max_mag) = if dense { (0.3, (1 << 18) - 1) } else { (0.85, 255) };
            let (mags, neg) = random_block(w, h, seed, zero_prob, max_mag);
            let (segments, mb) = encode_block_layers(&mags, &neg, w, h, kind, layers);
            if !segments.is_empty() {
                let keep = 1 + keep_sel % segments.len();
                let mut segs: Vec<(&[u8], u32)> = segments[..keep]
                    .iter()
                    .map(|s| (s.data.as_slice(), s.num_passes))
                    .collect();
                let last = segs.last_mut().expect("one segment kept");
                last.0 = &last.0[..cut_bytes % (last.0.len() + 1)];
                last.1 = cut_passes % (last.1 + 1);
                let fast = decode_block_segments(&segs, w, h, kind, mb);
                let refr = reference::decode_block_segments(&segs, w, h, kind, mb);
                prop_assert_eq!(fast, refr);
            }
        }
    }
}
