//! The pre-optimisation Tier-1 implementation, retained verbatim as the
//! bit-exactness oracle for the stripe-state fast path in [`super`].
//!
//! Every context here is recomputed from scratch with bounds-checked
//! neighbour scans — slow, but a direct transcription of the T.800
//! context rules. Property tests in the parent module assert that the
//! optimised encoder emits byte-identical segments and the optimised
//! decoder reconstructs identical planes, over random geometries, all
//! band orientations and truncated pass sets. The decoder here runs on
//! the flowchart MQ decoder ([`crate::mq::reference`]), so those tests
//! compare two fully independent Tier-1 + MQ paths.

use super::{
    initial_contexts, pass_sequence, zc_table_diag, zc_table_hv, PassKind, T1EncodedBlock,
    T1Segment, CTX_MR, CTX_RL, CTX_SC, CTX_UNI, CTX_ZC, NUM_CONTEXTS,
};
use crate::mq::reference::MqDecoder;
use crate::mq::{MqContext, MqEncoder};
use crate::tile::BandKind;

// Per-sample state flags.
pub(crate) const F_SIG: u8 = 1;
const F_VISITED: u8 = 2;
const F_REFINED: u8 = 4;

/// Bounds-checked neighbourhood view over the per-sample state planes.
pub(crate) struct Grid<'a> {
    pub(crate) w: usize,
    pub(crate) h: usize,
    pub(crate) flags: &'a [u8],
    pub(crate) negative: &'a [bool],
}

impl Grid<'_> {
    #[inline]
    fn sig(&self, x: isize, y: isize) -> bool {
        if x < 0 || y < 0 || x as usize >= self.w || y as usize >= self.h {
            return false;
        }
        self.flags[y as usize * self.w + x as usize] & F_SIG != 0
    }

    /// Sign contribution of a neighbour: +1 significant positive,
    /// −1 significant negative, 0 insignificant/outside.
    #[inline]
    fn contrib(&self, x: isize, y: isize) -> i32 {
        if x < 0 || y < 0 || x as usize >= self.w || y as usize >= self.h {
            return 0;
        }
        let i = y as usize * self.w + x as usize;
        if self.flags[i] & F_SIG == 0 {
            0
        } else if self.negative[i] {
            -1
        } else {
            1
        }
    }

    /// `(horizontal, vertical, diagonal)` significant-neighbour counts.
    fn counts(&self, x: usize, y: usize) -> (u32, u32, u32) {
        let (x, y) = (x as isize, y as isize);
        let h = self.sig(x - 1, y) as u32 + self.sig(x + 1, y) as u32;
        let v = self.sig(x, y - 1) as u32 + self.sig(x, y + 1) as u32;
        let d = self.sig(x - 1, y - 1) as u32
            + self.sig(x + 1, y - 1) as u32
            + self.sig(x - 1, y + 1) as u32
            + self.sig(x + 1, y + 1) as u32;
        (h, v, d)
    }

    /// Zero-coding context (0..=8) for the sample, per band orientation.
    fn zc_context(&self, x: usize, y: usize, kind: BandKind) -> usize {
        let (h, v, d) = self.counts(x, y);
        let raw = match kind {
            BandKind::Ll | BandKind::Lh => zc_table_hv(h, v, d),
            BandKind::Hl => zc_table_hv(v, h, d),
            BandKind::Hh => zc_table_diag(d, h + v),
        };
        CTX_ZC + raw
    }

    /// Sign-coding context (9..=13) and XOR bit.
    pub(crate) fn sc_context(&self, x: usize, y: usize) -> (usize, bool) {
        let (x, y) = (x as isize, y as isize);
        let hc = (self.contrib(x - 1, y) + self.contrib(x + 1, y)).clamp(-1, 1);
        let vc = (self.contrib(x, y - 1) + self.contrib(x, y + 1)).clamp(-1, 1);
        let (off, xor) = match (hc, vc) {
            (1, 1) => (4, false),
            (1, 0) => (3, false),
            (1, -1) => (2, false),
            (0, 1) => (1, false),
            (0, 0) => (0, false),
            (0, -1) => (1, true),
            (-1, 1) => (2, true),
            (-1, 0) => (3, true),
            (-1, -1) => (4, true),
            _ => unreachable!("contributions clamped to [-1, 1]"),
        };
        (CTX_SC + off, xor)
    }

    /// Magnitude-refinement context (14..=16).
    fn mr_context(&self, x: usize, y: usize, refined: bool) -> usize {
        if refined {
            return CTX_MR + 2;
        }
        let (h, v, d) = self.counts(x, y);
        if h + v + d > 0 {
            CTX_MR + 1
        } else {
            CTX_MR
        }
    }
}

/// Reference [`super::encode_block`].
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

/// Reference [`super::encode_block_layers`].
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
    let seq = pass_sequence(mb as u32);
    let total = seq.len();
    // Contiguous pass ranges per layer, remainder to the earliest layers.
    let mut boundaries = Vec::with_capacity(num_layers);
    let (base, rem) = (total / num_layers, total % num_layers);
    let mut acc = 0usize;
    for l in 0..num_layers {
        acc += base + usize::from(l < rem);
        boundaries.push(acc);
    }

    let mut flags = vec![0u8; w * h];
    let mut ctxs = initial_contexts();
    let mut mq = MqEncoder::new();
    let mut segments = Vec::with_capacity(num_layers);
    let mut passes_in_segment = 0u32;
    let mut next_boundary = 0usize;
    for (i, &(pass, p, clear)) in seq.iter().enumerate() {
        match pass {
            PassKind::Significance => enc_sig_pass(
                &mut mq, &mut ctxs, &mut flags, mags, negative, w, h, kind, p,
            ),
            PassKind::Refinement => {
                enc_ref_pass(&mut mq, &mut ctxs, &mut flags, mags, negative, w, h, p)
            }
            PassKind::Cleanup => enc_cleanup_pass(
                &mut mq, &mut ctxs, &mut flags, mags, negative, w, h, kind, p,
            ),
        }
        if clear {
            for f in &mut flags {
                *f &= !F_VISITED;
            }
        }
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

/// Iterates the stripe-oriented scan, invoking `f(x, y, stripe_height,
/// index_in_stripe_column)` for every sample.
fn stripe_scan(w: usize, h: usize, mut f: impl FnMut(usize, usize, usize, usize)) {
    let mut sy = 0;
    while sy < h {
        let sh = (h - sy).min(4);
        for x in 0..w {
            for dy in 0..sh {
                f(x, sy + dy, sh, dy);
            }
        }
        sy += 4;
    }
}

#[allow(clippy::too_many_arguments)]
fn enc_sig_pass(
    mq: &mut MqEncoder,
    ctxs: &mut [MqContext; NUM_CONTEXTS],
    flags: &mut [u8],
    mags: &[u32],
    negative: &[bool],
    w: usize,
    h: usize,
    kind: BandKind,
    p: u32,
) {
    stripe_scan(w, h, |x, y, _, _| {
        let i = y * w + x;
        if flags[i] & F_SIG != 0 {
            return;
        }
        let grid = Grid {
            w,
            h,
            flags,
            negative,
        };
        let zc = grid.zc_context(x, y, kind);
        if zc == CTX_ZC {
            return; // no significant neighbour: not in this pass
        }
        let bit = (mags[i] >> p) & 1 != 0;
        mq.encode(&mut ctxs[zc], bit);
        if bit {
            let (sc, xor) = grid.sc_context(x, y);
            mq.encode(&mut ctxs[sc], negative[i] ^ xor);
            flags[i] |= F_SIG;
        }
        flags[i] |= F_VISITED;
    });
}

#[allow(clippy::too_many_arguments)]
fn enc_ref_pass(
    mq: &mut MqEncoder,
    ctxs: &mut [MqContext; NUM_CONTEXTS],
    flags: &mut [u8],
    mags: &[u32],
    negative: &[bool],
    w: usize,
    h: usize,
    p: u32,
) {
    stripe_scan(w, h, |x, y, _, _| {
        let i = y * w + x;
        if flags[i] & F_SIG == 0 || flags[i] & F_VISITED != 0 {
            return;
        }
        let grid = Grid {
            w,
            h,
            flags,
            negative,
        };
        let mr = grid.mr_context(x, y, flags[i] & F_REFINED != 0);
        mq.encode(&mut ctxs[mr], (mags[i] >> p) & 1 != 0);
        flags[i] |= F_REFINED;
    });
}

#[allow(clippy::too_many_arguments)]
fn enc_cleanup_pass(
    mq: &mut MqEncoder,
    ctxs: &mut [MqContext; NUM_CONTEXTS],
    flags: &mut [u8],
    mags: &[u32],
    negative: &[bool],
    w: usize,
    h: usize,
    kind: BandKind,
    p: u32,
) {
    let mut sy = 0;
    while sy < h {
        let sh = (h - sy).min(4);
        for x in 0..w {
            let mut dy = 0;
            // Run-length mode: a full stripe column, all four samples
            // uncoded, insignificant and with empty neighbourhoods.
            if sh == 4 {
                let rl_eligible = (0..4).all(|k| {
                    let i = (sy + k) * w + x;
                    let grid = Grid {
                        w,
                        h,
                        flags,
                        negative,
                    };
                    flags[i] & (F_SIG | F_VISITED) == 0
                        && grid.zc_context(x, sy + k, kind) == CTX_ZC
                });
                if rl_eligible {
                    let first_one = (0..4).find(|&k| (mags[(sy + k) * w + x] >> p) & 1 != 0);
                    match first_one {
                        None => {
                            mq.encode(&mut ctxs[CTX_RL], false);
                            continue; // whole column stays zero
                        }
                        Some(k) => {
                            mq.encode(&mut ctxs[CTX_RL], true);
                            mq.encode(&mut ctxs[CTX_UNI], k & 2 != 0);
                            mq.encode(&mut ctxs[CTX_UNI], k & 1 != 0);
                            let y = sy + k;
                            let i = y * w + x;
                            let grid = Grid {
                                w,
                                h,
                                flags,
                                negative,
                            };
                            let (sc, xor) = grid.sc_context(x, y);
                            mq.encode(&mut ctxs[sc], negative[i] ^ xor);
                            flags[i] |= F_SIG;
                            dy = k + 1;
                        }
                    }
                }
            }
            // Remaining samples of the column: normal cleanup coding.
            while dy < sh {
                let y = sy + dy;
                let i = y * w + x;
                if flags[i] & (F_SIG | F_VISITED) == 0 {
                    let grid = Grid {
                        w,
                        h,
                        flags,
                        negative,
                    };
                    let zc = grid.zc_context(x, y, kind);
                    let bit = (mags[i] >> p) & 1 != 0;
                    mq.encode(&mut ctxs[zc], bit);
                    if bit {
                        let (sc, xor) = grid.sc_context(x, y);
                        mq.encode(&mut ctxs[sc], negative[i] ^ xor);
                        flags[i] |= F_SIG;
                    }
                }
                dy += 1;
            }
        }
        sy += 4;
    }
}

/// Reference [`super::decode_block`].
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

/// Reference [`super::decode_block_segments`].
pub fn decode_block_segments(
    segments: &[(&[u8], u32)],
    w: usize,
    h: usize,
    kind: BandKind,
    mb: u8,
) -> (Vec<u32>, Vec<bool>) {
    let mut mags = vec![0u32; w * h];
    let mut negative = vec![false; w * h];
    if mb == 0 || w == 0 || h == 0 || segments.is_empty() {
        return (mags, negative);
    }
    let seq = pass_sequence(mb as u32);
    let total_passes: u32 = segments.iter().map(|&(_, n)| n).sum();
    let mut flags = vec![0u8; w * h];
    let mut ctxs = initial_contexts();
    let mut seg_iter = segments.iter();
    let (mut seg_data, mut seg_left) = match seg_iter.next() {
        Some(&(d, n)) => (d, n),
        None => return (mags, negative),
    };
    let mut mq = MqDecoder::new(seg_data);
    for &(pass, p, clear) in seq.iter().take(total_passes as usize) {
        while seg_left == 0 {
            match seg_iter.next() {
                Some(&(d, n)) => {
                    seg_data = d;
                    seg_left = n;
                    mq = MqDecoder::new(seg_data);
                }
                None => return (mags, negative),
            }
        }
        match pass {
            PassKind::Significance => dec_sig_pass(
                &mut mq,
                &mut ctxs,
                &mut flags,
                &mut mags,
                &mut negative,
                w,
                h,
                kind,
                p,
            ),
            PassKind::Refinement => dec_ref_pass(
                &mut mq, &mut ctxs, &mut flags, &mut mags, &negative, w, h, p,
            ),
            PassKind::Cleanup => dec_cleanup_pass(
                &mut mq,
                &mut ctxs,
                &mut flags,
                &mut mags,
                &mut negative,
                w,
                h,
                kind,
                p,
            ),
        }
        if clear {
            for f in &mut flags {
                *f &= !F_VISITED;
            }
        }
        seg_left -= 1;
    }
    (mags, negative)
}

#[allow(clippy::too_many_arguments)]
fn dec_sig_pass(
    mq: &mut MqDecoder<'_>,
    ctxs: &mut [MqContext; NUM_CONTEXTS],
    flags: &mut [u8],
    mags: &mut [u32],
    negative: &mut [bool],
    w: usize,
    h: usize,
    kind: BandKind,
    p: u32,
) {
    stripe_scan(w, h, |x, y, _, _| {
        let i = y * w + x;
        if flags[i] & F_SIG != 0 {
            return;
        }
        let zc = {
            let grid = Grid {
                w,
                h,
                flags,
                negative,
            };
            grid.zc_context(x, y, kind)
        };
        if zc == CTX_ZC {
            return;
        }
        let bit = mq.decode(&mut ctxs[zc]);
        if bit {
            let (sc, xor) = {
                let grid = Grid {
                    w,
                    h,
                    flags,
                    negative,
                };
                grid.sc_context(x, y)
            };
            let sbit = mq.decode(&mut ctxs[sc]);
            negative[i] = sbit ^ xor;
            mags[i] |= 1 << p;
            flags[i] |= F_SIG;
        }
        flags[i] |= F_VISITED;
    });
}

#[allow(clippy::too_many_arguments)]
fn dec_ref_pass(
    mq: &mut MqDecoder<'_>,
    ctxs: &mut [MqContext; NUM_CONTEXTS],
    flags: &mut [u8],
    mags: &mut [u32],
    negative: &[bool],
    w: usize,
    h: usize,
    p: u32,
) {
    stripe_scan(w, h, |x, y, _, _| {
        let i = y * w + x;
        if flags[i] & F_SIG == 0 || flags[i] & F_VISITED != 0 {
            return;
        }
        let mr = {
            let grid = Grid {
                w,
                h,
                flags,
                negative,
            };
            grid.mr_context(x, y, flags[i] & F_REFINED != 0)
        };
        if mq.decode(&mut ctxs[mr]) {
            mags[i] |= 1 << p;
        }
        flags[i] |= F_REFINED;
    });
}

#[allow(clippy::too_many_arguments)]
fn dec_cleanup_pass(
    mq: &mut MqDecoder<'_>,
    ctxs: &mut [MqContext; NUM_CONTEXTS],
    flags: &mut [u8],
    mags: &mut [u32],
    negative: &mut [bool],
    w: usize,
    h: usize,
    kind: BandKind,
    p: u32,
) {
    let mut sy = 0;
    while sy < h {
        let sh = (h - sy).min(4);
        for x in 0..w {
            let mut dy = 0;
            if sh == 4 {
                let rl_eligible = (0..4).all(|k| {
                    let i = (sy + k) * w + x;
                    let grid = Grid {
                        w,
                        h,
                        flags,
                        negative,
                    };
                    flags[i] & (F_SIG | F_VISITED) == 0
                        && grid.zc_context(x, sy + k, kind) == CTX_ZC
                });
                if rl_eligible {
                    if !mq.decode(&mut ctxs[CTX_RL]) {
                        continue; // whole column zero
                    }
                    let k = ((mq.decode(&mut ctxs[CTX_UNI]) as usize) << 1)
                        | mq.decode(&mut ctxs[CTX_UNI]) as usize;
                    let y = sy + k;
                    let i = y * w + x;
                    let (sc, xor) = {
                        let grid = Grid {
                            w,
                            h,
                            flags,
                            negative,
                        };
                        grid.sc_context(x, y)
                    };
                    let sbit = mq.decode(&mut ctxs[sc]);
                    negative[i] = sbit ^ xor;
                    mags[i] |= 1 << p;
                    flags[i] |= F_SIG;
                    dy = k + 1;
                }
            }
            while dy < sh {
                let y = sy + dy;
                let i = y * w + x;
                if flags[i] & (F_SIG | F_VISITED) == 0 {
                    let zc = {
                        let grid = Grid {
                            w,
                            h,
                            flags,
                            negative,
                        };
                        grid.zc_context(x, y, kind)
                    };
                    if mq.decode(&mut ctxs[zc]) {
                        let (sc, xor) = {
                            let grid = Grid {
                                w,
                                h,
                                flags,
                                negative,
                            };
                            grid.sc_context(x, y)
                        };
                        let sbit = mq.decode(&mut ctxs[sc]);
                        negative[i] = sbit ^ xor;
                        mags[i] |= 1 << p;
                        flags[i] |= F_SIG;
                    }
                }
                dy += 1;
            }
        }
        sy += 4;
    }
}
