//! Top-level tiled encoder and (staged) decoder.
//!
//! The decoder is deliberately exposed **stage by stage** —
//! entropy decode (MQ/T1 + T2), inverse quantisation, inverse DWT,
//! inverse component transform, DC shift — because the OSSS case-study
//! models map exactly these stages onto software tasks and hardware
//! shared objects. One per-tile pipeline, [`StagedDecoder::decode_tile`],
//! runs the stages for every kind of decode — strict [`decode`],
//! tolerant, quality and thumbnail, sequential, tile-parallel or served —
//! and measures each one's wall-clock share (the Figure 1 profile).

use std::time::{Duration, Instant};

use crate::codestream::{
    parse_codestream, parse_codestream_tolerant, write_codestream, MainHeader, QuantSpec,
    TileSegment, Wavelet,
};
use crate::ct::{
    dc_shift_forward, dc_shift_inverse, ict_forward, ict_inverse, rct_forward, rct_inverse,
};
use crate::dwt::{fdwt53_2d, fdwt97_2d, fixed_round, idwt53_2d_with, idwt97_2d_fixed_with};
use crate::error::{CodecError, CodecResult};
use crate::image::{Image, Plane};
use crate::quant::{band_step, dequantize_fixed, quantize, step_fixed, QuantMode};
use crate::scratch::DecodeScratch;
use crate::t2::{read_packet, write_packet, BandBlocks, BlockContribution};
use crate::tile::{codeblocks, resolution_bands, Band, Rect, TileGrid};

/// Maximum magnitude bit-planes a band may carry; the packet header codes
/// `KMAX − Mb` as the zero-bit-plane count.
pub const KMAX: u32 = 18;

/// Upper bound on `width × height × components` the decoder will accept
/// (2²⁸ samples ≈ 1 GiB of working planes). SIZ fields are 32-bit, so a
/// crafted header could otherwise demand exabyte allocations and abort
/// the process inside `Vec` before any tile data is even looked at; past
/// this bound [`StagedDecoder::new`] returns a structured error instead.
pub const MAX_DECODE_SAMPLES: u64 = 1 << 28;

/// Cap on errors a tolerant decode records per sink, so a pathological
/// stream (every code-block failing a check) cannot balloon the report.
pub const MAX_REPORTED_ERRORS: usize = 64;

/// Lossless (5/3 + RCT) or lossy (9/7 + ICT) operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Reversible path: LeGall 5/3, RCT, no quantisation. Bit-exact.
    Lossless,
    /// Irreversible path: CDF 9/7, ICT, dead-zone quantiser.
    Lossy {
        /// LL-band quantisation step (see [`crate::quant::band_step`]).
        base_step: f64,
    },
}

impl Mode {
    /// The lossy mode with the default step size (0.25, visually
    /// transparent for 8-bit content).
    pub fn lossy_default() -> Mode {
        Mode::Lossy { base_step: 0.25 }
    }
}

/// Encoder parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodeParams {
    /// Lossless or lossy.
    pub mode: Mode,
    /// DWT decomposition levels (capped per tile by its size).
    pub levels: u8,
    /// Quality layers: each code-block's passes split into this many
    /// independently terminated codeword segments.
    pub layers: u8,
    /// Code-blocks are `2^cb_exp` square.
    pub cb_exp: u8,
    /// Tile size; `None` encodes the image as a single tile.
    pub tile_size: Option<(usize, usize)>,
}

impl EncodeParams {
    /// Defaults: 3 decomposition levels, 32×32 code-blocks, single tile.
    pub fn new(mode: Mode) -> Self {
        EncodeParams {
            mode,
            levels: 3,
            layers: 1,
            cb_exp: 5,
            tile_size: None,
        }
    }

    /// Sets the number of quality layers.
    pub fn layers(mut self, layers: u8) -> Self {
        self.layers = layers;
        self
    }

    /// Sets the tile size.
    pub fn tile_size(mut self, w: usize, h: usize) -> Self {
        self.tile_size = Some((w, h));
        self
    }

    /// Sets the number of DWT levels.
    pub fn levels(mut self, levels: u8) -> Self {
        self.levels = levels;
        self
    }
}

/// Encodes `image` into a codestream.
///
/// # Errors
///
/// [`CodecError::InvalidParams`] for unsupported geometry or parameters.
pub fn encode(image: &Image, params: &EncodeParams) -> CodecResult<Vec<u8>> {
    if image.width == 0 || image.height == 0 {
        return Err(CodecError::invalid("empty image"));
    }
    if image.num_components() != 1 && image.num_components() != 3 {
        return Err(CodecError::invalid(
            "only 1- or 3-component images are supported",
        ));
    }
    if image.depth == 0 || image.depth > 12 {
        return Err(CodecError::invalid("bit depth must be 1..=12"));
    }
    if params.levels == 0 || params.levels > 8 {
        return Err(CodecError::invalid("levels must be 1..=8"));
    }
    if params.layers == 0 || params.layers > 16 {
        return Err(CodecError::invalid("layers must be 1..=16"));
    }
    if !(2..=10).contains(&params.cb_exp) {
        return Err(CodecError::invalid("cb_exp must be 2..=10"));
    }
    let (tile_w, tile_h) = params.tile_size.unwrap_or((image.width, image.height));
    if tile_w == 0 || tile_h == 0 {
        return Err(CodecError::invalid("zero tile size"));
    }
    let use_mct = image.num_components() == 3;
    let (wavelet, quant) = match params.mode {
        Mode::Lossless => (Wavelet::W53, QuantSpec::Reversible),
        Mode::Lossy { base_step } => {
            if base_step <= 0.0 {
                return Err(CodecError::invalid("base_step must be positive"));
            }
            (Wavelet::W97, QuantSpec::Irreversible { base_step })
        }
    };
    let header = MainHeader {
        width: image.width as u32,
        height: image.height as u32,
        tile_w: tile_w as u32,
        tile_h: tile_h as u32,
        num_components: image.num_components() as u16,
        depth: image.depth,
        levels: params.levels,
        layers: params.layers,
        cb_exp: params.cb_exp,
        use_mct,
        wavelet,
        quant,
    };
    let grid = TileGrid::new(image.width, image.height, tile_w, tile_h);
    let mut tiles = Vec::with_capacity(grid.count());
    for t in 0..grid.count() {
        tiles.push(TileSegment {
            index: t as u16,
            data: encode_tile(image, &header, grid.tile_rect(t))?,
        });
    }
    Ok(write_codestream(&header, &tiles))
}

fn quant_mode(header: &MainHeader) -> QuantMode {
    match header.quant {
        QuantSpec::Reversible => QuantMode::Reversible,
        QuantSpec::Irreversible { base_step } => QuantMode::Irreversible { base_step },
    }
}

fn encode_tile(image: &Image, header: &MainHeader, rect: Rect) -> CodecResult<Vec<u8>> {
    let (w, h) = (rect.w, rect.h);
    // Extract and level-shift the tile planes.
    let mut planes: Vec<Plane> = image
        .components
        .iter()
        .map(|c| c.crop(rect.x0, rect.y0, w, h))
        .collect();
    for p in &mut planes {
        dc_shift_forward(p, header.depth);
    }
    if header.use_mct {
        let (a, rest) = planes.split_at_mut(1);
        let (b, c) = rest.split_at_mut(1);
        match header.wavelet {
            Wavelet::W53 => rct_forward(&mut a[0], &mut b[0], &mut c[0]),
            Wavelet::W97 => ict_forward(&mut a[0], &mut b[0], &mut c[0]),
        }
    }

    // Wavelet + quantisation: a quantised Mallat plane per component.
    let mode = quant_mode(header);
    let levels = header.levels as usize;
    let mut qplanes: Vec<Vec<i32>> = Vec::with_capacity(planes.len());
    for p in &planes {
        match header.wavelet {
            Wavelet::W53 => {
                let mut buf = p.data.clone();
                fdwt53_2d(&mut buf, w, h, levels);
                qplanes.push(buf);
            }
            Wavelet::W97 => {
                let mut buf: Vec<f64> = p.data.iter().map(|&v| v as f64).collect();
                fdwt97_2d(&mut buf, w, h, levels);
                let mut q = vec![0i32; w * h];
                for band in crate::tile::subbands(w, h, levels) {
                    let step = band_step(mode, band.kind);
                    for y in band.rect.y0..band.rect.y0 + band.rect.h {
                        for x in band.rect.x0..band.rect.x0 + band.rect.w {
                            q[y * w + x] = quantize(buf[y * w + x], step);
                        }
                    }
                }
                qplanes.push(q);
            }
        }
    }

    // Tier-1 + Tier-2, RLCP packet order (resolution outermost keeps
    // resolution truncation a stream prefix; layers nest inside).
    let cb = 1usize << header.cb_exp;
    let layers = header.layers as usize;
    let groups = resolution_bands(w, h, levels);
    let mut body = Vec::new();
    for group in &groups {
        // Per component: per band: per block: layered segments.
        let per_comp: Vec<Vec<LayeredBand>> = qplanes
            .iter()
            .map(|q| band_blocks_layered(q, w, group, cb, layers))
            .collect::<CodecResult<_>>()?;
        for l in 0..layers {
            for bands in &per_comp {
                let layer_bands: Vec<BandBlocks> = bands.iter().map(|lb| lb.layer(l)).collect();
                body.extend_from_slice(&write_packet(&layer_bands));
            }
        }
    }
    Ok(body)
}

/// One band's code-blocks with per-layer codeword segments.
struct LayeredBand {
    cols: usize,
    rows: usize,
    /// Per block: `(mb, segments)`.
    blocks: Vec<(u8, Vec<crate::t1::T1Segment>)>,
}

impl LayeredBand {
    /// The [`BandBlocks`] view of layer `l`.
    fn layer(&self, l: usize) -> BandBlocks {
        BandBlocks {
            cols: self.cols,
            rows: self.rows,
            blocks: self
                .blocks
                .iter()
                .map(|(mb, segs)| {
                    // A block whose coding passes ran out before layer
                    // `l` has no segment here; `(Vec::new(), 0)` is the
                    // correct encoding, not a fallback: `write_packet`
                    // signals `num_passes == 0` as "not included in
                    // this layer", so the decoder never sees the empty
                    // segment — it simply accumulates nothing for this
                    // block in this layer (the truncated-layer
                    // round-trip test pins this).
                    let (data, passes) = segs
                        .get(l)
                        .map(|s| (s.data.clone(), s.num_passes))
                        .unwrap_or((Vec::new(), 0));
                    BlockContribution {
                        encoded: crate::t1::T1EncodedBlock {
                            data,
                            num_passes: passes,
                            num_bitplanes: *mb,
                        },
                        zero_bitplanes: KMAX - *mb as u32,
                    }
                })
                .collect(),
        }
    }
}

fn band_blocks_layered(
    q: &[i32],
    stride: usize,
    bands: &[Band],
    cb: usize,
    layers: usize,
) -> CodecResult<Vec<LayeredBand>> {
    let mut out = Vec::with_capacity(bands.len());
    for band in bands {
        let rects = codeblocks(band.rect.w, band.rect.h, cb, cb);
        let cols = band.rect.w.div_ceil(cb).max(1);
        let rows = band.rect.h.div_ceil(cb).max(1);
        let mut blocks = Vec::with_capacity(rects.len());
        for r in &rects {
            let mut mags = Vec::with_capacity(r.w * r.h);
            let mut negative = Vec::with_capacity(r.w * r.h);
            for y in 0..r.h {
                for x in 0..r.w {
                    let gy = band.rect.y0 + r.y0 + y;
                    let gx = band.rect.x0 + r.x0 + x;
                    let v = q[gy * stride + gx];
                    mags.push(v.unsigned_abs());
                    negative.push(v < 0);
                }
            }
            let (segments, mb) =
                crate::t1::encode_block_layers(&mags, &negative, r.w, r.h, band.kind, layers);
            if mb as u32 > KMAX {
                return Err(CodecError::invalid(format!(
                    "coefficient magnitude needs {mb} bit-planes (max {KMAX})"
                )));
            }
            blocks.push((mb, segments));
        }
        out.push(LayeredBand { cols, rows, blocks });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Staged decoder
// ---------------------------------------------------------------------------

/// Quantised coefficients of one tile (Mallat layout per component) — the
/// output of the entropy-decode stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileCoeffs {
    /// Tile index.
    pub tile: usize,
    /// Tile bounds in the output image (scaled, for a thumbnail).
    pub rect: Rect,
    /// Decomposition levels the planes carry: the tile's effective
    /// level count, or the retained count for a thumbnail.
    pub levels: usize,
    /// One quantised Mallat plane per component.
    pub planes: Vec<Vec<i32>>,
}

/// A dequantised coefficient plane: plain integers for the reversible
/// path, Q16 fixed point for the irreversible path — the whole lossy
/// decode datapath is integer (see [`crate::dwt::idwt97_2d_fixed`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoeffPlane {
    /// Reversible (5/3) coefficients.
    Int(Vec<i32>),
    /// Irreversible (9/7) coefficients in Q16 fixed point.
    Fixed(Vec<i32>),
}

/// Dequantised wavelet coefficients of one tile — the output of the IQ
/// stage.
#[derive(Debug, Clone, PartialEq)]
pub struct TileWavelet {
    /// Tile index.
    pub tile: usize,
    /// Tile bounds in the output image.
    pub rect: Rect,
    /// Decomposition levels the planes carry (see [`TileCoeffs::levels`]).
    pub levels: usize,
    /// One plane per component.
    pub planes: Vec<CoeffPlane>,
}

/// Spatial-domain samples of one tile (still level-shifted and in
/// transform colour space until the later stages run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileSamples {
    /// Tile index.
    pub tile: usize,
    /// Tile bounds in the image.
    pub rect: Rect,
    /// One plane per component.
    pub planes: Vec<Vec<i32>>,
}

/// Which decode a tile or a stream gets: strict, tolerant, or one of
/// the two partial decodes. [`StagedDecoder::decode_tile`] takes it to
/// select its behaviour; the decode service also keys its image cache
/// and single-flight groups on it, so every kind caches independently,
/// except that a stream's strict image also answers tolerant requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Full strict decode ([`decode`]).
    Strict,
    /// Tolerant decode with a [`DecodeReport`] ([`decode_tolerant`]).
    Tolerant,
    /// Quality-progressive decode keeping `max_layers` layers
    /// ([`decode_quality`]).
    Quality {
        /// Layers to keep (`0` is clamped to 1).
        max_layers: usize,
    },
    /// Resolution-progressive decode of the lowest `max_res + 1`
    /// resolutions ([`decode_thumbnail`]).
    Thumbnail {
        /// Highest resolution level to decode.
        max_res: usize,
    },
}

/// A decoder exposing each pipeline stage separately, so the OSSS models
/// can map stages onto software tasks and hardware shared objects while
/// operating on real data.
///
/// # Example
///
/// ```
/// use jpeg2000::image::Image;
/// use jpeg2000::codec::{encode, EncodeParams, Mode, StagedDecoder};
///
/// # fn main() -> Result<(), jpeg2000::error::CodecError> {
/// let img = Image::synthetic_rgb(32, 32, 1);
/// let bytes = encode(&img, &EncodeParams::new(Mode::Lossless))?;
/// let dec = StagedDecoder::new(&bytes)?;
/// let mut out = Image::new(32, 32, 8, 3);
/// for t in 0..dec.num_tiles() {
///     let coeffs = dec.entropy_decode_tile(t)?;      // MQ/T1 (+T2)
///     let wavelet = dec.dequantize_tile(&coeffs);    // IQ
///     let samples = dec.idwt_tile(wavelet);          // IDWT
///     let samples = dec.inverse_mct_tile(samples);   // ICT/RCT
///     let samples = dec.dc_unshift_tile(samples);    // DC shift
///     dec.place_tile(&mut out, &samples);
/// }
/// assert_eq!(out, img);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StagedDecoder {
    header: MainHeader,
    grid: TileGrid,
    tiles: Vec<Vec<u8>>,
}

impl StagedDecoder {
    /// Parses the codestream headers and tile segments.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] from parsing or validation.
    pub fn new(bytes: &[u8]) -> CodecResult<Self> {
        let (header, segments) = parse_codestream(bytes)?;
        let grid = Self::validated_grid(&header)?;
        if segments.len() != grid.count() {
            return Err(CodecError::malformed(format!(
                "expected {} tiles, found {}",
                grid.count(),
                segments.len()
            )));
        }
        let mut tiles = vec![Vec::new(); segments.len()];
        for (i, s) in segments.into_iter().enumerate() {
            if s.index as usize != i {
                return Err(CodecError::malformed("tile segments out of order"));
            }
            tiles[i] = s.data;
        }
        Ok(StagedDecoder {
            header,
            grid,
            tiles,
        })
    }

    /// Geometry validation shared by the strict and tolerant
    /// constructors: the allocation cap and the tile grid.
    fn validated_grid(header: &MainHeader) -> CodecResult<TileGrid> {
        let samples =
            u64::from(header.width) * u64::from(header.height) * u64::from(header.num_components);
        if samples > MAX_DECODE_SAMPLES {
            return Err(CodecError::malformed(format!(
                "image of {samples} samples exceeds the decoder limit of {MAX_DECODE_SAMPLES}"
            ))
            .in_marker("SIZ"));
        }
        Ok(TileGrid::new(
            header.width as usize,
            header.height as usize,
            header.tile_w as usize,
            header.tile_h as usize,
        ))
    }

    /// Tolerant constructor: salvages whatever tile-parts a damaged
    /// stream still contains. The main header and its geometry are
    /// validated strictly (without them no pixel can be placed); every
    /// tile-section problem — unparseable tile-parts, out-of-range or
    /// duplicate tile indices, missing tiles — becomes a
    /// [`TileFailure`] in the returned [`DecodeReport`] and the
    /// corresponding tile decodes from empty data (rendering mid-gray).
    ///
    /// # Errors
    ///
    /// Main-header parse or geometry-validation failures only.
    pub fn new_tolerant(bytes: &[u8]) -> CodecResult<(Self, DecodeReport)> {
        let parsed = parse_codestream_tolerant(bytes)?;
        let header = parsed.header;
        let grid = Self::validated_grid(&header)?;
        let count = grid.count();
        let mut report = DecodeReport::default();
        for error in parsed.errors {
            report.record_parse(error);
        }
        let mut tiles = vec![Vec::new(); count];
        let mut present = vec![false; count];
        for s in parsed.tiles {
            let i = s.index as usize;
            if i >= count {
                report.record_parse(
                    CodecError::malformed(format!(
                        "tile index {i} out of range (grid has {count} tiles)"
                    ))
                    .in_tile(i),
                );
                continue;
            }
            if present[i] {
                report.record_parse(CodecError::malformed("duplicate tile-part").in_tile(i));
                continue;
            }
            tiles[i] = s.data;
            present[i] = true;
        }
        for (i, p) in present.iter().enumerate() {
            if !p {
                report.record_parse(CodecError::malformed("tile-part missing").in_tile(i));
            }
        }
        Ok((
            StagedDecoder {
                header,
                grid,
                tiles,
            },
            report,
        ))
    }

    /// Parses `bytes` the way a `kind` decode needs: tolerantly for
    /// [`RequestKind::Tolerant`] (salvaged tile-part failures in the
    /// report), strictly otherwise (with an empty report).
    pub(crate) fn open(bytes: &[u8], kind: RequestKind) -> CodecResult<(Self, DecodeReport)> {
        if kind == RequestKind::Tolerant {
            Self::new_tolerant(bytes)
        } else {
            Ok((Self::new(bytes)?, DecodeReport::default()))
        }
    }

    /// The parsed main header.
    pub fn header(&self) -> &MainHeader {
        &self.header
    }

    /// The tile grid.
    pub fn grid(&self) -> TileGrid {
        self.grid
    }

    /// Number of tiles.
    pub fn num_tiles(&self) -> usize {
        self.grid.count()
    }

    /// Stage 1 — entropy decode: Tier-2 packet parsing plus MQ/Tier-1
    /// bit-plane decoding. This is the paper's "arithmetic decoder".
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on malformed packets.
    pub fn entropy_decode_tile(&self, t: usize) -> CodecResult<TileCoeffs> {
        self.entropy_decode_tile_with(t, &mut DecodeScratch::new())
    }

    /// [`Self::entropy_decode_tile`] with a caller-provided scratch
    /// arena, so the Tier-1 buffers are reused across code-blocks and
    /// tiles instead of reallocated per block.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on malformed packets.
    pub fn entropy_decode_tile_with(
        &self,
        t: usize,
        scratch: &mut DecodeScratch,
    ) -> CodecResult<TileCoeffs> {
        let mut report = DecodeReport::default();
        self.entropy_decode(t, RequestKind::Strict, scratch, &mut report)
    }

    /// Tolerant entropy decode: never fails. Structural damage is
    /// appended to `errors` (capped at [`MAX_REPORTED_ERRORS`] entries)
    /// and recovery is per code-block, as described for
    /// [`RequestKind::Tolerant`] on [`Self::decode_tile`].
    pub fn entropy_decode_tile_tolerant_with(
        &self,
        t: usize,
        scratch: &mut DecodeScratch,
        errors: &mut Vec<CodecError>,
    ) -> TileCoeffs {
        let mut report = DecodeReport::default();
        let coeffs = self
            .entropy_decode(t, RequestKind::Tolerant, scratch, &mut report)
            .expect("tolerant entropy decode records errors instead of returning them");
        let room = MAX_REPORTED_ERRORS.saturating_sub(errors.len());
        errors.extend(report.failures.into_iter().take(room).map(|f| f.error));
        coeffs
    }

    /// The entropy stage of [`Self::decode_tile`]. A thumbnail stops
    /// after resolution `max_res`: the codestream is in RLCP order
    /// (resolution outermost), so the remaining packets are simply never
    /// read, and the output is the top-left region of the Mallat plane
    /// those resolutions occupy, with their level count. A quality
    /// decode still parses the skipped layers' packets (to advance
    /// through the stream) but never decodes their codeword segments.
    fn entropy_decode(
        &self,
        t: usize,
        kind: RequestKind,
        scratch: &mut DecodeScratch,
        report: &mut DecodeReport,
    ) -> CodecResult<TileCoeffs> {
        let (max_res, max_layers) = match kind {
            RequestKind::Quality { max_layers } => (usize::MAX, max_layers.max(1)),
            RequestKind::Thumbnail { max_res } => (max_res, usize::MAX),
            RequestKind::Strict | RequestKind::Tolerant => (usize::MAX, usize::MAX),
        };
        // Strict decodes abort on the first error; tolerant ones record
        // it (the report bounds its growth) and carry on.
        let tolerant = kind == RequestKind::Tolerant;
        let mut fail = |e: CodecError| {
            let e = e.in_tile(t);
            if tolerant {
                report.record_entropy(e);
                Ok(())
            } else {
                Err(e)
            }
        };
        let tile = self.grid.tile_rect(t);
        let mut groups = resolution_bands(tile.w, tile.h, self.header.levels as usize);
        let applied = groups.len() - 1;
        let levels = applied.min(max_res);
        groups.truncate(levels + 1);
        let (mut w, mut h) = (tile.w, tile.h);
        for _ in levels..applied {
            w = w.div_ceil(2);
            h = h.div_ceil(2);
        }
        let shrink = self.shrink(max_res);
        let rect = Rect {
            x0: tile.x0 / shrink,
            y0: tile.y0 / shrink,
            w,
            h,
        };
        let cb = 1usize << self.header.cb_exp;
        let ncomp = self.header.num_components as usize;
        scratch.tiles += 1;
        scratch.samples_out += (w * h * ncomp) as u64;
        let mut planes = vec![vec![0i32; w * h]; ncomp];
        let data = &self.tiles[t];
        let mut pos = 0usize;
        // Set when a packet header could not be parsed: the rest of the
        // tile's bitstream can no longer be located, so stop reading
        // packets (but still Tier-1 decode what was accumulated).
        let mut stream_dead = false;
        for group in &groups {
            let grids: Vec<(usize, usize)> = group
                .iter()
                .map(|b| (b.rect.w.div_ceil(cb).max(1), b.rect.h.div_ceil(cb).max(1)))
                .collect();
            // Per component, per band, per block: accumulated segments
            // plus the zero-bit-plane value from the first inclusion.
            type BlockAcc = (Option<u32>, Vec<(Vec<u8>, u32)>);
            let mut acc: Vec<Vec<Vec<BlockAcc>>> = (0..ncomp)
                .map(|_| {
                    grids
                        .iter()
                        .map(|&(c, r)| vec![(None, Vec::new()); c * r])
                        .collect()
                })
                .collect();
            'layers: for l in 0..self.header.layers as usize {
                for (comp, comp_acc) in acc.iter_mut().enumerate() {
                    let (parsed, consumed) = match read_packet(&data[pos..], &grids) {
                        Ok(v) => v,
                        Err(e) => {
                            fail(e.rebase_offset(pos))?;
                            stream_dead = true;
                            break 'layers;
                        }
                    };
                    pos += consumed;
                    let keep = l < max_layers;
                    for (bi, blocks) in parsed.into_iter().enumerate() {
                        for (blk, pb) in blocks.into_iter().enumerate() {
                            if !pb.included {
                                continue;
                            }
                            if pb.zero_bitplanes > KMAX {
                                fail(CodecError::malformed(format!(
                                    "zero-bit-plane count {} exceeds {KMAX} (component {comp})",
                                    pb.zero_bitplanes
                                )))?;
                                continue;
                            }
                            let slot = &mut comp_acc[bi][blk];
                            match slot.0 {
                                None => slot.0 = Some(pb.zero_bitplanes),
                                Some(z) if z != pb.zero_bitplanes => {
                                    let msg = "inconsistent zero-bit-planes across layers";
                                    fail(CodecError::malformed(msg))?;
                                    continue;
                                }
                                _ => {}
                            }
                            if keep {
                                slot.1.push((pb.data, pb.num_passes));
                            }
                        }
                    }
                }
            }
            // Tier-1 decode the accumulated segments.
            for (comp_acc, plane) in acc.iter().zip(planes.iter_mut()) {
                for (band, band_acc) in group.iter().zip(comp_acc) {
                    let rects = codeblocks(band.rect.w, band.rect.h, cb, cb);
                    for (r, (zbp, segments)) in rects.iter().zip(band_acc) {
                        let Some(zbp) = zbp else { continue };
                        let mb = (KMAX - zbp) as u8;
                        let total: u32 = segments.iter().map(|&(_, n)| n).sum();
                        if mb == 0 || total > 3 * mb as u32 - 2 {
                            let msg = "pass count exceeds the signalled bit-planes";
                            fail(CodecError::malformed(msg))?;
                            continue;
                        }
                        let refs: Vec<(&[u8], u32)> =
                            segments.iter().map(|(d, n)| (d.as_slice(), *n)).collect();
                        let at = (band.rect.y0 + r.y0) * w + band.rect.x0 + r.x0;
                        let out = &mut plane[at..];
                        scratch
                            .t1
                            .decode_into(&refs, r.w, r.h, band.kind, mb, out, w);
                    }
                }
            }
            if stream_dead {
                break;
            }
        }
        Ok(TileCoeffs {
            tile: t,
            rect,
            levels,
            planes,
        })
    }

    /// Stage 2 — inverse quantisation (IQ).
    pub fn dequantize_tile(&self, coeffs: &TileCoeffs) -> TileWavelet {
        let (rect, levels) = (coeffs.rect, coeffs.levels);
        let mode = quant_mode(&self.header);
        let planes = coeffs
            .planes
            .iter()
            .map(|q| match self.header.wavelet {
                Wavelet::W53 => CoeffPlane::Int(q.clone()),
                Wavelet::W97 => {
                    let mut fixed = vec![0i32; q.len()];
                    for band in crate::tile::subbands(rect.w, rect.h, levels) {
                        let step_fix = step_fixed(band_step(mode, band.kind));
                        for y in band.rect.y0..band.rect.y0 + band.rect.h {
                            for x in band.rect.x0..band.rect.x0 + band.rect.w {
                                fixed[y * rect.w + x] =
                                    dequantize_fixed(q[y * rect.w + x], step_fix);
                            }
                        }
                    }
                    CoeffPlane::Fixed(fixed)
                }
            })
            .collect();
        TileWavelet {
            tile: coeffs.tile,
            rect,
            levels,
            planes,
        }
    }

    /// Stage 3 — inverse DWT (5/3 integer or 9/7 Q16 fixed-point lifting).
    pub fn idwt_tile(&self, wavelet: TileWavelet) -> TileSamples {
        self.idwt_tile_with(wavelet, &mut DecodeScratch::new())
    }

    /// [`Self::idwt_tile`] with a caller-provided scratch arena for the
    /// row/column lifting buffers.
    pub fn idwt_tile_with(&self, wavelet: TileWavelet, scratch: &mut DecodeScratch) -> TileSamples {
        let (rect, levels) = (wavelet.rect, wavelet.levels);
        let planes = wavelet
            .planes
            .into_iter()
            .map(|p| match p {
                CoeffPlane::Int(mut buf) => {
                    idwt53_2d_with(&mut buf, rect.w, rect.h, levels, &mut scratch.dwt);
                    buf
                }
                CoeffPlane::Fixed(mut buf) => {
                    idwt97_2d_fixed_with(&mut buf, rect.w, rect.h, levels, &mut scratch.dwt);
                    for v in &mut buf {
                        *v = fixed_round(*v);
                    }
                    buf
                }
            })
            .collect();
        TileSamples {
            tile: wavelet.tile,
            rect,
            planes,
        }
    }

    /// Stage 4 — inverse component transform (RCT or ICT); identity for
    /// single-component images.
    pub fn inverse_mct_tile(&self, samples: TileSamples) -> TileSamples {
        if !self.header.use_mct || samples.planes.len() != 3 {
            return samples;
        }
        let rect = samples.rect;
        let mut iter = samples.planes.into_iter();
        let mut p0 = Plane::from_data(rect.w, rect.h, iter.next().expect("3 planes"));
        let mut p1 = Plane::from_data(rect.w, rect.h, iter.next().expect("3 planes"));
        let mut p2 = Plane::from_data(rect.w, rect.h, iter.next().expect("3 planes"));
        match self.header.wavelet {
            Wavelet::W53 => rct_inverse(&mut p0, &mut p1, &mut p2),
            Wavelet::W97 => ict_inverse(&mut p0, &mut p1, &mut p2),
        }
        TileSamples {
            tile: samples.tile,
            rect,
            planes: vec![p0.data, p1.data, p2.data],
        }
    }

    /// Stage 5 — inverse DC level shift (with clamping to the sample
    /// range).
    pub fn dc_unshift_tile(&self, samples: TileSamples) -> TileSamples {
        let rect = samples.rect;
        let planes = samples
            .planes
            .into_iter()
            .map(|data| {
                let mut p = Plane::from_data(rect.w, rect.h, data);
                dc_shift_inverse(&mut p, self.header.depth);
                p.data
            })
            .collect();
        TileSamples {
            tile: samples.tile,
            rect,
            planes,
        }
    }

    /// The per-tile decode pipeline behind every decode — the one-shot
    /// entry points, [`crate::parallel`] and
    /// [`crate::service::DecodeService`]: entropy (T2 + T1/MQ), IQ,
    /// IDWT, MCT and DC shift, each stage's wall-clock time added to
    /// `timings`. `kind` selects the decode:
    ///
    /// * `Strict` stops at the first error.
    /// * `Tolerant` never fails: entropy damage goes into `report` and
    ///   recovery is per code-block — an invalid block is skipped (its
    ///   coefficients stay zero, which the back half of the pipeline
    ///   turns into mid-gray samples), while an unparseable packet
    ///   header ends the tile's bitstream (later packets cannot be
    ///   located without it) but keeps every block accumulated so far.
    /// * `Quality` keeps the first `max_layers` layers (at least 1).
    /// * `Thumbnail` keeps the lowest `max_res + 1` resolutions. The
    ///   returned [`TileSamples`] carry the tile's rectangle *in the
    ///   scaled output image*, already cropped to its slot, so
    ///   [`Self::place_tile`] against an image of
    ///   [`Self::thumbnail_size`] assembles the thumbnail.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on malformed packets (never for `Tolerant`).
    pub fn decode_tile(
        &self,
        t: usize,
        kind: RequestKind,
        scratch: &mut DecodeScratch,
        report: &mut DecodeReport,
        timings: &mut DecodeTimings,
    ) -> CodecResult<TileSamples> {
        let t0 = Instant::now();
        let coeffs = self.entropy_decode(t, kind, scratch, report)?;
        let t1 = Instant::now();
        let wavelet = self.dequantize_tile(&coeffs);
        let t2 = Instant::now();
        let samples = self.idwt_tile_with(wavelet, scratch);
        let t3 = Instant::now();
        let samples = self.inverse_mct_tile(samples);
        let t4 = Instant::now();
        let mut samples = self.dc_unshift_tile(samples);
        let t5 = Instant::now();
        timings.entropy += t1 - t0;
        timings.iq += t2 - t1;
        timings.idwt += t3 - t2;
        timings.mct += t4 - t3;
        timings.dc_shift += t5 - t4;
        if let RequestKind::Thumbnail { max_res } = kind {
            // A tile whose own effective level count is below the first
            // tile's (a tiny edge tile) cannot shrink by the global
            // factor, so its reconstruction can be larger than its slot
            // in the scaled output — crop, or a blit would write past
            // the image (reachable from a valid encode, e.g. 66×66 with
            // 64×64 tiles).
            let (tile, shrink, r) = (self.grid.tile_rect(t), self.shrink(max_res), samples.rect);
            let w = r.w.min((tile.x0 + tile.w).div_ceil(shrink) - r.x0);
            let h = r.h.min((tile.y0 + tile.h).div_ceil(shrink) - r.y0);
            for p in &mut samples.planes {
                for y in 0..h {
                    p.copy_within(y * r.w..y * r.w + w, y * w);
                }
                p.truncate(w * h);
            }
            samples.rect = Rect { w, h, ..r };
        }
        Ok(samples)
    }

    /// [`Self::decode_tile`] for [`RequestKind::Quality`]: the per-tile
    /// unit of [`decode_quality`].
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on malformed packets.
    pub fn decode_tile_quality_with(
        &self,
        t: usize,
        max_layers: usize,
        scratch: &mut DecodeScratch,
    ) -> CodecResult<TileSamples> {
        let kind = RequestKind::Quality { max_layers };
        let (mut report, mut timings) = Default::default();
        self.decode_tile(t, kind, scratch, &mut report, &mut timings)
    }

    /// [`Self::decode_tile`] for [`RequestKind::Thumbnail`]: the
    /// per-tile unit of [`decode_thumbnail`].
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on malformed packets.
    pub fn decode_tile_thumbnail_with(
        &self,
        t: usize,
        max_res: usize,
        scratch: &mut DecodeScratch,
    ) -> CodecResult<TileSamples> {
        let kind = RequestKind::Thumbnail { max_res };
        let (mut report, mut timings) = Default::default();
        self.decode_tile(t, kind, scratch, &mut report, &mut timings)
    }

    /// Output geometry of a `max_res`-limited ("thumbnail") decode:
    /// the scaled image dimensions [`decode_thumbnail`] reconstructs.
    pub fn thumbnail_size(&self, max_res: usize) -> (usize, usize) {
        let shrink = self.shrink(max_res);
        (
            self.grid.image_w.div_ceil(shrink),
            self.grid.image_h.div_ceil(shrink),
        )
    }

    /// The thumbnail scale factor: `2^(L − max_res)` for the first
    /// tile's `L` effective levels, 1 once `max_res ≥ L`.
    fn shrink(&self, max_res: usize) -> usize {
        let full = self.grid.tile_rect(0);
        let applied = crate::dwt::effective_levels(full.w, full.h, self.header.levels as usize);
        1 << applied.saturating_sub(max_res)
    }

    /// Decodes every tile in index order through [`Self::decode_tile`]
    /// and assembles the output image. `gate` runs before each tile; an
    /// error from it stops the decode (the service's deadline and
    /// cancellation point).
    pub(crate) fn decode_tiles<E: From<CodecError>>(
        &self,
        kind: RequestKind,
        scratch: &mut DecodeScratch,
        report: &mut DecodeReport,
        mut gate: impl FnMut(usize) -> Result<(), E>,
    ) -> Result<DecodedImage, E> {
        let mut image = self.output_image(kind);
        let mut timings = DecodeTimings::default();
        for t in 0..self.num_tiles() {
            gate(t)?;
            let samples = self.decode_tile(t, kind, scratch, report, &mut timings)?;
            self.place_tile(&mut image, &samples);
        }
        Ok(DecodedImage { image, timings })
    }

    /// A zero-filled image with the geometry a `kind` decode produces.
    pub(crate) fn output_image(&self, kind: RequestKind) -> Image {
        let (w, h) = match kind {
            RequestKind::Thumbnail { max_res } => self.thumbnail_size(max_res),
            _ => (self.grid.image_w, self.grid.image_h),
        };
        Image::new(w, h, self.header.depth, self.header.num_components as usize)
    }

    /// Blits a fully decoded tile into `image`.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match the codestream geometry.
    pub fn place_tile(&self, image: &mut Image, samples: &TileSamples) {
        let rect = samples.rect;
        for (c, data) in samples.planes.iter().enumerate() {
            let tile_plane = Plane::from_data(rect.w, rect.h, data.clone());
            image.components[c].blit(rect.x0, rect.y0, &tile_plane);
        }
    }

    /// A zero-filled image with the codestream's geometry.
    pub fn blank_image(&self) -> Image {
        self.output_image(RequestKind::Strict)
    }
}

// ---------------------------------------------------------------------------
// Tolerant decoding
// ---------------------------------------------------------------------------

/// Which stage of a tolerant decode recorded a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeStage {
    /// Codestream structure: tile-part headers, tile indexing.
    TileParse,
    /// Tier-2 packet parsing or MQ/Tier-1 entropy decoding.
    Entropy,
}

/// One isolated failure from a tolerant decode.
#[derive(Debug, Clone, PartialEq)]
pub struct TileFailure {
    /// The affected tile, when attributable to one.
    pub tile: Option<usize>,
    /// Where in the pipeline the damage surfaced.
    pub stage: DecodeStage,
    /// The underlying error, with its [`crate::error::ErrorSite`].
    pub error: CodecError,
}

/// Everything [`decode_tolerant`] salvaged around: the failures it
/// isolated instead of aborting the decode.
///
/// The report is deterministic regardless of how the decode was run:
/// the parallel backend collects each tile's failures separately and
/// merges them *in tile order* under the same single global
/// [`MAX_REPORTED_ERRORS`] cap the sequential decoder applies, so
/// `decode_tolerant_parallel` produces a report equal to
/// [`decode_tolerant`]'s for any worker count and scheduling (pinned
/// by the >64-corrupt-tiles regression test in [`crate::parallel`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecodeReport {
    /// Isolated failures, in discovery order (tile-parse first, then
    /// entropy failures in tile order). Capped at
    /// [`MAX_REPORTED_ERRORS`] entries.
    pub failures: Vec<TileFailure>,
}

impl DecodeReport {
    /// `true` when the stream decoded without any isolated failure.
    ///
    /// Its relation to strict [`decode`] is one-way. A stream that
    /// strict decoding accepts decodes tolerantly to the same image
    /// with a clean report (the fuzz harness asserts this on every
    /// input, and the decode service answers tolerant requests from a
    /// strict image on it). A clean report does not imply that strict
    /// decoding succeeds: strict parsing rejects tile-parts out of tile
    /// order ("tile segments out of order"), while the tolerant parser
    /// places each by its index and records nothing, so such a stream
    /// decodes tolerantly to a clean report and fails strictly.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Sorted, deduplicated indices of tiles with at least one failure.
    pub fn failed_tiles(&self) -> Vec<usize> {
        let mut tiles: Vec<usize> = self.failures.iter().filter_map(|f| f.tile).collect();
        tiles.sort_unstable();
        tiles.dedup();
        tiles
    }

    fn record(&mut self, stage: DecodeStage, error: CodecError) {
        if self.failures.len() < MAX_REPORTED_ERRORS {
            self.failures.push(TileFailure {
                tile: error.site().tile,
                stage,
                error,
            });
        }
    }

    pub(crate) fn record_parse(&mut self, error: CodecError) {
        self.record(DecodeStage::TileParse, error);
    }

    pub(crate) fn record_entropy(&mut self, error: CodecError) {
        self.record(DecodeStage::Entropy, error);
    }

    /// Appends `other`'s failures under the single global cap. Callers
    /// merging per-tile reports MUST do so in ascending tile order —
    /// that is what makes the capped failure *set* independent of
    /// worker scheduling and equal to the sequential report.
    pub(crate) fn merge(&mut self, other: DecodeReport) {
        for f in other.failures {
            if self.failures.len() < MAX_REPORTED_ERRORS {
                self.failures.push(f);
            }
        }
    }
}

/// Decodes as much of a possibly corrupt codestream as possible.
///
/// Failures are isolated at tile and code-block granularity: a corrupt
/// tile yields a mid-gray (or partially decoded) region plus
/// [`DecodeReport`] entries, while undamaged tiles reconstruct exactly
/// as strict [`decode`] would. The output image always has the geometry
/// the SIZ header declares.
///
/// # Errors
///
/// Only unusable main headers (damaged `SOC`/`SIZ`/`COD`/`QCD`, or
/// geometry past [`MAX_DECODE_SAMPLES`]) — without a trusted header
/// there is no geometry to place pixels in.
pub fn decode_tolerant(bytes: &[u8]) -> CodecResult<(Image, DecodeReport)> {
    decode_once(bytes, RequestKind::Tolerant).map(|(out, report)| (out.image, report))
}

// ---------------------------------------------------------------------------
// One-shot decode with stage timing
// ---------------------------------------------------------------------------

/// Wall-clock time spent in each decoder stage (summed over tiles).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeTimings {
    /// Tier-2 + MQ/Tier-1 entropy decoding.
    pub entropy: Duration,
    /// Inverse quantisation.
    pub iq: Duration,
    /// Inverse DWT.
    pub idwt: Duration,
    /// Inverse component transform.
    pub mct: Duration,
    /// Inverse DC level shift.
    pub dc_shift: Duration,
}

impl DecodeTimings {
    /// Total decode time.
    pub fn total(&self) -> Duration {
        self.entropy + self.iq + self.idwt + self.mct + self.dc_shift
    }

    /// Per-stage shares in percent, ordered
    /// `[entropy, iq, idwt, mct, dc_shift]` — the Figure 1 profile.
    pub fn shares(&self) -> [f64; 5] {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            return [0.0; 5];
        }
        [
            self.entropy.as_secs_f64() / total * 100.0,
            self.iq.as_secs_f64() / total * 100.0,
            self.idwt.as_secs_f64() / total * 100.0,
            self.mct.as_secs_f64() / total * 100.0,
            self.dc_shift.as_secs_f64() / total * 100.0,
        ]
    }

    /// Accumulates `other` into `self`.
    pub(crate) fn merge(&mut self, other: &DecodeTimings) {
        self.entropy += other.entropy;
        self.iq += other.iq;
        self.idwt += other.idwt;
        self.mct += other.mct;
        self.dc_shift += other.dc_shift;
    }
}

/// A decoded image plus the per-stage timing profile.
#[derive(Debug, Clone)]
pub struct DecodedImage {
    /// The reconstructed image.
    pub image: Image,
    /// Per-stage wall-clock profile.
    pub timings: DecodeTimings,
}

/// Decodes a codestream, timing each stage.
///
/// # Errors
///
/// Any [`CodecError`] from parsing or entropy decoding.
pub fn decode(bytes: &[u8]) -> CodecResult<DecodedImage> {
    decode_once(bytes, RequestKind::Strict).map(|(out, _)| out)
}

/// The body of every one-shot entry point: parse as `kind` needs, then
/// run the sequential tile loop with one scratch arena and no gate.
fn decode_once(bytes: &[u8], kind: RequestKind) -> CodecResult<(DecodedImage, DecodeReport)> {
    let (dec, mut report) = StagedDecoder::open(bytes, kind)?;
    let mut scratch = DecodeScratch::new();
    let out = dec.decode_tiles(kind, &mut scratch, &mut report, |_| Ok::<_, CodecError>(()))?;
    Ok((out, report))
}

/// Decodes keeping only the first `max_layers` quality layers of every
/// code-block — JPEG 2000's quality-progressive access: a prefix of each
/// block's coding passes reconstructs a coarser approximation of the
/// same full-resolution image.
///
/// Edge cases (all defined, none error): `max_layers == 0` is clamped
/// to 1 — a zero-layer image has no meaning, so the coarsest
/// approximation is returned (pinned by test); `max_layers` beyond the
/// coded layer count decodes everything, identical to [`decode`].
///
/// # Errors
///
/// Any [`CodecError`] from parsing or entropy decoding.
pub fn decode_quality(bytes: &[u8], max_layers: usize) -> CodecResult<Image> {
    decode_once(bytes, RequestKind::Quality { max_layers }).map(|(out, _)| out.image)
}

/// Decodes only the lowest `max_res + 1` resolutions of every tile and
/// reconstructs the correspondingly down-scaled image — JPEG 2000's
/// resolution-progressive access, for free from the RLCP packet order
/// (resolution outermost, so the kept resolutions are a prefix of each
/// tile's bitstream).
///
/// With `L` effective decomposition levels per tile and `max_res = r`,
/// each tile shrinks by `2^(L−r)` in both directions (clamped to its
/// effective level count).
///
/// Edge cases (all defined, none error):
/// * `max_res >= L` is clamped — every resolution is decoded and the
///   result equals the full-size [`decode`] image (pinned by test).
/// * Tiles whose *own* effective level count is smaller than the first
///   tile's (tiny edge tiles that cannot decompose as deeply) cannot
///   shrink by the global factor; their reconstruction is cropped to
///   the tile's slot in the scaled output grid, so mixed per-tile
///   level counts never write out of bounds.
///
/// # Errors
///
/// Any [`CodecError`] from parsing or entropy decoding.
pub fn decode_thumbnail(bytes: &[u8], max_res: usize) -> CodecResult<Image> {
    decode_once(bytes, RequestKind::Thumbnail { max_res }).map(|(out, _)| out.image)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over a byte stream, for whole-image identity pinning.
    fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// Whole-pipeline byte-identity pin on the Table-1 workload: the
    /// hashes below were recorded with the pre-flags-lattice Tier-1
    /// (reference path), so any coding or reconstruction drift in the
    /// optimised kernels fails here even if round-trips still close.
    ///
    /// The lossy *image* hash was re-pinned once when the irreversible
    /// reconstruction path moved to Q16 fixed point (IQ → IDWT 9/7 →
    /// ICT); the encoder stayed f64 so both stream hashes and the whole
    /// lossless row are unchanged from the original recording. The
    /// fixed-point output is within 2 LSB of the deferred-rounding f64
    /// reference — see `fixed_point_pipeline_matches_f64_reference`.
    #[test]
    fn table1_workload_bytes_are_pinned() {
        for (mode, stream_fnv, image_fnv) in [
            (Mode::Lossless, 0x697485fb868d05c1u64, 0xa4b7ae565527c640u64),
            (
                Mode::lossy_default(),
                0xc4f59ed9ded55b45,
                0xa55e666bbf9d405d,
            ),
        ] {
            let img = Image::synthetic_rgb(128, 128, 2008);
            let params = EncodeParams::new(mode).tile_size(32, 32);
            let bytes = encode(&img, &params).unwrap();
            assert_eq!(fnv1a(bytes.iter().copied()), stream_fnv, "{mode:?} stream");
            let out = decode(&bytes).unwrap();
            let ih = fnv1a(
                out.image
                    .components
                    .iter()
                    .flat_map(|c| c.data.iter().flat_map(|v| v.to_le_bytes())),
            );
            assert_eq!(ih, image_fnv, "{mode:?} image");
        }
    }

    /// Work-counter pin next to the hashes above: decoding the Table-1
    /// streams tile by tile through one arena does exactly this much
    /// Tier-1 work, so a faster entropy decoder must show the same work
    /// in less time. The lossless row is `native_decode` in
    /// BENCH_observability.json.
    #[test]
    fn table1_work_counters_are_pinned() {
        let img = Image::synthetic_rgb(128, 128, 2008);
        for (mode, want) in [
            (Mode::Lossless, [480, 6381, 126_373, 21_259]),
            (Mode::lossy_default(), [480, 6453, 145_029, 24_709]),
        ] {
            let bytes = encode(&img, &EncodeParams::new(mode).tile_size(32, 32)).unwrap();
            let dec = StagedDecoder::new(&bytes).unwrap();
            let mut scratch = DecodeScratch::new();
            let (mut report, mut timings) = Default::default();
            for t in 0..dec.num_tiles() {
                dec.decode_tile(
                    t,
                    RequestKind::Strict,
                    &mut scratch,
                    &mut report,
                    &mut timings,
                )
                .unwrap();
            }
            let c = scratch.counters();
            let got = [c.code_blocks, c.coding_passes, c.mq_renorms, c.bytes_in];
            assert_eq!(
                got, want,
                "{mode:?} code_blocks/coding_passes/mq_renorms/bytes_in"
            );
        }
    }

    fn image_fnv(image: &Image) -> u64 {
        fnv1a(
            image
                .components
                .iter()
                .flat_map(|c| c.data.iter().flat_map(|v| v.to_le_bytes())),
        )
    }

    /// Partial-decode identity pins, recorded from the decoder before
    /// the per-tile stages were folded into one pipeline: the 3-layer
    /// Table-1 stream's quality prefixes and thumbnails, a tolerant
    /// decode of one fixed byte flip (image, failed tiles and failure
    /// count), and thumbnails of a 66×66 stream whose 2×2 corner tile
    /// has fewer effective levels than the rest (the slot-crop case).
    /// The strict pins above cannot see a regression that the service
    /// and the one-shot partial entry points share; these can.
    #[test]
    fn partial_decodes_are_pinned() {
        type Pins = ([u64; 3], [u64; 4], (u64, usize));
        let img = Image::synthetic_rgb(128, 128, 2008);
        let lossless: Pins = (
            [0x56990540bcb659dd, 0x8a52737a7c5cc964, 0xa4b7ae565527c640],
            [
                0xac3c8dd1c8e11193,
                0xa6eecc18e904a77b,
                0xdb89dd5b032ed512,
                0xa4b7ae565527c640,
            ],
            (0x9265dfe371e756bd, 4),
        );
        let lossy: Pins = (
            [0xf2cd39c8b44ee185, 0x7a85d4ff8481a424, 0xa55e666bbf9d405d],
            [
                0x0fd91a338deee1d5,
                0x4b8e3a916c56a44f,
                0x82ec8ff7c8eb87c4,
                0xa55e666bbf9d405d,
            ],
            (0x96ecb707664377b6, 13),
        );
        for (mode, (quality, thumbs, (flipped, failures))) in
            [(Mode::Lossless, lossless), (Mode::lossy_default(), lossy)]
        {
            let params = EncodeParams::new(mode).tile_size(32, 32).layers(3);
            let bytes = encode(&img, &params).unwrap();
            for (l, want) in (1..).zip(quality) {
                let got = image_fnv(&decode_quality(&bytes, l).unwrap());
                assert_eq!(got, want, "{mode:?} quality {l}");
            }
            for (r, want) in (0..).zip(thumbs) {
                let got = image_fnv(&decode_thumbnail(&bytes, r).unwrap());
                assert_eq!(got, want, "{mode:?} thumbnail {r}");
            }
            // Flip the first body byte of tile 5 (past its 14-byte
            // SOT..SOD header).
            let sot = crate::fuzz::scan_markers(&bytes)
                .into_iter()
                .filter(|s| s.marker == crate::codestream::MARKER_SOT)
                .nth(5)
                .unwrap();
            let mut bad = bytes.clone();
            bad[sot.offset + 14] ^= 0x5A;
            let (image, report) = decode_tolerant(&bad).unwrap();
            assert_eq!(image_fnv(&image), flipped, "{mode:?} tolerant image");
            assert_eq!(report.failed_tiles(), vec![5], "{mode:?} failed tiles");
            assert_eq!(report.failures.len(), failures, "{mode:?} failures");
        }
        let img = Image::synthetic_rgb(66, 66, 21);
        for (mode, thumbs) in [
            (
                Mode::Lossless,
                [
                    0x1e32df9ce6ab4308u64,
                    0x76aec1ddc0b65dce,
                    0x00757aaa648965e6,
                    0xf9467771da536595,
                ],
            ),
            (
                Mode::lossy_default(),
                [
                    0x32aca027d2ebf6f1,
                    0x82baa5fc00f0a9d4,
                    0xfdd27aadaea122dd,
                    0x54ac146d994356d8,
                ],
            ),
        ] {
            let bytes = encode(&img, &EncodeParams::new(mode).tile_size(64, 64)).unwrap();
            for (r, want) in (0..).zip(thumbs) {
                let got = image_fnv(&decode_thumbnail(&bytes, r).unwrap());
                assert_eq!(got, want, "66x66 {mode:?} thumbnail {r}");
            }
        }
    }

    /// End-to-end accuracy of the integer irreversible datapath: decode
    /// the Table-1 lossy workload through the production fixed-point
    /// pipeline and through a pure-f64 re-derivation of the same stages
    /// (f64 dequantisation, `dwt::reference::idwt97_2d`, f64 ICT, one
    /// final round). Each integer stage is individually within 1 LSB of
    /// its f64 counterpart (see the `dwt` proptests and the `ct` unit
    /// test); end to end the pipeline rounds twice — after the IDWT and
    /// inside the ICT — where the deferred-rounding reference rounds
    /// once, so the tight whole-pipeline bound is 2 LSB. The PSNR
    /// between the two is recorded in EXPERIMENTS.md.
    #[test]
    fn fixed_point_pipeline_matches_f64_reference() {
        let img = Image::synthetic_rgb(128, 128, 2008);
        let params = EncodeParams::new(Mode::lossy_default()).tile_size(32, 32);
        let bytes = encode(&img, &params).unwrap();

        // Production path: integer IQ → Q16 IDWT → integer ICT.
        let out = decode(&bytes).unwrap().image;

        // f64 reference path, staying real-valued until one final round.
        let dec = StagedDecoder::new(&bytes).unwrap();
        let mode = quant_mode(dec.header());
        let levels = dec.header().levels as usize;
        let depth = dec.header().depth;
        let offset = f64::from(1i32 << (depth - 1));
        let max = f64::from((1i32 << depth) - 1);
        let mut reference = dec.blank_image();
        for t in 0..dec.num_tiles() {
            let coeffs = dec.entropy_decode_tile(t).unwrap();
            let rect = coeffs.rect;
            let mut planes: Vec<Vec<f64>> = coeffs
                .planes
                .iter()
                .map(|q| {
                    let mut f = vec![0.0f64; q.len()];
                    for band in crate::tile::subbands(rect.w, rect.h, levels) {
                        let step = band_step(mode, band.kind);
                        for y in band.rect.y0..band.rect.y0 + band.rect.h {
                            for x in band.rect.x0..band.rect.x0 + band.rect.w {
                                f[y * rect.w + x] =
                                    crate::quant::dequantize(q[y * rect.w + x], step);
                            }
                        }
                    }
                    crate::dwt::reference::idwt97_2d(&mut f, rect.w, rect.h, levels);
                    f
                })
                .collect();
            let (cb, cr) = (planes[1].clone(), planes[2].clone());
            for i in 0..rect.w * rect.h {
                let (y, cb, cr) = (planes[0][i], cb[i], cr[i]);
                planes[0][i] = y + 1.402 * cr;
                planes[1][i] = y - 0.344136 * cb - 0.714136 * cr;
                planes[2][i] = y + 1.772 * cb;
            }
            let samples = TileSamples {
                tile: t,
                rect,
                planes: planes
                    .into_iter()
                    .map(|p| {
                        p.into_iter()
                            .map(|v| (v + offset).clamp(0.0, max).round() as i32)
                            .collect()
                    })
                    .collect(),
            };
            dec.place_tile(&mut reference, &samples);
        }

        let mut max_diff = 0i64;
        let mut sq_err = 0.0f64;
        let mut n = 0usize;
        for (a, b) in out.components.iter().zip(&reference.components) {
            for (&x, &y) in a.data.iter().zip(&b.data) {
                let d = i64::from(x) - i64::from(y);
                max_diff = max_diff.max(d.abs());
                sq_err += (d * d) as f64;
                n += 1;
            }
        }
        let psnr = 10.0 * (max * max * n as f64 / sq_err.max(1e-12)).log10();
        assert!(
            max_diff <= 2,
            "fixed-point pipeline drifted {max_diff} LSB from the f64 reference (PSNR {psnr:.1} dB)"
        );
        // Measured 52.8 dB on this workload; keep a generous floor so
        // the assert documents the scale without being seed-brittle.
        assert!(psnr >= 50.0, "pipeline PSNR vs f64 reference: {psnr:.1} dB");
    }

    #[test]
    fn lossless_roundtrip_single_tile() {
        let img = Image::synthetic_rgb(64, 48, 1);
        let bytes = encode(&img, &EncodeParams::new(Mode::Lossless)).unwrap();
        let out = decode(&bytes).unwrap();
        assert_eq!(out.image, img);
    }

    #[test]
    fn lossless_roundtrip_multi_tile() {
        let img = Image::synthetic_rgb(70, 50, 2);
        let params = EncodeParams::new(Mode::Lossless).tile_size(32, 32);
        let bytes = encode(&img, &params).unwrap();
        let out = decode(&bytes).unwrap();
        assert_eq!(out.image, img);
    }

    #[test]
    fn lossless_grey_roundtrip() {
        let img = Image::synthetic_grey(33, 29, 3);
        let bytes = encode(&img, &EncodeParams::new(Mode::Lossless).tile_size(16, 16)).unwrap();
        let out = decode(&bytes).unwrap();
        assert_eq!(out.image, img);
    }

    #[test]
    fn lossy_roundtrip_has_high_psnr() {
        let img = Image::synthetic_rgb(64, 64, 4);
        let bytes = encode(&img, &EncodeParams::new(Mode::lossy_default())).unwrap();
        let out = decode(&bytes).unwrap();
        let psnr = img.psnr(&out.image);
        assert!(psnr > 35.0, "lossy PSNR too low: {psnr:.1} dB");
    }

    #[test]
    fn lossy_compresses_better_with_larger_steps() {
        let img = Image::synthetic_rgb(64, 64, 5);
        let small = encode(&img, &EncodeParams::new(Mode::Lossy { base_step: 0.25 })).unwrap();
        let large = encode(&img, &EncodeParams::new(Mode::Lossy { base_step: 2.0 })).unwrap();
        assert!(
            large.len() < small.len(),
            "coarser quantisation must shrink the stream: {} vs {}",
            large.len(),
            small.len()
        );
        // And quality must degrade accordingly.
        let psnr_small = img.psnr(&decode(&small).unwrap().image);
        let psnr_large = img.psnr(&decode(&large).unwrap().image);
        assert!(psnr_small > psnr_large);
    }

    #[test]
    fn lossless_beats_raw_size() {
        let img = Image::synthetic_rgb(64, 64, 6);
        let bytes = encode(&img, &EncodeParams::new(Mode::Lossless)).unwrap();
        let raw = 64 * 64 * 3;
        assert!(
            bytes.len() < raw,
            "lossless stream ({}) should undercut raw ({raw})",
            bytes.len()
        );
    }

    #[test]
    fn staged_decode_equals_one_shot() {
        let img = Image::synthetic_rgb(48, 40, 7);
        let params = EncodeParams::new(Mode::Lossless).tile_size(24, 24);
        let bytes = encode(&img, &params).unwrap();
        let dec = StagedDecoder::new(&bytes).unwrap();
        let mut out = dec.blank_image();
        for t in 0..dec.num_tiles() {
            let coeffs = dec.entropy_decode_tile(t).unwrap();
            let wavelet = dec.dequantize_tile(&coeffs);
            let samples = dec.idwt_tile(wavelet);
            let samples = dec.inverse_mct_tile(samples);
            let samples = dec.dc_unshift_tile(samples);
            dec.place_tile(&mut out, &samples);
        }
        assert_eq!(out, decode(&bytes).unwrap().image);
        assert_eq!(out, img);
    }

    #[test]
    fn odd_sizes_and_deep_levels() {
        let img = Image::synthetic_grey(37, 23, 8);
        let params = EncodeParams::new(Mode::Lossless).levels(5);
        let bytes = encode(&img, &params).unwrap();
        assert_eq!(decode(&bytes).unwrap().image, img);
    }

    #[test]
    fn timings_are_populated() {
        let img = Image::synthetic_rgb(64, 64, 9);
        let bytes = encode(&img, &EncodeParams::new(Mode::Lossless)).unwrap();
        // Each stage's minimum over a few decodes (best-of-N), so a host
        // stall inside one short stage cannot flip the shares.
        let runs = (0..5).map(|_| decode(&bytes).unwrap().timings);
        let best = runs
            .reduce(|a, b| DecodeTimings {
                entropy: a.entropy.min(b.entropy),
                iq: a.iq.min(b.iq),
                idwt: a.idwt.min(b.idwt),
                mct: a.mct.min(b.mct),
                dc_shift: a.dc_shift.min(b.dc_shift),
            })
            .unwrap();
        assert!(best.total() > Duration::ZERO);
        let shares = best.shares();
        let sum: f64 = shares.iter().sum();
        assert!((sum - 100.0).abs() < 1e-6, "shares sum to 100%: {sum}");
        // Entropy decoding dominates, as in the paper's Figure 1.
        assert!(shares[0] > 50.0, "entropy share {:.1}%", shares[0]);
    }

    #[test]
    fn invalid_params_rejected() {
        let img = Image::synthetic_grey(16, 16, 0);
        assert!(encode(&img, &EncodeParams::new(Mode::Lossy { base_step: 0.0 })).is_err());
        let mut p = EncodeParams::new(Mode::Lossless);
        p.levels = 0;
        assert!(encode(&img, &p).is_err());
        let mut p = EncodeParams::new(Mode::Lossless);
        p.cb_exp = 1;
        assert!(encode(&img, &p).is_err());
        let two = Image::new(8, 8, 8, 2);
        assert!(encode(&two, &EncodeParams::new(Mode::Lossless)).is_err());
    }

    #[test]
    fn truncated_codestream_errors_cleanly() {
        let img = Image::synthetic_rgb(32, 32, 10);
        let bytes = encode(&img, &EncodeParams::new(Mode::Lossless)).unwrap();
        for frac in [4usize, 2] {
            let cut = &bytes[..bytes.len() / frac];
            assert!(decode(cut).is_err());
        }
    }

    #[test]
    fn multi_layer_lossless_roundtrip_is_exact() {
        let img = Image::synthetic_rgb(64, 48, 15);
        for layers in [1u8, 2, 3, 5] {
            let params = EncodeParams::new(Mode::Lossless)
                .tile_size(32, 32)
                .layers(layers);
            let bytes = encode(&img, &params).unwrap();
            let out = decode(&bytes).unwrap();
            assert_eq!(out.image, img, "{layers} layers");
        }
    }

    #[test]
    fn quality_progression_improves_with_layers() {
        let img = Image::synthetic_rgb(64, 64, 16);
        let params = EncodeParams::new(Mode::Lossless).layers(4);
        let bytes = encode(&img, &params).unwrap();
        let mut last_psnr = 0.0;
        for keep in 1..=4 {
            let approx = decode_quality(&bytes, keep).unwrap();
            let psnr = img.psnr(&approx);
            assert!(
                psnr >= last_psnr,
                "layer {keep}: PSNR {psnr:.1} dropped below {last_psnr:.1}"
            );
            last_psnr = psnr;
        }
        assert_eq!(
            decode_quality(&bytes, 4).unwrap(),
            img,
            "all layers reconstruct exactly (lossless)"
        );
        // A single layer is a usable approximation already.
        let one = decode_quality(&bytes, 1).unwrap();
        assert!(img.psnr(&one) > 10.0);
    }

    #[test]
    fn decode_quality_zero_layers_clamps_to_one() {
        let img = Image::synthetic_rgb(32, 32, 18);
        let bytes = encode(&img, &EncodeParams::new(Mode::Lossless).layers(3)).unwrap();
        // Asking for zero layers is clamped to one, not an error.
        let approx = decode_quality(&bytes, 0).unwrap();
        assert_eq!(approx.width, 32);
        assert!(img.psnr(&approx) > 5.0);
    }

    #[test]
    fn layer_count_is_validated() {
        let img = Image::synthetic_grey(16, 16, 19);
        let mut p = EncodeParams::new(Mode::Lossless);
        p.layers = 0;
        assert!(encode(&img, &p).is_err());
        p.layers = 17;
        assert!(encode(&img, &p).is_err());
    }

    #[test]
    fn layers_and_resolution_progression_compose() {
        let img = Image::synthetic_rgb(64, 64, 17);
        let params = EncodeParams::new(Mode::Lossless)
            .layers(3)
            .tile_size(32, 32);
        let bytes = encode(&img, &params).unwrap();
        // Thumbnails still work with multiple layers in the stream.
        let thumb = decode_thumbnail(&bytes, 1).unwrap();
        assert_eq!(thumb.width, 16);
        // Lossy multi-layer also decodes.
        let lossy = EncodeParams::new(Mode::lossy_default()).layers(3);
        let lb = encode(&img, &lossy).unwrap();
        let full = decode(&lb).unwrap();
        assert!(img.psnr(&full.image) > 35.0);
        let partial = decode_quality(&lb, 1).unwrap();
        assert!(img.psnr(&partial) <= img.psnr(&full.image));
    }

    #[test]
    fn thumbnail_of_constant_image_is_constant() {
        // DC gain 1 through both filter banks: the LL band of a constant
        // image is that constant, so any-resolution thumbnails reproduce
        // the colour exactly.
        let mut img = Image::new(64, 64, 8, 3);
        for (ci, v) in [200, 100, 50].iter().enumerate() {
            img.components[ci].data.fill(*v);
        }
        for mode in [Mode::Lossless, Mode::lossy_default()] {
            let bytes = encode(&img, &EncodeParams::new(mode).tile_size(32, 32)).unwrap();
            for max_res in 0..=3 {
                let thumb = decode_thumbnail(&bytes, max_res).unwrap();
                let shrink = 1usize << (3 - max_res.min(3));
                assert_eq!(thumb.width, 64usize.div_ceil(shrink), "res {max_res}");
                for (ci, v) in [200, 100, 50].iter().enumerate() {
                    assert!(
                        thumb.components[ci]
                            .data
                            .iter()
                            .all(|&x| (x - v).abs() <= 1),
                        "mode {mode:?} res {max_res} comp {ci}"
                    );
                }
            }
        }
    }

    #[test]
    fn full_resolution_thumbnail_equals_decode() {
        let img = Image::synthetic_rgb(64, 64, 13);
        let bytes = encode(&img, &EncodeParams::new(Mode::Lossless).tile_size(32, 32)).unwrap();
        let thumb = decode_thumbnail(&bytes, usize::MAX).unwrap();
        assert_eq!(thumb, decode(&bytes).unwrap().image);
        assert_eq!(thumb, img);
    }

    #[test]
    fn thumbnail_reads_fewer_packets_than_full_decode() {
        // A truncated stream that breaks the full decode can still serve
        // low resolutions — the progressive-access property.
        let img = Image::synthetic_rgb(64, 64, 14);
        let bytes = encode(&img, &EncodeParams::new(Mode::Lossless)).unwrap();
        let cut = &bytes[..bytes.len() * 9 / 10];
        // Re-terminate: keep SOT/Psot consistent by decoding the intact
        // stream at low resolution instead (the parser validates whole
        // tile-parts). Low-res decoding must not touch high-res packets.
        assert!(decode(cut).is_err());
        let thumb = decode_thumbnail(&bytes, 1).unwrap();
        assert_eq!(thumb.width, 16);
        assert_eq!(thumb.height, 16);
    }

    #[test]
    fn lossy_256_with_64_tiles_roundtrip() {
        // Regression: this configuration produces a packet header whose
        // final byte is 0xFF; the writer appends a stuffing byte that the
        // reader must skip to keep the packet bodies aligned.
        let img = Image::synthetic_rgb(256, 256, 42);
        let params = EncodeParams::new(Mode::lossy_default()).tile_size(64, 64);
        let bytes = encode(&img, &params).unwrap();
        let out = decode(&bytes).expect("decode must stay aligned");
        assert!(img.psnr(&out.image) > 40.0);
    }

    #[test]
    fn sixteen_tile_three_component_case_study_shape() {
        // The paper's evaluation decodes 16 tiles with 3 components.
        let img = Image::synthetic_rgb(128, 128, 11);
        let params = EncodeParams::new(Mode::Lossless).tile_size(32, 32);
        let bytes = encode(&img, &params).unwrap();
        let dec = StagedDecoder::new(&bytes).unwrap();
        assert_eq!(dec.num_tiles(), 16);
        assert_eq!(dec.header().num_components, 3);
        let out = decode(&bytes).unwrap();
        assert_eq!(out.image, img);
    }

    #[test]
    fn thumbnail_with_mixed_effective_levels_stays_in_bounds() {
        // Regression (found by the fuzz-harness design audit): a 66×66
        // image with 64×64 tiles has a 2×2 corner tile whose effective
        // level count (1) is below the first tile's (3). The corner
        // tile then cannot shrink by the global factor and its
        // reconstruction used to blit past the scaled output image —
        // a panic reachable from a perfectly valid encode.
        let img = Image::synthetic_rgb(66, 66, 21);
        let bytes = encode(&img, &EncodeParams::new(Mode::Lossless).tile_size(64, 64)).unwrap();
        for max_res in 0..=4 {
            let thumb = decode_thumbnail(&bytes, max_res).expect("thumbnail");
            let shrink = 1usize << 3usize.saturating_sub(max_res);
            assert_eq!(thumb.width, 66usize.div_ceil(shrink), "max_res {max_res}");
            assert_eq!(thumb.height, 66usize.div_ceil(shrink), "max_res {max_res}");
        }
    }

    #[test]
    fn thumbnail_at_or_beyond_coded_levels_is_the_full_image() {
        // `max_res >= levels` is clamped: everything decodes, identical
        // to the full-size decode.
        let img = Image::synthetic_rgb(70, 50, 22);
        let bytes = encode(&img, &EncodeParams::new(Mode::Lossless).tile_size(32, 32)).unwrap();
        let full = decode(&bytes).unwrap().image;
        for max_res in [3, 4, 100, usize::MAX] {
            assert_eq!(decode_thumbnail(&bytes, max_res).unwrap(), full);
        }
    }

    #[test]
    fn quality_zero_layers_is_clamped_to_one() {
        // `max_layers == 0` means "no image" — defined as clamping to
        // the coarsest approximation instead of an arithmetic accident.
        let img = Image::synthetic_rgb(48, 48, 23);
        let bytes = encode(
            &img,
            &EncodeParams::new(Mode::lossy_default())
                .layers(4)
                .tile_size(32, 32),
        )
        .unwrap();
        assert_eq!(
            decode_quality(&bytes, 0).unwrap(),
            decode_quality(&bytes, 1).unwrap()
        );
        // And beyond the coded layer count decodes everything.
        assert_eq!(
            decode_quality(&bytes, usize::MAX).unwrap(),
            decode(&bytes).unwrap().image
        );
    }

    #[test]
    fn truncated_layer_blocks_roundtrip_exactly() {
        // The `LayeredBand::layer` invariant: blocks whose coding
        // passes run out before the last layer contribute empty
        // segments, written as "not included" in those layers' packets.
        // A mostly-flat image maximises early-exhausted blocks; the
        // full round-trip must still be bit-exact and every layer
        // prefix must decode cleanly.
        let mut img = Image::new(64, 64, 8, 1);
        img.components[0].data[0] = 200; // one busy corner block
        for i in 0..64 {
            img.components[0].data[i * 64 + i] = (i as i32) * 3;
        }
        let bytes = encode(&img, &EncodeParams::new(Mode::Lossless).layers(8)).unwrap();
        assert_eq!(decode(&bytes).unwrap().image, img);
        for l in 1..=8 {
            decode_quality(&bytes, l).expect("every layer prefix decodes");
        }
    }

    #[test]
    fn tolerant_decode_of_a_clean_stream_matches_strict() {
        let img = Image::synthetic_rgb(70, 50, 24);
        let bytes = encode(&img, &EncodeParams::new(Mode::Lossless).tile_size(32, 32)).unwrap();
        let (tolerant, report) = decode_tolerant(&bytes).unwrap();
        assert!(report.is_clean(), "unexpected failures: {report:?}");
        assert_eq!(tolerant, decode(&bytes).unwrap().image);
    }

    #[test]
    fn tolerant_isolates_a_single_corrupt_tile() {
        // The acceptance scenario: exactly one tile body corrupted.
        // Every other tile must reconstruct bit-exact against the clean
        // decode, and the report must name the damaged tile.
        let img = Image::synthetic_rgb(96, 96, 25);
        let bytes = encode(&img, &EncodeParams::new(Mode::Lossless).tile_size(32, 32)).unwrap();
        let clean = decode(&bytes).unwrap().image;
        let corrupt_tile = 4usize;
        let segs = crate::fuzz::scan_markers(&bytes);
        let sot = segs
            .iter()
            .filter(|s| s.marker == crate::codestream::MARKER_SOT)
            .nth(corrupt_tile)
            .copied()
            .expect("tile-part present");
        let mut bad = bytes.clone();
        // Overwrite the tile body (after the 14-byte SOT..SOD header)
        // with 0xFF — structurally poisonous bytes.
        for b in &mut bad[sot.offset + 14..sot.offset + sot.len] {
            *b = 0xFF;
        }
        let (image, report) = decode_tolerant(&bad).unwrap();
        assert_eq!(report.failed_tiles(), vec![corrupt_tile]);
        let grid = TileGrid::new(96, 96, 32, 32);
        let rect = grid.tile_rect(corrupt_tile);
        for (c, comp) in image.components.iter().enumerate() {
            for y in 0..96 {
                for x in 0..96 {
                    let inside = (rect.x0..rect.x0 + rect.w).contains(&x)
                        && (rect.y0..rect.y0 + rect.h).contains(&y);
                    if !inside {
                        assert_eq!(
                            comp.data[y * 96 + x],
                            clean.components[c].data[y * 96 + x],
                            "component {c} pixel ({x},{y}) must be untouched"
                        );
                    }
                }
            }
        }
        // The parallel tolerant backend produces the same image and
        // names the same tile.
        let (par_image, par_report) = crate::parallel::decode_tolerant_parallel(&bad, 4).unwrap();
        assert_eq!(par_image, image);
        assert_eq!(par_report.failed_tiles(), vec![corrupt_tile]);
    }

    #[test]
    fn tolerant_survives_truncation_and_keeps_leading_tiles() {
        // Cut the stream in the middle of tile 2 of 4: tiles 0 and 1
        // must stay bit-exact, the rest render mid-gray, and the output
        // geometry always matches SIZ.
        let img = Image::synthetic_rgb(64, 64, 26);
        let bytes = encode(&img, &EncodeParams::new(Mode::Lossless).tile_size(32, 32)).unwrap();
        let clean = decode(&bytes).unwrap().image;
        let segs = crate::fuzz::scan_markers(&bytes);
        let sot2 = segs
            .iter()
            .filter(|s| s.marker == crate::codestream::MARKER_SOT)
            .nth(2)
            .copied()
            .unwrap();
        let cut = &bytes[..sot2.offset + sot2.len / 2];
        let (image, report) = decode_tolerant(cut).unwrap();
        assert_eq!(image.width, 64);
        assert_eq!(image.height, 64);
        assert!(!report.is_clean());
        assert!(report.failed_tiles().contains(&3), "missing tile reported");
        let grid = TileGrid::new(64, 64, 32, 32);
        for t in [0usize, 1] {
            let rect = grid.tile_rect(t);
            for (c, comp) in image.components.iter().enumerate() {
                for y in rect.y0..rect.y0 + rect.h {
                    for x in rect.x0..rect.x0 + rect.w {
                        assert_eq!(
                            comp.data[y * 64 + x],
                            clean.components[c].data[y * 64 + x],
                            "tile {t} component {c} pixel ({x},{y})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tolerant_renders_missing_tiles_mid_gray() {
        // A stream truncated right before its last tile-part: the
        // missing tile's region is exactly mid-gray (zero coefficients
        // through IDWT and DC unshift), not uninitialised data.
        let img = Image::synthetic_grey(64, 64, 27);
        let bytes = encode(&img, &EncodeParams::new(Mode::Lossless).tile_size(32, 32)).unwrap();
        let segs = crate::fuzz::scan_markers(&bytes);
        let last_sot = segs
            .iter()
            .filter(|s| s.marker == crate::codestream::MARKER_SOT)
            .nth(3)
            .copied()
            .unwrap();
        let cut = &bytes[..last_sot.offset];
        let (image, report) = decode_tolerant(cut).unwrap();
        assert!(report.failed_tiles().contains(&3));
        let grid = TileGrid::new(64, 64, 32, 32);
        let rect = grid.tile_rect(3);
        for y in rect.y0..rect.y0 + rect.h {
            for x in rect.x0..rect.x0 + rect.w {
                assert_eq!(image.components[0].data[y * 64 + x], 128, "({x},{y})");
            }
        }
    }

    #[test]
    fn degenerate_geometry_never_reaches_the_tagtree_assert() {
        // `TagTree::new` asserts non-empty grids. The audit (see t2.rs)
        // shows every decode-path call clamps with `.max(1)`; this pins
        // the headers that come closest — 1-pixel-wide/tall tiles and
        // deep decompositions whose upper bands are zero-size, with the
        // smallest legal code-blocks.
        for (w, h) in [(1usize, 1usize), (1, 64), (64, 1), (2, 3), (3, 65)] {
            let img = Image::synthetic_grey(w, h, 30);
            let mut params = EncodeParams::new(Mode::Lossless).levels(8);
            params.cb_exp = 2;
            let bytes = encode(&img, &params).unwrap();
            let out = decode(&bytes).expect("decode");
            assert_eq!(out.image, img, "{w}x{h}");
            for max_res in 0..=3 {
                decode_thumbnail(&bytes, max_res).expect("thumbnail");
            }
            let (_, report) = decode_tolerant(&bytes).unwrap();
            assert!(report.is_clean());
        }
    }

    #[test]
    fn oversized_cod_levels_is_rejected_with_site() {
        // COD levels byte beyond MAX_LEVELS (32) is corruption; the
        // error must carry the marker and offset.
        let img = Image::synthetic_grey(32, 32, 28);
        let mut bytes = encode(&img, &EncodeParams::new(Mode::Lossless)).unwrap();
        // COD: SOC(2) + SIZ(2+2+16+2+1) + marker(2) + len(2) → levels byte.
        let segs = crate::fuzz::scan_markers(&bytes);
        let cod = segs
            .iter()
            .find(|s| s.marker == crate::codestream::MARKER_COD)
            .copied()
            .unwrap();
        bytes[cod.offset + 4] = 200;
        let err = decode(&bytes).unwrap_err();
        match &err {
            CodecError::Malformed { detail, site } => {
                assert!(detail.contains("exceeds"), "{detail}");
                assert_eq!(site.marker, Some("COD"));
                assert!(site.offset.is_some());
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn packet_errors_carry_tile_and_offset_context() {
        // Tier-2 failures deep inside a tile must surface with the tile
        // index and a tile-relative byte offset attached.
        let img = Image::synthetic_rgb(64, 64, 29);
        let bytes = encode(&img, &EncodeParams::new(Mode::Lossless).tile_size(32, 32)).unwrap();
        let segs = crate::fuzz::scan_markers(&bytes);
        let sot1 = segs
            .iter()
            .filter(|s| s.marker == crate::codestream::MARKER_SOT)
            .nth(1)
            .copied()
            .unwrap();
        let mut bad = bytes.clone();
        for b in &mut bad[sot1.offset + 14..sot1.offset + sot1.len] {
            *b = 0xFF;
        }
        let err = decode(&bad).unwrap_err();
        let site = err.site();
        assert_eq!(site.tile, Some(1), "error: {err}");
        assert!(site.offset.is_some(), "error: {err}");
    }
}
