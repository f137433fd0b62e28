//! Tiling and subband geometry: the tile grid, the Mallat subband layout
//! after `L` decomposition levels, and the code-block partition of a band.
//!
//! JPEG 2000 processes images as tiles ("more manageable and more adapted
//! to a pipelined computation", as the paper puts it); each tile-component
//! decomposes into resolutions and subbands, each subband into code-blocks.

use crate::dwt::effective_levels;

/// A rectangle `(x0, y0, width, height)` in sample coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rect {
    /// Left edge.
    pub x0: usize,
    /// Top edge.
    pub y0: usize,
    /// Width in samples.
    pub w: usize,
    /// Height in samples.
    pub h: usize,
}

impl Rect {
    /// Number of samples covered.
    pub fn area(&self) -> usize {
        self.w * self.h
    }
}

/// The regular tile grid covering an image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileGrid {
    /// Image width.
    pub image_w: usize,
    /// Image height.
    pub image_h: usize,
    /// Nominal tile width.
    pub tile_w: usize,
    /// Nominal tile height.
    pub tile_h: usize,
}

impl TileGrid {
    /// Creates a grid; tiles at the right/bottom edges may be smaller.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(image_w: usize, image_h: usize, tile_w: usize, tile_h: usize) -> Self {
        assert!(image_w > 0 && image_h > 0, "empty image");
        assert!(tile_w > 0 && tile_h > 0, "empty tile");
        TileGrid {
            image_w,
            image_h,
            tile_w,
            tile_h,
        }
    }

    /// Number of tile columns.
    pub fn cols(&self) -> usize {
        self.image_w.div_ceil(self.tile_w)
    }

    /// Number of tile rows.
    pub fn rows(&self) -> usize {
        self.image_h.div_ceil(self.tile_h)
    }

    /// Total number of tiles.
    pub fn count(&self) -> usize {
        self.cols() * self.rows()
    }

    /// The bounds of tile `index` (raster order).
    ///
    /// # Panics
    ///
    /// Panics if `index >= count()`.
    pub fn tile_rect(&self, index: usize) -> Rect {
        assert!(index < self.count(), "tile index out of range");
        let tx = index % self.cols();
        let ty = index / self.cols();
        let x0 = tx * self.tile_w;
        let y0 = ty * self.tile_h;
        Rect {
            x0,
            y0,
            w: (self.image_w - x0).min(self.tile_w),
            h: (self.image_h - y0).min(self.tile_h),
        }
    }
}

/// Subband orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BandKind {
    /// Low-pass both directions (only at the deepest level).
    Ll,
    /// High-pass horizontally, low-pass vertically.
    Hl,
    /// Low-pass horizontally, high-pass vertically.
    Lh,
    /// High-pass both directions.
    Hh,
}

/// One subband of a tile-component: its kind, decomposition level and
/// position inside the Mallat-layout coefficient plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Band {
    /// Orientation.
    pub kind: BandKind,
    /// Decomposition level, `1..=levels` (1 = finest).
    pub level: u8,
    /// Position in the Mallat layout (tile-component coordinates).
    pub rect: Rect,
}

/// The Mallat subband layout of a `w × h` tile-component decomposed
/// `levels` times (capped by [`effective_levels`]).
///
/// Bands are returned **resolution by resolution, coarse to fine**: the
/// deepest LL first, then `HL, LH, HH` of the deepest level, …, then
/// `HL, LH, HH` of level 1 — the resolution order of an RLCP codestream.
pub fn subbands(w: usize, h: usize, levels: usize) -> Vec<Band> {
    let levels = effective_levels(w, h, levels);
    // Region sizes per level: dims[l] = size after l decompositions.
    let mut dims = vec![(w, h)];
    for l in 0..levels {
        let (pw, ph) = dims[l];
        dims.push((pw.div_ceil(2), ph.div_ceil(2)));
    }
    let mut bands = Vec::new();
    let (llw, llh) = dims[levels];
    bands.push(Band {
        kind: BandKind::Ll,
        level: levels as u8,
        rect: Rect {
            x0: 0,
            y0: 0,
            w: llw,
            h: llh,
        },
    });
    // Deepest level first.
    for level in (1..=levels).rev() {
        let (pw, ph) = dims[level - 1]; // region being split
        let (lw, lh) = dims[level]; // its low half sizes
        let (hw, hh) = (pw - lw, ph - lh);
        if hw > 0 {
            bands.push(Band {
                kind: BandKind::Hl,
                level: level as u8,
                rect: Rect {
                    x0: lw,
                    y0: 0,
                    w: hw,
                    h: lh,
                },
            });
        }
        if hh > 0 {
            bands.push(Band {
                kind: BandKind::Lh,
                level: level as u8,
                rect: Rect {
                    x0: 0,
                    y0: lh,
                    w: lw,
                    h: hh,
                },
            });
        }
        if hw > 0 && hh > 0 {
            bands.push(Band {
                kind: BandKind::Hh,
                level: level as u8,
                rect: Rect {
                    x0: lw,
                    y0: lh,
                    w: hw,
                    h: hh,
                },
            });
        }
    }
    bands
}

/// Groups the subbands of a tile-component by resolution: index 0 holds
/// only the deepest LL band, index `r ≥ 1` the `HL/LH/HH` bands of level
/// `levels − r + 1` — the packet grouping of an RLCP codestream.
pub fn resolution_bands(w: usize, h: usize, levels: usize) -> Vec<Vec<Band>> {
    let bands = subbands(w, h, levels);
    let applied = bands[0].level as usize;
    let mut groups: Vec<Vec<Band>> = vec![Vec::new(); applied + 1];
    for b in bands {
        let r = match b.kind {
            BandKind::Ll => 0,
            _ => applied - b.level as usize + 1,
        };
        groups[r].push(b);
    }
    groups
}

/// Splits `band_w × band_h` into code-blocks of nominal size
/// `cb_w × cb_h`, anchored at the band origin, raster order.
pub fn codeblocks(band_w: usize, band_h: usize, cb_w: usize, cb_h: usize) -> Vec<Rect> {
    let mut out = Vec::new();
    if band_w == 0 || band_h == 0 {
        return out;
    }
    let mut y0 = 0;
    while y0 < band_h {
        let h = (band_h - y0).min(cb_h);
        let mut x0 = 0;
        while x0 < band_w {
            let w = (band_w - x0).min(cb_w);
            out.push(Rect { x0, y0, w, h });
            x0 += cb_w;
        }
        y0 += cb_h;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_counts_and_edge_tiles() {
        let g = TileGrid::new(100, 60, 32, 32);
        assert_eq!(g.cols(), 4);
        assert_eq!(g.rows(), 2);
        assert_eq!(g.count(), 8);
        assert_eq!(
            g.tile_rect(0),
            Rect {
                x0: 0,
                y0: 0,
                w: 32,
                h: 32
            }
        );
        // Rightmost column tile is 100 - 96 = 4 wide.
        assert_eq!(g.tile_rect(3).w, 4);
        // Bottom row tile is 60 - 32 = 28 tall.
        assert_eq!(g.tile_rect(4).h, 28);
        assert_eq!(
            g.tile_rect(7),
            Rect {
                x0: 96,
                y0: 32,
                w: 4,
                h: 28
            }
        );
    }

    #[test]
    fn tiles_partition_the_image() {
        let g = TileGrid::new(33, 17, 16, 16);
        let total: usize = (0..g.count()).map(|i| g.tile_rect(i).area()).sum();
        assert_eq!(total, 33 * 17);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tile_index_out_of_range() {
        let g = TileGrid::new(10, 10, 10, 10);
        let _ = g.tile_rect(1);
    }

    #[test]
    fn subbands_cover_the_plane_exactly() {
        for &(w, h, levels) in &[(64usize, 64usize, 3usize), (17, 13, 2), (33, 9, 4)] {
            let bands = subbands(w, h, levels);
            let total: usize = bands.iter().map(|b| b.rect.area()).sum();
            assert_eq!(total, w * h, "{w}x{h} L{levels}");
            // No overlaps: paint and count.
            let mut painted = vec![false; w * h];
            for b in &bands {
                for y in b.rect.y0..b.rect.y0 + b.rect.h {
                    for x in b.rect.x0..b.rect.x0 + b.rect.w {
                        assert!(!painted[y * w + x], "overlap at {x},{y}");
                        painted[y * w + x] = true;
                    }
                }
            }
            assert!(painted.iter().all(|&p| p));
        }
    }

    #[test]
    fn subband_order_is_coarse_to_fine() {
        let bands = subbands(64, 64, 3);
        assert_eq!(bands.len(), 10); // LL + 3 levels × 3
        assert_eq!(bands[0].kind, BandKind::Ll);
        assert_eq!(bands[0].level, 3);
        assert_eq!(bands[1].level, 3);
        assert_eq!(bands[9].level, 1);
        assert_eq!(bands[0].rect.w, 8);
        assert_eq!(bands[9].kind, BandKind::Hh);
        assert_eq!(bands[9].rect.w, 32);
    }

    #[test]
    fn subbands_of_tiny_region() {
        let bands = subbands(1, 1, 5);
        assert_eq!(bands.len(), 1);
        assert_eq!(bands[0].kind, BandKind::Ll);
        assert_eq!(bands[0].level, 0);
    }

    #[test]
    fn resolution_grouping() {
        let groups = resolution_bands(64, 64, 3);
        assert_eq!(groups.len(), 4);
        assert_eq!(groups[0].len(), 1);
        assert_eq!(groups[0][0].kind, BandKind::Ll);
        for (r, g) in groups.iter().enumerate().skip(1) {
            assert_eq!(g.len(), 3, "resolution {r}");
            assert_eq!(g[0].level as usize, 3 - r + 1);
        }
        // Tiny component: fewer effective levels, still consistent.
        let tiny = resolution_bands(3, 3, 5);
        let total: usize = tiny.iter().flatten().map(|b| b.rect.area()).sum();
        assert_eq!(total, 9);
    }

    #[test]
    fn codeblock_partition_covers_band() {
        let blocks = codeblocks(70, 33, 32, 32);
        assert_eq!(blocks.len(), 3 * 2);
        let total: usize = blocks.iter().map(Rect::area).sum();
        assert_eq!(total, 70 * 33);
        assert_eq!(blocks[2].w, 6); // 70 - 64
        assert_eq!(blocks[5].h, 1); // 33 - 32
    }

    #[test]
    fn codeblocks_of_empty_band() {
        assert!(codeblocks(0, 5, 32, 32).is_empty());
    }
}
