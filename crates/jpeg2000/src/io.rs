//! Minimal PNM (PGM/PPM) image I/O, so the codec can exchange images
//! with standard tools without any external dependency.
//!
//! Binary `P5` (greyscale) and `P6` (RGB) at 8 bits per sample are
//! supported — the formats every image toolchain can read and write.
//!
//! Panic audit: these paths are reachable from untrusted files, so the
//! library code below is panic-free — malformed headers, short rasters,
//! inconsistent plane geometry, and OS-level file failures all surface
//! as structured [`CodecError`]s ([`CodecError::Io`] for the latter).
//! The `unwrap()`s in the `tests` module operate on values the tests
//! themselves construct and are intentionally left as-is.

use crate::error::{CodecError, CodecResult};
use crate::image::Image;
use std::path::Path;

/// Serialises an image as binary PGM (1 component) or PPM (3 components).
///
/// # Errors
///
/// [`CodecError::InvalidParams`] if the image is not 8-bit with 1 or 3
/// components, or [`CodecError::Malformed`] if a component plane's
/// geometry disagrees with the image dimensions (indexing such a plane
/// would otherwise panic).
pub fn write_pnm(image: &Image) -> CodecResult<Vec<u8>> {
    if image.depth != 8 {
        return Err(CodecError::invalid("PNM export requires 8-bit samples"));
    }
    let magic = match image.num_components() {
        1 => "P5",
        3 => "P6",
        n => {
            return Err(CodecError::invalid(format!(
                "PNM export requires 1 or 3 components, got {n}"
            )))
        }
    };
    for (ci, c) in image.components.iter().enumerate() {
        if c.width != image.width || c.height != image.height {
            return Err(CodecError::malformed(format!(
                "component {ci} is {}x{} but the image is {}x{}",
                c.width, c.height, image.width, image.height
            )));
        }
    }
    let mut out = format!("{magic}\n{} {}\n255\n", image.width, image.height).into_bytes();
    for y in 0..image.height {
        for x in 0..image.width {
            for c in &image.components {
                out.push(c.at(x, y).clamp(0, 255) as u8);
            }
        }
    }
    Ok(out)
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn skip_ws_and_comments(&mut self) {
        loop {
            while self
                .data
                .get(self.pos)
                .is_some_and(|b| b.is_ascii_whitespace())
            {
                self.pos += 1;
            }
            if self.data.get(self.pos) == Some(&b'#') {
                while self.data.get(self.pos).is_some_and(|&b| b != b'\n') {
                    self.pos += 1;
                }
            } else {
                return;
            }
        }
    }

    fn token(&mut self) -> CodecResult<&[u8]> {
        self.skip_ws_and_comments();
        let start = self.pos;
        while self
            .data
            .get(self.pos)
            .is_some_and(|b| !b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(CodecError::truncated("PNM header").at_offset(self.pos));
        }
        Ok(&self.data[start..self.pos])
    }

    fn number(&mut self) -> CodecResult<usize> {
        let tok = self.token()?;
        std::str::from_utf8(tok)
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| CodecError::malformed("non-numeric PNM header field"))
    }
}

/// Parses a binary PGM (`P5`) or PPM (`P6`) image.
///
/// # Errors
///
/// [`CodecError::Malformed`] or [`CodecError::Truncated`] on anything
/// that is not a well-formed 8-bit binary PNM.
pub fn read_pnm(data: &[u8]) -> CodecResult<Image> {
    let mut cur = Cursor { data, pos: 0 };
    let ncomp = match cur.token()? {
        b"P5" => 1usize,
        b"P6" => 3,
        other => {
            return Err(CodecError::malformed(format!(
                "unsupported PNM magic {:?}",
                String::from_utf8_lossy(other)
            )))
        }
    };
    let width = cur.number()?;
    let height = cur.number()?;
    let maxval = cur.number()?;
    if width == 0 || height == 0 {
        return Err(CodecError::malformed("zero PNM dimension"));
    }
    if maxval != 255 {
        return Err(CodecError::malformed(format!(
            "only maxval 255 supported, got {maxval}"
        )));
    }
    // Exactly one whitespace byte separates the header from the raster.
    cur.pos += 1;
    // Header dimensions are untrusted: the product can overflow `usize`
    // (a debug-build panic) and must in any case never exceed the raster
    // actually present, so check before allocating anything.
    let need = width
        .checked_mul(height)
        .and_then(|s| s.checked_mul(ncomp))
        .ok_or_else(|| CodecError::malformed("PNM dimensions overflow"))?;
    if data.len().saturating_sub(cur.pos) < need {
        return Err(CodecError::truncated("PNM raster").at_offset(data.len()));
    }
    let raster = &data[cur.pos..cur.pos + need];
    let mut image = Image::new(width, height, 8, ncomp);
    for y in 0..height {
        for x in 0..width {
            for (ci, comp) in image.components.iter_mut().enumerate() {
                *comp.at_mut(x, y) = raster[(y * width + x) * ncomp + ci] as i32;
            }
        }
    }
    Ok(image)
}

/// Reads and parses a PNM file from disk.
///
/// # Errors
///
/// [`CodecError::Io`] if the file cannot be read, plus any [`read_pnm`]
/// parse failure.
pub fn read_pnm_file(path: impl AsRef<Path>) -> CodecResult<Image> {
    let path = path.as_ref();
    let data = std::fs::read(path)
        .map_err(|e| CodecError::io(format!("reading {}: {e}", path.display())))?;
    read_pnm(&data)
}

/// Serialises an image with [`write_pnm`] and writes it to disk.
///
/// # Errors
///
/// [`CodecError::Io`] if the file cannot be written, plus any
/// [`write_pnm`] serialisation failure.
pub fn write_pnm_file(path: impl AsRef<Path>, image: &Image) -> CodecResult<()> {
    let path = path.as_ref();
    let bytes = write_pnm(image)?;
    std::fs::write(path, bytes)
        .map_err(|e| CodecError::io(format!("writing {}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Plane;

    #[test]
    fn rgb_roundtrip() {
        let img = Image::synthetic_rgb(33, 17, 3);
        let bytes = write_pnm(&img).unwrap();
        assert!(bytes.starts_with(b"P6\n33 17\n255\n"));
        let back = read_pnm(&bytes).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn grey_roundtrip() {
        let img = Image::synthetic_grey(12, 9, 4);
        let bytes = write_pnm(&img).unwrap();
        assert!(bytes.starts_with(b"P5\n"));
        assert_eq!(read_pnm(&bytes).unwrap(), img);
    }

    #[test]
    fn comments_in_header_are_skipped() {
        let img = Image::synthetic_grey(4, 2, 1);
        let mut bytes = b"P5\n# generated by a paint tool\n4 2\n# maxval next\n255\n".to_vec();
        for y in 0..2 {
            for x in 0..4 {
                bytes.push(img.components[0].at(x, y) as u8);
            }
        }
        assert_eq!(read_pnm(&bytes).unwrap(), img);
    }

    #[test]
    fn malformed_inputs_error_cleanly() {
        assert!(read_pnm(b"").is_err());
        assert!(read_pnm(b"P4\n1 1\n255\n\x00").is_err());
        assert!(read_pnm(b"P5\n0 5\n255\n").is_err());
        assert!(read_pnm(b"P5\n2 2\n65535\n____").is_err());
        assert!(read_pnm(b"P5\n4 4\n255\nxx").is_err(), "truncated raster");
        assert!(read_pnm(b"P5\nw h\n255\n").is_err(), "non-numeric");
    }

    #[test]
    fn unsupported_images_rejected_on_write() {
        let two = Image::new(4, 4, 8, 2);
        assert!(write_pnm(&two).is_err());
        let deep = Image::new(4, 4, 12, 1);
        assert!(write_pnm(&deep).is_err());
    }

    #[test]
    fn inconsistent_plane_geometry_is_an_error_not_a_panic() {
        let mut img = Image::synthetic_grey(4, 4, 1);
        img.components[0] = Plane::new(2, 2);
        let err = write_pnm(&img).unwrap_err();
        assert!(matches!(err, CodecError::Malformed { .. }), "{err}");
        assert!(err.to_string().contains("component 0"));
    }

    #[test]
    fn file_helpers_roundtrip_and_map_os_errors() {
        let img = Image::synthetic_rgb(9, 7, 2);
        let dir = std::env::temp_dir().join(format!("osss_pnm_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ppm");
        write_pnm_file(&path, &img).unwrap();
        assert_eq!(read_pnm_file(&path).unwrap(), img);
        std::fs::remove_dir_all(&dir).unwrap();

        let missing = dir.join("no-such-file.pgm");
        let err = read_pnm_file(&missing).unwrap_err();
        assert!(matches!(err, CodecError::Io { .. }), "{err}");
        assert!(err.to_string().contains("no-such-file.pgm"));
        let unwritable = dir.join("sub").join("out.ppm");
        let err = write_pnm_file(&unwritable, &img).unwrap_err();
        assert!(matches!(err, CodecError::Io { .. }), "{err}");
    }

    #[test]
    fn pnm_to_codec_pipeline() {
        use crate::codec::{decode, encode, EncodeParams, Mode};
        let img = Image::synthetic_rgb(24, 24, 8);
        let pnm = write_pnm(&img).unwrap();
        let loaded = read_pnm(&pnm).unwrap();
        let stream = encode(&loaded, &EncodeParams::new(Mode::Lossless)).unwrap();
        let out = decode(&stream).unwrap();
        assert_eq!(write_pnm(&out.image).unwrap(), pnm);
    }
}
