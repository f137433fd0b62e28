//! The encoded corpus and its verification references.
//!
//! Every response is checked against the one-shot entry point that
//! defines it (`decode`, `decode_tolerant` with its report,
//! `decode_quality`, `decode_thumbnail`), computed here before any
//! timing starts and kept as a digest of the image plus the summarised
//! tolerant report.

use crate::plan::{available_parallelism, Entry, Fnv, Plan};
use jpeg2000::codec::{decode, decode_quality, decode_thumbnail, decode_tolerant, encode};
use jpeg2000::image::Image;
use jpeg2000::net::{encode_ok, encode_request, WireReport};
use jpeg2000::service::{Request, RequestKind, ServedFrom};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// What a correct response to one entry looks like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// [`digest`] of the reference image.
    pub digest: u64,
    /// The summarised report (tolerant requests only).
    pub report: Option<WireReport>,
    /// Output pixels (width × height).
    pub pixels: u64,
    /// Payload bytes of the success response carrying this image.
    pub response_bytes: u64,
}

impl Reference {
    /// Whether `image` and `report` are exactly the reference.
    pub fn matches(&self, image: &Image, report: Option<&WireReport>) -> bool {
        report == self.report.as_ref() && digest(image) == self.digest
    }
}

/// The encoded streams plus one reference per plan entry.
#[derive(Debug)]
pub struct Corpus {
    /// Codestreams, indexed like [`Plan::streams`].
    pub streams: Vec<Arc<[u8]>>,
    /// Request payload bytes per stream.
    pub request_bytes: Vec<u64>,
    /// Reference per entry.
    pub refs: HashMap<Entry, Reference>,
}

/// A 64-bit digest of an image's geometry and samples (two samples per
/// multiply, so checking a response costs microseconds).
pub fn digest(image: &Image) -> u64 {
    let mut h = Fnv::default();
    h.u64(image.width as u64);
    h.u64(image.height as u64);
    h.u64(u64::from(image.depth));
    let mut acc = h.0;
    for plane in &image.components {
        acc = mix(acc, ((plane.width as u64) << 32) | plane.height as u64);
        let mut pairs = plane.data.chunks_exact(2);
        for p in &mut pairs {
            acc = mix(acc, (u64::from(p[0] as u32) << 32) | u64::from(p[1] as u32));
        }
        if let [last] = pairs.remainder() {
            acc = mix(acc, u64::from(*last as u32));
        }
    }
    acc ^ (acc >> 31)
}

fn mix(acc: u64, v: u64) -> u64 {
    (acc.rotate_left(23) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The one-shot reference for `kind`.
///
/// # Errors
///
/// The decoder's error, rendered (corpus streams are valid, so this
/// means the decoder broke).
pub fn reference_image(
    bytes: &[u8],
    kind: RequestKind,
) -> Result<(Image, Option<WireReport>), String> {
    let r = match kind {
        RequestKind::Strict => decode(bytes).map(|d| (d.image, None)),
        RequestKind::Tolerant => {
            decode_tolerant(bytes).map(|(img, rep)| (img, Some(WireReport::summarise(&rep))))
        }
        RequestKind::Quality { max_layers } => decode_quality(bytes, max_layers).map(|i| (i, None)),
        RequestKind::Thumbnail { max_res } => decode_thumbnail(bytes, max_res).map(|i| (i, None)),
    };
    r.map_err(|e| e.to_string())
}

/// Maps `items` on up to `available_parallelism()` threads, keeping
/// order.
pub fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let threads = available_parallelism().min(items.len()).max(1);
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return local;
                        };
                        local.push((i, f(item)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("corpus worker panicked"))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

impl Corpus {
    /// Encodes the plan's streams and computes every reference.
    ///
    /// # Errors
    ///
    /// An encoder or reference-decoder failure.
    pub fn build(plan: &Plan) -> Result<Corpus, String> {
        let streams = parallel_map(&plan.streams, |s| {
            encode(&s.image(), &s.params())
                .map(Arc::<[u8]>::from)
                .map_err(|e| e.to_string())
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        let entries = plan.entries();
        let refs = parallel_map(&entries, |e| {
            let (image, report) = reference_image(&streams[e.stream], e.kind)?;
            Ok::<_, String>(Reference {
                digest: digest(&image),
                response_bytes: encode_ok(&image, report.as_ref(), ServedFrom::Cold).len() as u64,
                pixels: (image.width * image.height) as u64,
                report,
            })
        });
        let refs = entries
            .into_iter()
            .zip(refs)
            .map(|(e, r)| r.map(|r| (e, r)))
            .collect::<Result<HashMap<_, _>, _>>()?;
        let request_bytes = streams
            .iter()
            .map(|s| encode_request(&Request::strict(), s).len() as u64)
            .collect();
        Ok(Corpus {
            streams,
            request_bytes,
            refs,
        })
    }

    /// The reference for `entry`.
    ///
    /// # Panics
    ///
    /// When the plan did not list `entry` (a benchmark bug).
    pub fn reference(&self, entry: &Entry) -> &Reference {
        self.refs
            .get(entry)
            .expect("every planned entry has a reference")
    }

    /// A hash over every stream's bytes.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        for s in &self.streams {
            h.u64(s.len() as u64);
            h.bytes(s);
        }
        h.0
    }
}
