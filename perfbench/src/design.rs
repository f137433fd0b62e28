//! The benchmark's fixed design: geometries, corpus sizes, request
//! mixes, the open-loop rate ladder, latency limits and deadlines.
//! These are fixed here once and never derived from a run; README.md
//! gives the reasoning and the per-layer predictions.

use jpeg2000::service::RequestKind;
use std::time::Duration;

/// Image and tile edge of a corpus stream (square images, RGB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    /// Image width and height.
    pub size: usize,
    /// Tile width and height.
    pub tile: usize,
}

/// The paper's Table-1 workload: 128×128 RGB in 32×32 tiles (16 tiles).
pub const TABLE1: Geometry = Geometry {
    size: 128,
    tile: 32,
};

/// batch-parallel images: 512×512 RGB in 64×64 tiles (64 tiles).
pub const BATCH_GEOMETRY: Geometry = Geometry {
    size: 512,
    tile: 64,
};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Client connections (and client threads) of the closed-loop network
/// workloads, capped at the host's available parallelism.
pub const NET_CONNECTIONS: usize = 2;

/// cold-net corpus streams. Each is requested strict and tolerant, so
/// the cycle holds 680 distinct `(stream, kind)` entries: at ~25 KB a
/// stream and 192 KiB a decoded image, more than twice what either
/// default cache budget (8 MiB headers, 32 MiB images) holds.
pub const COLD_STREAMS: usize = 340;

/// hot-net hot set: streams, each requested strict and as a
/// `Thumbnail { max_res: 0 }` — 16 image entries, 8 header entries.
pub const HOT_STREAMS: usize = 8;
/// Share of hot-net requests that are thumbnails.
pub const HOT_THUMBNAIL_SHARE: f64 = 0.25;
/// hot-net thumbnail resolution.
pub const HOT_THUMBNAIL: RequestKind = RequestKind::Thumbnail { max_res: 0 };
/// Length of the seeded hot-net request sequence (cycled).
pub const HOT_SEQUENCE: usize = 4096;

/// zipf-service corpus: 3-quality-layer Table-1 streams whose decoded
/// images (~75 MB over all kinds) exceed the 32 MiB image budget.
pub const ZIPF_STREAMS: usize = 128;
/// Quality layers of a zipf-service stream.
pub const ZIPF_LAYERS: u8 = 3;
/// Zipf exponent of stream popularity.
pub const ZIPF_S: f64 = 1.0;
/// zipf-service request mix — every kind the service serves — with
/// each kind's share and the fixed deadline its ladder requests carry.
/// The cheap kinds have the tight deadlines, which expire when the
/// top rung fills the queue (64 queued requests are 50–150 ms of work
/// on two vCPUs).
pub const ZIPF_KIND_MIX: [(RequestKind, f64, Duration); 4] = [
    (RequestKind::Strict, 0.4, Duration::from_millis(250)),
    (RequestKind::Tolerant, 0.2, Duration::from_millis(250)),
    (
        RequestKind::Quality { max_layers: 1 },
        0.2,
        Duration::from_millis(150),
    ),
    (
        RequestKind::Thumbnail { max_res: 1 },
        0.2,
        Duration::from_millis(50),
    ),
];

/// The fixed deadline of a zipf-service ladder request of `kind`.
pub fn zipf_deadline(kind: RequestKind) -> Duration {
    ZIPF_KIND_MIX
        .iter()
        .find(|(k, _, _)| *k == kind)
        .map_or(Duration::from_millis(250), |(_, _, d)| *d)
}
/// Requests the generator keeps outstanding in the windowed phase (the
/// default worker count on two cores).
pub const ZIPF_WINDOW: usize = 2;
/// Length of the seeded Zipf request sequence of the windowed phase
/// (cycled).
pub const ZIPF_SEQUENCE: usize = 8192;
/// The open-loop rate ladder (requests/s), one equal-length phase per
/// rung, ascending. The top rung is far beyond capacity on any host
/// condition seen, so the queue always fills there.
pub const ZIPF_LADDER_RPS: &[f64] = &[150.0, 300.0, 600.0, 1200.0, 2400.0];
/// Share of `--seconds` spent on the ladder (the windowed phase takes
/// the rest).
pub const ZIPF_LADDER_SHARE: f64 = 0.5;
/// The p99 latency limit a rung must meet (from due time to ticket
/// resolution).
pub const ZIPF_P99_LIMIT_MS: f64 = 100.0;
/// A rung's backlog grows when its mean outstanding-request count over
/// the last third exceeds the first third's by more than this.
pub const BACKLOG_SLACK: f64 = 4.0;
/// Bound on the open-loop generator's p99 lateness; above it the
/// ladder is reported invalid.
pub const GEN_LAG_P99_BOUND_MS: f64 = 5.0;
/// Most popular `(stream, kind)` pairs decoded once during set-up.
pub const ZIPF_WARM_ENTRIES: usize = 24;
/// How often the generator polls outstanding tickets while it waits.
pub const POLL: Duration = Duration::from_micros(250);

/// batch-parallel corpus: lossless and lossy 512×512 images (an even
/// total, so the strict/tolerant alternation pairs up).
pub const BATCH_LOSSLESS: usize = 2;
/// See [`BATCH_LOSSLESS`]; more lossy than lossless images keeps the
/// median inside one mode.
pub const BATCH_LOSSY: usize = 4;

/// p99 limits under which a closed-loop or batch workload's measured
/// rate counts as its `slo_rate_rps`.
pub const COLD_NET_P99_LIMIT_MS: f64 = 100.0;
/// See [`COLD_NET_P99_LIMIT_MS`].
pub const HOT_NET_P99_LIMIT_MS: f64 = 25.0;
/// See [`COLD_NET_P99_LIMIT_MS`] (per image).
pub const BATCH_P99_LIMIT_MS: f64 = 1000.0;

/// Distinct traced entries re-decoded by the replay phase.
pub const REPLAY_MAX: usize = 16;
/// Traced requests per connection whose payloads the replay phase
/// re-checksums, re-encodes and re-parses.
pub const WIRE_SAMPLES: usize = 32;
/// Allowed gap between the replayed stage sums and the decoder's own
/// `DecodedImage::timings`, as a share of the latter.
pub const STAGE_SUM_TOLERANCE: f64 = 0.25;
/// Allowed share of the client-measured latency not covered by the
/// client's child spans.
pub const CLIENT_UNCOVERED_TOLERANCE: f64 = 0.01;
