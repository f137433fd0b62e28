//! Persistent decode service: a long-lived worker pool with a bounded
//! submission queue and a two-level LRU cache.
//!
//! The paper's Application-Layer exploration (model versions 2–5) is a
//! fixed pool of decode pipelines fed from a shared queue; the native
//! mirror in [`crate::parallel`] re-creates that pool on every call.
//! [`DecodeService`] keeps it alive instead — the serving shape the
//! ROADMAP's "heavy traffic" north star asks for:
//!
//! * **Worker pool** — a fixed number of persistent threads, each
//!   owning its [`DecodeScratch`] arena across *requests* (not just
//!   tiles), so steady-state serving does no arena re-allocation.
//! * **Bounded queue with explicit backpressure** — [`DecodeService::submit`]
//!   returns [`ServiceError::QueueFull`] instead of blocking
//!   unboundedly; [`DecodeService::submit_wait`] blocks for space up to
//!   a caller deadline.
//! * **Deadlines and cancellation** — per-request deadlines and
//!   cooperative cancellation, both checked at tile granularity, so an
//!   abandoned request stops burning a worker mid-image.
//! * **Two-level LRU cache** keyed by a content hash of the stream —
//!   a polynomial hash over GF(2^61 − 1) under two keys drawn at
//!   random per service, so even crafted streams collide only with
//!   negligible probability: parsed headers (a [`StagedDecoder`]
//!   reused across repeat decodes of the same stream) and full decoded
//!   images, each with its own byte budget and least-recently-used
//!   eviction.
//! * **Inline hits** — an image-cache hit is served inside `submit`,
//!   on the caller's thread, before any job exists: no queue slot, no
//!   worker hand-off, never [`ServiceError::QueueFull`]. A miss takes
//!   the queue, whose worker looks in the cache again.
//! * **One lock, one state machine** — the queue, the flights, both
//!   caches and the books are one core behind one mutex. Its
//!   transitions do no I/O and never wait; hashing, parsing, decoding
//!   and reply sends run outside the lock, and the unit tests explore
//!   the transitions over every interleaving up to a bound.
//! * **Single-flight coalescing** — while a decode for a given
//!   `(stream, kind)` is queued or running, identical submissions
//!   attach to it as followers and share the leader's result
//!   ([`ServedFrom::Coalesced`]) instead of enqueueing duplicate work;
//!   each follower keeps its own deadline and cancellation, and a
//!   departing leader hands the decode to the oldest live follower.
//!
//! Strict, tolerant, quality, and thumbnail decodes all route through
//! the same pool and are bit-exact with the one-shot entry points
//! ([`crate::codec::decode`] and friends) — property-tested in
//! `tests/props.rs`.
//!
//! Every accepted submission resolves: the ticket yields a response,
//! [`ServiceError::DeadlineExceeded`], [`ServiceError::Cancelled`], or
//! a decode error — never silence — and [`ServiceStats::reconciles`]
//! checks the accounting identity after a drain.
//!
//! ```
//! use jpeg2000::codec::{encode, EncodeParams, Mode};
//! use jpeg2000::image::Image;
//! use jpeg2000::service::{DecodeService, Request, ServiceConfig};
//!
//! let img = Image::synthetic_rgb(64, 64, 7);
//! let stream = encode(&img, &EncodeParams::new(Mode::Lossless)).unwrap();
//! let service = DecodeService::new(ServiceConfig::default());
//! let resp = service.decode(&stream[..], Request::strict()).unwrap();
//! assert_eq!(*resp.image, img);
//! let stats = service.shutdown();
//! assert!(stats.reconciles());
//! ```

pub use crate::codec::RequestKind;

use crate::codec::{DecodeReport, StagedDecoder};
use crate::error::CodecError;
use crate::image::Image;
use crate::parallel::resolve_workers;
use crate::scratch::DecodeScratch;
use crate::sim_time;
use osss_sim::lock_unpoisoned;
use osss_sim::probe::{Counter, Gauge, Histogram, MetricsRegistry};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, RandomState};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Best-effort text of a caught panic payload (`&str` and `String`
/// cover everything `panic!` produces in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let text = payload.downcast_ref::<&str>().copied();
    text.or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
        .to_owned()
}

// ---------------------------------------------------------------------------
// Configuration and request types
// ---------------------------------------------------------------------------

/// Configuration for a [`DecodeService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads. `0` selects the machine's available parallelism
    /// (probed once per process, see [`resolve_workers`]).
    pub workers: usize,
    /// Maximum queued (not yet claimed) requests before
    /// [`DecodeService::submit`] reports [`ServiceError::QueueFull`].
    pub queue_capacity: usize,
    /// Byte budget for the parsed-header cache (`0` disables it). An
    /// entry's cost is the codestream length it retains.
    pub header_cache_bytes: usize,
    /// Byte budget for the decoded-image cache (`0` disables it). An
    /// entry's cost is `width * height * components * 4` bytes.
    pub image_cache_bytes: usize,
    /// Observability sink. The service keeps its queue-depth,
    /// wait/service-time, cache and outcome metrics under `service.*`
    /// in this registry (in a private one when `None`), and
    /// [`DecodeService::stats`] reads them back — so one registry backs
    /// one service; give each service its own.
    pub metrics: Option<MetricsRegistry>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            queue_capacity: 64,
            header_cache_bytes: 8 << 20,
            image_cache_bytes: 32 << 20,
            metrics: None,
        }
    }
}

impl RequestKind {
    /// Header-independent normalization. `Quality { max_layers: 0 }`
    /// decodes exactly like `Quality { max_layers: 1 }` (the one-shot
    /// entry point clamps, see [`crate::codec::decode_quality`]), so
    /// the two must share one image-cache entry and one single-flight
    /// group — before this, equivalent requests occupied distinct LRU
    /// entries and defeated both (regression:
    /// `quality_zero_shares_the_quality_one_cache_entry`).
    #[must_use]
    pub fn normalized(self) -> Self {
        match self {
            RequestKind::Quality { max_layers: 0 } => RequestKind::Quality { max_layers: 1 },
            other => other,
        }
    }

    /// Header-aware normalization: clamps the parameter against the
    /// stream's actual layer/level counts, under which the decode is
    /// provably identical — `Quality { n ≥ layers }` keeps every layer
    /// and `Thumbnail { r ≥ levels }` decodes the full image, exactly
    /// like the clamped forms. Applied once the parsed header is
    /// available (at submit time when the header cache already holds
    /// it, and again inside the worker once it must be parsed anyway).
    fn canonical(self, header: &CachedHeader) -> Self {
        let hdr = header.dec.header();
        match self {
            RequestKind::Quality { max_layers } => RequestKind::Quality {
                max_layers: max_layers.clamp(1, (hdr.layers as usize).max(1)),
            },
            RequestKind::Thumbnail { max_res } => RequestKind::Thumbnail {
                max_res: max_res.min(hdr.levels as usize),
            },
            other => other,
        }
    }
}

/// One decode request: the variant plus an optional deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// The decode variant.
    pub kind: RequestKind,
    /// Whole-request deadline, measured from submission. Checked before
    /// an inline cache hit, when the request is claimed (before the
    /// worker's cache lookup) and before each tile; an expired request
    /// resolves to [`ServiceError::DeadlineExceeded`], cached or not. A
    /// timeout past the clock's range sets no deadline.
    pub timeout: Option<Duration>,
}

impl Request {
    /// A `kind` decode with no deadline.
    fn of(kind: RequestKind) -> Self {
        Request {
            kind,
            timeout: None,
        }
    }

    /// A strict decode with no deadline.
    pub fn strict() -> Self {
        Request::of(RequestKind::Strict)
    }

    /// A tolerant decode with no deadline.
    pub fn tolerant() -> Self {
        Request::of(RequestKind::Tolerant)
    }

    /// A quality-progressive decode with no deadline.
    pub fn quality(max_layers: usize) -> Self {
        Request::of(RequestKind::Quality { max_layers })
    }

    /// A thumbnail decode with no deadline.
    pub fn thumbnail(max_res: usize) -> Self {
        Request::of(RequestKind::Thumbnail { max_res })
    }

    /// Sets the request deadline.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }
}

/// How a request failed (or was refused).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServiceError {
    /// The bounded queue was full — backpressure; retry later or use
    /// [`DecodeService::submit_wait`].
    QueueFull,
    /// The request's deadline passed before the decode finished.
    DeadlineExceeded,
    /// The requester cancelled via [`Ticket::cancel`].
    Cancelled,
    /// The service is shutting down and accepts no new work.
    ShuttingDown,
    /// The decode itself failed.
    Decode(CodecError),
    /// The worker panicked while serving this request. The panic was
    /// caught, the worker kept alive, and the request resolved as
    /// failed; the payload is the panic message.
    Panicked(String),
    /// The worker disappeared without replying (a worker panic —
    /// should not happen; reported rather than hanging the caller).
    Lost,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::QueueFull => write!(f, "submission queue full"),
            ServiceError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            ServiceError::Cancelled => write!(f, "request cancelled"),
            ServiceError::ShuttingDown => write!(f, "service shutting down"),
            ServiceError::Decode(e) => write!(f, "decode failed: {e}"),
            ServiceError::Panicked(msg) => write!(f, "worker panicked: {msg}"),
            ServiceError::Lost => write!(f, "worker lost before replying"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Which path produced a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedFrom {
    /// Full parse + decode.
    Cold,
    /// Decoded from a cached parsed header ([`StagedDecoder`] reuse).
    HeaderCache,
    /// Returned a cached decoded image.
    ImageCache,
    /// Attached to an identical in-flight request (single-flight
    /// coalescing) and shared the leader's result — no decode of its
    /// own was ever queued.
    Coalesced,
}

/// A completed decode.
#[derive(Debug, Clone)]
pub struct ServiceResponse {
    /// The decoded image (shared with the image cache when enabled).
    pub image: Arc<Image>,
    /// The tolerant report ([`RequestKind::Tolerant`] only).
    pub report: Option<DecodeReport>,
    /// Which cache level (if any) served the request.
    pub served_from: ServedFrom,
    /// Time spent queued before a worker claimed the request; zero for
    /// an image-cache hit served inline by `submit`.
    pub queue_wait: Duration,
    /// Time the worker spent on the request, or for an inline hit the
    /// submitter's image-cache lookup.
    pub service_time: Duration,
}

/// A pending request: await the result, or cancel it.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Outcome>,
    cancel: Arc<AtomicBool>,
}

impl Ticket {
    /// Blocks until the request resolves.
    ///
    /// # Errors
    ///
    /// Any [`ServiceError`] outcome of the request.
    pub fn wait(self) -> Result<ServiceResponse, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::Lost))
    }

    /// Blocks up to `timeout` for the result; `None` if it is still
    /// pending (the request keeps running — the ticket remains valid).
    ///
    /// # Contract
    ///
    /// `None` says only that the request has not *resolved* yet — it
    /// does not distinguish "still queued" from "decoding right now",
    /// and it never removes the request from the service. A caller
    /// that gives up must say so explicitly: call [`Ticket::cancel`]
    /// (then drop the ticket) and the request resolves
    /// [`ServiceError::Cancelled`] at its next tile boundary — or as
    /// its real outcome, if it won the race. Either way the request
    /// contributes **exactly one** outcome to [`ServiceStats`], alive
    /// ticket or not, so `reconciles()` holds after a drain
    /// (regression: `abandoned_then_cancelled_request_counts_once`).
    /// Simply dropping the ticket without cancelling also keeps the
    /// accounting exact, but the decode runs (and is tallied) to
    /// completion.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<ServiceResponse, ServiceError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Some(r),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServiceError::Lost)),
        }
    }

    /// Requests cooperative cancellation. The decode stops at the next
    /// tile boundary and the ticket resolves to
    /// [`ServiceError::Cancelled`] (or to its result, if it won the
    /// race).
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Content-hash key and LRU cache
// ---------------------------------------------------------------------------

/// Content identity of a codestream: its length plus two keyed
/// polynomial hashes, one per [`StreamHasher`] key. A collision would
/// serve the wrong picture from a cache that returns *images*. Two
/// distinct streams of equal length, `n` chunks of 7 bytes, collide
/// with probability at most `((n − 1) / 2^61)²` over the service's
/// secret keys — about 2^-98 for a 25 KB stream — whether the streams
/// were chosen by accident or by someone searching offline, who sees
/// neither key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct StreamKey {
    len: usize,
    h1: u64,
    h2: u64,
}

/// The Mersenne prime 2^61 − 1, the field of the content hash.
const P61: u64 = (1 << 61) - 1;

/// The content hash behind [`StreamKey`]: Carter & Wegman's polynomial
/// universal hash over GF(2^61 − 1), under two secret keys drawn once
/// per service. The stream is cut into 7-byte little-endian chunks
/// `m₀ … mₙ₋₁` (the last one zero-padded) and each key `k` yields
/// Horner's `h ← h·k + mᵢ (mod 2^61 − 1)`, i.e. `Σ mᵢ·k^(n−1−i)`.
///
/// No `Debug`: the keys must never reach a log, a metric or the wire.
struct StreamHasher {
    /// Two evaluation points in `[1, 2^61 − 1)`.
    keys: [u64; 2],
}

impl StreamHasher {
    /// Draws both keys from the process's [`RandomState`] seed.
    fn random() -> Self {
        let state = RandomState::new();
        StreamHasher {
            keys: [0u64, 1].map(|i| 1 + state.hash_one(i) % (P61 - 1)),
        }
    }

    /// The key of `bytes`: its length and one hash per key.
    fn key(&self, bytes: &[u8]) -> StreamKey {
        let [h1, h2] = self.keys.map(|k| poly_hash(bytes, k));
        StreamKey {
            len: bytes.len(),
            h1,
            h2,
        }
    }
}

/// Horner's `Σ mᵢ·k^(n−1−i)` over the 7-byte chunks of `bytes`, in
/// `[0, 2^61 − 1)`. It runs in eight lanes over `k⁸` (lane `j` takes
/// chunks `j, j + 8, …` of the whole 56-byte blocks), recombined as
/// `lane₀·k⁷ + lane₁·k⁶ + … + lane₇`, then finishes the tail chunks by
/// Horner — the same polynomial, with eight independent multiply chains
/// instead of one. One key per pass keeps the lanes, `k⁸` and the mask
/// in registers.
fn poly_hash(bytes: &[u8], k: u64) -> u64 {
    let k2 = canonical(mul_lazy(k, k));
    let k4 = canonical(mul_lazy(k2, k2));
    let k8 = canonical(mul_lazy(k4, k4));
    let mut lanes = [0u64; 8];
    let (blocks, tail) = bytes.as_chunks::<56>();
    for block in blocks {
        let word = |at: usize| {
            let mut w = [0u8; 8];
            w.copy_from_slice(&block[at..at + 8]);
            u64::from_le_bytes(w)
        };
        // Chunk `j` is bytes `7j..7j + 7`; the last is loaded from byte
        // 48 and shifted down, so no load leaves the block.
        let m: [u64; 8] = std::array::from_fn(|j| {
            if j < 7 {
                word(7 * j) & CHUNK_MASK
            } else {
                word(48) >> 8
            }
        });
        for (l, m) in lanes.iter_mut().zip(m) {
            *l = mul_lazy(*l, k8) + m;
        }
    }
    let h = lanes.iter().fold(0, |h, &l| mul_lazy(h, k) + l);
    canonical(tail.chunks(7).fold(h, |h, c| mul_lazy(h, k) + chunk(c)))
}

/// The low 56 bits: one 7-byte chunk of an 8-byte little-endian load.
const CHUNK_MASK: u64 = (1 << 56) - 1;

/// A chunk of at most 7 bytes, little-endian, zero-padded.
fn chunk(c: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..c.len()].copy_from_slice(c);
    u64::from_le_bytes(w)
}

/// `a·b mod 2^61 − 1`, reduced lazily to `[0, 2^61 + 5)` for
/// `a < 2^63`, `b < 2^61`. A lane stays below `2^62` from step to step
/// (`2^61 + 5` plus a chunk below `2^56`); only the final value is made
/// canonical.
fn mul_lazy(a: u64, b: u64) -> u64 {
    let x = u128::from(a) * u128::from(b);
    // 2^61 ≡ 1, so fold the bits above 61 onto the low ones, twice.
    let s = (x as u64 & P61) + (x >> 61) as u64;
    (s & P61) + (s >> 61)
}

/// The representative in `[0, 2^61 − 1)` of `x < 2^63`.
fn canonical(x: u64) -> u64 {
    let s = (x & P61) + (x >> 61);
    if s >= P61 {
        s - P61
    } else {
        s
    }
}

/// A byte-budgeted LRU map. Small and boring on purpose: an O(n) scan
/// for the eviction victim is fine at cache sizes where n is the number
/// of *distinct streams*, not tiles.
struct LruCache<K, V> {
    map: HashMap<K, LruEntry<V>>,
    budget: usize,
    used: usize,
    tick: u64,
}

struct LruEntry<V> {
    value: V,
    size: usize,
    last_used: u64,
}

impl<K: std::hash::Hash + Eq + Clone, V: Clone> LruCache<K, V> {
    fn new(budget: usize) -> Self {
        LruCache {
            map: HashMap::new(),
            budget,
            used: 0,
            tick: 0,
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let e = self.map.get_mut(key)?;
        e.last_used = self.tick;
        Some(e.value.clone())
    }

    /// Inserts `value`, evicting least-recently-used entries to fit.
    /// Returns the number of evictions. Oversized values (larger than
    /// the whole budget) are not cached at all.
    fn insert(&mut self, key: K, value: V, size: usize) -> u64 {
        if size > self.budget {
            return 0;
        }
        self.tick += 1;
        let mut evicted = 0;
        if let Some(old) = self.map.remove(&key) {
            self.used -= old.size;
        }
        while self.used + size > self.budget {
            let oldest = self.map.iter().min_by_key(|(_, e)| e.last_used);
            let (victim, _) = oldest.expect("`size` fits the budget, so the map is not empty");
            let victim = victim.clone();
            self.used -= self.map.remove(&victim).map_or(0, |e| e.size);
            evicted += 1;
        }
        self.used += size;
        self.map.insert(
            key,
            LruEntry {
                value,
                size,
                last_used: self.tick,
            },
        );
        evicted
    }
}

/// Header-cache value: the parsed decoder plus the parse-stage report
/// (empty unless the parse was tolerant) to seed each decode's report
/// with.
#[derive(Clone)]
struct CachedHeader {
    dec: Arc<StagedDecoder>,
    base_report: DecodeReport,
}

/// An image-cache entry's cost.
fn image_bytes(image: &Image) -> usize {
    image.width * image.height * image.num_components() * std::mem::size_of::<i32>()
}

// ---------------------------------------------------------------------------
// The core: the service's state and its transitions
// ---------------------------------------------------------------------------

/// Identity of a single-flight group: one queued-or-decoding job
/// exists per live key, and every identical submission attaches to it.
/// The kind is normalized (and, when the header is already cached,
/// canonicalized) before keying, so equivalent requests coalesce.
type FlightKey = (StreamKey, RequestKind);

/// How a request resolved, as its ticket receives it.
type Outcome = Result<ServiceResponse, ServiceError>;

/// An outcome and the channel it goes out on.
type Reply = (mpsc::Sender<Outcome>, Outcome);

/// One requester attached to a flight: its ticket plumbing plus its
/// *own* deadline/cancellation. The first waiter is the leader (its
/// submission created the queued job); later ones are coalesced
/// followers. A waiter leaving — expiry, cancellation — never disturbs
/// the decode while any other waiter remains: the oldest survivor is
/// implicitly the new leader.
#[derive(Clone)]
struct Waiter {
    deadline: Option<Instant>,
    cancel: Arc<AtomicBool>,
    reply: mpsc::Sender<Outcome>,
    enqueued: Instant,
    /// True for followers: reported as [`ServedFrom::Coalesced`].
    coalesced: bool,
}

/// A decode. Requester-specific state (deadline, cancel flag, reply
/// channel) lives in the flight's [`Waiter`]s, not here — the job is
/// the *shared* work, the waiters are who's asking for it.
#[derive(Clone)]
struct Job {
    stream: Arc<[u8]>,
    key: StreamKey,
    /// The kind as submitted; once queued, its canonical form — the
    /// second half of the [`FlightKey`].
    kind: RequestKind,
    #[cfg(test)]
    hooks: Hooks,
}

impl Job {
    fn flight_key(&self) -> FlightKey {
        (self.key, self.kind)
    }

    /// The header cache keys a parse by stream and tolerance.
    fn header_key(&self) -> (StreamKey, bool) {
        (self.key, self.kind == RequestKind::Tolerant)
    }
}

/// Test hooks a job carries into the worker.
#[cfg(test)]
#[derive(Clone, Default)]
struct Hooks {
    /// Artificial per-tile work, so deadline/cancel races are
    /// deterministic without huge images.
    tile_delay: Option<Duration>,
    /// Panic inside the worker before this tile index — the injected
    /// failure behind the panic-containment regressions.
    panic_at: Option<usize>,
    /// The worker parks on this gate (open = true) after claiming the
    /// job, so tests can hold a worker busy at will.
    gate: Option<Arc<Gate>>,
}

/// Test gate with two phases: the worker announces *arrival* (so the
/// test knows the job left the queue), then parks until *opened*.
#[cfg(test)]
#[derive(Default)]
struct Gate {
    /// `(arrived, open)`.
    state: Mutex<(bool, bool)>,
    cv: Condvar,
}

#[cfg(test)]
impl Gate {
    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.cv.notify_all();
    }

    /// Worker side: announce arrival, park until opened.
    fn pass(&self) {
        let mut s = self.state.lock().unwrap();
        s.0 = true;
        self.cv.notify_all();
        while !s.1 {
            s = self.cv.wait(s).unwrap();
        }
    }

    /// Test side: wait until a worker has claimed the gated job —
    /// without this, a subsequent submit races the worker for the
    /// queue slot the gated job may still occupy.
    fn await_arrival(&self) {
        let mut s = self.state.lock().unwrap();
        while !s.0 {
            s = self.cv.wait(s).unwrap();
        }
    }
}

/// Point-in-time service accounting, from [`DecodeService::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests accepted: queued as a new flight, or served inline as
    /// an image-cache hit (also counted in `image_hits` and
    /// `completed`).
    pub submitted: u64,
    /// Requests that attached to an identical in-flight submission
    /// (single-flight coalescing) instead of queueing their own job.
    /// They resolve through the same outcome counters as queued
    /// requests, so they appear on the right-hand side of
    /// [`ServiceStats::reconciles`] alongside `submitted`.
    pub coalesced: u64,
    /// Requests that resolved with a response.
    pub completed: u64,
    /// Submissions refused with [`ServiceError::QueueFull`].
    pub rejected: u64,
    /// Requests that resolved [`ServiceError::DeadlineExceeded`].
    pub expired: u64,
    /// Requests that resolved [`ServiceError::Cancelled`].
    pub cancelled: u64,
    /// Requests that resolved with a decode error.
    pub failed: u64,
    /// Header-cache hits.
    pub header_hits: u64,
    /// Header-cache misses.
    pub header_misses: u64,
    /// Header-cache evictions.
    pub header_evictions: u64,
    /// Image-cache hits.
    pub image_hits: u64,
    /// Image-cache misses.
    pub image_misses: u64,
    /// Image-cache evictions.
    pub image_evictions: u64,
    /// High-water mark of the submission queue.
    pub max_queue_depth: u64,
}

impl ServiceStats {
    /// The accounting identity: once the queue is drained, every
    /// accepted submission — queued (`submitted`) or attached to an
    /// in-flight twin (`coalesced`) — resolved exactly one way. (While
    /// requests are still in flight, the left side runs ahead of the
    /// outcomes.)
    pub fn reconciles(&self) -> bool {
        self.submitted + self.coalesced
            == self.completed + self.expired + self.cancelled + self.failed
    }
}

/// The core's books: every outcome, cache and pressure figure is one
/// registry handle, written by a transition and read back by
/// [`DecodeService::stats`]. (Service time is measured by the threaded
/// shell, which owns the clock.)
#[derive(Default)]
struct Meters {
    queue_depth: Gauge,
    singleflight_inflight: Gauge,
    queue_wait: Histogram,
    submitted: Counter,
    coalesced: Counter,
    completed: Counter,
    rejected: Counter,
    expired: Counter,
    cancelled: Counter,
    failed: Counter,
    header_hits: Counter,
    header_misses: Counter,
    header_evictions: Counter,
    image_hits: Counter,
    image_misses: Counter,
    image_evictions: Counter,
}

impl Meters {
    fn new(reg: &MetricsRegistry) -> Self {
        Meters {
            queue_depth: reg.gauge("service.queue.depth"),
            singleflight_inflight: reg.gauge("service.singleflight_inflight"),
            queue_wait: reg.histogram("service.queue_wait"),
            submitted: reg.counter("service.submitted"),
            coalesced: reg.counter("service.coalesced"),
            completed: reg.counter("service.completed"),
            rejected: reg.counter("service.rejected"),
            expired: reg.counter("service.expired"),
            cancelled: reg.counter("service.cancelled"),
            failed: reg.counter("service.failed"),
            header_hits: reg.counter("service.cache.header.hits"),
            header_misses: reg.counter("service.cache.header.misses"),
            header_evictions: reg.counter("service.cache.header.evictions"),
            image_hits: reg.counter("service.cache.image.hits"),
            image_misses: reg.counter("service.cache.image.misses"),
            image_evictions: reg.counter("service.cache.image.evictions"),
        }
    }

    /// Tallies one waiter's error outcome and how long it waited
    /// between submission and `now`; returns its reply.
    fn resolve_err(&self, waiter: &Waiter, err: ServiceError, now: Instant) -> Reply {
        match &err {
            ServiceError::DeadlineExceeded => &self.expired,
            ServiceError::Cancelled => &self.cancelled,
            _ => &self.failed,
        }
        .inc();
        self.queue_wait
            .observe(sim_time(now.saturating_duration_since(waiter.enqueued)));
        (waiter.reply.clone(), Err(err))
    }
}

/// What [`ServiceCore::submit`] did with a submission.
enum Admit {
    /// Served from the image cache: nothing joins the flights or the
    /// queue.
    Hit(ServiceResponse),
    /// Queued as a new flight's leader; a worker must be woken.
    Queued,
    /// Attached to the live flight for its key.
    Attached,
    /// The queue is full, and the caller may wait for space.
    Full,
}

/// Why [`serve`] stopped without a result.
enum Abort {
    /// A real failure (parse/decode error, injected panic) — broadcast
    /// to every remaining waiter as `failed`.
    Error(ServiceError),
    /// The sweep resolved every waiter (deadlines/cancellations); the
    /// decode stops and nothing more is tallied.
    Abandoned,
}

impl From<CodecError> for Abort {
    fn from(e: CodecError) -> Self {
        Abort::Error(ServiceError::Decode(e))
    }
}

/// The service's whole shared state, behind its one lock: the queue,
/// the single-flight map, both caches, the shutdown flag and the books.
/// Like an OSSS shared object (DESIGN §4j) it is passive: each
/// transition is one `&mut self` method that is handed the time, does
/// no I/O and never waits, and the lock runs them one at a time. The
/// threaded shell hashes, parses, decodes, waits on the condvars and
/// sends the replies a transition leaves in `outbox`, all outside the
/// lock; the explorer in the tests drives the same methods through
/// every interleaving up to a bound.
struct ServiceCore {
    queue: VecDeque<Job>,
    capacity: usize,
    /// One group per queued-or-decoding job, holding every requester
    /// awaiting that job's result.
    flights: HashMap<FlightKey, Vec<Waiter>>,
    headers: LruCache<(StreamKey, bool), CachedHeader>,
    /// Decoded images, each held as the response a hit returns.
    images: LruCache<FlightKey, ServiceResponse>,
    /// Set once shutdown begins: no flight is queued after it.
    shutting_down: bool,
    max_queue_depth: usize,
    meters: Meters,
    /// Replies resolved by the last transition, for the shell to send.
    outbox: Vec<Reply>,
}

impl ServiceCore {
    fn new(config: &ServiceConfig, meters: Meters) -> Self {
        ServiceCore {
            queue: VecDeque::new(),
            capacity: config.queue_capacity,
            flights: HashMap::new(),
            headers: LruCache::new(config.header_cache_bytes),
            images: LruCache::new(config.image_cache_bytes),
            shutting_down: false,
            max_queue_depth: 0,
            meters,
            outbox: Vec::new(),
        }
    }

    /// Submit: canonicalizes the kind, then serves an image hit,
    /// attaches to the live flight for the key, queues a new flight, or
    /// refuses. A hit is tallied like a queued request served from the
    /// cache — `submitted`, `image_hits`, `completed` and a zero
    /// queue-wait sample — so it is never refused `QueueFull`. Once
    /// shutdown began, or past its deadline, a submission skips the
    /// image cache: the queue path refuses it, or the worker's
    /// claim-time sweep, which runs before its cache lookup, expires
    /// it. The flights are examined before the queue, so two identical
    /// submissions never both take a slot; a queued job is accounted
    /// for before any worker can see it.
    fn submit(
        &mut self,
        job: &Job,
        waiter: &Waiter,
        now: Instant,
        may_wait: bool,
    ) -> Result<Admit, ServiceError> {
        // The cache/flight identity: the header-independent normalized
        // kind, made canonical when the parsed header is already cached.
        // When it is not, the worker canonicalizes after parsing
        // (`header_ready`): a submission racing that first parse may
        // key a separate flight, which costs a missed coalesce, never a
        // wrong result.
        let kind = match job.kind.normalized() {
            // Only these clamp against the header's layer and level
            // counts. The read neither refreshes the entry's recency nor
            // counts a hit.
            k @ (RequestKind::Quality { .. } | RequestKind::Thumbnail { .. }) => {
                let header = self.headers.map.get(&(job.key, false));
                header.map_or(k, |e| k.canonical(&e.value))
            }
            k => k,
        };
        let fkey = (job.key, kind);
        let m = &self.meters;
        if !self.shutting_down && waiter.deadline.is_none_or(|d| now < d) {
            if let Some(hit) = self.images.get(&fkey) {
                m.submitted.inc();
                m.image_hits.inc();
                m.completed.inc();
                m.queue_wait.observe(sim_time(Duration::ZERO));
                return Ok(Admit::Hit(hit));
            }
        }
        if let Some(group) = self.flights.get_mut(&fkey) {
            group.push(Waiter {
                coalesced: true,
                ..waiter.clone()
            });
            m.coalesced.inc();
            return Ok(Admit::Attached);
        }
        if self.shutting_down {
            return Err(ServiceError::ShuttingDown);
        }
        if self.queue.len() >= self.capacity {
            if may_wait {
                return Ok(Admit::Full);
            }
            m.rejected.inc();
            return Err(ServiceError::QueueFull);
        }
        m.submitted.inc();
        self.flights.insert(fkey, vec![waiter.clone()]);
        self.queue.push_back(Job {
            kind: fkey.1,
            ..job.clone()
        });
        self.gauges();
        Ok(Admit::Queued)
    }

    /// Claim: the oldest queued job, if any.
    fn claim(&mut self) -> Option<Job> {
        let job = self.queue.pop_front()?;
        self.gauges();
        Some(job)
    }

    /// The tile-boundary sweep, run before every tile — the deadline
    /// and cancellation granularity: resolves the flight's expired and
    /// cancelled waiters. Removing the *leader* (the oldest waiter)
    /// while followers remain is the promotion case — the decode keeps
    /// running and the oldest survivor inherits the result. Returns
    /// whether a waiter remains: the sweep that empties the group
    /// removes it, and the decode, with nobody left to deliver to,
    /// stops.
    fn sweep(&mut self, fkey: FlightKey, now: Instant) -> bool {
        // Defensive: the group is created with the job and removed only
        // by the worker that claimed it, so it must still exist.
        let Some(group) = self.flights.get_mut(&fkey) else {
            return false;
        };
        group.retain(|w| {
            let err = if w.cancel.load(Ordering::Relaxed) {
                ServiceError::Cancelled
            } else if w.deadline.is_some_and(|d| now >= d) {
                ServiceError::DeadlineExceeded
            } else {
                return true;
            };
            self.outbox.push(self.meters.resolve_err(w, err, now));
            false
        });
        if !group.is_empty() {
            return true;
        }
        self.flights.remove(&fkey);
        self.gauges();
        false
    }

    /// The worker's first cache step, after its claim-time sweep: the
    /// parsed header, if cached, or `Err` with the decoded image under
    /// the submit-time key — the flight's one image-cache hit.
    fn lookup(&mut self, job: &Job) -> Result<Option<CachedHeader>, ServiceResponse> {
        let m = &self.meters;
        if let Some(hit) = self.images.get(&job.flight_key()) {
            m.image_hits.inc();
            return Err(hit);
        }
        let header = self.headers.get(&job.header_key());
        match header {
            Some(_) => m.header_hits.inc(),
            None => m.header_misses.inc(),
        }
        Ok(header)
    }

    /// The worker's second cache step, with the header in hand: stores
    /// a freshly `parsed` one, then refines the kind to its canonical
    /// form (submit time could not clamp against layer and level counts
    /// it had not seen). A canonical twin already cached is the
    /// flight's one image-cache hit; otherwise this is its one miss,
    /// and the canonical kind is what to decode.
    fn header_ready(
        &mut self,
        job: &Job,
        header: &CachedHeader,
        parsed: bool,
    ) -> Result<RequestKind, ServiceResponse> {
        let m = &self.meters;
        if parsed {
            let bytes = job.stream.len();
            m.header_evictions
                .add(self.headers.insert(job.header_key(), header.clone(), bytes));
        }
        let kind = job.kind.canonical(header);
        if kind != job.kind {
            if let Some(hit) = self.images.get(&(job.key, kind)) {
                m.image_hits.inc();
                return Err(hit);
            }
        }
        m.image_misses.inc();
        Ok(kind)
    }

    /// A parse failure is the flight's one image-cache miss: it reached
    /// the decode path cold.
    fn parse_failed(&mut self) {
        self.meters.image_misses.inc();
    }

    /// Stores a decoded image under its canonical key.
    fn insert_image(&mut self, key: FlightKey, decoded: &ServiceResponse) {
        let hit = ServiceResponse {
            served_from: ServedFrom::ImageCache,
            ..decoded.clone()
        };
        let evicted = self.images.insert(key, hit, image_bytes(&decoded.image));
        self.meters.image_evictions.add(evicted);
    }

    /// Retire: everyone still attached to the flight gets its outcome —
    /// including waiters whose deadline has passed since the last sweep
    /// (the result won the race) and waiters who attached mid-decode.
    /// Removing the group means no submission can attach afterwards.
    ///
    /// Except when the flight was *abandoned*: the sweep already
    /// resolved every waiter and removed the group, and an identical
    /// submission may since have opened a fresh group (with its own
    /// queued job) under the same key. That group belongs to the new
    /// job — removing it here would orphan its waiters.
    fn retire(
        &mut self,
        fkey: FlightKey,
        outcome: Result<ServiceResponse, Abort>,
        started: Instant,
        now: Instant,
    ) {
        let outcome = match outcome {
            Err(Abort::Abandoned) => return,
            Err(Abort::Error(err)) => Err(err),
            Ok(served) => Ok(served),
        };
        let waiters = self.flights.remove(&fkey).unwrap_or_default();
        self.gauges();
        let m = &self.meters;
        let service_time = now - started;
        for w in waiters {
            let reply = match &outcome {
                Ok(response) => {
                    let queue_wait = started.saturating_duration_since(w.enqueued);
                    m.completed.inc();
                    m.queue_wait.observe(sim_time(queue_wait));
                    let coalesced = w.coalesced.then_some(ServedFrom::Coalesced);
                    let served_from = coalesced.unwrap_or(response.served_from);
                    let response = ServiceResponse {
                        served_from,
                        queue_wait,
                        service_time,
                        ..response.clone()
                    };
                    (w.reply, Ok(response))
                }
                Err(err) => m.resolve_err(&w, err.clone(), now),
            };
            self.outbox.push(reply);
        }
    }

    /// Shutdown: no flight is queued from here on; queued ones drain.
    fn shut_down(&mut self) {
        self.shutting_down = true;
    }

    /// Publishes the queue depth and the live flights, and raises the
    /// queue's high-water mark.
    fn gauges(&mut self) {
        let m = &self.meters;
        m.queue_depth.set(self.queue.len() as i64);
        m.singleflight_inflight.set(self.flights.len() as i64);
        self.max_queue_depth = self.max_queue_depth.max(self.queue.len());
    }

    fn stats(&self) -> ServiceStats {
        let m = &self.meters;
        ServiceStats {
            submitted: m.submitted.get(),
            coalesced: m.coalesced.get(),
            completed: m.completed.get(),
            rejected: m.rejected.get(),
            expired: m.expired.get(),
            cancelled: m.cancelled.get(),
            failed: m.failed.get(),
            header_hits: m.header_hits.get(),
            header_misses: m.header_misses.get(),
            header_evictions: m.header_evictions.get(),
            image_hits: m.image_hits.get(),
            image_misses: m.image_misses.get(),
            image_evictions: m.image_evictions.get(),
            max_queue_depth: self.max_queue_depth as u64,
        }
    }
}

// ---------------------------------------------------------------------------
// The threaded shell
// ---------------------------------------------------------------------------

struct Shared {
    core: Mutex<ServiceCore>,
    /// Signalled when work arrives (workers wait here).
    work: Condvar,
    /// Signalled when queue space frees up (`submit_wait` waits here).
    space: Condvar,
    hasher: StreamHasher,
    service_time: Histogram,
}

impl Shared {
    /// Runs one transition under the lock, then sends the replies it
    /// resolved once the lock is released.
    fn step<R>(&self, transition: impl FnOnce(&mut ServiceCore) -> R) -> R {
        let mut core = lock_unpoisoned(&self.core);
        let out = transition(&mut core);
        let replies = std::mem::take(&mut core.outbox);
        drop(core);
        for (reply, outcome) in replies {
            // The requester may have dropped its ticket; that is its
            // problem, the outcome is already recorded.
            let _ = reply.send(outcome);
        }
        out
    }
}

/// A long-lived decode service. See the [module docs](self).
pub struct DecodeService {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl DecodeService {
    /// Starts the worker pool.
    pub fn new(config: ServiceConfig) -> Self {
        let workers = resolve_workers(config.workers);
        let registry = config.metrics.clone().unwrap_or_default();
        let shared = Arc::new(Shared {
            core: Mutex::new(ServiceCore::new(&config, Meters::new(&registry))),
            work: Condvar::new(),
            space: Condvar::new(),
            hasher: StreamHasher::random(),
            service_time: registry.histogram("service.service_time"),
        });
        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("decode-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a decode worker thread")
            })
            .collect();
        DecodeService { shared, workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Submits a request without blocking. An image-cache hit is served
    /// here, on the caller's thread: its ticket has resolved by the
    /// time this returns.
    ///
    /// # Errors
    ///
    /// [`ServiceError::QueueFull`] under backpressure (never for an
    /// image-cache hit), [`ServiceError::ShuttingDown`] after
    /// [`Self::shutdown`] began.
    pub fn submit(
        &self,
        stream: impl Into<Arc<[u8]>>,
        request: Request,
    ) -> Result<Ticket, ServiceError> {
        let job = self.job(stream.into(), request.kind);
        self.admit(&job, request.timeout, None)
    }

    /// Submits a request, blocking up to `space_timeout` for queue
    /// space (a timeout past the clock's range waits for as long as it
    /// takes); an image-cache hit is served at once, as in
    /// [`Self::submit`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::QueueFull`] if no space freed up within
    /// `space_timeout`, [`ServiceError::ShuttingDown`] after
    /// [`Self::shutdown`] began.
    pub fn submit_wait(
        &self,
        stream: impl Into<Arc<[u8]>>,
        request: Request,
        space_timeout: Duration,
    ) -> Result<Ticket, ServiceError> {
        let job = self.job(stream.into(), request.kind);
        self.admit(&job, request.timeout, Some(space_timeout))
    }

    /// Convenience: [`Self::submit`] + [`Ticket::wait`].
    ///
    /// # Errors
    ///
    /// Any [`ServiceError`].
    pub fn decode(
        &self,
        stream: impl Into<Arc<[u8]>>,
        request: Request,
    ) -> Result<ServiceResponse, ServiceError> {
        self.submit(stream, request)?.wait()
    }

    /// A job for `stream`, keyed by its content hash, which is computed
    /// here, before any lock is taken.
    fn job(&self, stream: Arc<[u8]>, kind: RequestKind) -> Job {
        Job {
            key: self.shared.hasher.key(&stream),
            stream,
            kind,
            #[cfg(test)]
            hooks: Hooks::default(),
        }
    }

    /// Runs the submit transition for `job`, waiting for queue space
    /// while `space_timeout` allows (`None`: not at all), and sends an
    /// image hit down the new ticket.
    fn admit(
        &self,
        job: &Job,
        timeout: Option<Duration>,
        space_timeout: Option<Duration>,
    ) -> Result<Ticket, ServiceError> {
        let shared = &*self.shared;
        let mut now = Instant::now();
        // A duration past the clock's range sets no deadline.
        let wait_until = space_timeout.and_then(|t| now.checked_add(t));
        let (reply, rx) = mpsc::channel();
        let cancel = Arc::new(AtomicBool::new(false));
        let waiter = Waiter {
            deadline: timeout.and_then(|t| now.checked_add(t)),
            cancel: Arc::clone(&cancel),
            reply,
            enqueued: now,
            coalesced: false,
        };
        let mut core = lock_unpoisoned(&shared.core);
        loop {
            let may_wait = space_timeout.is_some() && wait_until.is_none_or(|d| now < d);
            match core.submit(job, &waiter, now, may_wait)? {
                Admit::Hit(hit) => {
                    drop(core);
                    let service_time = now.elapsed();
                    shared.service_time.observe(sim_time(service_time));
                    // The receiver is alive, so the send cannot fail.
                    let _ = waiter.reply.send(Ok(ServiceResponse {
                        service_time,
                        ..hit
                    }));
                }
                Admit::Queued => {
                    drop(core);
                    shared.work.notify_one();
                }
                Admit::Attached => {}
                // The wait releases the lock, and the next submit looks
                // at the flights again: one for this key may have
                // appeared, letting the submission attach instead.
                Admit::Full => {
                    let left = wait_until.map_or(Duration::MAX, |d| d - now);
                    let waited = shared.space.wait_timeout(core, left);
                    core = waited.unwrap_or_else(PoisonError::into_inner).0;
                    now = Instant::now();
                    continue;
                }
            }
            return Ok(Ticket { rx, cancel });
        }
    }

    /// A snapshot of the outcome and cache tallies.
    pub fn stats(&self) -> ServiceStats {
        lock_unpoisoned(&self.shared.core).stats()
    }

    /// Entries currently held by the (header, image) caches.
    pub fn cache_entries(&self) -> (usize, usize) {
        let core = lock_unpoisoned(&self.shared.core);
        (core.headers.map.len(), core.images.map.len())
    }

    /// Graceful shutdown: stops accepting work, lets the workers drain
    /// every already-queued request (each still resolves its ticket),
    /// joins them, and returns the final stats.
    pub fn shutdown(mut self) -> ServiceStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        self.begin_shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    fn begin_shutdown(&self) {
        self.shared.step(ServiceCore::shut_down);
        self.shared.work.notify_all();
        self.shared.space.notify_all();
    }
}

impl Drop for DecodeService {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(shared: &Shared) {
    // The arena lives for the thread's whole life — the point of a
    // *persistent* pool: steady-state requests re-use these buffers.
    let mut scratch = DecodeScratch::new();
    loop {
        // The claim's guard: work is queued, or shutdown began and the
        // worker exits once the queue is drained.
        let core = lock_unpoisoned(&shared.core);
        let mut core = shared
            .work
            .wait_while(core, |c| c.queue.is_empty() && !c.shutting_down)
            .unwrap_or_else(PoisonError::into_inner);
        let Some(job) = core.claim() else {
            return;
        };
        drop(core);
        shared.space.notify_one();
        #[cfg(test)]
        if let Some(gate) = &job.hooks.gate {
            gate.pass();
        }
        let started = Instant::now();
        // A panicking decode (or test hook) must not kill the worker:
        // the pool would silently shrink, the tickets would resolve
        // `Lost` only because the channel closed, and the identity
        // behind `ServiceStats::reconciles` would break. Catch the
        // unwind, resolve the flight as failed, keep serving.
        let outcome = catch_unwind(AssertUnwindSafe(|| serve(shared, &job, &mut scratch)))
            .unwrap_or_else(|payload| {
                // The arena may have been mid-rewrite when the stack
                // unwound; a fresh one is cheap and provably clean.
                scratch = DecodeScratch::new();
                Err(Abort::Error(ServiceError::Panicked(panic_message(
                    payload.as_ref(),
                ))))
            });
        let now = Instant::now();
        shared.service_time.observe(sim_time(now - started));
        shared.step(|core| core.retire(job.flight_key(), outcome, started, now));
    }
}

/// A decode's response, its queue wait and service time still zero.
fn serve(
    shared: &Shared,
    job: &Job,
    scratch: &mut DecodeScratch,
) -> Result<ServiceResponse, Abort> {
    let check = |_tile: usize| -> Result<(), Abort> {
        if !shared.step(|core| core.sweep(job.flight_key(), Instant::now())) {
            return Err(Abort::Abandoned);
        }
        #[cfg(test)]
        if job.hooks.panic_at.is_some_and(|at| _tile >= at) {
            panic!("injected worker panic before tile {_tile}");
        }
        #[cfg(test)]
        if let Some(d) = job.hooks.tile_delay {
            std::thread::sleep(d);
        }
        Ok(())
    };
    check(0)?;
    let (header, served_from) = match shared.step(|core| core.lookup(job)) {
        Err(hit) => return Ok(hit),
        Ok(Some(header)) => (header, ServedFrom::HeaderCache),
        Ok(None) => match StagedDecoder::open(&job.stream, job.kind) {
            Ok((dec, base_report)) => {
                let dec = Arc::new(dec);
                (CachedHeader { dec, base_report }, ServedFrom::Cold)
            }
            Err(e) => {
                shared.step(ServiceCore::parse_failed);
                return Err(e.into());
            }
        },
    };
    let parsed = served_from == ServedFrom::Cold;
    let kind = match shared.step(|core| core.header_ready(job, &header, parsed)) {
        Ok(kind) => kind,
        Err(hit) => return Ok(hit),
    };

    // The decode proper: the one-shot entry points' tile loop, with the
    // deadline/cancellation sweep as its per-tile gate, so service
    // results are bit-exact with them by construction.
    let mut report = header.base_report.clone();
    let out = header
        .dec
        .decode_tiles(kind, scratch, &mut report, &check)?;
    let decoded = ServiceResponse {
        image: Arc::new(out.image),
        report: job.header_key().1.then_some(report),
        served_from,
        queue_wait: Duration::ZERO,
        service_time: Duration::ZERO,
    };
    shared.step(|core| core.insert_image((job.key, kind), &decoded));
    Ok(decoded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{
        decode, decode_quality, decode_thumbnail, decode_tolerant, encode, EncodeParams, Mode,
    };

    fn stream(seed: u64) -> Vec<u8> {
        let img = Image::synthetic_rgb(64, 64, seed);
        encode(&img, &EncodeParams::new(Mode::Lossless).tile_size(32, 32)).unwrap()
    }

    fn service(cfg: ServiceConfig) -> DecodeService {
        DecodeService::new(cfg)
    }

    fn small_cfg() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        }
    }

    /// Opens the gate when dropped, so a failing assertion between
    /// gating and opening cannot leave a worker parked forever (the
    /// service's `Drop` joins its workers). Declare *after* the
    /// service so it drops first during unwinding.
    struct AutoOpen(Arc<Gate>);

    impl Drop for AutoOpen {
        fn drop(&mut self) {
            self.0.open();
        }
    }

    /// Submits a job with test hooks attached.
    fn submit_hooked(
        svc: &DecodeService,
        bytes: &[u8],
        request: Request,
        tile_delay: Option<Duration>,
        gate: Option<Arc<Gate>>,
    ) -> Result<Ticket, ServiceError> {
        submit_hooked_panicking(svc, bytes, request, tile_delay, gate, None)
    }

    fn submit_hooked_panicking(
        svc: &DecodeService,
        bytes: &[u8],
        request: Request,
        tile_delay: Option<Duration>,
        gate: Option<Arc<Gate>>,
        panic_at: Option<usize>,
    ) -> Result<Ticket, ServiceError> {
        let mut job = svc.job(bytes.into(), request.kind);
        job.hooks = Hooks {
            tile_delay,
            panic_at,
            gate,
        };
        svc.admit(&job, request.timeout, None)
    }

    #[test]
    fn all_kinds_bit_exact_vs_one_shot() {
        let bytes = stream(1);
        let svc = service(small_cfg());
        let strict = svc.decode(&bytes[..], Request::strict()).unwrap();
        assert_eq!(*strict.image, decode(&bytes).unwrap().image);
        assert_eq!(strict.served_from, ServedFrom::Cold);

        let tol = svc.decode(&bytes[..], Request::tolerant()).unwrap();
        let (ref_img, ref_report) = decode_tolerant(&bytes).unwrap();
        assert_eq!(*tol.image, ref_img);
        assert_eq!(tol.report.unwrap(), ref_report);

        let q = svc.decode(&bytes[..], Request::quality(1)).unwrap();
        assert_eq!(*q.image, decode_quality(&bytes, 1).unwrap());

        let th = svc.decode(&bytes[..], Request::thumbnail(0)).unwrap();
        assert_eq!(*th.image, decode_thumbnail(&bytes, 0).unwrap());

        let stats = svc.shutdown();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.completed, 4);
        assert!(stats.reconciles());
    }

    #[test]
    fn repeat_requests_climb_the_cache_levels() {
        let bytes = stream(2);
        let svc = service(small_cfg());
        let first = svc.decode(&bytes[..], Request::strict()).unwrap();
        assert_eq!(first.served_from, ServedFrom::Cold);
        let second = svc.decode(&bytes[..], Request::strict()).unwrap();
        assert_eq!(second.served_from, ServedFrom::ImageCache);
        assert_eq!(second.image, first.image, "cache returns the same pixels");
        // A different kind misses the image cache but reuses the header.
        let q = svc.decode(&bytes[..], Request::quality(9)).unwrap();
        assert_eq!(q.served_from, ServedFrom::HeaderCache);
        let stats = svc.shutdown();
        assert_eq!(stats.image_hits, 1);
        assert_eq!(stats.image_misses, 2);
        assert_eq!(stats.header_hits, 1);
        assert_eq!(stats.header_misses, 1);
    }

    #[test]
    fn tolerant_served_from_cache_keeps_its_report() {
        let mut bytes = stream(3);
        let n = bytes.len();
        bytes[n / 2] ^= 0xa5; // damage somewhere in the tile data
        let svc = service(small_cfg());
        let Ok(cold) = svc.decode(&bytes[..], Request::tolerant()) else {
            // The flip may have hit the main header — pick different
            // damage rather than asserting on an unlucky byte.
            return;
        };
        let cached = svc.decode(&bytes[..], Request::tolerant()).unwrap();
        assert_eq!(cached.served_from, ServedFrom::ImageCache);
        assert_eq!(cached.report, cold.report);
        assert_eq!(cached.image, cold.image);
    }

    #[test]
    fn image_cache_evicts_under_a_tight_byte_budget() {
        let a = stream(10);
        let b = stream(11);
        // Budget fits exactly one 64×64×3 image.
        let one_image = 64 * 64 * 3 * 4;
        let svc = service(ServiceConfig {
            workers: 1,
            image_cache_bytes: one_image,
            ..ServiceConfig::default()
        });
        svc.decode(&a[..], Request::strict()).unwrap();
        svc.decode(&b[..], Request::strict()).unwrap(); // evicts a
        assert_eq!(svc.cache_entries().1, 1);
        let again = svc.decode(&a[..], Request::strict()).unwrap();
        assert_ne!(again.served_from, ServedFrom::ImageCache);
        let stats = svc.shutdown();
        assert_eq!(stats.image_evictions, 2, "b evicted a, then a evicted b");
        assert_eq!(stats.image_hits, 0);
    }

    #[test]
    fn zero_budget_disables_a_cache_level() {
        let bytes = stream(12);
        let svc = service(ServiceConfig {
            workers: 1,
            header_cache_bytes: 0,
            image_cache_bytes: 0,
            ..ServiceConfig::default()
        });
        for _ in 0..2 {
            let r = svc.decode(&bytes[..], Request::strict()).unwrap();
            assert_eq!(r.served_from, ServedFrom::Cold);
        }
        assert_eq!(svc.cache_entries(), (0, 0));
        let stats = svc.shutdown();
        assert_eq!(stats.image_hits + stats.header_hits, 0);
    }

    #[test]
    fn queue_full_is_reported_and_tallied() {
        // Distinct streams throughout: identical ones would coalesce
        // into the held flight instead of contending for the queue.
        let streams: Vec<Vec<u8>> = (130..134).map(stream).collect();
        let svc = service(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        });
        // Hold the single worker busy, then fill the 1-slot queue.
        let gate = Arc::new(Gate::default());
        let _guard = AutoOpen(Arc::clone(&gate));
        let held = submit_hooked(
            &svc,
            &streams[0],
            Request::strict(),
            None,
            Some(Arc::clone(&gate)),
        )
        .unwrap();
        gate.await_arrival();
        let queued = svc.submit(&streams[1][..], Request::strict()).unwrap();
        let full = svc.submit(&streams[2][..], Request::strict());
        assert_eq!(full.unwrap_err(), ServiceError::QueueFull);
        let timed = svc.submit_wait(
            &streams[3][..],
            Request::strict(),
            Duration::from_millis(10),
        );
        assert_eq!(timed.unwrap_err(), ServiceError::QueueFull);
        gate.open();
        held.wait().unwrap();
        queued.wait().unwrap();
        let stats = svc.shutdown();
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.coalesced, 0);
        assert_eq!(stats.completed, 2);
        assert!(stats.reconciles());
        assert_eq!(stats.max_queue_depth, 1);
    }

    #[test]
    fn submit_wait_gets_a_slot_when_space_frees() {
        // Distinct streams: identical ones would coalesce, not queue.
        let streams: Vec<Vec<u8>> = (140..143).map(stream).collect();
        let svc = service(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        });
        let gate = Arc::new(Gate::default());
        let _guard = AutoOpen(Arc::clone(&gate));
        let held = submit_hooked(
            &svc,
            &streams[0],
            Request::strict(),
            None,
            Some(Arc::clone(&gate)),
        )
        .unwrap();
        gate.await_arrival();
        let queued = svc.submit(&streams[1][..], Request::strict()).unwrap();
        // Waits for the worker to claim `queued`, freeing the slot.
        let opener = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                gate.open();
            })
        };
        let waited = svc
            .submit_wait(&streams[2][..], Request::strict(), Duration::from_secs(30))
            .unwrap();
        held.wait().unwrap();
        queued.wait().unwrap();
        waited.wait().unwrap();
        opener.join().unwrap();
        let stats = svc.shutdown();
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.submitted, 3);
        assert!(stats.reconciles());
    }

    #[test]
    fn deadline_expires_while_queued() {
        // A distinct stream so `doomed` genuinely waits in the queue
        // (the same stream would attach to the held flight instead).
        let held_bytes = stream(15);
        let doomed_bytes = stream(150);
        let svc = service(ServiceConfig {
            workers: 1,
            image_cache_bytes: 0,
            ..ServiceConfig::default()
        });
        let gate = Arc::new(Gate::default());
        let _guard = AutoOpen(Arc::clone(&gate));
        let held = submit_hooked(
            &svc,
            &held_bytes,
            Request::strict(),
            None,
            Some(Arc::clone(&gate)),
        )
        .unwrap();
        gate.await_arrival();
        let doomed = svc
            .submit(
                &doomed_bytes[..],
                Request::strict().with_timeout(Duration::from_millis(1)),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(10));
        gate.open();
        held.wait().unwrap();
        assert_eq!(doomed.wait().unwrap_err(), ServiceError::DeadlineExceeded);
        let stats = svc.shutdown();
        assert_eq!(stats.expired, 1);
        assert!(stats.reconciles());
    }

    #[test]
    fn deadline_expires_mid_decode() {
        let bytes = stream(16);
        let svc = service(ServiceConfig {
            workers: 1,
            image_cache_bytes: 0,
            ..ServiceConfig::default()
        });
        // 4 tiles × 10 ms against a 5 ms deadline: expires on a tile
        // boundary, after the decode has started.
        let ticket = submit_hooked(
            &svc,
            &bytes,
            Request::strict().with_timeout(Duration::from_millis(5)),
            Some(Duration::from_millis(10)),
            None,
        )
        .unwrap();
        assert_eq!(ticket.wait().unwrap_err(), ServiceError::DeadlineExceeded);
        let stats = svc.shutdown();
        assert_eq!(stats.expired, 1);
        assert!(stats.reconciles());
    }

    #[test]
    fn cancellation_stops_a_running_decode() {
        let bytes = stream(17);
        let svc = service(ServiceConfig {
            workers: 1,
            image_cache_bytes: 0,
            ..ServiceConfig::default()
        });
        let ticket = submit_hooked(
            &svc,
            &bytes,
            Request::strict(),
            Some(Duration::from_millis(10)),
            None,
        )
        .unwrap();
        ticket.cancel();
        assert_eq!(ticket.wait().unwrap_err(), ServiceError::Cancelled);
        let stats = svc.shutdown();
        assert_eq!(stats.cancelled, 1);
        assert!(stats.reconciles());
    }

    #[test]
    fn decode_errors_surface_through_the_ticket() {
        let svc = service(small_cfg());
        let garbage = b"definitely not a codestream".to_vec();
        let err = svc.decode(&garbage[..], Request::strict()).unwrap_err();
        assert!(matches!(err, ServiceError::Decode(_)), "{err}");
        let stats = svc.shutdown();
        assert_eq!(stats.failed, 1);
        assert!(stats.reconciles());
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        // Distinct streams so four jobs genuinely sit in the queue at
        // shutdown (identical ones would coalesce into one flight).
        let held_bytes = stream(18);
        let queued_bytes: Vec<Vec<u8>> = (180..184).map(stream).collect();
        let svc = service(ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            ..ServiceConfig::default()
        });
        let gate = Arc::new(Gate::default());
        let _guard = AutoOpen(Arc::clone(&gate));
        let held = submit_hooked(
            &svc,
            &held_bytes,
            Request::strict(),
            None,
            Some(Arc::clone(&gate)),
        )
        .unwrap();
        gate.await_arrival();
        let tickets: Vec<Ticket> = queued_bytes
            .iter()
            .map(|b| svc.submit(&b[..], Request::strict()).unwrap())
            .collect();
        gate.open();
        let stats = svc.shutdown();
        // Every queued request still resolved with a real result.
        for t in tickets {
            t.wait().unwrap();
        }
        held.wait().unwrap();
        assert_eq!(stats.submitted, 5);
        assert_eq!(stats.completed, 5);
        assert!(stats.reconciles());
    }

    #[test]
    fn submissions_after_shutdown_are_refused() {
        let bytes = stream(19);
        let cached = stream(190);
        let svc = service(small_cfg());
        svc.decode(&cached[..], Request::strict()).unwrap();
        svc.begin_shutdown();
        // A cached stream is refused too: the inline-hit path reads the
        // shutdown flag before the cache.
        for b in [&bytes, &cached] {
            let err = svc.submit(&b[..], Request::strict()).unwrap_err();
            assert_eq!(err, ServiceError::ShuttingDown);
        }
        let stats = svc.shutdown();
        assert_eq!(stats.submitted, 1);
        assert!(stats.reconciles());
    }

    /// Regression: an image-cache hit used to queue a job only for a
    /// worker to read the map, so with the only worker busy and the
    /// queue full a cached stream was refused `QueueFull`. It is now
    /// served on the caller's thread.
    #[test]
    fn cached_streams_are_served_past_a_full_queue() {
        let streams: Vec<Vec<u8>> = (60..63).map(stream).collect();
        let svc = service(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        });
        let cold = svc.decode(&streams[0][..], Request::strict()).unwrap();
        let gate = Arc::new(Gate::default());
        let _guard = AutoOpen(Arc::clone(&gate));
        let held = submit_hooked(
            &svc,
            &streams[1],
            Request::strict(),
            None,
            Some(Arc::clone(&gate)),
        )
        .unwrap();
        gate.await_arrival();
        let queued = svc.submit(&streams[2][..], Request::strict()).unwrap();
        let before = svc.stats();
        let hit = svc
            .submit(&streams[0][..], Request::strict())
            .expect("a hit needs no queue slot")
            .wait()
            .unwrap();
        assert_eq!(hit.served_from, ServedFrom::ImageCache);
        assert_eq!(hit.queue_wait, Duration::ZERO);
        assert!(Arc::ptr_eq(&hit.image, &cold.image));
        let after = svc.stats();
        assert_eq!(after.rejected, before.rejected);
        assert_eq!(after.submitted, before.submitted + 1);
        assert_eq!(after.image_hits, before.image_hits + 1);
        assert_eq!(after.completed, before.completed + 1);
        gate.open();
        held.wait().unwrap();
        queued.wait().unwrap();
        let stats = svc.shutdown();
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.max_queue_depth, 1);
        assert!(stats.reconciles());
    }

    /// The claim-time deadline check runs before the cache lookup, and
    /// so does the inline one: a cached stream is no exception.
    #[test]
    fn a_cached_stream_past_its_deadline_expires() {
        let bytes = stream(64);
        let svc = service(small_cfg());
        svc.decode(&bytes[..], Request::strict()).unwrap();
        let late = svc
            .submit(&bytes[..], Request::strict().with_timeout(Duration::ZERO))
            .unwrap();
        assert_eq!(late.wait().unwrap_err(), ServiceError::DeadlineExceeded);
        let stats = svc.shutdown();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.image_hits, 0);
        assert!(stats.reconciles());
    }

    #[test]
    fn concurrent_clients_over_distinct_streams() {
        let streams: Vec<Vec<u8>> = (30..34).map(stream).collect();
        let svc = service(ServiceConfig {
            workers: 3,
            ..ServiceConfig::default()
        });
        std::thread::scope(|scope| {
            for bytes in &streams {
                for _ in 0..3 {
                    scope.spawn(|| {
                        let r = svc.decode(&bytes[..], Request::strict()).unwrap();
                        assert_eq!(*r.image, decode(bytes).unwrap().image);
                    });
                }
            }
        });
        let stats = svc.shutdown();
        // Concurrent identical requests may coalesce, so only the sum
        // of queued and attached submissions is exact.
        assert_eq!(stats.submitted + stats.coalesced, 12);
        assert_eq!(stats.completed, 12);
        assert!(stats.submitted >= 4, "one leader per distinct stream");
        assert!(stats.reconciles());
        // Every queued job does exactly one image-cache lookup; each
        // distinct stream misses at least once (races may decode a
        // stream twice before its first insert lands, so only bound it).
        assert!(stats.image_misses >= 4);
        assert_eq!(stats.image_hits + stats.image_misses, stats.submitted);
    }

    #[test]
    fn metrics_registry_reconciles_with_stats() {
        let bytes = stream(20);
        let reg = MetricsRegistry::new();
        let svc = service(ServiceConfig {
            workers: 1,
            metrics: Some(reg.clone()),
            ..ServiceConfig::default()
        });
        svc.decode(&bytes[..], Request::strict()).unwrap();
        svc.decode(&bytes[..], Request::strict()).unwrap();
        let stats = svc.shutdown();
        let snap = reg.snapshot();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or_default();
        assert_eq!(counter("service.submitted"), stats.submitted);
        assert_eq!(counter("service.completed"), stats.completed);
        assert_eq!(counter("service.cache.image.hits"), stats.image_hits);
        assert_eq!(counter("service.cache.image.misses"), stats.image_misses);
        let wait_samples = snap
            .histograms
            .get("service.queue_wait")
            .map(|h| h.count())
            .unwrap_or_default();
        assert_eq!(wait_samples, stats.submitted);
    }

    #[test]
    fn stream_key_separates_contents_and_lengths() {
        let hasher = StreamHasher::random();
        let key = |bytes: &[u8]| hasher.key(bytes);
        let a = key(b"abc");
        assert_eq!(a, key(b"abc"));
        assert_ne!(a, key(b"abd"));
        assert_ne!(a, key(b"abcc"));
        assert_ne!(key(b""), key(b"\0"));
    }

    /// One-lane Horner over GF(2^61 − 1), reduced with `%` at every
    /// step: the definition the eight-lane, lazily reduced hash must
    /// equal.
    fn horner(bytes: &[u8], k: u64) -> u64 {
        bytes.chunks(7).fold(0, |h, c| {
            let x = u128::from(h) * u128::from(k) + u128::from(chunk(c));
            (x % u128::from(P61)) as u64
        })
    }

    #[test]
    fn eight_lane_hash_equals_horner_at_every_length() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let noise: Vec<u8> = (0..25_300)
            .map(|_| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng as u8
            })
            .collect();
        let ones = vec![0xFF; 25_300];
        // Random keys, and the extremes, where a lazy bound that does
        // not hold would overflow first.
        let hashers = [StreamHasher::random(), StreamHasher { keys: [P61 - 1, 1] }];
        for hasher in &hashers {
            assert!(hasher.keys.iter().all(|&k| (1..P61).contains(&k)));
            for source in [&noise, &ones] {
                for len in (0..=1024).chain([25_300]) {
                    let bytes = &source[..len];
                    let [k1, k2] = hasher.keys;
                    assert_eq!(
                        hasher.key(bytes),
                        StreamKey {
                            len,
                            h1: horner(bytes, k1),
                            h2: horner(bytes, k2),
                        },
                        "length {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn worker_panic_resolves_the_ticket_and_keeps_the_worker_alive() {
        let bytes = stream(40);
        let svc = service(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        // The injected panic fires inside the (single) worker, before
        // tile 0. Without the unwind catch the worker thread dies: this
        // wait would report `Lost`, and the follow-up decode would hang
        // forever in an empty pool.
        let doomed =
            submit_hooked_panicking(&svc, &bytes, Request::strict(), None, None, Some(0)).unwrap();
        match doomed.wait().unwrap_err() {
            ServiceError::Panicked(msg) => assert!(msg.contains("injected worker panic"), "{msg}"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        // Same worker, next request: still serving, bit-exact.
        let ok = svc.decode(&bytes[..], Request::strict()).unwrap();
        assert_eq!(*ok.image, decode(&bytes).unwrap().image);
        // A panic mid-decode resolves as failed, once.
        let stats = svc.shutdown();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
        assert!(stats.reconciles());
    }

    #[test]
    fn worker_panic_mid_decode_still_reconciles() {
        let bytes = stream(41);
        let svc = service(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        // Panic after the first tile (the stream has 4): the arena is
        // mid-request when the stack unwinds.
        let doomed =
            submit_hooked_panicking(&svc, &bytes, Request::strict(), None, None, Some(2)).unwrap();
        assert!(matches!(
            doomed.wait().unwrap_err(),
            ServiceError::Panicked(_)
        ));
        for _ in 0..3 {
            let ok = svc.decode(&bytes[..], Request::strict()).unwrap();
            assert_eq!(*ok.image, decode(&bytes).unwrap().image);
        }
        let stats = svc.shutdown();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 3);
        assert!(stats.reconciles());
    }

    #[test]
    fn service_survives_a_poisoned_lock() {
        let bytes = stream(42);
        let svc = service(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        svc.decode(&bytes[..], Request::strict()).unwrap();
        // Poison the service's one lock the way a stray panic would:
        // lock, panic, unwind. Before the recovery fix, every later
        // submit/stats/shutdown panicked on `.expect("service queue
        // lock")`.
        let shared = Arc::clone(&svc.shared);
        std::thread::spawn(move || {
            let _core = shared.core.lock().unwrap();
            panic!("deliberate poisoning");
        })
        .join()
        .unwrap_err();
        assert!(svc.shared.core.is_poisoned(), "the panic must poison");
        // The service shrugs: submissions, cache reads, stats and the
        // graceful shutdown all still work.
        let r = svc.decode(&bytes[..], Request::strict()).unwrap();
        assert_eq!(r.served_from, ServedFrom::ImageCache);
        assert_eq!(svc.cache_entries().1, 1);
        let stats = svc.shutdown();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
        assert!(stats.reconciles());
    }

    #[test]
    fn abandoned_then_cancelled_request_counts_once() {
        let bytes = stream(43);
        let svc = service(ServiceConfig {
            workers: 1,
            image_cache_bytes: 0,
            ..ServiceConfig::default()
        });
        // 4 tiles × 60 ms: wait_timeout(10 ms) fires mid-tile-0, the
        // cancel lands long before the tile-1 check.
        let ticket = submit_hooked(
            &svc,
            &bytes,
            Request::strict(),
            Some(Duration::from_millis(60)),
            None,
        )
        .unwrap();
        assert!(
            ticket.wait_timeout(Duration::from_millis(10)).is_none(),
            "request must still be running at the timeout"
        );
        // The documented abandonment protocol: cancel, then drop.
        ticket.cancel();
        drop(ticket);
        // Shutdown drains the request; it must be tallied exactly once,
        // as cancelled, despite nobody waiting on it.
        let stats = svc.shutdown();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.completed, 0);
        assert!(stats.reconciles());
    }

    #[test]
    fn coalesced_followers_share_one_decode() {
        let filler = stream(50);
        let hot = stream(51);
        let svc = service(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        // Park the only worker on a filler stream; the hot leader then
        // sits in the queue, so followers deterministically attach.
        let gate = Arc::new(Gate::default());
        let _guard = AutoOpen(Arc::clone(&gate));
        let parked = submit_hooked(
            &svc,
            &filler,
            Request::strict(),
            None,
            Some(Arc::clone(&gate)),
        )
        .unwrap();
        gate.await_arrival();
        let leader = svc.submit(&hot[..], Request::strict()).unwrap();
        let followers: Vec<Ticket> = (0..3)
            .map(|_| svc.submit(&hot[..], Request::strict()).unwrap())
            .collect();
        gate.open();
        parked.wait().unwrap();
        let led = leader.wait().unwrap();
        assert_eq!(led.served_from, ServedFrom::Cold);
        assert_eq!(*led.image, decode(&hot).unwrap().image);
        for f in followers {
            let resp = f.wait().unwrap();
            assert_eq!(resp.served_from, ServedFrom::Coalesced);
            assert!(
                Arc::ptr_eq(&resp.image, &led.image),
                "followers share the leader's allocation, not a copy"
            );
        }
        let stats = svc.shutdown();
        assert_eq!(stats.submitted, 2, "filler + one hot leader");
        assert_eq!(stats.coalesced, 3);
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.image_misses, 2, "exactly one decode per stream");
        assert!(stats.reconciles());
    }

    #[test]
    fn follower_deadline_expiry_never_disturbs_the_leader() {
        let bytes = stream(52);
        let svc = service(ServiceConfig {
            workers: 1,
            image_cache_bytes: 0,
            ..ServiceConfig::default()
        });
        // 4 tiles × 20 ms of injected work: the follower's 5 ms
        // deadline expires at a tile boundary mid-decode, long before
        // the leader finishes.
        let leader = submit_hooked(
            &svc,
            &bytes,
            Request::strict(),
            Some(Duration::from_millis(20)),
            None,
        )
        .unwrap();
        let follower = svc
            .submit(
                &bytes[..],
                Request::strict().with_timeout(Duration::from_millis(5)),
            )
            .unwrap();
        assert_eq!(follower.wait().unwrap_err(), ServiceError::DeadlineExceeded);
        let led = leader.wait().unwrap();
        assert_eq!(*led.image, decode(&bytes).unwrap().image);
        let stats = svc.shutdown();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.coalesced, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.image_misses, 1, "the expiry never re-queued work");
        assert!(stats.reconciles());
    }

    #[test]
    fn cancelled_leader_promotes_the_oldest_follower() {
        let bytes = stream(53);
        let svc = service(ServiceConfig {
            workers: 1,
            image_cache_bytes: 0,
            ..ServiceConfig::default()
        });
        let leader = submit_hooked(
            &svc,
            &bytes,
            Request::strict(),
            Some(Duration::from_millis(20)),
            None,
        )
        .unwrap();
        let follower = svc.submit(&bytes[..], Request::strict()).unwrap();
        leader.cancel();
        assert_eq!(leader.wait().unwrap_err(), ServiceError::Cancelled);
        // The decode survives its leader: the follower inherits it and
        // still gets the exact image — without a second decode.
        let resp = follower.wait().unwrap();
        assert_eq!(resp.served_from, ServedFrom::Coalesced);
        assert_eq!(*resp.image, decode(&bytes).unwrap().image);
        let stats = svc.shutdown();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.coalesced, 1);
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.image_misses, 1, "promotion never re-queued work");
        assert!(stats.reconciles());
    }

    #[test]
    fn coalesced_outcomes_mirror_into_the_metrics_registry() {
        let filler = stream(54);
        let hot = stream(55);
        let reg = MetricsRegistry::new();
        let svc = service(ServiceConfig {
            workers: 1,
            metrics: Some(reg.clone()),
            ..ServiceConfig::default()
        });
        let gate = Arc::new(Gate::default());
        let _guard = AutoOpen(Arc::clone(&gate));
        let parked = submit_hooked(
            &svc,
            &filler,
            Request::strict(),
            None,
            Some(Arc::clone(&gate)),
        )
        .unwrap();
        gate.await_arrival();
        let leader = svc.submit(&hot[..], Request::strict()).unwrap();
        let follower = svc.submit(&hot[..], Request::strict()).unwrap();
        gate.open();
        parked.wait().unwrap();
        leader.wait().unwrap();
        follower.wait().unwrap();
        let stats = svc.shutdown();
        let snap = reg.snapshot();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or_default();
        assert_eq!(stats.coalesced, 1);
        assert_eq!(counter("service.coalesced"), stats.coalesced);
        assert_eq!(counter("service.submitted"), stats.submitted);
        assert_eq!(counter("service.completed"), stats.completed);
        assert_eq!(
            snap.gauges.get("service.singleflight_inflight").copied(),
            Some(0),
            "no flight survives the drain"
        );
        // Every waiter — queued or coalesced — left one queue-wait
        // sample on resolution.
        let wait_samples = snap
            .histograms
            .get("service.queue_wait")
            .map(|h| h.count())
            .unwrap_or_default();
        assert_eq!(wait_samples, stats.submitted + stats.coalesced);
    }

    #[test]
    fn quality_zero_shares_the_quality_one_cache_entry() {
        let bytes = stream(56);
        let svc = service(small_cfg());
        // `Quality{0}` clamps to one layer in the decoder, so it must
        // share a cache entry (and a flight key) with `Quality{1}` —
        // before normalization each occupied its own LRU slot.
        let cold = svc.decode(&bytes[..], Request::quality(0)).unwrap();
        let warm = svc.decode(&bytes[..], Request::quality(1)).unwrap();
        assert_eq!(warm.served_from, ServedFrom::ImageCache);
        assert_eq!(warm.image, cold.image);
        // Header-aware clamp: any `max_res ≥ levels` decodes the full
        // image, so two oversized thumbnail requests share one entry.
        let th_cold = svc.decode(&bytes[..], Request::thumbnail(50)).unwrap();
        let th_warm = svc.decode(&bytes[..], Request::thumbnail(99)).unwrap();
        assert_eq!(th_warm.served_from, ServedFrom::ImageCache);
        assert_eq!(th_warm.image, th_cold.image);
        let stats = svc.shutdown();
        assert_eq!(stats.image_hits, 2);
        assert_eq!(stats.image_misses, 2);
        assert!(stats.reconciles());
    }

    #[test]
    fn lru_cache_prefers_recently_used_entries() {
        let mut c: LruCache<u8, u8> = LruCache::new(3);
        c.insert(1, 10, 1);
        c.insert(2, 20, 1);
        c.insert(3, 30, 1);
        assert_eq!(c.get(&1), Some(10)); // refresh 1; 2 is now LRU
        assert_eq!(c.insert(4, 40, 1), 1);
        assert_eq!(c.get(&2), None, "the LRU entry was evicted");
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.insert(5, 50, 3), 3, "a full-budget entry evicts all");
        assert_eq!(c.map.len(), 1);
        assert_eq!(c.insert(6, 60, 4), 0, "oversized values are not cached");
        assert_eq!(c.get(&6), None);
    }

    /// A timeout past the clock's range sets no deadline. Adding it to
    /// the submission instant used to panic.
    #[test]
    fn a_timeout_past_the_clocks_range_sets_no_deadline() {
        let bytes = stream(65);
        let svc = service(small_cfg());
        let request = Request::strict().with_timeout(Duration::MAX);
        let resp = svc.decode(&bytes[..], request).unwrap();
        assert_eq!(*resp.image, decode(&bytes).unwrap().image);
        let stats = svc.shutdown();
        assert_eq!(stats.completed, 1);
        assert!(stats.reconciles());
    }

    /// A space timeout past the clock's range waits for a slot for as
    /// long as it takes. Adding it to the submission instant used to
    /// panic.
    #[test]
    fn a_space_timeout_past_the_clocks_range_waits_without_a_deadline() {
        let streams: Vec<Vec<u8>> = (66..69).map(stream).collect();
        let svc = service(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        });
        let gate = Arc::new(Gate::default());
        let _guard = AutoOpen(Arc::clone(&gate));
        let held = submit_hooked(
            &svc,
            &streams[0],
            Request::strict(),
            None,
            Some(Arc::clone(&gate)),
        )
        .unwrap();
        gate.await_arrival();
        let queued = svc.submit(&streams[1][..], Request::strict()).unwrap();
        let waited = std::thread::scope(|s| {
            let waiter =
                s.spawn(|| svc.submit_wait(&streams[2][..], Request::strict(), Duration::MAX));
            // Likely parks the submission on the full queue first; the
            // test holds either way.
            std::thread::sleep(Duration::from_millis(20));
            gate.open();
            waiter.join().unwrap()
        })
        .unwrap();
        held.wait().unwrap();
        queued.wait().unwrap();
        waited.wait().unwrap();
        let stats = svc.shutdown();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.rejected, 0);
        assert!(stats.reconciles());
    }

    // -----------------------------------------------------------------------
    // Exhaustive interleaving explorer over `ServiceCore`
    // -----------------------------------------------------------------------
    //
    // The explorer (`crate::explore`) drives the core's transitions
    // directly, with no threads: every client, the worker, the clock
    // and the shutdown are actors, and each step is one transition (one
    // critical section of the threaded shell).

    /// One virtual clock tick.
    const TICK: Duration = Duration::from_millis(1);

    /// A client's next move.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// A strict decode of stream `key`, due `ticks` ticks later
        /// (`None`: no deadline), through `submit_wait` with no space
        /// deadline (`wait`) or through `submit`.
        Submit {
            key: u64,
            ticks: Option<u32>,
            wait: bool,
        },
        /// Cancels the client's ticket; a no-op once it has resolved.
        Cancel,
    }

    /// What the explorer enumerates.
    #[derive(Clone)]
    struct Bound {
        clients: Vec<Vec<Op>>,
        capacity: usize,
        tiles: usize,
        ticks: u32,
        /// Steps whose every ordering is explored.
        depth: usize,
        /// Drop an abandoned flight's key at retire anyway, as the
        /// worker did before the orphaned-waiter fix.
        retire_abandoned: bool,
    }

    /// 3 clients × 2 streams × 1 worker through a one-slot queue, with
    /// a deadline, a cancel, a `submit_wait`, one clock tick and the
    /// shutdown: stream 0 is decoded, coalesced into, expired,
    /// cancelled, abandoned and served as an image hit, and the two
    /// streams contend for the one slot.
    fn bound(depth: usize) -> Bound {
        Bound {
            clients: vec![
                vec![submit(0, None, false), Op::Cancel],
                vec![submit(0, Some(1), false)],
                vec![submit(1, None, true)],
            ],
            capacity: 1,
            tiles: 1,
            ticks: 1,
            depth,
            retire_abandoned: false,
        }
    }

    fn submit(key: u64, ticks: Option<u32>, wait: bool) -> Op {
        Op::Submit { key, ticks, wait }
    }

    /// In how many schedules each path was taken.
    #[derive(Debug, Default)]
    struct Explored {
        schedules: u64,
        inline_hits: u64,
        coalesced: u64,
        parked: u64,
        rejected: u64,
        expired: u64,
        cancelled: u64,
        shut_out: u64,
    }

    /// A real stream, header and image for the jobs to carry.
    struct Fixture {
        stream: Arc<[u8]>,
        header: CachedHeader,
        image: Arc<Image>,
    }

    impl Fixture {
        fn new() -> Self {
            let image = Image::synthetic_rgb(8, 8, 3);
            let stream: Arc<[u8]> = encode(&image, &EncodeParams::new(Mode::Lossless))
                .unwrap()
                .into();
            let (dec, base_report) = StagedDecoder::open(&stream, RequestKind::Strict).unwrap();
            Fixture {
                stream,
                header: CachedHeader {
                    dec: Arc::new(dec),
                    base_report,
                },
                image: Arc::new(image),
            }
        }
    }

    /// Where the one worker is in its loop.
    enum Phase {
        Idle,
        /// Claimed: the claim-time sweep is next.
        Claimed(Job),
        Lookup(Job),
        Header(Job, CachedHeader, ServedFrom),
        /// The sweep before tile `t`.
        Tile(Job, RequestKind, ServedFrom, usize),
        Insert(Job, RequestKind, ServedFrom),
        Retire(Job, Result<ServiceResponse, Abort>),
        Exited,
    }

    /// A submission and the ticket it will become.
    struct Pending {
        job: Job,
        waiter: Waiter,
        rx: mpsc::Receiver<Outcome>,
        wait: bool,
        /// Woken by a claim or the shutdown since it last found the
        /// queue full.
        woken: bool,
    }

    struct Client {
        ops: Vec<Op>,
        next: usize,
        /// A `submit_wait` parked on the full queue.
        parked: Option<Pending>,
        ticket: Option<usize>,
    }

    /// Wakes every parked `submit_wait`: a space notification reaches
    /// one waiter in the shell, but with one parked client at most in
    /// these bounds, waking all is the same.
    fn wake(clients: &mut [Client]) {
        for p in clients.iter_mut().filter_map(|c| c.parked.as_mut()) {
            p.woken = true;
        }
    }

    struct Issued {
        client: usize,
        rx: mpsc::Receiver<Outcome>,
        cancel: Arc<AtomicBool>,
        replies: usize,
    }

    struct World<'a> {
        bound: &'a Bound,
        fixture: &'a Fixture,
        core: ServiceCore,
        now: Instant,
        ticks_left: u32,
        shut: bool,
        clients: Vec<Client>,
        worker: Phase,
        tickets: Vec<Issued>,
        /// Inline hits, parked `submit_wait`s and shutdown refusals.
        hits: u64,
        parks: u64,
        shut_out: u64,
    }

    impl<'a> World<'a> {
        fn new(bound: &'a Bound, fixture: &'a Fixture) -> Self {
            let config = ServiceConfig {
                queue_capacity: bound.capacity,
                ..ServiceConfig::default()
            };
            let clients = bound.clients.iter().map(|ops| Client {
                ops: ops.clone(),
                next: 0,
                parked: None,
                ticket: None,
            });
            World {
                bound,
                fixture,
                core: ServiceCore::new(&config, Meters::default()),
                now: Instant::now(),
                ticks_left: bound.ticks,
                shut: false,
                clients: clients.collect(),
                worker: Phase::Idle,
                tickets: Vec::new(),
                hits: 0,
                parks: 0,
                shut_out: 0,
            }
        }

        fn client_ready(&self, i: usize) -> bool {
            let c = &self.clients[i];
            match (&c.parked, c.ops.get(c.next)) {
                (Some(p), _) => p.woken,
                (None, Some(Op::Submit { .. })) => true,
                // A cancel only matters while the ticket is pending.
                (None, Some(Op::Cancel)) => c.ticket.is_some_and(|t| self.tickets[t].replies == 0),
                (None, None) => false,
            }
        }

        fn client_step(&mut self, i: usize) {
            if let Some(p) = self.clients[i].parked.take() {
                return self.submit(i, p);
            }
            let c = &mut self.clients[i];
            let op = c.ops[c.next];
            c.next += 1;
            match op {
                Op::Submit { key, ticks, wait } => {
                    let (reply, rx) = mpsc::channel();
                    let job = Job {
                        stream: Arc::clone(&self.fixture.stream),
                        key: StreamKey {
                            len: self.fixture.stream.len(),
                            h1: key,
                            h2: 0,
                        },
                        kind: RequestKind::Strict,
                        hooks: Hooks::default(),
                    };
                    let waiter = Waiter {
                        deadline: ticks.map(|t| self.now + TICK * t),
                        cancel: Arc::new(AtomicBool::new(false)),
                        reply,
                        enqueued: self.now,
                        coalesced: false,
                    };
                    let p = Pending {
                        job,
                        waiter,
                        rx,
                        wait,
                        woken: false,
                    };
                    self.submit(i, p);
                }
                Op::Cancel => {
                    let t = c.ticket.expect("a cancel follows an issued ticket");
                    self.tickets[t].cancel.store(true, Ordering::Relaxed);
                }
            }
        }

        /// The submit transition, and what the shell makes of it.
        fn submit(&mut self, i: usize, p: Pending) {
            let issued = match self.core.submit(&p.job, &p.waiter, self.now, p.wait) {
                Ok(Admit::Hit(hit)) => {
                    p.waiter.reply.send(Ok(hit)).unwrap();
                    self.hits += 1;
                    true
                }
                Ok(Admit::Queued | Admit::Attached) => true,
                Ok(Admit::Full) => {
                    self.clients[i].parked = Some(Pending { woken: false, ..p });
                    self.parks += 1;
                    return;
                }
                Err(err) => {
                    self.shut_out += u64::from(err == ServiceError::ShuttingDown);
                    false
                }
            };
            if issued {
                self.clients[i].ticket = Some(self.tickets.len());
                self.tickets.push(Issued {
                    client: i,
                    rx: p.rx,
                    cancel: p.waiter.cancel,
                    replies: 0,
                });
            }
        }

        fn worker_step(&mut self) {
            let (core, now, fx) = (&mut self.core, self.now, self.fixture);
            self.worker = match std::mem::replace(&mut self.worker, Phase::Idle) {
                Phase::Idle => match core.claim() {
                    Some(job) => {
                        // The shell's `space.notify_one()`.
                        wake(&mut self.clients);
                        Phase::Claimed(job)
                    }
                    None => Phase::Exited,
                },
                Phase::Claimed(job) => {
                    if core.sweep(job.flight_key(), now) {
                        Phase::Lookup(job)
                    } else {
                        Phase::Retire(job, Err(Abort::Abandoned))
                    }
                }
                Phase::Lookup(job) => match core.lookup(&job) {
                    Err(hit) => Phase::Retire(job, Ok(hit)),
                    Ok(Some(header)) => Phase::Header(job, header, ServedFrom::HeaderCache),
                    // The parse runs outside the lock.
                    Ok(None) => Phase::Header(job, fx.header.clone(), ServedFrom::Cold),
                },
                Phase::Header(job, header, from) => {
                    match core.header_ready(&job, &header, from == ServedFrom::Cold) {
                        Err(hit) => Phase::Retire(job, Ok(hit)),
                        Ok(kind) => Phase::Tile(job, kind, from, 0),
                    }
                }
                Phase::Tile(job, kind, from, t) => {
                    if !core.sweep(job.flight_key(), now) {
                        Phase::Retire(job, Err(Abort::Abandoned))
                    } else if t + 1 < self.bound.tiles {
                        Phase::Tile(job, kind, from, t + 1)
                    } else {
                        Phase::Insert(job, kind, from)
                    }
                }
                Phase::Insert(job, kind, served_from) => {
                    let decoded = ServiceResponse {
                        image: Arc::clone(&fx.image),
                        report: None,
                        served_from,
                        queue_wait: Duration::ZERO,
                        service_time: Duration::ZERO,
                    };
                    core.insert_image((job.key, kind), &decoded);
                    Phase::Retire(job, Ok(decoded))
                }
                Phase::Retire(job, outcome) => {
                    if self.bound.retire_abandoned && matches!(outcome, Err(Abort::Abandoned)) {
                        core.flights.remove(&job.flight_key());
                        core.gauges();
                    }
                    core.retire(job.flight_key(), outcome, now, now);
                    Phase::Idle
                }
                Phase::Exited => unreachable!("an exited worker is never enabled"),
            };
        }

        /// The flight whose job the worker holds, unless it abandoned it.
        fn held(&self) -> Option<FlightKey> {
            match &self.worker {
                Phase::Claimed(job)
                | Phase::Lookup(job)
                | Phase::Header(job, ..)
                | Phase::Tile(job, ..)
                | Phase::Insert(job, ..) => Some(job.flight_key()),
                Phase::Retire(job, outcome) if !matches!(outcome, Err(Abort::Abandoned)) => {
                    Some(job.flight_key())
                }
                _ => None,
            }
        }
    }

    impl crate::explore::World for World<'_> {
        type Seen = Explored;

        /// The set of ready actors, one bit per id: the clients, then
        /// the worker, the clock and the shutdown.
        fn enabled(&self) -> u32 {
            let n = self.clients.len();
            let worker = match self.worker {
                Phase::Idle => !self.core.queue.is_empty() || self.core.shutting_down,
                Phase::Exited => false,
                _ => true,
            };
            let ready = (0..n).map(|i| self.client_ready(i));
            let ready = ready.chain([worker, self.ticks_left > 0, !self.shut]);
            ready
                .enumerate()
                .fold(0, |set, (id, r)| set | (u32::from(r) << id))
        }

        fn step(&mut self, actor: usize) {
            let n = self.clients.len();
            match actor {
                i if i < n => self.client_step(i),
                i if i == n => self.worker_step(),
                i if i == n + 1 => {
                    self.now += TICK;
                    self.ticks_left -= 1;
                }
                _ => {
                    self.core.shut_down();
                    self.shut = true;
                    wake(&mut self.clients);
                }
            }
            for (reply, outcome) in std::mem::take(&mut self.core.outbox) {
                let _ = reply.send(outcome);
            }
            // A client whose last move was a cancel of a resolved ticket
            // has nothing left to do.
            for i in 0..n {
                let c = &self.clients[i];
                if c.parked.is_none()
                    && matches!(c.ops.get(c.next), Some(Op::Cancel))
                    && !self.client_ready(i)
                {
                    self.clients[i].next += 1;
                }
            }
        }

        /// What an actor's next step touches, as bits: two steps that
        /// share none commute, and neither enables nor disables the
        /// other. Meter tallies and timing samples commute and are left
        /// out, and so is what only the actor itself reads.
        fn footprint(&self, actor: usize) -> u32 {
            const QUEUE: u32 = 1;
            const FLIGHTS: u32 = 2;
            const CACHES: u32 = 4;
            const SHUTDOWN: u32 = 8;
            const CLOCK: u32 = 16;
            /// The wake-up flags of parked `submit_wait`s.
            const PARKED: u32 = 32;
            // Client `i`'s tickets: their cancel flags and replies.
            let ticket = |i: usize| 1 << (8 + i);
            // The tickets of a flight's waiters, and whether one has a
            // deadline.
            let flight = |fkey: &FlightKey| {
                let group = self.core.flights.get(fkey).map_or(&[][..], Vec::as_slice);
                group.iter().fold(0, |bits, w| {
                    let t = self
                        .tickets
                        .iter()
                        .find(|t| Arc::ptr_eq(&t.cancel, &w.cancel));
                    let mine = t.map_or(0, |t| ticket(t.client));
                    bits | mine | if w.deadline.is_some() { CLOCK } else { 0 }
                })
            };
            let parked = if self.clients.iter().any(|c| c.parked.is_some()) {
                PARKED
            } else {
                0
            };
            let n = self.clients.len();
            if actor < n {
                let c = &self.clients[actor];
                let deadline = match (&c.parked, c.ops.get(c.next)) {
                    (Some(p), _) => p.waiter.deadline.is_some(),
                    (None, Some(Op::Submit { ticks, .. })) => ticks.is_some(),
                    _ => return ticket(actor),
                };
                let clock = if deadline { CLOCK } else { 0 };
                return QUEUE | FLIGHTS | CACHES | SHUTDOWN | clock;
            }
            if actor > n {
                return if actor == n + 1 {
                    CLOCK
                } else {
                    SHUTDOWN | parked
                };
            }
            match &self.worker {
                Phase::Idle if self.core.queue.is_empty() => SHUTDOWN,
                Phase::Idle => QUEUE | parked,
                Phase::Claimed(job) | Phase::Tile(job, ..) => FLIGHTS | flight(&job.flight_key()),
                Phase::Lookup(_) | Phase::Header(..) | Phase::Insert(..) => CACHES,
                Phase::Retire(_, Err(Abort::Abandoned)) if !self.bound.retire_abandoned => 0,
                Phase::Retire(job, _) => FLIGHTS | flight(&job.flight_key()),
                Phase::Exited => 0,
            }
        }

        /// The books after every step.
        fn check(&mut self) -> Result<(), String> {
            for (i, t) in self.tickets.iter_mut().enumerate() {
                loop {
                    match t.rx.try_recv() {
                        Ok(_) => t.replies += 1,
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) if t.replies == 0 => {
                            return Err(format!("orphaned waiter: ticket {i} closed unanswered"));
                        }
                        Err(mpsc::TryRecvError::Disconnected) => break,
                    }
                }
                if t.replies > 1 {
                    return Err(format!("ticket {i} answered {} times", t.replies));
                }
            }
            let core = &self.core;
            let m = &core.meters;
            if m.queue_depth.get() != core.queue.len() as i64
                || m.singleflight_inflight.get() != core.flights.len() as i64
            {
                return Err("the gauges disagree with the queue and the flights".into());
            }
            if core.queue.len() > core.capacity {
                return Err("the queue outgrew its capacity".into());
            }
            let held = self.held();
            for fkey in core.flights.keys() {
                let queued = core
                    .queue
                    .iter()
                    .filter(|j| j.flight_key() == *fkey)
                    .count();
                let jobs = queued + usize::from(held == Some(*fkey));
                if jobs != 1 {
                    return Err(format!("flight {fkey:?} has {jobs} jobs"));
                }
            }
            let mut jobs = core.queue.iter().map(Job::flight_key).chain(held);
            if jobs.any(|fkey| !core.flights.contains_key(&fkey)) {
                return Err("a job has no flight".into());
            }
            let s = core.stats();
            if s.completed + s.expired + s.cancelled + s.failed > s.submitted + s.coalesced {
                return Err(format!("more outcomes than accepted submissions: {s:?}"));
            }
            Ok(())
        }

        /// The books once nothing is enabled; tallies the paths taken.
        fn drained(&self, seen: &mut Explored) -> Result<(), String> {
            if let Some(i) = (0..self.clients.len())
                .find(|&i| self.clients[i].parked.is_some() || self.client_ready(i))
            {
                return Err(format!("client {i} is stuck"));
            }
            if !self.core.flights.is_empty() || !self.core.queue.is_empty() {
                return Err("waiters left after the drain".into());
            }
            let stats = self.core.stats();
            if !stats.reconciles() {
                return Err(format!("the books do not reconcile: {stats:?}"));
            }
            if let Some(i) = self.tickets.iter().position(|t| t.replies != 1) {
                return Err(format!("ticket {i} unanswered at the drain"));
            }
            seen.schedules += 1;
            for (n, tally) in [
                (self.hits, &mut seen.inline_hits),
                (stats.coalesced, &mut seen.coalesced),
                (self.parks, &mut seen.parked),
                (stats.rejected, &mut seen.rejected),
                (stats.expired, &mut seen.expired),
                (stats.cancelled, &mut seen.cancelled),
                (self.shut_out, &mut seen.shut_out),
            ] {
                *tally += u64::from(n > 0);
            }
            Ok(())
        }

        fn name(&self, actor: usize) -> String {
            let n = self.clients.len();
            match actor {
                a if a < n => format!("c{a}"),
                a if a == n => "w".into(),
                a if a == n + 1 => "tick".into(),
                _ => "stop".into(),
            }
        }
    }

    /// Runs every schedule within `bound`; returns the paths they took,
    /// or the first violation and its schedule.
    fn explore(bound: &Bound) -> Result<Explored, String> {
        let fixture = Fixture::new();
        crate::explore::explore(bound.depth, || World::new(bound, &fixture))
    }

    /// Every path the bound promises is taken in some schedule.
    fn assert_covered(seen: &Explored) {
        let paths = [
            seen.inline_hits,
            seen.coalesced,
            seen.parked,
            seen.rejected,
            seen.expired,
            seen.cancelled,
            seen.shut_out,
        ];
        assert!(paths.iter().all(|&n| n > 0), "{seen:?}");
    }

    /// The default bound: every ordering of the first 12 steps of the
    /// 3-client, 2-stream, 1-worker world, each drained: 17 720
    /// schedules, about 2 s in a debug build.
    #[test]
    fn explorer_checks_every_interleaving_to_depth_12() {
        let seen = explore(&bound(12)).unwrap_or_else(|e| panic!("{e}"));
        assert_covered(&seen);
        assert_eq!(seen.schedules, 17_720, "{seen:?}");
    }

    /// Regression: a worker retiring an abandoned flight used to remove
    /// its key from the map anyway, taking with it the fresh flight an
    /// identical submission had opened since, whose waiter then never
    /// heard back. The explorer finds that schedule within the bound.
    #[test]
    fn explorer_refinds_the_orphaned_waiter() {
        let buggy = Bound {
            retire_abandoned: true,
            ..bound(12)
        };
        let err = explore(&buggy).map(|seen| seen.schedules).unwrap_err();
        assert!(err.starts_with("orphaned waiter"), "{err}");
    }

    /// Every interleaving, with no depth bound, of a larger world in
    /// which client 2 also asks for stream 0 after its `submit_wait`:
    /// 345 143 schedules, about 20 s in a release build.
    #[test]
    #[ignore = "exhaustive; run in release"]
    fn explorer_deep_checks_every_interleaving_unbounded() {
        let mut deep = bound(usize::MAX);
        deep.clients[2].push(submit(0, None, false));
        let seen = explore(&deep).unwrap_or_else(|e| panic!("{e}"));
        assert_covered(&seen);
        assert_eq!(seen.schedules, 345_143, "{seen:?}");
    }
}
