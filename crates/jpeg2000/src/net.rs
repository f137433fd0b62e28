//! Wire protocol for the network decode server, plus the blocking
//! [`Client`].
//!
//! The paper refines abstract method calls into a framed, checked
//! transport (the VTA layer's CRC-framed `ReliableRmi`); this module
//! is the same refinement applied to the *real* decoder: a
//! length-prefixed binary protocol with a CRC-32 trailer — the exact
//! [`osss_sim::checksum::crc32`] the simulated transport pins — that
//! carries decode requests to a [`crate::server::DecodeServer`] and
//! images back.
//!
//! ## Frame layout
//!
//! Every message travels in one frame (all integers little-endian):
//!
//! ```text
//! magic   u32   0x4A32_4B44 ("J2KD")
//! len     u32   payload length in bytes (bounded by the receiver)
//! payload len bytes
//! crc     u32   crc32(payload), IEEE 802.3
//! ```
//!
//! [`write_frame`] sends the three parts as one vectored write, and
//! [`read_frame`] reads the header, then payload and trailer together.
//! A receiver rejects bad magic, oversized lengths, and CRC mismatches
//! *before* interpreting a single payload byte; payload parsing then
//! yields structured [`WireError::Protocol`] errors, never panics —
//! fuzzed in this module's tests with the [`crate::fuzz::Mutator`].
//!
//! ## Messages
//!
//! A request payload is `tag=1, version, kind, param, deadline_ms,
//! stream`; a response payload is `tag=2, status, …` where status `0`
//! carries the served-from level, the full image raster (its component
//! count in one byte, so at most 255 planes) and an optional
//! tolerant-report summary, and non-zero statuses carry the error
//! taxonomy ([`NetError`]): retryable-busy (backpressure), expired
//! (deadline), protocol error, decode failure, refused (shutdown),
//! internal.
//!
//! ## Client
//!
//! [`Client::request`] is the one request path: one frame out, one
//! frame back, bounded by [`Client::op_deadline`] when set. The
//! client's reads and writes, the server's reads and writes and the
//! chaos proxy's relays all wait through one crate-private deadline
//! adapter, which races an absolute deadline and, optionally, a
//! shutdown flag. [`Client::decode_retry`] retries busy answers, behind
//! an optional [`CircuitBreaker`].
//!
//! The client's protocol rules live in one crate-private state machine
//! apart from its socket I/O: a socket carries the next request only
//! after an OK answer, and a busy answer is retried while the policy
//! allows. The server's tests drive the same machine against the
//! server's over every interleaving.

use crate::codec::{DecodeReport, DecodeStage};
use crate::image::{Image, Plane};
use crate::service::{Request, RequestKind, ServedFrom, ServiceError};
use osss_sim::checksum::crc32;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frame magic: `"J2KD"`.
pub const FRAME_MAGIC: u32 = 0x4A32_4B44;

/// Protocol version carried in every request.
pub const PROTOCOL_VERSION: u8 = 1;

/// Bound on a frame payload (64 MiB) — both sides refuse larger
/// frames before allocating.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// How often a wait that watches a shutdown flag rechecks it: the
/// server's handlers and the chaos proxy's relays.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(20);

const TAG_REQUEST: u8 = 1;
const TAG_RESPONSE: u8 = 2;

const STATUS_OK: u8 = 0;
const STATUS_BUSY: u8 = 1;
const STATUS_EXPIRED: u8 = 2;
const STATUS_DECODE: u8 = 3;
const STATUS_PROTOCOL: u8 = 4;
const STATUS_REFUSED: u8 = 5;
const STATUS_INTERNAL: u8 = 6;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a frame (or its payload) was rejected by this side.
#[derive(Debug)]
#[non_exhaustive]
pub enum WireError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The peer closed the connection mid-frame.
    Truncated,
    /// The frame header's magic was not [`FRAME_MAGIC`].
    BadMagic(u32),
    /// The declared payload length exceeds the receiver's bound.
    Oversized {
        /// Declared payload length.
        len: usize,
        /// The receiver's bound.
        max: usize,
    },
    /// The CRC-32 trailer did not match the payload.
    Crc {
        /// CRC carried by the frame.
        expected: u32,
        /// CRC recomputed over the payload.
        actual: u32,
    },
    /// The payload violated the message grammar.
    Protocol(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Truncated => write!(f, "connection closed mid-frame"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::Oversized { len, max } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {max}-byte bound"
                )
            }
            WireError::Crc { expected, actual } => {
                write!(
                    f,
                    "crc mismatch: frame says {expected:#010x}, payload is {actual:#010x}"
                )
            }
            WireError::Protocol(d) => write!(f, "protocol error: {d}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::UnexpectedEof => WireError::Truncated,
            _ => WireError::Io(e),
        }
    }
}

/// What a network decode ultimately failed with, client side: the
/// server's error taxonomy plus local wire failures.
#[derive(Debug)]
#[non_exhaustive]
pub enum NetError {
    /// The server's queue was full — retryable backpressure
    /// ([`Client::decode_retry`] handles it).
    Busy,
    /// The request's deadline passed server-side.
    Expired,
    /// The decode failed; the payload is the server-rendered
    /// [`crate::error::CodecError`] with its site.
    Decode(String),
    /// The server rejected our frame or payload.
    Protocol(String),
    /// The server is shutting down.
    Refused,
    /// The server failed internally (e.g. a caught worker panic).
    Internal(String),
    /// Framing or transport failed on this side.
    Wire(WireError),
    /// Busy retries were exhausted ([`Client::decode_retry`]).
    RetriesExhausted {
        /// Busy responses absorbed before giving up.
        attempts: u32,
    },
    /// The client-side operation deadline elapsed before a complete
    /// reply arrived ([`Client::op_deadline`]) — the server (or the
    /// path to it) stalled mid-frame. Converting a [`WireError::Io`] of
    /// kind `TimedOut` yields this variant.
    Timeout,
    /// The client's [`CircuitBreaker`] is open: recent transport
    /// failures tripped it and the cooldown has not elapsed, so the
    /// request was failed fast without touching the network.
    CircuitOpen,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Busy => write!(f, "server busy (retryable)"),
            NetError::Expired => write!(f, "request deadline exceeded"),
            NetError::Decode(d) => write!(f, "decode failed: {d}"),
            NetError::Protocol(d) => write!(f, "server rejected the request: {d}"),
            NetError::Refused => write!(f, "server shutting down"),
            NetError::Internal(d) => write!(f, "server internal error: {d}"),
            NetError::Wire(e) => write!(f, "{e}"),
            NetError::RetriesExhausted { attempts } => {
                write!(f, "server still busy after {attempts} attempts")
            }
            NetError::Timeout => write!(f, "client operation deadline elapsed"),
            NetError::CircuitOpen => write!(f, "circuit breaker open: failing fast"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(e) if e.kind() == io::ErrorKind::TimedOut => NetError::Timeout,
            e => NetError::Wire(e),
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        WireError::from(e).into()
    }
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

/// Writes one frame: header, payload, CRC trailer.
///
/// The three parts go out as one vectored write (a single `writev` on
/// a socket, so one segment train with `TCP_NODELAY` set instead of
/// three sends), looped until every byte is accepted: a short write
/// advances the slices, `Interrupted` is retried, and a zero-length
/// write fails with `WriteZero`.
///
/// # Errors
///
/// Any transport [`io::Error`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut head = [0u8; 8];
    head[..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
    head[4..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    let trailer = crc32(payload).to_le_bytes();
    let mut parts = [
        IoSlice::new(&head),
        IoSlice::new(payload),
        IoSlice::new(&trailer),
    ];
    let mut rest = &mut parts[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "transport accepted no bytes of the frame",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Reads one frame's payload; `Ok(None)` on a clean EOF before the
/// first header byte (the peer hung up between frames).
///
/// Two reads in the common case: the 8-byte header, then — once its
/// magic and length have passed — payload and trailer together.
///
/// # Errors
///
/// [`WireError::BadMagic`] / [`WireError::Oversized`] /
/// [`WireError::Crc`] for frame-level violations,
/// [`WireError::Truncated`] when the peer vanished mid-frame,
/// [`WireError::Io`] for transport failures (including read timeouts,
/// surfaced as `Io` with kind `WouldBlock`/`TimedOut`).
pub fn read_frame(r: &mut impl Read, max_bytes: usize) -> Result<Option<Vec<u8>>, WireError> {
    let mut head = [0u8; 8];
    // Filled by hand rather than `read_exact`, which cannot tell EOF
    // before the first byte (a clean hang-up between frames) from EOF
    // inside the header (a truncated frame). Like `read_exact`, a
    // spurious `Interrupted` is retried rather than surfaced.
    let mut filled = 0;
    while filled < head.len() {
        match r.read(&mut head[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::from(e)),
        }
    }
    let magic = u32::from_le_bytes(head[..4].try_into().expect("4-byte slice"));
    if magic != FRAME_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let len = u32::from_le_bytes(head[4..].try_into().expect("4-byte slice")) as usize;
    // The bound also keeps `len + 4` from overflowing a 32-bit usize.
    if len > max_bytes.min(usize::MAX - 4) {
        return Err(WireError::Oversized {
            len,
            max: max_bytes,
        });
    }
    let mut payload = vec![0u8; len + 4];
    r.read_exact(&mut payload)?;
    let expected = u32::from_le_bytes(payload[len..].try_into().expect("4-byte trailer"));
    payload.truncate(len);
    let actual = crc32(&payload);
    if expected != actual {
        return Err(WireError::Crc { expected, actual });
    }
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Payload cursor
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Protocol(format!(
                "payload truncated reading {what}: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.bytes(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(
            self.bytes(2, what)?.try_into().expect("2-byte slice"),
        ))
    }

    fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.bytes(4, what)?.try_into().expect("4-byte slice"),
        ))
    }

    fn finish(self, what: &str) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Protocol(format!(
                "{} trailing bytes after {what}",
                self.remaining()
            )));
        }
        Ok(())
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

// ---------------------------------------------------------------------------
// Request message
// ---------------------------------------------------------------------------

fn kind_to_wire(kind: RequestKind) -> (u8, u32) {
    match kind {
        RequestKind::Strict => (0, 0),
        RequestKind::Tolerant => (1, 0),
        RequestKind::Quality { max_layers } => (2, max_layers.min(u32::MAX as usize) as u32),
        RequestKind::Thumbnail { max_res } => (3, max_res.min(u32::MAX as usize) as u32),
    }
}

fn kind_from_wire(tag: u8, param: u32) -> Result<RequestKind, WireError> {
    match tag {
        0 => Ok(RequestKind::Strict),
        1 => Ok(RequestKind::Tolerant),
        2 => Ok(RequestKind::Quality {
            max_layers: param as usize,
        }),
        3 => Ok(RequestKind::Thumbnail {
            max_res: param as usize,
        }),
        _ => Err(WireError::Protocol(format!("unknown request kind {tag}"))),
    }
}

/// Encodes a request payload: the decode variant, an optional deadline
/// (millisecond granularity, `0` = none, saturating at `u32::MAX` ms ≈
/// 49 days) and the codestream.
pub fn encode_request(request: &Request, stream: &[u8]) -> Vec<u8> {
    let (kind, param) = kind_to_wire(request.kind);
    let deadline_ms = request
        .timeout
        .map(|t| u32::try_from(t.as_millis()).unwrap_or(u32::MAX).max(1))
        .unwrap_or(0);
    let mut out = Vec::with_capacity(15 + stream.len());
    out.push(TAG_REQUEST);
    out.push(PROTOCOL_VERSION);
    out.push(kind);
    put_u32(&mut out, param);
    put_u32(&mut out, deadline_ms);
    put_u32(&mut out, stream.len() as u32);
    out.extend_from_slice(stream);
    out
}

/// A decoded request payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRequest {
    /// The service request (kind + deadline) the payload asked for.
    pub request: Request,
    /// The codestream to decode, copied once out of the payload into
    /// the shared buffer the decode service takes.
    pub stream: Arc<[u8]>,
}

/// Parses a request payload.
///
/// # Errors
///
/// [`WireError::Protocol`] on any grammar violation (wrong tag,
/// unsupported version, unknown kind, length mismatch).
pub fn decode_request(payload: &[u8]) -> Result<WireRequest, WireError> {
    let mut c = Cursor::new(payload);
    let tag = c.u8("message tag")?;
    if tag != TAG_REQUEST {
        return Err(WireError::Protocol(format!(
            "expected request tag {TAG_REQUEST}, got {tag}"
        )));
    }
    let version = c.u8("protocol version")?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::Protocol(format!(
            "unsupported protocol version {version}"
        )));
    }
    let kind = c.u8("request kind")?;
    let param = c.u32("request param")?;
    let deadline_ms = c.u32("deadline")?;
    let stream_len = c.u32("stream length")? as usize;
    if stream_len != c.remaining() {
        return Err(WireError::Protocol(format!(
            "stream length {stream_len} disagrees with the {} payload bytes that follow",
            c.remaining()
        )));
    }
    let stream = Arc::from(c.bytes(stream_len, "stream")?);
    c.finish("request")?;
    Ok(WireRequest {
        request: Request {
            kind: kind_from_wire(kind, param)?,
            timeout: (deadline_ms != 0).then(|| Duration::from_millis(u64::from(deadline_ms))),
        },
        stream,
    })
}

// ---------------------------------------------------------------------------
// Response message
// ---------------------------------------------------------------------------

/// One isolated failure from a tolerant decode, as summarised on the
/// wire: the tile, the stage, and the rendered error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFailure {
    /// The affected tile, when attributable to one.
    pub tile: Option<u32>,
    /// Which stage recorded the failure.
    pub stage: DecodeStage,
    /// The rendered error, including its site.
    pub detail: String,
}

/// The tolerant-report summary a response carries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireReport {
    /// Failures in the server's (deterministic) report order.
    pub failures: Vec<WireFailure>,
}

impl WireReport {
    /// Summarises a service-side [`DecodeReport`] for the wire.
    pub fn summarise(report: &DecodeReport) -> Self {
        WireReport {
            failures: report
                .failures
                .iter()
                .map(|f| WireFailure {
                    tile: f.tile.map(|t| u32::try_from(t).unwrap_or(u32::MAX)),
                    stage: f.stage,
                    detail: f.error.to_string(),
                })
                .collect(),
        }
    }
}

/// A successful network decode.
#[derive(Debug, Clone, PartialEq)]
pub struct NetResponse {
    /// The decoded image, bit-exact with the in-process entry point.
    pub image: Image,
    /// The tolerant-report summary (tolerant requests only).
    pub report: Option<WireReport>,
    /// Which service cache level served the request.
    pub served_from: ServedFrom,
}

fn stage_to_wire(stage: DecodeStage) -> u8 {
    match stage {
        DecodeStage::TileParse => 0,
        DecodeStage::Entropy => 1,
    }
}

fn stage_from_wire(v: u8) -> Result<DecodeStage, WireError> {
    match v {
        0 => Ok(DecodeStage::TileParse),
        1 => Ok(DecodeStage::Entropy),
        _ => Err(WireError::Protocol(format!("unknown decode stage {v}"))),
    }
}

fn served_to_wire(s: ServedFrom) -> u8 {
    match s {
        ServedFrom::Cold => 0,
        ServedFrom::HeaderCache => 1,
        ServedFrom::ImageCache => 2,
        ServedFrom::Coalesced => 3,
    }
}

fn served_from_wire(v: u8) -> Result<ServedFrom, WireError> {
    match v {
        0 => Ok(ServedFrom::Cold),
        1 => Ok(ServedFrom::HeaderCache),
        2 => Ok(ServedFrom::ImageCache),
        3 => Ok(ServedFrom::Coalesced),
        _ => Err(WireError::Protocol(format!(
            "unknown served-from level {v}"
        ))),
    }
}

const NO_TILE: u32 = u32::MAX;

/// Longest error detail a response carries, in bytes.
const MAX_DETAIL: usize = 1024;

/// The OK response counts its planes in one byte.
pub(crate) const MAX_WIRE_COMPONENTS: usize = u8::MAX as usize;

/// `s` cut to at most `max` bytes, on a char boundary.
fn truncated(s: &str, max: usize) -> &str {
    let mut end = s.len().min(max);
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

fn put_string(out: &mut Vec<u8>, s: &str, max: usize) {
    let s = truncated(s, max);
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

fn get_string(c: &mut Cursor<'_>, what: &str) -> Result<String, WireError> {
    let len = c.u16(what)? as usize;
    let bytes = c.bytes(len, what)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| WireError::Protocol(format!("{what} is not UTF-8")))
}

/// Encodes a success response: served-from level, the raster, and the
/// optional report summary.
///
/// The payload is sized exactly before it is written, and each plane
/// is copied little-endian in one pass over a pre-sized region.
///
/// # Panics
///
/// If `image` has more than 255 components: the response counts its
/// planes in one byte. [`crate::server::DecodeServer`] checks this
/// before encoding and answers a decode failure instead.
pub fn encode_ok(image: &Image, report: Option<&WireReport>, served_from: ServedFrom) -> Vec<u8> {
    let ncomp = image.num_components();
    assert!(
        ncomp <= MAX_WIRE_COMPONENTS,
        "{ncomp} components exceed the wire's {MAX_WIRE_COMPONENTS}-component limit"
    );
    let raster: usize = image.components.iter().map(|p| 8 + 4 * p.data.len()).sum();
    let summary = report.map_or(0, |r| {
        let details: usize = r
            .failures
            .iter()
            .map(|f| truncated(&f.detail, MAX_DETAIL).len())
            .sum();
        4 + 7 * r.failures.len() + details
    });
    let mut out = Vec::with_capacity(13 + raster + 1 + summary);
    out.push(TAG_RESPONSE);
    out.push(STATUS_OK);
    out.push(served_to_wire(served_from));
    put_u32(&mut out, image.width as u32);
    put_u32(&mut out, image.height as u32);
    out.push(image.depth);
    out.push(ncomp as u8);
    for plane in &image.components {
        put_u32(&mut out, plane.width as u32);
        put_u32(&mut out, plane.height as u32);
        let start = out.len();
        out.resize(start + 4 * plane.data.len(), 0);
        for (dst, v) in out[start..].chunks_exact_mut(4).zip(&plane.data) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }
    match report {
        None => out.push(0),
        Some(r) => {
            out.push(1);
            put_u32(&mut out, r.failures.len() as u32);
            for f in &r.failures {
                put_u32(&mut out, f.tile.unwrap_or(NO_TILE));
                out.push(stage_to_wire(f.stage));
                put_string(&mut out, &f.detail, MAX_DETAIL);
            }
        }
    }
    out
}

/// Encodes an error response from the service-side taxonomy:
/// `QueueFull` → retryable-busy, deadline → expired, decode failure →
/// the rendered `CodecError` (site included), shutdown → refused,
/// anything else (caught panics, lost workers) → internal.
pub fn encode_service_error(err: &ServiceError) -> Vec<u8> {
    let (status, detail) = match err {
        ServiceError::QueueFull => (STATUS_BUSY, String::new()),
        ServiceError::DeadlineExceeded => (STATUS_EXPIRED, String::new()),
        ServiceError::Decode(e) => (STATUS_DECODE, e.to_string()),
        ServiceError::ShuttingDown => (STATUS_REFUSED, String::new()),
        other => (STATUS_INTERNAL, other.to_string()),
    };
    encode_error(status, &detail)
}

/// Encodes a protocol-error response (the peer's frame was readable
/// but invalid).
pub fn encode_protocol_error(detail: &str) -> Vec<u8> {
    encode_error(STATUS_PROTOCOL, detail)
}

/// Encodes a retryable-busy response (used both for a full decode
/// queue and for a connection the server's acceptor turns away).
pub fn encode_busy() -> Vec<u8> {
    encode_error(STATUS_BUSY, "")
}

/// Encodes the answer to a decode whose image has more components than
/// the OK response can count: a decode failure naming the limit.
pub(crate) fn encode_component_limit(components: usize) -> Vec<u8> {
    encode_error(
        STATUS_DECODE,
        &format!(
            "the decoded image has {components} components, over the wire's \
             {MAX_WIRE_COMPONENTS}-component limit"
        ),
    )
}

fn encode_error(status: u8, detail: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + detail.len());
    out.push(TAG_RESPONSE);
    out.push(status);
    put_string(&mut out, detail, MAX_DETAIL);
    out
}

/// Parses a response payload into the client-side result.
///
/// # Errors
///
/// The server's own error taxonomy as the matching [`NetError`]
/// variant, or [`NetError::Wire`]`(`[`WireError::Protocol`]`)` when
/// the payload itself is malformed.
pub fn decode_response(payload: &[u8]) -> Result<NetResponse, NetError> {
    let mut c = Cursor::new(payload);
    let tag = c.u8("message tag")?;
    if tag != TAG_RESPONSE {
        return Err(WireError::Protocol(format!(
            "expected response tag {TAG_RESPONSE}, got {tag}"
        ))
        .into());
    }
    let status = c.u8("status")?;
    if status != STATUS_OK {
        let detail = get_string(&mut c, "error detail")?;
        c.finish("error response")?;
        return Err(match status {
            STATUS_BUSY => NetError::Busy,
            STATUS_EXPIRED => NetError::Expired,
            STATUS_DECODE => NetError::Decode(detail),
            STATUS_PROTOCOL => NetError::Protocol(detail),
            STATUS_REFUSED => NetError::Refused,
            STATUS_INTERNAL => NetError::Internal(detail),
            other => WireError::Protocol(format!("unknown response status {other}")).into(),
        });
    }
    let served_from = served_from_wire(c.u8("served-from")?)?;
    let width = c.u32("image width")? as usize;
    let height = c.u32("image height")? as usize;
    let depth = c.u8("image depth")?;
    let ncomp = c.u8("component count")? as usize;
    let mut components = Vec::with_capacity(ncomp.min(16));
    for comp in 0..ncomp {
        let pw = c.u32("plane width")? as usize;
        let ph = c.u32("plane height")? as usize;
        let samples = pw.checked_mul(ph).ok_or_else(|| {
            WireError::Protocol(format!("plane {comp} dimensions {pw}x{ph} overflow"))
        })?;
        // The raster must actually be present in this payload, so the
        // remaining length bounds the allocation before it happens.
        if samples.checked_mul(4).is_none_or(|b| b > c.remaining()) {
            return Err(WireError::Protocol(format!(
                "plane {comp} claims {samples} samples but only {} payload bytes remain",
                c.remaining()
            ))
            .into());
        }
        let data = c
            .bytes(4 * samples, "plane samples")?
            .chunks_exact(4)
            .map(|s| i32::from_le_bytes(s.try_into().expect("4-byte chunk")))
            .collect();
        components.push(Plane::from_data(pw, ph, data));
    }
    let report = match c.u8("report flag")? {
        0 => None,
        1 => {
            let nfail = c.u32("failure count")? as usize;
            // Each failure is ≥ 7 bytes on the wire; bound before allocating.
            if nfail > c.remaining() / 7 {
                return Err(WireError::Protocol(format!(
                    "failure count {nfail} exceeds what {} remaining bytes can hold",
                    c.remaining()
                ))
                .into());
            }
            let mut failures = Vec::with_capacity(nfail);
            for _ in 0..nfail {
                let tile = c.u32("failure tile")?;
                let stage = stage_from_wire(c.u8("failure stage")?)?;
                let detail = get_string(&mut c, "failure detail")?;
                failures.push(WireFailure {
                    tile: (tile != NO_TILE).then_some(tile),
                    stage,
                    detail,
                });
            }
            Some(WireReport { failures })
        }
        other => {
            return Err(WireError::Protocol(format!("unknown report flag {other}")).into());
        }
    };
    c.finish("response")?;
    let image = Image {
        width,
        height,
        depth,
        components,
    };
    Ok(NetResponse {
        image,
        report,
        served_from,
    })
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Deterministic retry-on-busy backoff, mirroring the VTA layer's
/// `RetryPolicy`: exponential from `backoff_base`, capped at
/// `backoff_cap`, with jitter drawn from a seeded hash of the attempt
/// number — two clients with different seeds de-synchronise instead of
/// stampeding the queue in lockstep.
#[derive(Debug, Clone)]
pub struct NetRetryPolicy {
    /// Busy responses tolerated before giving up (0 = no retries).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub backoff_base: Duration,
    /// Upper bound on the exponential backoff (before jitter).
    pub backoff_cap: Duration,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for NetRetryPolicy {
    fn default() -> Self {
        NetRetryPolicy {
            max_retries: 8,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(250),
            jitter_seed: 0x4A32_4B44,
        }
    }
}

/// splitmix64-style finaliser — the same shape the VTA fault layer
/// uses for its deterministic decision streams.
fn mix(seed: u64, attempt: u64) -> u64 {
    let mut z = seed ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl NetRetryPolicy {
    /// The backoff before retry `attempt` (0-based): `base << attempt`
    /// capped, plus up to 25 % deterministic jitter.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let base = self
            .backoff_base
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(self.backoff_cap);
        let jitter =
            mix(self.jitter_seed, u64::from(attempt)).checked_rem(base.as_nanos() as u64 / 4);
        base + Duration::from_nanos(jitter.unwrap_or(0))
    }
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// Where a [`CircuitBreaker`] currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitState {
    /// Traffic flows; consecutive transport failures are being counted.
    Closed,
    /// Tripped: requests fail fast with [`NetError::CircuitOpen`] until
    /// the cooldown elapses.
    Open,
    /// Cooldown elapsed and exactly one probe request is in flight; its
    /// outcome closes or re-opens the circuit.
    HalfOpen,
}

/// A consecutive-failure circuit breaker for the network client.
///
/// A blackholed or dead server makes every request pay its full
/// deadline before failing; once `threshold` consecutive *transport*
/// failures accumulate (timeouts and wire errors — a server-answered
/// error, even `Busy`, proves the path works and resets the count),
/// the breaker opens and [`Client::decode_retry`] fails fast
/// with [`NetError::CircuitOpen`] without touching the network. After
/// `cooldown`, the next caller is granted exactly one deterministic
/// half-open probe: success closes the circuit, failure re-opens it
/// for another full cooldown. All decisions are pure functions of the
/// observed outcome sequence and elapsed time — no randomness.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    probing: bool,
}

impl CircuitBreaker {
    /// A breaker tripping after `threshold` consecutive transport
    /// failures (clamped to ≥ 1) and re-probing after `cooldown`.
    pub fn new(threshold: u32, cooldown: Duration) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            cooldown,
            consecutive_failures: 0,
            opened_at: None,
            probing: false,
        }
    }

    /// The current state (evaluating the cooldown against now).
    pub fn state(&self) -> CircuitState {
        match self.opened_at {
            None => CircuitState::Closed,
            Some(at) if !self.probing && at.elapsed() < self.cooldown => CircuitState::Open,
            Some(_) => CircuitState::HalfOpen,
        }
    }

    /// Asks to send one request. `true` admits it (and, when the
    /// circuit was open past its cooldown, marks it as *the* half-open
    /// probe); `false` means fail fast.
    pub fn allow(&mut self) -> bool {
        match self.opened_at {
            None => true,
            Some(at) if !self.probing && at.elapsed() >= self.cooldown => {
                self.probing = true;
                true
            }
            Some(_) => false,
        }
    }

    /// Records a request the server answered (any structured response,
    /// including errors): closes the circuit and resets the count.
    pub fn on_success(&mut self) {
        self.consecutive_failures = 0;
        self.opened_at = None;
        self.probing = false;
    }

    /// Records a transport failure (timeout or wire error): a failed
    /// half-open probe re-opens immediately, otherwise the consecutive
    /// count advances toward the threshold.
    pub fn on_failure(&mut self) {
        if self.probing {
            self.probing = false;
            self.consecutive_failures = self.threshold;
            self.opened_at = Some(Instant::now());
            return;
        }
        self.consecutive_failures += 1;
        if self.consecutive_failures >= self.threshold {
            self.opened_at = Some(Instant::now());
        }
    }
}

// ---------------------------------------------------------------------------
// Deadline-bounded socket I/O
// ---------------------------------------------------------------------------

/// A borrowed [`TcpStream`] whose every read, peek and write races one
/// absolute deadline and, once [`Self::or_shutdown`] gave it one, a
/// shutdown flag.
///
/// Before each syscall the time left, capped at the poll interval when
/// a flag is watched, becomes the socket timeout. A peer trickling one
/// byte per window therefore cannot stretch the operation past the
/// deadline: partial progress shrinks the next window instead of
/// resetting it. Socket wake-ups (`WouldBlock`, `TimedOut`) and
/// `Interrupted` are retried; the deadline surfaces as
/// `ErrorKind::TimedOut` and a raised flag as
/// `ErrorKind::ConnectionAborted`. With neither bound no timeout is
/// installed, and each call is the bare syscall.
///
/// The client bounds each request by its [`Client::op_deadline`]. The
/// server bounds the wait for a frame by its idle timeout and the frame
/// itself by its frame deadline, both watching its shutdown flag. The
/// chaos proxy's relays watch only their shutdown flag.
pub(crate) struct Deadline<'a> {
    stream: &'a TcpStream,
    at: Option<Instant>,
    shutdown: Option<(&'a AtomicBool, Duration)>,
}

impl<'a> Deadline<'a> {
    /// Bounds I/O on `stream` by `at` (`None`: no deadline).
    pub(crate) fn new(stream: &'a TcpStream, at: Option<Instant>) -> Self {
        Deadline {
            stream,
            at,
            shutdown: None,
        }
    }

    /// Also fails once `flag` is raised, re-checked at least every
    /// `poll`.
    pub(crate) fn or_shutdown(self, flag: &'a AtomicBool, poll: Duration) -> Self {
        Deadline {
            shutdown: Some((flag, poll)),
            ..self
        }
    }

    /// [`TcpStream::peek`] under the same bounds as a read.
    pub(crate) fn peek(&self, buf: &mut [u8]) -> io::Result<usize> {
        self.run(TcpStream::set_read_timeout, |s| s.peek(buf))
    }

    /// Runs one syscall `op` until it completes, installing the time
    /// left with `set` before each try.
    fn run<T>(
        &self,
        set: fn(&TcpStream, Option<Duration>) -> io::Result<()>,
        mut op: impl FnMut(&TcpStream) -> io::Result<T>,
    ) -> io::Result<T> {
        loop {
            let poll = match self.shutdown {
                Some((flag, _)) if flag.load(Ordering::SeqCst) => {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "shutting down",
                    ));
                }
                shutdown => shutdown.map(|(_, poll)| poll),
            };
            let left = self
                .at
                .map(|at| at.saturating_duration_since(Instant::now()));
            if left == Some(Duration::ZERO) {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "deadline elapsed"));
            }
            let window = left.into_iter().chain(poll).min();
            if window.is_some() {
                set(self.stream, window)?;
            }
            match op(self.stream) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                done => return done,
            }
        }
    }
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.run(TcpStream::set_read_timeout, |mut s| s.read(buf))
    }
}

impl Write for Deadline<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.run(TcpStream::set_write_timeout, |mut s| s.write(buf))
    }

    /// Forwarded so [`write_frame`] stays one vectored write.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.run(TcpStream::set_write_timeout, |mut s| s.write_vectored(bufs))
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(()) // a TcpStream buffers nothing
    }
}

/// The client's protocol rules, apart from the socket I/O that
/// [`Client`] does: when its socket may carry the next request, and
/// what a retry loop makes of an answer. The wire world in the
/// server's tests drives the same transitions.
#[derive(Debug, Default)]
pub(crate) struct ClientRules {
    /// The socket was retired; the next request dials a fresh one first.
    pub(crate) retired: bool,
    /// Busy answers the current retry loop has absorbed.
    busy: u32,
}

impl ClientRules {
    /// The socket-reuse rule: a socket carries the next request only
    /// after an OK answer. Returns whether to close it now.
    ///
    /// After a transport failure the socket may still deliver the late
    /// reply, which the next request would read as its own. After an
    /// error answer the server may already have closed: its acceptor
    /// follows a busy frame with a FIN, and a handler does the same
    /// after a protocol error for a broken or late frame and after its
    /// shutdown refusal, with frames byte-identical to the answers that
    /// keep a connection open.
    pub(crate) fn answered(&mut self, ok: bool) -> bool {
        self.retired = !ok;
        self.retired
    }

    /// The busy-retry rule: a busy answer is retried while the policy
    /// has attempts left, and turns into [`NetError::RetriesExhausted`]
    /// after; any other result ends the call. Returns the attempt
    /// (0-based) to back off for before the retry, or `None` when
    /// `result` ends the call.
    pub(crate) fn retry<T>(
        &mut self,
        result: &mut Result<T, NetError>,
        max_retries: u32,
    ) -> Option<u32> {
        if !matches!(result, Err(NetError::Busy)) {
            self.busy = 0;
        } else if self.busy < max_retries {
            self.busy += 1;
            return Some(self.busy - 1);
        } else {
            let attempts = std::mem::take(&mut self.busy) + 1;
            *result = Err(NetError::RetriesExhausted { attempts });
        }
        None
    }
}

/// A blocking client for a [`crate::server::DecodeServer`]: one
/// connection, requests answered in order.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    addr: SocketAddr,
    op_deadline: Option<Duration>,
    rules: ClientRules,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Any connect-time [`io::Error`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let addr = stream.peer_addr()?;
        Ok(Client {
            stream,
            addr,
            op_deadline: None,
            rules: ClientRules::default(),
        })
    }

    /// Bounds every [`Self::request`] (send + full reply) by one
    /// wall-clock deadline, surfacing expiry as [`NetError::Timeout`].
    ///
    /// Without it, a server (or intermediary) that stalls mid-frame
    /// after the header hangs the client forever: per-read socket
    /// timeouts alone reset on every byte, so a trickling peer evades
    /// them. The deadline is absolute per operation — partial progress
    /// shrinks the remaining window instead of resetting it. A deadline
    /// past the clock's range bounds nothing.
    #[must_use]
    pub fn op_deadline(mut self, deadline: Duration) -> Self {
        self.op_deadline = Some(deadline);
        self
    }

    /// Sends one decode request and blocks for the response.
    ///
    /// The socket carries the next request only after an OK answer.
    /// After any error the client retires it, and the next request
    /// dials a fresh one before it sends: a timed-out socket may still
    /// deliver the late reply, and after an error answer the server may
    /// have closed the connection. A retired client that stays idle
    /// holds no connection, so a caller that gives up after an error
    /// leaves no handler pinned.
    ///
    /// # Errors
    ///
    /// The full [`NetError`] taxonomy; [`NetError::Busy`] is the
    /// retryable one, and [`NetError::Timeout`] reports an elapsed
    /// [`Self::op_deadline`]. A failed dial is a [`NetError::Wire`]
    /// error, and the request after it dials again.
    pub fn request(&mut self, request: &Request, stream: &[u8]) -> Result<NetResponse, NetError> {
        if self.rules.retired {
            self.reconnect()?;
        }
        let result = self.exchange(request, stream);
        if self.rules.answered(result.is_ok()) {
            let _ = self.stream.shutdown(Shutdown::Both);
        }
        result
    }

    /// One request frame out and one response frame back, inside the
    /// operation deadline when there is one. The request payload is a
    /// temporary, freed before the reply is read.
    fn exchange(&self, request: &Request, stream: &[u8]) -> Result<NetResponse, NetError> {
        // A deadline past the clock's range is no deadline.
        let at = self.op_deadline.and_then(|t| Instant::now().checked_add(t));
        let mut io = Deadline::new(&self.stream, at);
        write_frame(&mut io, &encode_request(request, stream))?;
        let payload = read_frame(&mut io, MAX_FRAME_BYTES)?.ok_or(WireError::Truncated)?;
        decode_response(&payload)
    }

    /// [`Self::request`], absorbing [`NetError::Busy`] answers under
    /// `policy`'s deterministic backoff, each retry on a fresh
    /// connection, and behind `breaker` when there is one: an open
    /// breaker fails the call fast with [`NetError::CircuitOpen`]
    /// without touching the network, so a blackholed server costs one
    /// deadline per cooldown instead of one per request.
    ///
    /// Breaker accounting: timeouts and wire errors are failures;
    /// *any* server-answered outcome — success, `Busy`, or a
    /// structured server error — proves the path works and resets the
    /// breaker.
    ///
    /// # Errors
    ///
    /// [`NetError::RetriesExhausted`] once the busy budget is spent,
    /// [`NetError::CircuitOpen`] when the breaker is open, and any
    /// other error of [`Self::request`] at once.
    pub fn decode_retry(
        &mut self,
        request: &Request,
        stream: &[u8],
        policy: &NetRetryPolicy,
        mut breaker: Option<&mut CircuitBreaker>,
    ) -> Result<NetResponse, NetError> {
        if breaker.as_mut().is_some_and(|b| !b.allow()) {
            return Err(NetError::CircuitOpen);
        }
        loop {
            let mut result = self.request(request, stream);
            if let Some(b) = breaker.as_deref_mut() {
                match result {
                    Err(NetError::Timeout | NetError::Wire(_)) => b.on_failure(),
                    _ => b.on_success(),
                }
            }
            match self.rules.retry(&mut result, policy.max_retries) {
                Some(attempt) => std::thread::sleep(policy.backoff(attempt)),
                None => return result,
            }
        }
    }

    /// Dials a fresh socket through [`Self::connect`], so it can never
    /// lose an option the first one had. The `op_deadline` lives on the
    /// `Client` and is applied per request, so it survives any number
    /// of reconnects (regression:
    /// `reconnected_client_keeps_its_op_deadline`).
    fn reconnect(&mut self) -> io::Result<()> {
        self.stream = Self::connect(self.addr)?.stream;
        self.rules.retired = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode, EncodeParams, Mode};
    use crate::fuzz::Mutator;

    fn test_image() -> Image {
        Image::synthetic_rgb(16, 16, 5)
    }

    #[test]
    fn frame_roundtrips() {
        let payload = b"the quick brown fox".to_vec();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        assert_eq!(wire.len(), 8 + payload.len() + 4);
        let back = read_frame(&mut &wire[..], MAX_FRAME_BYTES).unwrap();
        assert_eq!(back, Some(payload));
        // Clean EOF between frames.
        assert_eq!(read_frame(&mut &[][..], MAX_FRAME_BYTES).unwrap(), None);
    }

    #[test]
    fn frame_rejects_bad_magic_oversize_truncation_and_crc() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();

        let mut bad_magic = wire.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut &bad_magic[..], MAX_FRAME_BYTES),
            Err(WireError::BadMagic(_))
        ));

        assert!(matches!(
            read_frame(&mut &wire[..], 3),
            Err(WireError::Oversized { len: 7, max: 3 })
        ));

        for cut in 1..wire.len() {
            assert!(
                matches!(
                    read_frame(&mut &wire[..cut], MAX_FRAME_BYTES),
                    Err(WireError::Truncated)
                ),
                "cut at {cut}"
            );
        }

        let mut corrupt = wire.clone();
        let n = corrupt.len();
        corrupt[9] ^= 0x01; // payload byte: CRC must catch it
        assert!(matches!(
            read_frame(&mut &corrupt[..], MAX_FRAME_BYTES),
            Err(WireError::Crc { .. })
        ));
        let mut bad_trailer = wire;
        bad_trailer[n - 1] ^= 0x80; // trailer byte: same
        assert!(matches!(
            read_frame(&mut &bad_trailer[..], MAX_FRAME_BYTES),
            Err(WireError::Crc { .. })
        ));
    }

    #[test]
    fn request_roundtrips_for_every_kind() {
        let stream = vec![1u8, 2, 3, 4, 5];
        for request in [
            Request::strict(),
            Request::tolerant(),
            Request::quality(3),
            Request::thumbnail(2),
            Request::strict().with_timeout(Duration::from_millis(1500)),
        ] {
            let payload = encode_request(&request, &stream);
            let back = decode_request(&payload).unwrap();
            assert_eq!(back.request, request);
            assert_eq!(*back.stream, stream[..]);
        }
        // Sub-millisecond deadlines round up to 1 ms, not silently to
        // "no deadline".
        let tight = Request::strict().with_timeout(Duration::from_micros(10));
        let back = decode_request(&encode_request(&tight, &stream)).unwrap();
        assert_eq!(back.request.timeout, Some(Duration::from_millis(1)));
    }

    #[test]
    fn request_rejects_grammar_violations() {
        let good = encode_request(&Request::strict(), b"abc");
        for (mutate, what) in [(0usize, "tag"), (1, "version"), (2, "kind")] {
            let mut bad = good.clone();
            bad[mutate] = 0x7F;
            let err = decode_request(&bad).unwrap_err();
            assert!(matches!(err, WireError::Protocol(_)), "{what}: {err}");
        }
        // Stream length disagreeing with the payload.
        let mut bad = good.clone();
        bad[11] ^= 0x01;
        assert!(matches!(decode_request(&bad), Err(WireError::Protocol(_))));
        // Trailing garbage.
        let mut bad = good;
        bad.push(0);
        assert!(matches!(decode_request(&bad), Err(WireError::Protocol(_))));
    }

    fn two_failure_report() -> WireReport {
        WireReport {
            failures: vec![
                WireFailure {
                    tile: Some(3),
                    stage: DecodeStage::Entropy,
                    detail: "mq decoder desynchronised".into(),
                },
                WireFailure {
                    tile: None,
                    stage: DecodeStage::TileParse,
                    detail: "truncated tile-part".into(),
                },
            ],
        }
    }

    #[test]
    fn ok_response_roundtrips_image_and_report() {
        let img = test_image();
        let report = two_failure_report();
        let payload = encode_ok(&img, Some(&report), ServedFrom::HeaderCache);
        let back = decode_response(&payload).unwrap();
        assert_eq!(back.image, img);
        assert_eq!(back.report.as_ref(), Some(&report));
        assert_eq!(back.served_from, ServedFrom::HeaderCache);

        let bare = decode_response(&encode_ok(&img, None, ServedFrom::Cold)).unwrap();
        assert_eq!(bare.image, img);
        assert_eq!(bare.report, None);
    }

    #[test]
    fn error_responses_map_the_service_taxonomy() {
        use crate::error::CodecError;
        type NetMatcher = fn(&NetError) -> bool;
        let cases: [(ServiceError, NetMatcher); 5] = [
            (ServiceError::QueueFull, |e| matches!(e, NetError::Busy)),
            (ServiceError::DeadlineExceeded, |e| {
                matches!(e, NetError::Expired)
            }),
            (ServiceError::ShuttingDown, |e| {
                matches!(e, NetError::Refused)
            }),
            (
                ServiceError::Panicked("boom".into()),
                |e| matches!(e, NetError::Internal(d) if d.contains("boom")),
            ),
            (
                ServiceError::Decode(CodecError::malformed("bad marker")),
                |e| matches!(e, NetError::Decode(d) if d.contains("bad marker")),
            ),
        ];
        for (service_err, matches_net) in cases {
            let payload = encode_service_error(&service_err);
            let err = decode_response(&payload).unwrap_err();
            assert!(matches_net(&err), "{service_err:?} -> {err:?}");
        }
        let err = decode_response(&encode_protocol_error("bad frame")).unwrap_err();
        assert!(matches!(err, NetError::Protocol(d) if d.contains("bad frame")));
        let err = decode_response(&encode_busy()).unwrap_err();
        assert!(matches!(err, NetError::Busy));
    }

    /// FNV-1a-64, for pinning whole frames the way `codec::tests` pins
    /// images.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Byte-identity pins of complete frames — header, payload and CRC
    /// trailer — for every message shape. A roundtrip test cannot see a
    /// change made symmetrically on both ends (a reordered field, a
    /// different CRC); these hashes can, so the wire stays compatible
    /// with every deployed peer.
    #[test]
    fn wire_frames_are_pinned() {
        use crate::codec::{encode, EncodeParams, Mode};
        use crate::error::CodecError;
        let table1 = Image::synthetic_rgb(128, 128, 2008);
        let stream = encode(
            &table1,
            &EncodeParams::new(Mode::Lossless).tile_size(32, 32),
        )
        .unwrap();
        let report = two_failure_report();
        let strict_1500 = Request::strict().with_timeout(Duration::from_millis(1500));
        let decode_err = ServiceError::Decode(CodecError::malformed("bad marker"));
        let cases: [(&str, Vec<u8>, u64); 10] = [
            (
                "ok, Table-1 image + report, header cache",
                encode_ok(&table1, Some(&report), ServedFrom::HeaderCache),
                0xc551_8b6b_8fc3_559f,
            ),
            (
                "ok, test image, cold",
                encode_ok(&test_image(), None, ServedFrom::Cold),
                0x2fa2_f92e_f0ee_73bf,
            ),
            (
                "strict request, 1500 ms, Table-1 lossless stream",
                encode_request(&strict_1500, &stream),
                0x3f92_acb9_87d3_ff3f,
            ),
            (
                "queue full",
                encode_service_error(&ServiceError::QueueFull),
                0x705a_846e_a2c3_d5a3,
            ),
            (
                "deadline exceeded",
                encode_service_error(&ServiceError::DeadlineExceeded),
                0xcb81_23ac_996c_8285,
            ),
            (
                "shutting down",
                encode_service_error(&ServiceError::ShuttingDown),
                0x5f8d_0fab_6420_98ef,
            ),
            (
                "panicked",
                encode_service_error(&ServiceError::Panicked("boom".into())),
                0x95b6_2c41_b509_ef88,
            ),
            (
                "decode failure",
                encode_service_error(&decode_err),
                0x4076_b397_caab_3175,
            ),
            ("busy", encode_busy(), 0x705a_846e_a2c3_d5a3),
            (
                "protocol error",
                encode_protocol_error("bad frame"),
                0x0085_5058_bc92_163d,
            ),
        ];
        for (what, payload, want) in cases {
            let mut frame = Vec::new();
            write_frame(&mut frame, &payload).unwrap();
            assert_eq!(fnv1a(&frame), want, "{what}: frame bytes changed");
        }
    }

    #[test]
    fn response_rejects_lying_plane_and_failure_counts() {
        // A plane claiming more samples than the payload carries must
        // be rejected before any allocation of that size.
        let img = test_image();
        let mut payload = encode_ok(&img, None, ServedFrom::Cold);
        // plane 0 width lives right after tag+status+served+w+h+depth+ncomp.
        let plane_w_at = 1 + 1 + 1 + 4 + 4 + 1 + 1;
        payload[plane_w_at..plane_w_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_response(&payload),
            Err(NetError::Wire(WireError::Protocol(_)))
        ));

        let report = WireReport { failures: vec![] };
        let mut payload = encode_ok(&img, Some(&report), ServedFrom::Cold);
        let n = payload.len();
        payload[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes()); // failure count
        assert!(matches!(
            decode_response(&payload),
            Err(NetError::Wire(WireError::Protocol(_)))
        ));
    }

    /// The deterministic structure-aware mutation engine from the fuzz
    /// harness, pointed at wire frames instead of codestreams: no
    /// mutation may panic the frame reader or the payload parsers —
    /// every outcome is a structured accept or reject. (A mutation
    /// *can* rewrite a frame into a different valid one — e.g. zeroing
    /// length, payload and trailer together, since `crc32([]) == 0` —
    /// so accepted-implies-identical would be too strong; integrity
    /// against single corruptions is covered by
    /// [`frame_rejects_bad_magic_oversize_truncation_and_crc`].)
    #[test]
    fn mutated_frames_never_panic_and_never_parse_wrong() {
        let img = Image::synthetic_rgb(8, 8, 1);
        let stream = encode(&img, &EncodeParams::new(Mode::Lossless)).unwrap();
        let seeds: [Vec<u8>; 3] = [
            {
                let mut w = Vec::new();
                write_frame(&mut w, &encode_request(&Request::quality(2), &stream)).unwrap();
                w
            },
            {
                let mut w = Vec::new();
                write_frame(&mut w, &encode_ok(&img, None, ServedFrom::Cold)).unwrap();
                w
            },
            {
                let mut w = Vec::new();
                write_frame(&mut w, &encode_service_error(&ServiceError::QueueFull)).unwrap();
                w
            },
        ];
        let iters: usize = std::env::var("FUZZ_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(200);
        let mut mutator = Mutator::new(0x6E65_7431);
        let mut accepted = 0u32;
        for seed_frame in &seeds {
            for _ in 0..iters {
                let (mutated, _mutation) = mutator.mutate(seed_frame);
                if mutated.is_empty() {
                    continue;
                }
                match read_frame(&mut &mutated[..], MAX_FRAME_BYTES) {
                    Err(_) | Ok(None) => {} // structured rejection: the point
                    Ok(Some(payload)) => {
                        accepted += 1;
                        // CRC + length accepted the frame: the payload
                        // parsers must parse or reject cleanly, never
                        // panic.
                        let _ = decode_request(&payload);
                        let _ = decode_response(&payload);
                    }
                }
            }
        }
        // Some mutations (e.g. header-only overwrites past the trailer
        // region) leave the frame valid; the loop must exercise both
        // branches for the no-panic claim to mean anything.
        assert!(accepted > 0, "no mutation left any frame acceptable");
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let policy = NetRetryPolicy::default();
        let a: Vec<Duration> = (0..10).map(|i| policy.backoff(i)).collect();
        let b: Vec<Duration> = (0..10).map(|i| policy.backoff(i)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        for (i, d) in a.iter().enumerate() {
            let cap = policy.backoff_cap + policy.backoff_cap / 4;
            assert!(*d <= cap, "attempt {i}: {d:?} above cap+jitter {cap:?}");
        }
        assert!(a[3] > a[0], "backoff must grow");
        let other = NetRetryPolicy {
            jitter_seed: 99,
            ..NetRetryPolicy::default()
        };
        assert_ne!(
            (0..10).map(|i| other.backoff(i)).collect::<Vec<_>>(),
            a,
            "different seeds de-synchronise"
        );
    }

    /// A reader/writer delivering one byte per call and injecting a
    /// spurious `Interrupted` every `interrupt_every` operations — the
    /// worst honest transport the frame layer can meet.
    struct Trickle<T> {
        inner: T,
        interrupt_every: usize,
        ops: usize,
    }

    impl<T> Trickle<T> {
        fn new(inner: T, interrupt_every: usize) -> Self {
            Trickle {
                inner,
                interrupt_every,
                ops: 0,
            }
        }

        fn interrupts(&mut self) -> bool {
            self.ops += 1;
            self.interrupt_every > 0 && self.ops.is_multiple_of(self.interrupt_every)
        }
    }

    impl<R: Read> Read for Trickle<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.interrupts() {
                return Err(io::Error::new(io::ErrorKind::Interrupted, "spurious"));
            }
            let take = buf.len().min(1);
            self.inner.read(&mut buf[..take])
        }
    }

    impl<W: Write> Write for Trickle<W> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.interrupts() {
                return Err(io::Error::new(io::ErrorKind::Interrupted, "spurious"));
            }
            let take = buf.len().min(1);
            self.inner.write(&buf[..take])
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    #[test]
    fn frames_survive_one_byte_reads_writes_and_interrupts() {
        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 253) as u8).collect();
        // interrupt_every = 1 would never progress; 2 interrupts every
        // other call including the very first read (the first-byte
        // path that used to surface Interrupted as an Io error).
        for interrupt_every in [0usize, 2, 3, 7] {
            let mut writer = Trickle::new(Vec::new(), interrupt_every);
            write_frame(&mut writer, &payload).unwrap();
            let wire = writer.inner;
            // Interruption starts fresh on the read side so the first
            // header byte also sees an Interrupted when every == 2...
            // ops counter starts at 0, first call ops=1, interrupts at
            // ops % every == 0, i.e. the second call. Shift by one op
            // to hit the first-byte read too.
            let mut reader = Trickle::new(&wire[..], interrupt_every);
            if interrupt_every > 0 {
                reader.ops = interrupt_every - 1; // next call interrupts
            }
            let back = read_frame(&mut reader, MAX_FRAME_BYTES).unwrap();
            assert_eq!(
                back.as_deref(),
                Some(&payload[..]),
                "interrupt_every={interrupt_every}"
            );
        }
    }

    /// A writer whose `write_vectored` accepts at most `cap` bytes per
    /// call, spread across as many slices as they span, and fails
    /// every third call with `Interrupted`.
    struct Capped {
        out: Vec<u8>,
        cap: usize,
        calls: usize,
    }

    impl Write for Capped {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                return Err(io::Error::new(io::ErrorKind::Interrupted, "spurious"));
            }
            let mut taken = 0;
            for buf in bufs {
                let take = buf.len().min(self.cap - taken);
                self.out.extend_from_slice(&buf[..take]);
                taken += take;
            }
            Ok(taken)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_frame_writes_survive_short_and_interrupted_writes() {
        for payload in [Vec::new(), (0..1000u32).map(|i| (i % 251) as u8).collect()] {
            let mut expected = Vec::new();
            expected.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
            expected.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            expected.extend_from_slice(&payload);
            expected.extend_from_slice(&crc32(&payload).to_le_bytes());
            for cap in [1, 3, 5, 9, 13, 4096] {
                let mut w = Capped {
                    out: Vec::new(),
                    cap,
                    calls: 0,
                };
                write_frame(&mut w, &payload).unwrap();
                assert_eq!(w.out, expected, "cap {cap}, {} bytes", payload.len());
                if cap >= expected.len() {
                    assert_eq!(w.calls, 1, "a frame that fits is one write");
                }
            }
        }
    }

    /// A reader that serves the scripted chunk sizes first, then one
    /// byte per call.
    struct Scripted<'a> {
        data: &'a [u8],
        chunks: std::slice::Iter<'a, usize>,
    }

    impl Read for Scripted<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.chunks.next().copied().unwrap_or(1);
            let n = n.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn frames_read_back_from_split_headers_and_one_byte_bodies() {
        let payload: Vec<u8> = (0..300u32).map(|i| (i * 7 % 256) as u8).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        for split in [[2, 6], [7, 1]] {
            let mut reader = Scripted {
                data: &wire,
                chunks: split.iter(),
            };
            let back = read_frame(&mut reader, MAX_FRAME_BYTES).unwrap();
            assert_eq!(
                back.as_deref(),
                Some(&payload[..]),
                "header split {split:?}"
            );
            assert!(reader.data.is_empty(), "the whole frame was consumed");
        }
    }

    #[test]
    fn circuit_breaker_trips_probes_and_recovers() {
        let mut b = CircuitBreaker::new(3, Duration::from_millis(30));
        assert_eq!(b.state(), CircuitState::Closed);
        // Failures below the threshold keep the circuit closed; an
        // intervening success resets the count entirely.
        assert!(b.allow());
        b.on_failure();
        assert!(b.allow());
        b.on_failure();
        b.on_success();
        assert!(b.allow());
        b.on_failure();
        b.on_failure();
        assert_eq!(b.state(), CircuitState::Closed);
        b.on_failure(); // third consecutive: trip
        assert_eq!(b.state(), CircuitState::Open);
        assert!(!b.allow(), "open circuit fails fast");
        assert!(!b.allow());
        // Cooldown elapses: exactly one half-open probe is granted.
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(b.state(), CircuitState::HalfOpen);
        assert!(b.allow(), "one probe after cooldown");
        assert!(!b.allow(), "second concurrent probe denied");
        // Failed probe re-opens for a full cooldown.
        b.on_failure();
        assert_eq!(b.state(), CircuitState::Open);
        assert!(!b.allow());
        std::thread::sleep(Duration::from_millis(40));
        assert!(b.allow());
        b.on_success();
        assert_eq!(b.state(), CircuitState::Closed);
        assert!(b.allow(), "closed again after a successful probe");
    }

    /// Regression (PR 9): a server stalling mid-frame after the header
    /// used to hang `Client::request` forever — per-read timeouts reset
    /// on every byte. With an operation deadline the client returns
    /// [`NetError::Timeout`] within the budget.
    #[test]
    fn stalled_server_times_out_instead_of_hanging() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let stall = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // Read the request, then answer with a frame header that
            // promises a payload and trickle exactly one byte of it.
            let mut sink = [0u8; 4096];
            while let Ok(n) = s.read(&mut sink) {
                if n == 0 || n < sink.len() {
                    break;
                }
            }
            let mut head = [0u8; 8];
            head[..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
            head[4..].copy_from_slice(&1024u32.to_le_bytes());
            s.write_all(&head).unwrap();
            s.write_all(&[0u8]).unwrap();
            // ...then stall until the test ends.
            let _ = stop_rx.recv_timeout(Duration::from_secs(30));
        });
        let mut client = Client::connect(addr)
            .unwrap()
            .op_deadline(Duration::from_millis(200));
        let started = Instant::now();
        let err = client
            .request(&Request::strict(), b"unused")
            .expect_err("stalled server must not produce a response");
        let elapsed = started.elapsed();
        assert!(matches!(err, NetError::Timeout), "{err:?}");
        assert!(
            elapsed >= Duration::from_millis(150) && elapsed < Duration::from_secs(5),
            "deadline respected: {elapsed:?}"
        );
        stop_tx.send(()).unwrap();
        stall.join().unwrap();
    }

    /// Regression: after a [`NetError::Timeout`], `request` and
    /// `decode_retry` kept their socket, so the next request read the
    /// late reply to the timed-out one. A scripted server answers the
    /// first request with image A only once the client's deadline has
    /// fired, and every later request at once with image B, on
    /// whichever connection carries it.
    #[test]
    fn a_late_reply_is_never_read_as_the_next_answer() {
        use std::net::TcpListener;
        let a = Image::synthetic_rgb(32, 32, 1);
        let b = test_image();
        for use_retry in [false, true] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let (late_tx, late_rx) = std::sync::mpsc::channel::<()>();
            let replies = [
                encode_ok(&a, None, ServedFrom::Cold),
                encode_ok(&b, None, ServedFrom::Cold),
            ];
            let server = std::thread::spawn(move || {
                let mut answered = 0;
                for conn in listener.incoming() {
                    let mut conn = conn.unwrap();
                    while let Ok(Some(_)) = read_frame(&mut conn, MAX_FRAME_BYTES) {
                        if answered == 0 {
                            let _ = late_rx.recv();
                        }
                        let _ = write_frame(&mut conn, &replies[answered.min(1)]);
                        answered += 1;
                    }
                    if answered >= 2 {
                        return;
                    }
                }
            });
            let mut client = Client::connect(addr)
                .unwrap()
                .op_deadline(Duration::from_millis(200));
            let policy = NetRetryPolicy::default();
            let ask = |client: &mut Client| {
                if use_retry {
                    client.decode_retry(&Request::strict(), b"x", &policy, None)
                } else {
                    client.request(&Request::strict(), b"x")
                }
            };
            let err = ask(&mut client).expect_err("image A comes after the deadline");
            assert!(matches!(err, NetError::Timeout), "{err:?}");
            late_tx.send(()).unwrap();
            let resp = ask(&mut client).unwrap();
            assert!(
                resp.image == b,
                "retry {use_retry}: read the late {}x{} reply",
                resp.image.width,
                resp.image.height
            );
            drop(client);
            server.join().unwrap();
        }
    }

    /// Regression: the client retired its socket only after `Busy`,
    /// `Timeout` or `Wire`, but the server also closes right after the
    /// protocol error it answers a corrupt or late frame with, so the
    /// next request read EOF and failed `Wire(Truncated)`. The client
    /// now dials again after any error. The listener answers as the
    /// server does: a protocol error, a FIN and a close.
    #[test]
    fn a_client_dials_again_after_an_error_answer() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let image = test_image();
        let reply = encode_ok(&image, None, ServedFrom::Cold);
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            assert!(read_frame(&mut s, MAX_FRAME_BYTES).unwrap().is_some());
            write_frame(&mut s, &encode_protocol_error("frame crc mismatch")).unwrap();
            s.shutdown(Shutdown::Write).unwrap();
            drop(s);
            let (mut s, _) = listener.accept().unwrap();
            assert!(read_frame(&mut s, MAX_FRAME_BYTES).unwrap().is_some());
            write_frame(&mut s, &reply).unwrap();
        });
        let mut client = Client::connect(addr)
            .unwrap()
            .op_deadline(Duration::from_secs(10));
        let err = client.request(&Request::strict(), b"x").unwrap_err();
        assert!(
            matches!(&err, NetError::Protocol(d) if d.contains("crc")),
            "{err:?}"
        );
        let resp = client.request(&Request::strict(), b"x").unwrap();
        assert_eq!(resp.image, image);
        server.join().unwrap();
    }

    /// The coalesced outcome is part of the wire taxonomy: it
    /// roundtrips alongside the cache levels, and codes beyond the
    /// taxonomy stay protocol errors rather than panics.
    #[test]
    fn coalesced_served_from_roundtrips_on_the_wire() {
        let img = test_image();
        let back = decode_response(&encode_ok(&img, None, ServedFrom::Coalesced)).unwrap();
        assert_eq!(back.served_from, ServedFrom::Coalesced);
        assert_eq!(back.image, img);
        for s in [
            ServedFrom::Cold,
            ServedFrom::HeaderCache,
            ServedFrom::ImageCache,
            ServedFrom::Coalesced,
        ] {
            assert_eq!(served_from_wire(served_to_wire(s)).unwrap(), s);
        }
        for v in 4..=u8::MAX {
            assert!(
                matches!(served_from_wire(v), Err(WireError::Protocol(_))),
                "wire code {v} must be rejected"
            );
        }
    }

    /// Regression: the audit of `reconnect()` — the fresh socket must
    /// behave exactly like the original, in particular a mid-frame
    /// stall *after* a reconnect must still surface as
    /// [`NetError::Timeout`] under the client's `op_deadline` rather
    /// than hanging (the deadline lives on the `Client`, not the
    /// socket, and installs its timeouts per syscall).
    #[test]
    fn reconnected_client_keeps_its_op_deadline() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let stall = std::thread::spawn(move || {
            // First connection: the client's original socket; it goes
            // quiet once the client reconnects.
            let (_original, _) = listener.accept().unwrap();
            // Second connection (post-reconnect): read the request,
            // promise a 1024-byte frame, deliver one byte, stall.
            let (mut s, _) = listener.accept().unwrap();
            let mut sink = [0u8; 4096];
            while let Ok(n) = s.read(&mut sink) {
                if n == 0 || n < sink.len() {
                    break;
                }
            }
            let mut head = [0u8; 8];
            head[..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
            head[4..].copy_from_slice(&1024u32.to_le_bytes());
            s.write_all(&head).unwrap();
            s.write_all(&[0u8]).unwrap();
            let _ = stop_rx.recv_timeout(Duration::from_secs(30));
        });
        let mut client = Client::connect(addr)
            .unwrap()
            .op_deadline(Duration::from_millis(200));
        client.reconnect().unwrap();
        let started = Instant::now();
        let err = client
            .request(&Request::strict(), b"unused")
            .expect_err("a mid-frame stall after reconnect must not hang");
        let elapsed = started.elapsed();
        assert!(matches!(err, NetError::Timeout), "{err:?}");
        assert!(
            elapsed >= Duration::from_millis(150) && elapsed < Duration::from_secs(5),
            "deadline survived the reconnect: {elapsed:?}"
        );
        stop_tx.send(()).unwrap();
        stall.join().unwrap();
    }

    /// An operation deadline past the clock's range bounds nothing.
    /// Adding it to the request's start instant used to panic.
    #[test]
    fn an_op_deadline_past_the_clocks_range_bounds_nothing() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let image = test_image();
        let reply = encode_ok(&image, None, ServedFrom::Cold);
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let request = read_frame(&mut s, MAX_FRAME_BYTES).unwrap();
            assert!(request.is_some(), "the client sent its request");
            write_frame(&mut s, &reply).unwrap();
        });
        let mut client = Client::connect(addr).unwrap().op_deadline(Duration::MAX);
        let resp = client.request(&Request::strict(), b"unused").unwrap();
        assert_eq!(resp.image, image);
        server.join().unwrap();
    }

    /// A breaker-guarded client against a blackhole: the first
    /// `threshold` calls each pay one deadline, every later call fails
    /// fast with `CircuitOpen` until the cooldown.
    #[test]
    fn guarded_retry_fails_fast_once_the_breaker_trips() {
        use std::net::TcpListener;
        // A listener that accepts and never answers.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let hole = std::thread::spawn(move || {
            let mut held = Vec::new();
            listener.set_nonblocking(true).unwrap();
            loop {
                if let Ok((s, _)) = listener.accept() {
                    held.push(s);
                }
                if stop_rx.try_recv().is_ok() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let mut client = Client::connect(addr)
            .unwrap()
            .op_deadline(Duration::from_millis(100));
        let mut breaker = CircuitBreaker::new(2, Duration::from_secs(60));
        let policy = NetRetryPolicy::default();
        for i in 0..2 {
            let err = client
                .decode_retry(&Request::strict(), b"x", &policy, Some(&mut breaker))
                .expect_err("blackhole cannot answer");
            assert!(matches!(err, NetError::Timeout), "call {i}: {err:?}");
        }
        assert_eq!(breaker.state(), CircuitState::Open);
        let started = Instant::now();
        let err = client
            .decode_retry(&Request::strict(), b"x", &policy, Some(&mut breaker))
            .expect_err("open breaker fails fast");
        assert!(matches!(err, NetError::CircuitOpen), "{err:?}");
        assert!(
            started.elapsed() < Duration::from_millis(50),
            "fail-fast must not touch the network: {:?}",
            started.elapsed()
        );
        stop_tx.send(()).unwrap();
        hole.join().unwrap();
    }
}
