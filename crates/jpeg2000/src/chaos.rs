//! Deterministic TCP chaos proxy for the network decode stack.
//!
//! PR 4 fault-injected the *simulated* intra-chip transport
//! (`osss_vta`'s `FaultyChannel`); this module applies the same
//! discipline to the real TCP front-end: [`ChaosProxy`] sits between a
//! [`crate::net::Client`] and a [`crate::server::DecodeServer`] on
//! loopback and injects
//!
//! * **partial writes** — forwarded byte runs split into 1..N-byte
//!   chunks, so neither peer may assume a frame arrives in one read;
//! * **inter-chunk stalls** — bounded sleeps between chunks (a slow or
//!   congested path);
//! * **byte corruption** — single bytes XOR-damaged in flight, which
//!   the frame CRC must catch;
//! * **mid-frame connection drops** — both sides of a proxied
//!   connection torn down at a chunk boundary;
//! * **whole-connection blackholes** — a connection whose bytes are
//!   swallowed without ever reaching the server (the failure mode a
//!   client-side deadline and circuit breaker exist for).
//!
//! Every decision is a pure splitmix64-style hash of
//! `(seed, connection, byte counter)` — exactly the `FaultConfig`
//! recipe — never wall-clock or a global RNG, so a fault schedule is
//! replayable: the same connection seeing the same byte positions takes
//! the same faults on every run. (Chunk-level decisions — split, stall,
//! drop — are evaluated at the byte position where the chunk starts;
//! per-byte corruption is keyed on the absolute position of each
//! forwarded byte.)
//!
//! The proxy keeps per-direction [`ChaosStats`] (client→server
//! *upstream*, server→client *downstream*) so a soak run can report
//! exactly how much damage the stack absorbed. See `tests/chaos.rs` for
//! the invariants the decode stack must uphold under any schedule.

use crate::net::{Deadline, POLL_INTERVAL};
use osss_sim::lock_unpoisoned;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Domain-separation constants for the per-fault-kind hash streams
/// (mirrors `vta::fault`'s `STREAM_*` values in spirit).
const STREAM_UP: u64 = 0x5550_5354_5245_414D; // "UPSTREAM"
const STREAM_DOWN: u64 = 0x444F_574E_5354_524D; // "DOWNSTRM"
const KIND_SPLIT: u64 = 0x53504C49_54535049; // split decision
const KIND_SPLIT_LEN: u64 = 0x53504C49_544C454E; // split length
const KIND_STALL: u64 = 0x5354414C_4C535441; // stall decision
const KIND_STALL_LEN: u64 = 0x5354414C_4C4C454E; // stall duration
const KIND_FLIP: u64 = 0x464C4950_464C4950; // byte corruption
const KIND_FLIP_MASK: u64 = 0x464C4950_4D41534B; // corruption mask
const KIND_DROP: u64 = 0x44524F50_44524F50; // connection drop
const KIND_HOLE: u64 = 0x484F4C45_484F4C45; // connection blackhole

/// splitmix64-style finaliser over `(seed, stream, connection, n)`:
/// the deterministic noise source behind every proxy decision.
fn mix(seed: u64, stream: u64, conn: u64, n: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ conn.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ n.wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform value in `[0, 1)` with 53 bits of
/// precision (the `vta::fault` mapping).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// The seeded fault process driving a [`ChaosProxy`]. All rates are
/// probabilities in `[0, 1]` evaluated against the deterministic hash
/// streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed of the deterministic decision streams.
    pub seed: u64,
    /// Probability (per chunk) that the next forwarded chunk is cut to
    /// a tiny 1..=[`Self::max_split`] bytes instead of the whole run.
    pub split_rate: f64,
    /// Upper bound (inclusive) on a split chunk's length.
    pub max_split: usize,
    /// Probability (per chunk) of an injected stall before forwarding.
    pub stall_rate: f64,
    /// Upper bound on one injected stall.
    pub max_stall: Duration,
    /// Probability (per byte) that a forwarded byte is XOR-damaged.
    pub corrupt_rate: f64,
    /// Probability (per chunk) that the whole proxied connection is
    /// torn down — both sides — before the chunk is forwarded.
    pub drop_rate: f64,
    /// Probability (per connection) that the connection is a blackhole:
    /// accepted, but every byte swallowed and nothing ever answered.
    pub blackhole_rate: f64,
}

impl ChaosConfig {
    /// A fault-free schedule: the proxy becomes a pure TCP relay
    /// (transparency-tested in this module).
    pub fn clean(seed: u64) -> Self {
        ChaosConfig {
            seed,
            split_rate: 0.0,
            max_split: 16,
            stall_rate: 0.0,
            max_stall: Duration::ZERO,
            corrupt_rate: 0.0,
            drop_rate: 0.0,
            blackhole_rate: 0.0,
        }
    }

    /// A degraded-but-honest link: heavy fragmentation, occasional
    /// stalls, rare corruption and drops, no blackholes. The corrupt
    /// rate is per *byte*, so even 1e-6 flips a visible fraction of
    /// ~200 KiB image replies.
    pub fn lossy(seed: u64) -> Self {
        ChaosConfig {
            split_rate: 0.35,
            stall_rate: 0.05,
            max_stall: Duration::from_millis(5),
            corrupt_rate: 1e-6,
            drop_rate: 0.002,
            ..ChaosConfig::clean(seed)
        }
    }

    /// An adversarial link: everything at once, including blackholed
    /// connections.
    pub fn adversarial(seed: u64) -> Self {
        ChaosConfig {
            split_rate: 0.5,
            stall_rate: 0.1,
            max_stall: Duration::from_millis(10),
            corrupt_rate: 1e-4,
            drop_rate: 0.01,
            blackhole_rate: 0.15,
            ..ChaosConfig::clean(seed)
        }
    }

    // -- the deterministic decision functions (pure in (seed, conn, pos)) --

    fn blackholes(&self, conn: u64) -> bool {
        unit(mix(self.seed, KIND_HOLE, conn, 0)) < self.blackhole_rate
    }

    fn drops_at(&self, stream: u64, conn: u64, pos: u64) -> bool {
        unit(mix(self.seed, stream ^ KIND_DROP, conn, pos)) < self.drop_rate
    }

    fn stall_at(&self, stream: u64, conn: u64, pos: u64) -> Option<Duration> {
        if unit(mix(self.seed, stream ^ KIND_STALL, conn, pos)) >= self.stall_rate {
            return None;
        }
        let frac = unit(mix(self.seed, stream ^ KIND_STALL_LEN, conn, pos));
        let ns = u64::try_from(self.max_stall.as_nanos()).unwrap_or(u64::MAX);
        Some(Duration::from_nanos((ns as f64 * frac) as u64))
    }

    /// The chunk length the schedule wants at byte position `pos`
    /// (before capping to what has actually arrived).
    fn chunk_len_at(&self, stream: u64, conn: u64, pos: u64) -> usize {
        if unit(mix(self.seed, stream ^ KIND_SPLIT, conn, pos)) < self.split_rate {
            let span = self.max_split.max(1) as u64;
            1 + (mix(self.seed, stream ^ KIND_SPLIT_LEN, conn, pos) % span) as usize
        } else {
            usize::MAX
        }
    }

    fn corrupts_byte(&self, stream: u64, conn: u64, pos: u64) -> Option<u8> {
        if unit(mix(self.seed, stream ^ KIND_FLIP, conn, pos)) >= self.corrupt_rate {
            return None;
        }
        // A non-zero XOR mask, so a "corrupted" byte always changes.
        Some(1 + (mix(self.seed, stream ^ KIND_FLIP_MASK, conn, pos) % 255) as u8)
    }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// What the fault process did to one direction of traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Bytes read from the source peer.
    pub bytes_in: u64,
    /// Bytes forwarded to the destination peer (excludes blackholed
    /// and dropped-before-forward bytes).
    pub bytes_out: u64,
    /// Chunks forwarded.
    pub chunks: u64,
    /// Chunks cut short by the split schedule.
    pub splits: u64,
    /// Injected stalls.
    pub stalls: u64,
    /// Total injected stall time.
    pub stall_time: Duration,
    /// Bytes XOR-damaged in flight.
    pub corrupted_bytes: u64,
    /// Connections torn down mid-stream by this direction's schedule.
    pub drops: u64,
}

impl ChaosStats {
    /// Adds `other`'s tallies to these.
    fn add(&mut self, other: &ChaosStats) {
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.chunks += other.chunks;
        self.splits += other.splits;
        self.stalls += other.stalls;
        self.stall_time = self.stall_time.saturating_add(other.stall_time);
        self.corrupted_bytes += other.corrupted_bytes;
        self.drops += other.drops;
    }
}

/// A whole-proxy snapshot: both directions plus connection-level
/// tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosProxyStats {
    /// Client → server traffic.
    pub upstream: ChaosStats,
    /// Server → client traffic.
    pub downstream: ChaosStats,
    /// Connections accepted by the proxy.
    pub connections: u64,
    /// Connections blackholed (accepted, never forwarded).
    pub blackholed: u64,
    /// Connections dropped because the dial to the target failed: the
    /// client sees EOF, as after an injected drop, but no fault caused
    /// it.
    pub dial_failures: u64,
}

// ---------------------------------------------------------------------------
// The proxy
// ---------------------------------------------------------------------------

struct Shared {
    config: ChaosConfig,
    target: SocketAddr,
    shutdown: AtomicBool,
    connections: AtomicU64,
    blackholed: AtomicU64,
    dial_failures: AtomicU64,
    upstream: Mutex<ChaosStats>,
    downstream: Mutex<ChaosStats>,
}

/// A running chaos proxy. See the [module docs](self).
pub struct ChaosProxy {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds a loopback listener and starts relaying every accepted
    /// connection to `target` under `config`'s fault schedule.
    ///
    /// # Errors
    ///
    /// Any bind-time [`io::Error`].
    pub fn start(target: impl ToSocketAddrs, config: ChaosConfig) -> io::Result<Self> {
        let target = target
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(ErrorKind::InvalidInput, "empty target address"))?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            config,
            target,
            shutdown: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            blackholed: AtomicU64::new(0),
            dial_failures: AtomicU64::new(0),
            upstream: Mutex::new(ChaosStats::default()),
            downstream: Mutex::new(ChaosStats::default()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("chaos-accept".into())
                .spawn(move || accept_loop(&shared, &listener))
                .expect("spawn chaos acceptor")
        };
        Ok(ChaosProxy {
            shared,
            local_addr,
            acceptor: Some(acceptor),
        })
    }

    /// The proxy's listen address — point the client here instead of at
    /// the server.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of both directions' fault tallies.
    pub fn stats(&self) -> ChaosProxyStats {
        ChaosProxyStats {
            upstream: *lock_unpoisoned(&self.shared.upstream),
            downstream: *lock_unpoisoned(&self.shared.downstream),
            connections: self.shared.connections.load(Ordering::Relaxed),
            blackholed: self.shared.blackholed.load(Ordering::Relaxed),
            dial_failures: self.shared.dial_failures.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, tears down every relayed connection, waits for
    /// all pump threads and returns the final stats.
    pub fn shutdown(mut self) -> ChaosProxyStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept() so it observes the flag.
        let _ = TcpStream::connect(self.local_addr);
        // The acceptor's scope returns only once every pump has ended.
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop();
        }
    }
}

/// Accepts connections until shutdown and relays each on pump threads
/// in this thread's scope. A pump's handle is dropped at once, so a
/// finished pump's thread and stack go when it ends, not at shutdown;
/// the scope still waits for every pump before this returns.
fn accept_loop(shared: &Shared, listener: &TcpListener) {
    let mut next_conn = 0u64;
    std::thread::scope(|scope| loop {
        let client = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) if shared.shutdown.load(Ordering::SeqCst) => return,
            // Out of descriptors (`EMFILE`) with a connection queued,
            // accept fails at once: wait rather than spin.
            Err(_) => {
                std::thread::sleep(POLL_INTERVAL);
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let conn = next_conn;
        next_conn += 1;
        shared.connections.fetch_add(1, Ordering::Relaxed);
        // A pump that cannot start drops its streams with its closure,
        // which closes the connection.
        if shared.config.blackholes(conn) {
            shared.blackholed.fetch_add(1, Ordering::Relaxed);
            let _ = std::thread::Builder::new()
                .name("chaos-hole".into())
                .spawn_scoped(scope, move || blackhole(shared, &client));
            continue;
        }
        let backend = match TcpStream::connect(shared.target) {
            Ok(b) => b,
            // Backend unreachable: drop the client (it sees EOF).
            Err(_) => {
                shared.dial_failures.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        };
        // Forward every chunk as soon as it is written, as the server
        // and client sockets do: with Nagle on, a frame's tail waits for
        // the peer's delayed ACK, ~40 ms per hop.
        let _ = client.set_nodelay(true);
        let _ = backend.set_nodelay(true);
        // The upstream pump starts the downstream one, so it still owns
        // both streams, and closes them, if that spawn fails.
        let _ = std::thread::Builder::new()
            .name("chaos-up".into())
            .spawn_scoped(scope, move || {
                let (Ok(client_dn), Ok(backend_dn)) = (client.try_clone(), backend.try_clone())
                else {
                    return;
                };
                let down = std::thread::Builder::new()
                    .name("chaos-down".into())
                    .spawn_scoped(scope, move || {
                        pump(shared, STREAM_DOWN, conn, &backend_dn, &client_dn);
                    });
                if down.is_ok() {
                    pump(shared, STREAM_UP, conn, &client, &backend);
                }
            });
    });
}

/// Swallows a blackholed connection: reads and discards until the peer
/// gives up or the proxy shuts down. Nothing is ever written back.
fn blackhole(shared: &Shared, client: &TcpStream) {
    let mut swallow = Deadline::new(client, None).or_shutdown(&shared.shutdown, POLL_INTERVAL);
    let _ = io::copy(&mut swallow, &mut io::sink());
    let _ = client.shutdown(Shutdown::Both);
}

/// Relays one direction of one connection under the fault schedule.
/// `stream` is the direction's domain-separation constant; every
/// decision is keyed on the absolute byte position in this direction.
fn pump(shared: &Shared, stream: u64, conn: u64, src: &TcpStream, dst: &TcpStream) {
    let cfg = &shared.config;
    let stats_slot = if stream == STREAM_UP {
        &shared.upstream
    } else {
        &shared.downstream
    };
    let mut reader = Deadline::new(src, None).or_shutdown(&shared.shutdown, POLL_INTERVAL);
    // A peer that stops reading must not pin the pump forever.
    let _ = dst.set_write_timeout(Some(Duration::from_secs(1)));
    let mut pos = 0u64;
    let mut buf = [0u8; 8192];
    loop {
        let n = match reader.read(&mut buf) {
            // Clean EOF: propagate the half-close and stop this
            // direction (the opposite pump keeps running).
            Ok(0) => {
                let _ = dst.shutdown(Shutdown::Write);
                return;
            }
            Ok(n) => n,
            // Shutdown or a failed source: tear both sides down.
            Err(_) => {
                let _ = src.shutdown(Shutdown::Both);
                let _ = dst.shutdown(Shutdown::Both);
                return;
            }
        };
        // This read's tally, added to the direction's books once: when
        // its bytes are forwarded, or as the relay ends.
        let mut tally = ChaosStats {
            bytes_in: n as u64,
            ..ChaosStats::default()
        };
        let mut off = 0usize;
        while off < n {
            // Chunk-level decisions at the chunk's starting byte
            // position.
            if cfg.drops_at(stream, conn, pos) {
                tally.drops += 1;
                lock_unpoisoned(stats_slot).add(&tally);
                let _ = src.shutdown(Shutdown::Both);
                let _ = dst.shutdown(Shutdown::Both);
                return;
            }
            if let Some(stall) = cfg.stall_at(stream, conn, pos) {
                tally.stalls += 1;
                tally.stall_time = tally.stall_time.saturating_add(stall);
                std::thread::sleep(stall);
            }
            let remaining = n - off;
            let want = cfg.chunk_len_at(stream, conn, pos);
            let len = want.min(remaining);
            let chunk = &mut buf[off..off + len];
            let mut corrupted = 0u64;
            // `unit()` lies in [0, 1), so at a rate of zero or less no
            // byte can be corrupted: skip hashing every one of them.
            if cfg.corrupt_rate > 0.0 {
                for (i, byte) in chunk.iter_mut().enumerate() {
                    if let Some(mask) = cfg.corrupts_byte(stream, conn, pos + i as u64) {
                        *byte ^= mask;
                        corrupted += 1;
                    }
                }
            }
            if (&mut (&*dst)).write_all(chunk).is_err() {
                lock_unpoisoned(stats_slot).add(&tally);
                let _ = src.shutdown(Shutdown::Both);
                return;
            }
            tally.bytes_out += len as u64;
            tally.chunks += 1;
            tally.corrupted_bytes += corrupted;
            tally.splits += u64::from(len < remaining);
            off += len;
            pos += len as u64;
        }
        lock_unpoisoned(stats_slot).add(&tally);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A one-connection echo server for transparency tests.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            // One connection per test is enough; the thread exits once
            // that connection closes.
            if let Ok((mut s, _)) = listener.accept() {
                let mut buf = [0u8; 4096];
                loop {
                    match s.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if s.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
            }
        });
        (addr, handle)
    }

    /// A client whose target cannot be dialled reads EOF, and the
    /// proxy counts the failed dial apart from its injected faults.
    #[test]
    fn a_failed_backend_dial_is_counted() {
        // A loopback port with no listener behind it.
        let target = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .unwrap();
        let proxy = ChaosProxy::start(target, ChaosConfig::clean(7)).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        let mut back = Vec::new();
        c.read_to_end(&mut back).unwrap();
        assert!(back.is_empty(), "nothing to relay");
        let stats = proxy.shutdown();
        assert_eq!(
            (stats.connections, stats.dial_failures),
            (1, 1),
            "{stats:?}"
        );
        assert_eq!(stats.upstream.drops + stats.downstream.drops, 0);
    }

    #[test]
    fn clean_schedule_is_a_transparent_relay() {
        let (addr, server) = echo_server();
        let proxy = ChaosProxy::start(addr, ChaosConfig::clean(7)).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        c.write_all(&payload).unwrap();
        c.shutdown(Shutdown::Write).unwrap();
        let mut back = Vec::new();
        c.read_to_end(&mut back).unwrap();
        assert_eq!(back, payload, "clean proxy must be byte-transparent");
        let stats = proxy.shutdown();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.blackholed, 0);
        assert_eq!(stats.upstream.bytes_in, payload.len() as u64);
        assert_eq!(stats.upstream.bytes_out, payload.len() as u64);
        assert_eq!(stats.downstream.bytes_out, payload.len() as u64);
        assert_eq!(stats.upstream.corrupted_bytes, 0);
        assert_eq!(stats.upstream.drops + stats.downstream.drops, 0);
        assert_eq!(stats.upstream.stalls + stats.downstream.stalls, 0);
        server.join().unwrap();
    }

    #[test]
    fn decision_streams_are_deterministic_and_seed_separated() {
        let a = ChaosConfig::adversarial(42);
        let b = ChaosConfig::adversarial(42);
        let other = ChaosConfig::adversarial(43);
        let schedule = |cfg: &ChaosConfig| -> Vec<(bool, bool, usize, Option<u8>)> {
            (0..4096u64)
                .map(|pos| {
                    (
                        cfg.drops_at(STREAM_UP, 3, pos),
                        cfg.stall_at(STREAM_UP, 3, pos).is_some(),
                        cfg.chunk_len_at(STREAM_UP, 3, pos),
                        cfg.corrupts_byte(STREAM_UP, 3, pos),
                    )
                })
                .collect()
        };
        assert_eq!(schedule(&a), schedule(&b), "same seed, same schedule");
        assert_ne!(schedule(&a), schedule(&other), "seeds separate");
        // Directions and connections draw from independent streams.
        let up: Vec<usize> = (0..512).map(|p| a.chunk_len_at(STREAM_UP, 0, p)).collect();
        let down: Vec<usize> = (0..512)
            .map(|p| a.chunk_len_at(STREAM_DOWN, 0, p))
            .collect();
        let conn1: Vec<usize> = (0..512).map(|p| a.chunk_len_at(STREAM_UP, 1, p)).collect();
        assert_ne!(up, down);
        assert_ne!(up, conn1);
    }

    #[test]
    fn corruption_damages_bytes_and_is_counted() {
        let (addr, server) = echo_server();
        let cfg = ChaosConfig {
            corrupt_rate: 0.05,
            ..ChaosConfig::clean(11)
        };
        let proxy = ChaosProxy::start(addr, cfg).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        let payload = vec![0u8; 10_000];
        c.write_all(&payload).unwrap();
        c.shutdown(Shutdown::Write).unwrap();
        let mut back = Vec::new();
        c.read_to_end(&mut back).unwrap();
        assert_eq!(back.len(), payload.len());
        let damaged = back.iter().filter(|&&b| b != 0).count() as u64;
        assert!(damaged > 0, "a 5% rate over 20k bytes must hit");
        let stats = proxy.shutdown();
        // The echo reflects upstream damage; downstream adds its own.
        assert!(
            stats.upstream.corrupted_bytes > 0,
            "upstream corruption must be tallied: {stats:?}"
        );
        assert!(
            stats.upstream.corrupted_bytes + stats.downstream.corrupted_bytes >= damaged,
            "{stats:?} vs {damaged} observed"
        );
        server.join().unwrap();
    }

    #[test]
    fn drops_tear_the_connection_down() {
        let (addr, server) = echo_server();
        let cfg = ChaosConfig {
            drop_rate: 1.0, // first chunk kills the connection
            ..ChaosConfig::clean(5)
        };
        let proxy = ChaosProxy::start(addr, cfg).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = c.write_all(b"doomed bytes");
        let mut buf = [0u8; 64];
        // The proxy kills both sides before forwarding: the client sees
        // EOF or a reset, never data.
        match c.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("dropped connection delivered {n} bytes"),
        }
        let stats = proxy.shutdown();
        assert_eq!(stats.upstream.drops, 1, "{stats:?}");
        assert_eq!(stats.upstream.bytes_out, 0, "{stats:?}");
        drop(server); // the echo thread may or may not have accepted
    }

    #[test]
    fn blackholed_connection_swallows_everything() {
        // No backend at all: a blackholed connection must not even try
        // to reach it.
        let cfg = ChaosConfig {
            blackhole_rate: 1.0,
            ..ChaosConfig::clean(9)
        };
        let proxy = ChaosProxy::start("127.0.0.1:1", cfg).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        c.write_all(b"into the void").unwrap();
        c.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut buf = [0u8; 16];
        let got = c.read(&mut buf);
        assert!(
            matches!(
                got.as_ref().map_err(io::Error::kind),
                Err(ErrorKind::WouldBlock | ErrorKind::TimedOut)
            ),
            "a blackhole answers nothing: {got:?}"
        );
        let stats = proxy.shutdown();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.blackholed, 1);
        assert_eq!(stats.upstream.bytes_out + stats.downstream.bytes_out, 0);
    }

    #[test]
    fn splits_fragment_but_preserve_content() {
        let (addr, server) = echo_server();
        let cfg = ChaosConfig {
            split_rate: 1.0,
            max_split: 3,
            ..ChaosConfig::clean(21)
        };
        let proxy = ChaosProxy::start(addr, cfg).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        let payload: Vec<u8> = (0..5_000u32).map(|i| (i % 199) as u8).collect();
        c.write_all(&payload).unwrap();
        c.shutdown(Shutdown::Write).unwrap();
        let mut back = Vec::new();
        c.read_to_end(&mut back).unwrap();
        assert_eq!(back, payload, "fragmentation must not lose or reorder");
        let stats = proxy.shutdown();
        assert!(
            stats.upstream.chunks >= payload.len() as u64 / 3,
            "max_split 3 forces many chunks: {stats:?}"
        );
        assert!(stats.upstream.splits > 0, "{stats:?}");
        server.join().unwrap();
    }

    #[test]
    fn shutdown_tears_down_live_connections_and_joins() {
        let (addr, server) = echo_server();
        let proxy = ChaosProxy::start(addr, ChaosConfig::clean(1)).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        c.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        c.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        // Shutdown with the connection still open: must not hang.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let stats = proxy.shutdown();
            tx.send(stats).unwrap();
        });
        let stats = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("shutdown must not hang on a live connection");
        assert_eq!(stats.connections, 1);
        drop(c);
        server.join().unwrap();
    }
}
