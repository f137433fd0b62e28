//! Seeded chaos soak over the network decode stack.
//!
//! A multi-client Table-1 workload runs through the deterministic
//! [`ChaosProxy`] under three fault profiles (clean / lossy /
//! adversarial), and the suite asserts the invariants that must
//! survive **any** schedule:
//!
//! 1. **Structured outcomes only** — every request terminates, within
//!    its deadline, in either a bit-exact image or a structured
//!    [`NetError`]; never a hang (suite-level watchdog), a panic, or a
//!    garbage raster.
//! 2. **Accounting holds under fire** — after the run,
//!    `ServerStats::reconciles()` and `ServiceStats::reconciles()`
//!    hold, the `server.*`/`service.*` metric mirrors equal the
//!    stats, and the cross-family identity (one service submission
//!    per admitted request) is exact.
//! 3. **Isolation** — the server keeps serving clean, well-behaved
//!    clients while chaotic ones are being shed.
//!
//! Knobs (environment):
//! * `CHAOS_ITERS` — requests per client per profile (default 6).
//! * `CHAOS_SEED` — master seed for every proxy schedule, client
//!   jitter stream and breaker cooldown (default fixed, so CI runs
//!   are deterministic).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use osss_jpeg2000::models::workload::workload;
use osss_jpeg2000::models::ModeSel;
use osss_jpeg2000::sim::probe::MetricsRegistry;
use osss_jpeg2000::{
    ChaosConfig, ChaosProxy, ChaosProxyStats, CircuitBreaker, Client, DecodeServer, DecodeService,
    NetError, NetRetryPolicy, Request, ServerConfig, ServerStats, ServiceConfig, ServiceStats,
};

const CLIENTS: usize = 3;
const DEFAULT_ITERS: usize = 6;
const DEFAULT_SEED: u64 = 0x4348_414F_5321; // "CHAOS!"-flavoured
/// Wall-clock budget for one whole profile soak (debug builds on a
/// loaded 1-CPU machine included). Any overrun is, by definition, a
/// hang somewhere in the stack.
const SOAK_BUDGET: Duration = Duration::from_secs(240);

fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_u64(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Per-profile outcome tallies, for the invariant checks and the
/// EXPERIMENTS.md table.
#[derive(Debug, Default, Clone, Copy)]
struct Outcomes {
    ok: u64,
    busy_exhausted: u64,
    timeout: u64,
    wire: u64,
    protocol: u64,
    circuit_open: u64,
    other: u64,
}

struct SoakReport {
    outcomes: Outcomes,
    server: ServerStats,
    service: ServiceStats,
    proxy: ChaosProxyStats,
}

/// One profile soak: CLIENTS threads × `iters` requests through the
/// proxy. Panics on any non-structured outcome or broken identity;
/// returns the tallies for reporting.
fn soak(config: ChaosConfig, iters: usize, seed: u64) -> SoakReport {
    let registry = MetricsRegistry::new();
    let service = Arc::new(DecodeService::new(ServiceConfig {
        workers: 2,
        metrics: Some(registry.clone()),
        ..ServiceConfig::default()
    }));
    let server = DecodeServer::start(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerConfig {
            handler_threads: CLIENTS + 1,
            submit_timeout: Duration::from_millis(100),
            // Tight enough that a stalled chaotic peer is evicted well
            // inside the soak budget.
            frame_deadline: Duration::from_millis(500),
            idle_timeout: Duration::from_secs(5),
            metrics: Some(registry.clone()),
        },
    )
    .expect("bind server");

    // Warm the image cache through a direct connection so proxied
    // repeats are cache-served — the soak then measures the transport,
    // not 2×CLIENTS×iters cold decodes.
    {
        let mut warm = Client::connect(server.local_addr()).expect("warm connect");
        for mode in [ModeSel::Lossless, ModeSel::Lossy] {
            let wl = workload(mode);
            let resp = warm
                .request(&Request::strict(), &wl.codestream)
                .expect("warm decode");
            assert_eq!(resp.image, *wl.reference, "warm-up must be bit-exact");
        }
    }

    let proxy = ChaosProxy::start(server.local_addr(), config).expect("start proxy");
    let addr = proxy.local_addr();
    let totals = Arc::new((0..7).map(|_| AtomicU64::new(0)).collect::<Vec<_>>());

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let totals = Arc::clone(&totals);
            thread::spawn(move || {
                let policy = NetRetryPolicy {
                    max_retries: 4,
                    backoff_base: Duration::from_millis(1),
                    backoff_cap: Duration::from_millis(20),
                    jitter_seed: seed ^ c as u64,
                };
                let mut breaker = CircuitBreaker::new(3, Duration::from_millis(200));
                let mut client = match Client::connect(addr) {
                    Ok(cl) => cl.op_deadline(Duration::from_secs(3)),
                    Err(e) => panic!("client {c} connect: {e}"),
                };
                for i in 0..iters {
                    let wl = workload(if (c + i) % 2 == 0 {
                        ModeSel::Lossless
                    } else {
                        ModeSel::Lossy
                    });
                    let slot = match client.decode_retry(
                        &Request::strict(),
                        &wl.codestream,
                        &policy,
                        Some(&mut breaker),
                    ) {
                        Ok(resp) => {
                            // The one unacceptable failure mode is a
                            // *wrong* image: CRC + bit-exactness mean
                            // chaos may kill a request but never warp
                            // one.
                            assert_eq!(
                                resp.image, *wl.reference,
                                "client {c} iter {i}: garbage raster through chaos"
                            );
                            0
                        }
                        Err(NetError::RetriesExhausted { .. }) => 1,
                        Err(NetError::Timeout) => 2,
                        Err(NetError::Wire(_)) => 3,
                        Err(NetError::Protocol(_)) => 4,
                        Err(NetError::CircuitOpen) => {
                            // Fail-fast is the breaker working; let the
                            // cooldown elapse so later iterations probe.
                            thread::sleep(Duration::from_millis(220));
                            5
                        }
                        Err(NetError::Busy | NetError::Expired | NetError::Refused) => 6,
                        Err(NetError::Decode(d) | NetError::Internal(d)) => {
                            panic!("client {c} iter {i}: unexpected {d}")
                        }
                        Err(other) => panic!("client {c} iter {i}: unexpected {other:?}"),
                    };
                    totals[slot].fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for (c, h) in handles.into_iter().enumerate() {
        if let Err(payload) = h.join() {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "non-string panic".into());
            panic!("chaos client {c} panicked: {msg}");
        }
    }

    let proxy_stats = proxy.shutdown();
    let server_stats = server.shutdown();
    let svc = Arc::try_unwrap(service)
        .ok()
        .expect("sole owner after server shutdown")
        .shutdown();

    // Invariant 2: accounting holds under fire.
    assert!(server_stats.reconciles(), "server: {server_stats:?}");
    assert!(svc.reconciles(), "service: {svc:?}");
    assert!(
        server_stats.reconciles_with(&svc),
        "cross-family identity: service {svc:?} vs server {server_stats:?}"
    );
    let snap = registry.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    for (name, value) in [
        ("server.frames_in", server_stats.frames_in),
        ("server.frames_out", server_stats.frames_out),
        ("server.ok", server_stats.ok),
        ("server.busy", server_stats.busy),
        ("server.crc_rejects", server_stats.crc_rejects),
        ("server.frame_rejects", server_stats.frame_rejects),
        ("server.frame_timeouts", server_stats.frame_timeouts),
        ("server.idle_reaped", server_stats.idle_reaped),
        ("server.conn_rejected", server_stats.conn_rejected),
        ("service.submitted", svc.submitted),
        ("service.coalesced", svc.coalesced),
        ("service.completed", svc.completed),
    ] {
        assert_eq!(counter(name), value, "{name} mirror drifted");
    }
    // Nothing left open once everything shut down.
    assert_eq!(snap.gauges.get("server.active").copied(), Some(0));

    let get = |i: usize| totals[i].load(Ordering::Relaxed);
    let outcomes = Outcomes {
        ok: get(0),
        busy_exhausted: get(1),
        timeout: get(2),
        wire: get(3),
        protocol: get(4),
        circuit_open: get(5),
        other: get(6),
    };
    // Invariant 1: every request resolved exactly once, structurally.
    let total = outcomes.ok
        + outcomes.busy_exhausted
        + outcomes.timeout
        + outcomes.wire
        + outcomes.protocol
        + outcomes.circuit_open
        + outcomes.other;
    assert_eq!(
        total,
        (CLIENTS * iters) as u64,
        "every request accounted for: {outcomes:?}"
    );
    SoakReport {
        outcomes,
        server: server_stats,
        service: svc,
        proxy: proxy_stats,
    }
}

/// Runs `body` under the suite watchdog; an overrun fails the test
/// (the stuck worker is leaked — fine in a test process).
fn with_watchdog<F: FnOnce() -> SoakReport + Send + 'static>(name: &str, body: F) -> SoakReport {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(SOAK_BUDGET) {
        Ok(report) => report,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{name}: soak exceeded {SOAK_BUDGET:?} — something hangs")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            panic!("{name}: soak worker died (panic already reported above)")
        }
    }
}

#[test]
fn soak_clean_profile_is_transparent() {
    let iters = env_usize("CHAOS_ITERS", DEFAULT_ITERS);
    let seed = env_u64("CHAOS_SEED", DEFAULT_SEED);
    let report = with_watchdog("clean", move || soak(ChaosConfig::clean(seed), iters, seed));
    // A fault-free schedule must be invisible: every request lands.
    assert_eq!(
        report.outcomes.ok,
        (CLIENTS * iters) as u64,
        "{:?}",
        report.outcomes
    );
    assert_eq!(report.proxy.blackholed, 0);
    assert_eq!(
        report.proxy.upstream.drops + report.proxy.downstream.drops,
        0
    );
    assert_eq!(report.server.crc_rejects, 0, "{:?}", report.server);
    eprintln!(
        "chaos soak [clean]   seed={seed:#x} iters={iters}: {:?}",
        report.outcomes
    );
}

#[test]
fn soak_lossy_profile_never_hangs_or_corrupts() {
    let iters = env_usize("CHAOS_ITERS", DEFAULT_ITERS);
    let seed = env_u64("CHAOS_SEED", DEFAULT_SEED);
    let report = with_watchdog("lossy", move || soak(ChaosConfig::lossy(seed), iters, seed));
    // Fragmentation alone must not kill requests: most still land.
    assert!(
        report.outcomes.ok > 0,
        "a lossy-but-honest link still serves: {:?} / proxy {:?}",
        report.outcomes,
        report.proxy
    );
    assert!(
        report.proxy.upstream.splits + report.proxy.downstream.splits > 0,
        "the schedule actually fragmented: {:?}",
        report.proxy
    );
    // Single-flight accounting holds under the lossy profile too: the
    // coalesced term partitions into outcomes like every submission
    // (the soak already asserted `reconciles()`), and a degraded link
    // never inflates decode work past the accepted flights.
    let svc = report.service;
    assert_eq!(
        svc.submitted + svc.coalesced,
        svc.completed + svc.expired + svc.cancelled + svc.failed,
        "coalesced accounting under loss: {svc:?}"
    );
    assert!(
        svc.image_misses <= svc.submitted,
        "no flight decodes twice under loss: {svc:?}"
    );
    eprintln!(
        "chaos soak [lossy]   seed={seed:#x} iters={iters}: {:?} | coalesced={} | proxy {:?}",
        report.outcomes, svc.coalesced, report.proxy
    );
}

#[test]
fn soak_adversarial_profile_fails_structurally() {
    let iters = env_usize("CHAOS_ITERS", DEFAULT_ITERS);
    let seed = env_u64("CHAOS_SEED", DEFAULT_SEED);
    let report = with_watchdog("adversarial", move || {
        soak(ChaosConfig::adversarial(seed), iters, seed)
    });
    // The soak's internal asserts carry the invariants; here, prove the
    // schedule was actually hostile.
    let injected = report.proxy.upstream.corrupted_bytes
        + report.proxy.downstream.corrupted_bytes
        + report.proxy.upstream.drops
        + report.proxy.downstream.drops
        + report.proxy.blackholed;
    assert!(
        injected > 0,
        "adversarial schedule injected nothing: {:?}",
        report.proxy
    );
    eprintln!(
        "chaos soak [advers.] seed={seed:#x} iters={iters}: {:?} | proxy {:?}",
        report.outcomes, report.proxy
    );
}

/// Invariant 3: clean clients keep decoding, bit-exact, while chaotic
/// traffic is being shed next to them.
#[test]
fn clean_clients_survive_alongside_chaotic_ones() {
    let seed = env_u64("CHAOS_SEED", DEFAULT_SEED);
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let service = Arc::new(DecodeService::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        }));
        let server = DecodeServer::start(
            Arc::clone(&service),
            "127.0.0.1:0",
            ServerConfig {
                handler_threads: 4,
                frame_deadline: Duration::from_millis(300),
                idle_timeout: Duration::from_secs(5),
                ..ServerConfig::default()
            },
        )
        .expect("bind server");
        let proxy =
            ChaosProxy::start(server.local_addr(), ChaosConfig::adversarial(seed)).expect("proxy");
        let chaos_addr = proxy.local_addr();
        let direct_addr = server.local_addr();

        // Two chaotic clients hammer through the proxy...
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let chaos_threads: Vec<_> = (0..2)
            .map(|c| {
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut breaker = CircuitBreaker::new(2, Duration::from_millis(100));
                    let policy = NetRetryPolicy {
                        max_retries: 2,
                        backoff_base: Duration::from_millis(1),
                        jitter_seed: seed ^ c,
                        ..NetRetryPolicy::default()
                    };
                    while !stop.load(Ordering::Relaxed) {
                        let Ok(cl) = Client::connect(chaos_addr) else {
                            thread::sleep(Duration::from_millis(20));
                            continue;
                        };
                        let mut cl = cl.op_deadline(Duration::from_millis(500));
                        let wl = workload(ModeSel::Lossless);
                        // Outcome irrelevant — only structure matters,
                        // and panics would fail the join below.
                        let _ = cl.decode_retry(
                            &Request::strict(),
                            &wl.codestream,
                            &policy,
                            Some(&mut breaker),
                        );
                    }
                })
            })
            .collect();

        // ...while a clean client on a direct connection must keep
        // landing bit-exact decodes, absorbing at most Busy.
        let mut clean = Client::connect(direct_addr).expect("clean connect");
        let policy = NetRetryPolicy {
            max_retries: 50,
            jitter_seed: seed,
            ..NetRetryPolicy::default()
        };
        for i in 0..5 {
            let wl = workload(if i % 2 == 0 {
                ModeSel::Lossless
            } else {
                ModeSel::Lossy
            });
            let resp = clean
                .decode_retry(&Request::strict(), &wl.codestream, &policy, None)
                .unwrap_or_else(|e| panic!("clean client starved at iter {i}: {e:?}"));
            assert_eq!(resp.image, *wl.reference, "clean client iter {i}");
        }
        stop.store(true, Ordering::Relaxed);
        for (c, h) in chaos_threads.into_iter().enumerate() {
            if h.join().is_err() {
                panic!("chaotic client {c} panicked");
            }
        }
        proxy.shutdown();
        let stats = server.shutdown();
        assert!(stats.reconciles(), "{stats:?}");
        let _ = tx.send(());
    });
    rx.recv_timeout(SOAK_BUDGET)
        .expect("clean-vs-chaos run exceeded the watchdog budget");
}
