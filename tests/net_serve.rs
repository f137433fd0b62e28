//! Loopback integration tests for the network decode server.
//!
//! Three contracts, each over real TCP on 127.0.0.1:
//!
//! 1. **Bit-exactness** — a networked strict decode of every pinned
//!    Table-1 stream returns exactly the bytes the in-process
//!    `decode()` produces; the wire layer adds framing, never drift.
//! 2. **Backpressure, not failure** — a client flood against a full
//!    queue resolves every request as an image or an explicit
//!    retryable-busy frame; retry-with-backoff then always succeeds.
//! 3. **Accounting** — the `server.*` and `service.*` tallies (and
//!    their metric mirrors) reconcile exactly once the server drains.

use std::sync::Arc;
use std::time::Duration;

use osss_jpeg2000::jpeg2000::codec::decode;
use osss_jpeg2000::models::workload::workload;
use osss_jpeg2000::models::ModeSel;
use osss_jpeg2000::sim::probe::MetricsRegistry;
use osss_jpeg2000::{
    Client, DecodeServer, DecodeService, NetError, NetRetryPolicy, Request, ServerConfig,
    ServiceConfig,
};

fn start_server(
    config: ServiceConfig,
    server_config: ServerConfig,
) -> (Arc<DecodeService>, DecodeServer) {
    let service = Arc::new(DecodeService::new(config));
    let server = DecodeServer::start(Arc::clone(&service), "127.0.0.1:0", server_config)
        .expect("bind loopback");
    (service, server)
}

#[test]
fn networked_strict_decode_is_bit_exact_on_all_table1_streams() {
    let (service, server) = start_server(
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        ServerConfig::default(),
    );
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for mode in [ModeSel::Lossless, ModeSel::Lossy] {
        let wl = workload(mode);
        let resp = client
            .request(&Request::strict(), &wl.codestream)
            .expect("networked strict decode");
        // Exact against both the pinned reference and a fresh
        // in-process decode of the same bytes.
        assert_eq!(
            resp.image, *wl.reference,
            "{mode:?}: drifted from reference"
        );
        assert_eq!(
            resp.image,
            decode(&wl.codestream).expect("in-process decode").image,
            "{mode:?}: network and in-process disagree"
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.ok, 2);
    assert!(stats.reconciles(), "{stats:?}");
    drop(service);
}

#[test]
fn flood_gets_busy_frames_and_retry_always_lands() {
    // 1 worker, queue of 1, near-zero submit patience: a 10-client
    // flood must resolve every request explicitly.
    let (service, server) = start_server(
        ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            // Disable caches so every request costs a real decode and
            // the queue genuinely fills.
            header_cache_bytes: 0,
            image_cache_bytes: 0,
            ..ServiceConfig::default()
        },
        ServerConfig {
            handler_threads: 10,
            submit_timeout: Duration::from_millis(1),
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();
    let wl = workload(ModeSel::Lossless);
    let wl = &wl;
    let outcomes: Vec<&str> = std::thread::scope(|scope| {
        (0..10)
            .map(|_| {
                let stream = &wl.codestream;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    match client.request(&Request::strict(), stream) {
                        Ok(resp) => {
                            assert_eq!(resp.image, *wl.reference);
                            "ok"
                        }
                        Err(NetError::Busy) => "busy",
                        Err(other) => panic!("flood client: unexpected {other:?}"),
                    }
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("flood client"))
            .collect()
    });
    let ok = outcomes.iter().filter(|o| **o == "ok").count();
    let busy = outcomes.iter().filter(|o| **o == "busy").count();
    assert_eq!(ok + busy, 10, "every request resolved explicitly");
    assert!(ok >= 1, "at least the queued request decodes: {outcomes:?}");

    // Retry-with-backoff against the same tiny queue must eventually
    // land even while competing traffic runs.
    let mut client = Client::connect(addr).expect("connect");
    let resp = client
        .decode_retry(
            &Request::strict(),
            &wl.codestream,
            &NetRetryPolicy {
                max_retries: 200,
                ..NetRetryPolicy::default()
            },
            None,
        )
        .expect("retry must eventually land");
    assert_eq!(resp.image, *wl.reference);

    let stats = server.shutdown();
    assert!(stats.reconciles(), "{stats:?}");
    assert_eq!(stats.busy as usize, busy, "busy frames match busy outcomes");
    let svc = Arc::try_unwrap(service)
        .ok()
        .expect("sole owner")
        .shutdown();
    assert!(svc.reconciles(), "{svc:?}");
    assert_eq!(svc.rejected, stats.busy, "queue rejections == busy frames");
}

#[test]
fn server_and_service_metrics_reconcile_exactly() {
    let registry = MetricsRegistry::new();
    let (service, server) = start_server(
        ServiceConfig {
            workers: 2,
            metrics: Some(registry.clone()),
            ..ServiceConfig::default()
        },
        ServerConfig {
            metrics: Some(registry.clone()),
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();
    let lossless = workload(ModeSel::Lossless);
    let lossy = workload(ModeSel::Lossy);

    let mut client = Client::connect(addr).expect("connect");
    // A mix: strict (cold + cached repeat), tolerant, thumbnail, and a
    // doomed deadline.
    for _ in 0..2 {
        client
            .request(&Request::strict(), &lossless.codestream)
            .expect("strict");
    }
    client
        .request(&Request::tolerant(), &lossy.codestream)
        .expect("tolerant");
    client
        .request(&Request::thumbnail(0), &lossless.codestream)
        .expect("thumbnail");
    let doomed = client
        .request(
            &Request::strict().with_timeout(Duration::from_nanos(1)),
            &lossy.codestream,
        )
        .expect_err("a 1ns deadline must expire");
    assert!(matches!(doomed, NetError::Expired), "{doomed:?}");
    drop(client);

    let stats = server.shutdown();
    let svc = Arc::try_unwrap(service)
        .ok()
        .expect("sole owner")
        .shutdown();
    let snap = registry.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);

    // Frame-level identity.
    assert_eq!(stats.frames_in, 5);
    assert_eq!(stats.frames_out, 5);
    assert!(stats.reconciles(), "{stats:?}");
    assert_eq!(stats.ok, 4);
    assert_eq!(stats.expired, 1);

    // Server tallies and their metric mirrors agree exactly.
    for (name, value) in [
        ("server.accepted", stats.accepted),
        ("server.frames_in", stats.frames_in),
        ("server.frames_out", stats.frames_out),
        ("server.ok", stats.ok),
        ("server.busy", stats.busy),
        ("server.expired", stats.expired),
        ("server.failed", stats.failed),
        ("server.crc_rejects", stats.crc_rejects),
        ("server.protocol_errors", stats.protocol_errors),
    ] {
        assert_eq!(counter(name), value, "{name}");
    }

    // Cross-family: every admitted network request is exactly one
    // service submission (queued or coalesced onto an identical
    // in-flight one), and the service saw no other traffic.
    assert!(svc.reconciles(), "{svc:?}");
    assert!(stats.reconciles_with(&svc), "{stats:?} / {svc:?}");
    assert_eq!(counter("service.submitted"), svc.submitted);
    assert_eq!(counter("service.coalesced"), svc.coalesced);
    assert_eq!(counter("service.completed"), svc.completed);
    assert_eq!(counter("service.expired"), svc.expired);

    // The latency histogram saw every resolved request.
    assert_eq!(
        snap.histograms.get("server.latency").map(|h| h.count()),
        Some(stats.ok + stats.expired),
    );
    // No connection left active after shutdown.
    assert_eq!(snap.gauges.get("server.active").copied(), Some(0));
}
