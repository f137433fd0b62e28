//! The network decode server end to end: a `DecodeServer` fronts the
//! persistent service over loopback TCP, a blocking `Client` decodes
//! the Table-1 streams through the framed CRC-checked protocol, a
//! burst that fills a tiny decode queue turns into explicit
//! retryable-busy frames, and the `server.*` / `service.*` metric
//! families reconcile in the unified registry.
//!
//! Run with: `cargo run --release --example net_serve`

use osss_jpeg2000::jpeg2000::codec::{encode, EncodeParams, Mode};
use osss_jpeg2000::jpeg2000::image::Image;
use osss_jpeg2000::models::workload::workload;
use osss_jpeg2000::models::ModeSel;
use osss_jpeg2000::sim::probe::MetricsRegistry;
use osss_jpeg2000::{
    Client, DecodeServer, DecodeService, NetError, NetRetryPolicy, Request, ServerConfig,
    ServiceConfig,
};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let lossless = workload(ModeSel::Lossless);
    let lossy = workload(ModeSel::Lossy);
    let reg = MetricsRegistry::new();

    // A deliberately tight service: 1 worker, queue of 2, no caches —
    // small enough that backpressure demonstrably reaches network
    // clients. Sixteen handler threads give every connection below a
    // handler, so each busy answer comes from the full queue, not from
    // the acceptor.
    let service = Arc::new(DecodeService::new(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        header_cache_bytes: 0,
        image_cache_bytes: 0,
        metrics: Some(reg.clone()),
    }));
    let server = DecodeServer::start(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerConfig {
            handler_threads: 16,
            submit_timeout: Duration::from_millis(1),
            metrics: Some(reg.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    println!("decode server listening on {addr}");

    // --- Bit-exact networked decode ---------------------------------
    let mut client = Client::connect(addr).expect("connect");
    for (name, wl) in [("lossless", &lossless), ("lossy", &lossy)] {
        let resp = client
            .request(&Request::strict(), &wl.codestream)
            .expect("networked strict decode");
        assert_eq!(
            resp.image, *wl.reference,
            "network round-trip must be bit-exact"
        );
        println!(
            "{name}: {}x{}x{} decoded over TCP, served {:?}, bit-exact",
            resp.image.width,
            resp.image.height,
            resp.image.num_components(),
            resp.served_from
        );
    }

    // --- Tolerant decode carries its report -------------------------
    let resp = client
        .request(&Request::tolerant(), &lossy.codestream)
        .expect("tolerant decode");
    let report = resp.report.expect("tolerant responses carry a report");
    println!(
        "tolerant: {} isolated failures reported over the wire",
        report.failures.len()
    );

    // --- Backpressure over the network ------------------------------
    // A burst of eight concurrent clients, each with its own Table-1
    // sized stream (identical streams would share one decode through
    // single flight and never fill the queue). A cold decode takes
    // milliseconds, far past the 1 ms submit timeout, so once the
    // worker holds one stream and the queue two, the rest are answered
    // retryable-busy: every request resolves as an image or a busy
    // frame — nothing hangs, nothing is reset.
    let burst: Vec<Vec<u8>> = (0..8)
        .map(|seed| {
            let image = Image::synthetic_rgb(128, 128, 100 + seed);
            encode(&image, &EncodeParams::new(Mode::Lossless).tile_size(32, 32))
                .expect("encode a burst stream")
        })
        .collect();
    let outcomes: Vec<&str> = std::thread::scope(|scope| {
        burst
            .iter()
            .enumerate()
            .map(|(i, stream)| {
                scope.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    match c.request(&Request::strict(), stream) {
                        Ok(_) => "ok",
                        Err(NetError::Busy) => "busy",
                        Err(e) => panic!("burst client {i}: unexpected {e}"),
                    }
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("burst client"))
            .collect()
    });
    let busy = outcomes.iter().filter(|o| **o == "busy").count();
    println!("burst: {busy}/8 requests answered retryable-busy");
    assert!(busy >= 1, "the burst must fill the 2-slot queue");

    // --- Retry-with-backoff absorbs the busy answers ----------------
    let mut retrier = Client::connect(addr).expect("connect");
    let resp = retrier
        .decode_retry(
            &Request::strict(),
            &lossless.codestream,
            &NetRetryPolicy::default(),
            None,
        )
        .expect("retry client must eventually decode");
    assert_eq!(
        *resp.image.components[0].data,
        *lossless.reference.components[0].data
    );
    println!("retry client: decoded after deterministic backoff");

    // --- Accounting -------------------------------------------------
    drop(client);
    drop(retrier);
    let server_stats = server.shutdown();
    assert!(
        server_stats.reconciles(),
        "server outcomes partition frames"
    );
    let service_stats = Arc::try_unwrap(service)
        .ok()
        .expect("server released its handle")
        .shutdown();
    assert!(
        service_stats.reconciles(),
        "service outcomes partition submissions"
    );
    assert!(
        server_stats.reconciles_with(&service_stats),
        "one service submission or coalesce per admitted network request"
    );
    assert_eq!(
        server_stats.conn_rejected, 0,
        "every connection got a handler; the busy answers came from the queue"
    );
    println!(
        "\nserver: frames {}/{}, ok={} busy={} conn_rejected={} crc_rejects={}",
        server_stats.frames_in,
        server_stats.frames_out,
        server_stats.ok,
        server_stats.busy,
        server_stats.conn_rejected,
        server_stats.crc_rejects,
    );
    println!("\nmetrics registry snapshot:\n{}", reg.to_json());
}
