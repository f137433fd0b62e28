//! Sustained-throughput benchmark for the persistent decode service:
//! N concurrent synthetic clients hammer the Table-1 streams and the
//! three serving paths are isolated by cache configuration —
//!
//! * **cold** — both cache levels disabled: every request is a full
//!   parse + decode, the per-call cost `decode()` pays today;
//! * **header-cached** — header cache only: repeat streams skip the
//!   marker parse and tile segmentation but still decode pixels;
//! * **image-cached** — both levels on: repeat requests are served
//!   from memory.
//!
//! A fourth section stampedes `STAMPEDE_CLIENTS` concurrent clients
//! onto **one** hot stream with the image cache disabled: without
//! single-flight coalescing every request would cost a full decode;
//! with it, concurrent identical requests share one. The measured
//! dedup factor (requests per cold decode) is asserted ≥ K/2 in full
//! runs and ≥ 2 in quick mode.
//!
//! Results go to `BENCH_serve.json` at the repository root. `--test`
//! (how `cargo test --benches` invokes bench targets) or
//! `BENCH_QUICK=1` run a reduced smoke pass and skip the JSON write.
//! The image-cached path must sustain ≥ 10× the cold request rate on
//! repeat streams, and that is asserted here, in quick mode too.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use jpeg2000::service::{DecodeService, Request, RequestKind, ServiceConfig};
use jpeg2000_models::workload::workload;
use jpeg2000_models::ModeSel;

const CLIENTS: usize = 4;
const STAMPEDE_CLIENTS: usize = 8;

/// Stampede: every client hammers the same stream with identical
/// strict requests, image cache off, so each served request is either
/// a real decode (an image-cache miss) or a coalesced ride on one.
/// Returns (req/s, cold_decodes, coalesced).
fn stampede(hot: &[u8], per_client: usize) -> (f64, u64, u64) {
    let svc = DecodeService::new(ServiceConfig {
        workers: 2,
        queue_capacity: STAMPEDE_CLIENTS,
        header_cache_bytes: 8 << 20,
        image_cache_bytes: 0,
        metrics: None,
    });
    let barrier = Barrier::new(STAMPEDE_CLIENTS);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..STAMPEDE_CLIENTS {
            let (svc, barrier) = (&svc, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..per_client {
                    let ticket = svc
                        .submit_wait(
                            hot,
                            Request {
                                kind: RequestKind::Strict,
                                timeout: None,
                            },
                            std::time::Duration::from_secs(60),
                        )
                        .expect("stampede submission");
                    ticket.wait().expect("stampede decode");
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = svc.shutdown();
    assert!(stats.reconciles(), "stampede accounting must reconcile");
    assert_eq!(stats.image_hits, 0, "image cache is disabled");
    let requests = (STAMPEDE_CLIENTS * per_client) as u64;
    assert_eq!(stats.submitted + stats.coalesced, requests);
    (
        requests as f64 / elapsed,
        stats.image_misses,
        stats.coalesced,
    )
}

/// Drives `CLIENTS` threads round-robin over the streams for
/// `per_client` requests each; returns sustained requests/second.
fn sustained_req_per_s(svc: &DecodeService, streams: &[&[u8]], per_client: usize) -> f64 {
    let done = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let done = &done;
            scope.spawn(move || {
                for i in 0..per_client {
                    let bytes = streams[(c + i) % streams.len()];
                    let kind = match i % 3 {
                        0 => RequestKind::Strict,
                        1 => RequestKind::Tolerant,
                        _ => RequestKind::Thumbnail { max_res: 0 },
                    };
                    let req = Request {
                        kind,
                        timeout: None,
                    };
                    // Block for space rather than drop: throughput, not
                    // backpressure, is what is being measured.
                    let ticket = svc
                        .submit_wait(bytes, req, std::time::Duration::from_secs(60))
                        .expect("bench submission");
                    ticket.wait().expect("bench decode");
                    done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let reqs = done.load(Ordering::Relaxed) as f64;
    reqs / t0.elapsed().as_secs_f64()
}

fn main() {
    let quick = osss_bench::quick();
    let per_client = if quick { 6 } else { 40 };

    let lossless = workload(ModeSel::Lossless);
    let lossy = workload(ModeSel::Lossy);
    let streams: Vec<&[u8]> = vec![&lossless.codestream, &lossy.codestream];

    let configs: [(&str, usize, usize); 3] = [
        ("cold", 0, 0),
        ("header_cached", 8 << 20, 0),
        ("image_cached", 8 << 20, 32 << 20),
    ];
    let mut rates = Vec::new();
    for (name, header_bytes, image_bytes) in configs {
        let svc = DecodeService::new(ServiceConfig {
            workers: 2,
            queue_capacity: 2 * CLIENTS,
            header_cache_bytes: header_bytes,
            image_cache_bytes: image_bytes,
            metrics: None,
        });
        // Warm the caches (a no-op for the cold config) so the timed
        // window measures the steady state of each path.
        for bytes in &streams {
            for kind in [
                RequestKind::Strict,
                RequestKind::Tolerant,
                RequestKind::Thumbnail { max_res: 0 },
            ] {
                svc.decode(
                    *bytes,
                    Request {
                        kind,
                        timeout: None,
                    },
                )
                .expect("warmup decode");
            }
        }
        let rate = sustained_req_per_s(&svc, &streams, per_client);
        let stats = svc.shutdown();
        assert!(stats.reconciles(), "bench accounting must reconcile");
        println!(
            "{name}: {rate:.1} req/s  (header hit/miss {}/{}, image hit/miss {}/{})",
            stats.header_hits, stats.header_misses, stats.image_hits, stats.image_misses
        );
        rates.push((name, rate));
    }

    let cold = rates[0].1;
    let header = rates[1].1;
    let image = rates[2].1;
    println!(
        "speedups vs cold: header-cached {:.2}x, image-cached {:.2}x",
        header / cold,
        image / cold
    );
    assert!(
        image >= 10.0 * cold,
        "image-cached path must sustain >= 10x the cold rate on repeat \
         streams (got {:.1} vs {:.1} req/s)",
        image,
        cold
    );

    // Single-flight stampede: K clients, one hot stream, no image
    // cache. The dedup factor (requests per cold decode) is what
    // coalescing buys — a non-coalescing service scores exactly 1.
    let (st_rate, st_misses, st_coalesced) = stampede(&lossless.codestream, per_client);
    let st_requests = (STAMPEDE_CLIENTS * per_client) as u64;
    let dedup = st_requests as f64 / st_misses.max(1) as f64;
    println!(
        "stampede: {st_rate:.1} req/s  ({st_requests} requests -> {st_misses} cold decodes, \
         coalesced={st_coalesced}, dedup {dedup:.1}x)"
    );
    let floor = if quick {
        2
    } else {
        (STAMPEDE_CLIENTS / 2) as u64
    };
    assert!(
        st_misses * floor <= st_requests,
        "coalescing must cut cold decodes by >= {floor}x under a \
         {STAMPEDE_CLIENTS}-client stampede (got {st_misses} decodes \
         for {st_requests} requests)"
    );

    let json = format!(
        "{{\n  \"bench\": \"serve_throughput\",\n  \
         \"workload\": \"table1_128x128_rgb_16_tiles_x2_modes\",\n  \
         \"clients\": {CLIENTS},\n  \"requests_per_client\": {per_client},\n  \
         \"sustained_req_per_s\": {{ \"cold\": {cold:.3}, \
         \"header_cached\": {header:.3}, \"image_cached\": {image:.3} }},\n  \
         \"speedup_vs_cold\": {{ \"header_cached\": {:.3}, \"image_cached\": {:.3} }},\n  \
         \"stampede\": {{ \"clients\": {STAMPEDE_CLIENTS}, \"requests\": {st_requests}, \
         \"req_per_s\": {st_rate:.3}, \"cold_decodes\": {st_misses}, \
         \"coalesced\": {st_coalesced}, \"dedup_factor\": {dedup:.3} }}\n}}\n",
        header / cold,
        image / cold,
    );
    osss_bench::write_json("serve", &json);
}
