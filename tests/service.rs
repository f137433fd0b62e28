//! Fixed-seed stress smoke for the persistent decode service.
//!
//! A handful of client threads drive a deliberately small service
//! (few workers, short queue, tight cache budgets) with a seeded mix
//! of request kinds, deadlines, cancellations and backpressure. The
//! contract under test is the service's accounting identity: **no
//! submission is ever silently dropped** — every attempt resolves to a
//! response, `QueueFull`, `DeadlineExceeded`, `Cancelled` or a decode
//! error, and after a drain the stats reconcile exactly with the
//! submissions. Completed strict responses must also stay bit-exact
//! against the one-shot decoder.
//!
//! Knobs (environment, same pattern as `FUZZ_ITERS`):
//! * `SERVICE_STRESS_ITERS` — requests per client thread (default 40).
//! * `SERVICE_STRESS_SEED` — master RNG seed (default fixed).
//! * `STAMPEDE_ITERS` — stampede requests per client (default 30).
//! * `STAMPEDE_SEED` — stampede RNG seed (default fixed).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use osss_jpeg2000::jpeg2000::codec::{decode, encode, EncodeParams, Mode};
use osss_jpeg2000::jpeg2000::image::Image;
use osss_jpeg2000::{DecodeService, MetricsRegistry, Request, ServiceConfig, ServiceError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CLIENTS: usize = 4;
const DEFAULT_ITERS: usize = 40;
const DEFAULT_SEED: u64 = 0x5345_5256_4943_4531; // "SERVICE1"

fn env_u64(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn stress_no_request_is_silently_dropped() {
    let iters = env_u64("SERVICE_STRESS_ITERS", DEFAULT_ITERS as u64) as usize;
    let master_seed = env_u64("SERVICE_STRESS_SEED", DEFAULT_SEED);

    // A few distinct streams (Table-1-style geometry, small) plus their
    // strict references for bit-exactness spot checks.
    let streams: Vec<(Vec<u8>, Image)> = (0..3)
        .map(|i| {
            let img = Image::synthetic_rgb(64, 64, 9000 + i);
            let mode = if i % 2 == 0 {
                Mode::Lossless
            } else {
                Mode::lossy_default()
            };
            let bytes = encode(&img, &EncodeParams::new(mode).tile_size(32, 32)).unwrap();
            let reference = decode(&bytes).unwrap().image;
            (bytes, reference)
        })
        .collect();

    let svc = DecodeService::new(ServiceConfig {
        workers: 2,
        queue_capacity: 4,
        // Tight budgets: roughly one header and one image fit, so
        // eviction churn is part of the stress.
        header_cache_bytes: streams.iter().map(|(b, _)| b.len()).max().unwrap(),
        image_cache_bytes: 64 * 64 * 3 * 4,
        metrics: None,
    });

    let attempts = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let resolved = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let svc = &svc;
            let streams = &streams;
            let (attempts, rejected, resolved) = (&attempts, &rejected, &resolved);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(
                    master_seed ^ (client as u64).wrapping_mul(0x9e3779b97f4a7c15),
                );
                for _ in 0..iters {
                    let (bytes, reference) = &streams[rng.gen_range(0..streams.len())];
                    let mut request = match rng.gen_range(0..4) {
                        0 => Request::strict(),
                        1 => Request::tolerant(),
                        2 => Request::quality(rng.gen_range(1..3)),
                        _ => Request::thumbnail(rng.gen_range(0..3)),
                    };
                    if rng.gen_bool(0.2) {
                        // Some absurdly tight, some generous.
                        let us = if rng.gen_bool(0.5) { 50 } else { 200_000 };
                        request = request.with_timeout(Duration::from_micros(us));
                    }
                    attempts.fetch_add(1, Ordering::Relaxed);
                    let submitted = if rng.gen_bool(0.5) {
                        svc.submit(&bytes[..], request)
                    } else {
                        svc.submit_wait(
                            &bytes[..],
                            request,
                            Duration::from_millis(rng.gen_range(0..5)),
                        )
                    };
                    let ticket = match submitted {
                        Ok(t) => t,
                        Err(ServiceError::QueueFull) => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        Err(e) => panic!("unexpected submit error: {e}"),
                    };
                    if rng.gen_bool(0.1) {
                        ticket.cancel();
                    }
                    // Every accepted submission must resolve.
                    match ticket.wait() {
                        Ok(resp) => {
                            if request.kind == osss_jpeg2000::RequestKind::Strict {
                                assert_eq!(&*resp.image, reference, "strict response bit-drift");
                            }
                        }
                        Err(ServiceError::DeadlineExceeded | ServiceError::Cancelled) => {}
                        Err(e) => panic!("unexpected outcome: {e}"),
                    }
                    resolved.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    let stats = svc.shutdown();
    let attempts = attempts.load(Ordering::Relaxed);
    let rejected_seen = rejected.load(Ordering::Relaxed);
    let resolved = resolved.load(Ordering::Relaxed);

    // Client-side and service-side accounting must agree exactly. An
    // accepted attempt either queued its own job (`submitted`) or
    // attached to an identical in-flight one (`coalesced`) — the
    // client cannot tell which, so only their sum is observable.
    assert_eq!(stats.rejected, rejected_seen, "rejection accounting");
    assert_eq!(
        stats.submitted + stats.coalesced,
        attempts - rejected_seen,
        "admission accounting"
    );
    assert_eq!(
        stats.submitted + stats.coalesced,
        resolved,
        "every accepted submission resolved"
    );
    assert!(
        stats.reconciles(),
        "outcomes must partition submissions exactly: {stats:?}"
    );
    assert_eq!(
        stats.submitted + stats.coalesced,
        stats.completed + stats.expired + stats.cancelled + stats.failed,
    );
    assert_eq!(stats.failed, 0, "well-formed streams never fail to decode");
}

/// Single-flight stampede stress: every client hammers **one** hot
/// stream through a single worker with the image cache disabled, so
/// almost every submission lands while an identical decode is in
/// flight. The seeded mix exercises the whole coalescing state
/// machine — followers expiring mid-flight, leaders cancelling with
/// followers attached (promotion), plain pile-ons — and the contract
/// is exact reconciliation: nothing hangs, nothing double-decodes,
/// nothing resolves twice.
#[test]
fn stampede_on_one_hot_stream_reconciles_exactly() {
    const STAMPEDE_CLIENTS: usize = 6;
    let iters = env_u64("STAMPEDE_ITERS", 30) as usize;
    let master_seed = env_u64("STAMPEDE_SEED", 0x5354_414D_5045_4445); // "STAMPEDE"

    let img = Image::synthetic_rgb(64, 64, 9100);
    let bytes = encode(&img, &EncodeParams::new(Mode::Lossless).tile_size(32, 32)).unwrap();
    let reference = decode(&bytes).unwrap().image;

    let svc = DecodeService::new(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        header_cache_bytes: bytes.len(),
        // No image cache: every flight costs a real decode, so the
        // only thing standing between the hot stream and N duplicate
        // decodes is coalescing itself.
        image_cache_bytes: 0,
        metrics: None,
    });

    let attempts = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let resolved = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for client in 0..STAMPEDE_CLIENTS {
            let svc = &svc;
            let (bytes, reference) = (&bytes, &reference);
            let (attempts, rejected, resolved) = (&attempts, &rejected, &resolved);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(
                    master_seed ^ (client as u64).wrapping_mul(0x9e3779b97f4a7c15),
                );
                for _ in 0..iters {
                    let mut request = Request::strict();
                    if rng.gen_bool(0.25) {
                        // Tight deadlines expire followers (and
                        // leaders) at tile boundaries mid-flight.
                        let us = if rng.gen_bool(0.5) { 50 } else { 100_000 };
                        request = request.with_timeout(Duration::from_micros(us));
                    }
                    attempts.fetch_add(1, Ordering::Relaxed);
                    let ticket = match svc.submit(&bytes[..], request) {
                        Ok(t) => t,
                        Err(ServiceError::QueueFull) => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        Err(e) => panic!("unexpected submit error: {e}"),
                    };
                    if rng.gen_bool(0.2) {
                        // Cancelling the leader while followers are
                        // attached must promote, not kill the flight.
                        ticket.cancel();
                    }
                    match ticket.wait() {
                        Ok(resp) => {
                            assert_eq!(&*resp.image, reference, "stampede response bit-drift");
                        }
                        Err(ServiceError::DeadlineExceeded | ServiceError::Cancelled) => {}
                        Err(e) => panic!("unexpected outcome: {e}"),
                    }
                    resolved.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    let stats = svc.shutdown();
    let attempts = attempts.load(Ordering::Relaxed);
    let rejected_seen = rejected.load(Ordering::Relaxed);
    let resolved = resolved.load(Ordering::Relaxed);

    assert_eq!(stats.rejected, rejected_seen, "rejection accounting");
    assert_eq!(
        stats.submitted + stats.coalesced,
        attempts - rejected_seen,
        "admission accounting"
    );
    assert_eq!(
        stats.submitted + stats.coalesced,
        resolved,
        "every accepted submission resolved"
    );
    assert!(stats.reconciles(), "stampede must reconcile: {stats:?}");
    assert_eq!(stats.failed, 0, "a well-formed stream never fails");
    assert!(
        stats.coalesced > 0,
        "six clients × one hot stream × one worker must coalesce: {stats:?}"
    );
    // The decode count (image-cache misses, cache disabled) is what
    // coalescing bounds: it can never exceed the number of queued
    // jobs, which coalescing keeps far below the attempt count.
    assert_eq!(
        stats.image_hits, 0,
        "image cache is disabled in this config"
    );
    assert!(
        stats.image_misses <= stats.submitted,
        "no flight decodes twice: {stats:?}"
    );
}

/// Regression: a cache hit retires in microseconds, so a worker can
/// claim and retire a job the moment the submitter releases the queue
/// lock. The job's queue depth and flight must be on the books before
/// that — recorded after the lock, a retire could run first and leave
/// the gauges off zero after the drain.
#[test]
fn cache_hit_flood_keeps_the_books_exact() {
    const CLIENTS: usize = 3;
    const ITERS: usize = 20_000;
    let streams: Vec<Arc<[u8]>> = (0..3)
        .map(|i| {
            let img = Image::synthetic_rgb(16, 16, 9200 + i);
            encode(&img, &EncodeParams::new(Mode::Lossless))
                .unwrap()
                .into()
        })
        .collect();
    let registry = MetricsRegistry::new();
    let svc = DecodeService::new(ServiceConfig {
        workers: 2,
        metrics: Some(registry.clone()),
        ..ServiceConfig::default()
    });
    for stream in &streams {
        svc.decode(Arc::clone(stream), Request::strict()).unwrap();
    }

    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (svc, streams) = (&svc, &streams);
            scope.spawn(move || {
                for i in 0..ITERS {
                    let stream = &streams[(client + i) % streams.len()];
                    let ticket = svc.submit(Arc::clone(stream), Request::strict()).unwrap();
                    match ticket.wait_timeout(Duration::from_secs(10)) {
                        Some(Ok(_)) => {}
                        Some(Err(e)) => panic!("client {client}, request {i}: {e}"),
                        None => panic!("client {client}, request {i}: no answer in 10 s"),
                    }
                }
            });
        }
    });

    let stats = svc.shutdown();
    assert!(stats.reconciles(), "{stats:?}");
    assert_eq!(
        stats.submitted + stats.coalesced,
        (streams.len() + CLIENTS * ITERS) as u64
    );
    let snap = registry.snapshot();
    for gauge in ["service.queue.depth", "service.singleflight_inflight"] {
        assert_eq!(snap.gauges.get(gauge).copied(), Some(0), "{gauge}");
    }
    let expected = [
        ("service.submitted", stats.submitted),
        ("service.coalesced", stats.coalesced),
        ("service.completed", stats.completed),
        ("service.rejected", stats.rejected),
        ("service.expired", stats.expired),
        ("service.cancelled", stats.cancelled),
        ("service.failed", stats.failed),
        ("service.cache.header.hits", stats.header_hits),
        ("service.cache.header.misses", stats.header_misses),
        ("service.cache.header.evictions", stats.header_evictions),
        ("service.cache.image.hits", stats.image_hits),
        ("service.cache.image.misses", stats.image_misses),
        ("service.cache.image.evictions", stats.image_evictions),
    ];
    let counters: Vec<(&str, u64)> = snap
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("service."))
        .map(|(name, &value)| (name.as_str(), value))
        .collect();
    let mut expected_sorted = expected.to_vec();
    expected_sorted.sort_unstable();
    assert_eq!(counters, expected_sorted, "registry vs stats: {stats:?}");
}
