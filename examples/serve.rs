//! The persistent decode service end to end: a pool of long-lived
//! workers serves strict, tolerant, quality and thumbnail decodes of
//! the Table-1 streams, demonstrating the four serving paths (cold,
//! header-cached, image-cached, coalesced), explicit backpressure
//! (`QueueFull`), per-request deadlines, and the `service.*` metrics
//! the pool exports into the unified registry.
//!
//! Run with: `cargo run --release --example serve`

use osss_jpeg2000::jpeg2000::codec::{encode, EncodeParams, Mode};
use osss_jpeg2000::jpeg2000::image::Image;
use osss_jpeg2000::models::workload::workload;
use osss_jpeg2000::models::ModeSel;
use osss_jpeg2000::sim::probe::MetricsRegistry;
use osss_jpeg2000::{DecodeService, Request, ServedFrom, ServiceConfig, ServiceError};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let lossless = workload(ModeSel::Lossless);
    let lossy = workload(ModeSel::Lossy);
    let reg = MetricsRegistry::new();
    let service = DecodeService::new(ServiceConfig {
        workers: 2,
        queue_capacity: 8,
        metrics: Some(reg.clone()),
        ..ServiceConfig::default()
    });
    println!(
        "decode service up: {} workers, queue of 8",
        service.workers()
    );

    // --- The three serving paths -----------------------------------
    // Cold: first sight of the stream — full parse + decode.
    let cold = service
        .decode(&lossless.codestream[..], Request::strict())
        .expect("cold strict decode");
    assert_eq!(*cold.image, *lossless.reference, "service is bit-exact");
    assert_eq!(cold.served_from, ServedFrom::Cold);
    println!(
        "cold:         {:>9?} (queue wait {:?})",
        cold.service_time, cold.queue_wait
    );

    // Header-cached: same stream, different variant — the parsed
    // StagedDecoder is reused, only the pixel pipeline runs.
    let warm = service
        .decode(&lossless.codestream[..], Request::thumbnail(0))
        .expect("thumbnail via cached header");
    assert_eq!(warm.served_from, ServedFrom::HeaderCache);
    println!(
        "header-cache: {:>9?} ({}x{} thumbnail)",
        warm.service_time, warm.image.width, warm.image.height
    );

    // Image-cached: identical request — no decoding at all.
    let hot = service
        .decode(&lossless.codestream[..], Request::strict())
        .expect("repeat strict decode");
    assert_eq!(hot.served_from, ServedFrom::ImageCache);
    println!("image-cache:  {:>9?}", hot.service_time);

    // --- Deadlines --------------------------------------------------
    // A deadline no decode can meet: the request resolves with
    // DeadlineExceeded instead of burning a worker. The deadline is
    // checked before any cache lookup, so a cached stream would expire
    // the same way.
    let doomed = service
        .decode(
            &lossy.codestream[..],
            Request::strict().with_timeout(Duration::from_nanos(1)),
        )
        .expect_err("a 1ns deadline must expire");
    assert_eq!(doomed, ServiceError::DeadlineExceeded);
    println!("deadline:     1ns budget -> {doomed}");

    // --- Backpressure -----------------------------------------------
    // Saturate the queue with a burst of *distinct* streams, without
    // waiting; once the queue is full, submits are refused explicitly
    // rather than queued unboundedly. (Distinct streams matter:
    // identical submissions would coalesce onto the in-flight decode
    // instead of consuming queue slots — see the next section.)
    let burst: Vec<Vec<u8>> = (0..32)
        .map(|i| {
            let img = Image::synthetic_rgb(48, 48, 7000 + i);
            encode(&img, &EncodeParams::new(Mode::Lossless)).expect("burst encode")
        })
        .collect();
    let mut tickets = Vec::new();
    let mut refused = 0usize;
    for bytes in &burst {
        match service.submit(&bytes[..], Request::tolerant()) {
            Ok(t) => tickets.push(t),
            Err(ServiceError::QueueFull) => refused += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    for t in tickets {
        let resp = t.wait().expect("queued tolerant decode");
        assert!(resp.report.expect("tolerant report").failures.is_empty());
    }
    println!("backpressure: {refused}/32 burst submissions refused with QueueFull");

    // --- Single-flight coalescing ------------------------------------
    // One worker, no image cache: while a decode of a hot stream is
    // queued or running, identical submissions attach to it as
    // *followers* instead of queueing duplicate work. Every follower
    // gets the same `Arc`'d image the leader decoded, tagged
    // `ServedFrom::Coalesced`; the stream is decoded exactly once.
    let single = DecodeService::new(ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        image_cache_bytes: 0,
        ..ServiceConfig::default()
    });
    let filler = single
        .submit(&lossy.codestream[..], Request::tolerant())
        .expect("filler occupies the sole worker");
    let leader = single
        .submit(&lossless.codestream[..], Request::strict())
        .expect("leader queues the hot decode");
    let followers: Vec<_> = (0..3)
        .map(|_| {
            single
                .submit(&lossless.codestream[..], Request::strict())
                .expect("follower attaches to the in-flight decode")
        })
        .collect();
    filler.wait().expect("filler decode");
    let lead = leader.wait().expect("leader decode");
    assert_eq!(lead.served_from, ServedFrom::Cold);
    for f in followers {
        let resp = f.wait().expect("follower rides the leader's decode");
        assert_eq!(resp.served_from, ServedFrom::Coalesced);
        assert!(
            Arc::ptr_eq(&resp.image, &lead.image),
            "followers share the leader's buffer, not a copy"
        );
    }
    let sf = single.shutdown();
    println!(
        "coalescing:   4 identical submissions -> {} decode, coalesced={}",
        sf.image_misses - 1, // minus the filler's decode
        sf.coalesced,
    );

    // --- Accounting and metrics -------------------------------------
    let stats = service.shutdown();
    assert!(stats.reconciles(), "outcomes partition submissions");
    println!(
        "\nstats: submitted={} coalesced={} completed={} expired={} rejected={} \
         header hit/miss={}/{} image hit/miss={}/{} evictions={}",
        stats.submitted,
        stats.coalesced,
        stats.completed,
        stats.expired,
        stats.rejected,
        stats.header_hits,
        stats.header_misses,
        stats.image_hits,
        stats.image_misses,
        stats.header_evictions + stats.image_evictions,
    );
    println!("\nmetrics registry snapshot:\n{}", reg.to_json());
}
