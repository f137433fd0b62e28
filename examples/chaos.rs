//! Chaos-testing the network decode stack: a deterministic fault
//! proxy sits between `Client` and `DecodeServer` on loopback and
//! replays a seeded schedule of partial writes, stalls, corruption,
//! drops and blackholes, while the hardened endpoints answer every
//! disturbance with a structured outcome —
//!
//! * a **clean** schedule is transparent: bit-exact decodes, zero
//!   injected faults;
//! * an **adversarial** schedule is survived: CRC catches corruption,
//!   deadlines catch stalls, the client's circuit breaker fails fast
//!   on a blackholed path, and the server accounting still reconciles;
//! * a **slow-loris** peer trickling bytes is evicted by the
//!   whole-frame read deadline instead of pinning a handler.
//!
//! Run with: `cargo run --release --example chaos`

use osss_jpeg2000::models::workload::workload;
use osss_jpeg2000::models::ModeSel;
use osss_jpeg2000::{
    ChaosConfig, ChaosProxy, CircuitBreaker, Client, DecodeServer, DecodeService, NetError,
    NetRetryPolicy, Request, ServerConfig, ServiceConfig,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 0x00DD_5EED;

fn main() {
    let wl = workload(ModeSel::Lossless);
    let service = Arc::new(DecodeService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }));
    let server = DecodeServer::start(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerConfig {
            handler_threads: 4,
            frame_deadline: Duration::from_millis(250),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    println!("decode server on {}", server.local_addr());

    // --- A clean schedule is invisible ------------------------------
    let proxy = ChaosProxy::start(server.local_addr(), ChaosConfig::clean(SEED)).expect("proxy");
    let mut client = Client::connect(proxy.local_addr()).expect("connect via proxy");
    let resp = client
        .request(&Request::strict(), &wl.codestream)
        .expect("clean proxied decode");
    assert_eq!(resp.image, *wl.reference, "clean proxy must be transparent");
    drop(client);
    let stats = proxy.shutdown();
    println!(
        "clean:       bit-exact through the proxy ({} B up, {} B down, 0 faults)",
        stats.upstream.bytes_out, stats.downstream.bytes_out
    );

    // --- An adversarial schedule is survived ------------------------
    let proxy =
        ChaosProxy::start(server.local_addr(), ChaosConfig::adversarial(SEED)).expect("proxy");
    let policy = NetRetryPolicy {
        max_retries: 3,
        backoff_base: Duration::from_millis(1),
        jitter_seed: SEED,
        ..NetRetryPolicy::default()
    };
    let mut breaker = CircuitBreaker::new(3, Duration::from_millis(100));
    let mut tally = [0u32; 3]; // ok / structured error / fail-fast
    for i in 0..12 {
        let mut c = Client::connect(proxy.local_addr())
            .expect("connect via proxy")
            .op_deadline(Duration::from_millis(750));
        match c.decode_retry(
            &Request::strict(),
            &wl.codestream,
            &policy,
            Some(&mut breaker),
        ) {
            Ok(resp) => {
                assert_eq!(resp.image, *wl.reference, "chaos must never warp an image");
                tally[0] += 1;
            }
            Err(NetError::CircuitOpen) => {
                tally[2] += 1;
                std::thread::sleep(Duration::from_millis(110));
            }
            Err(e) => {
                println!("  request {i:2}: structured failure: {e}");
                tally[1] += 1;
            }
        }
    }
    let stats = proxy.shutdown();
    println!(
        "adversarial: {} ok, {} structured errors, {} failed fast (breaker) — \
         injected: {} corrupt B, {} drops, {} blackholes",
        tally[0],
        tally[1],
        tally[2],
        stats.upstream.corrupted_bytes + stats.downstream.corrupted_bytes,
        stats.upstream.drops + stats.downstream.drops,
        stats.blackholed,
    );

    // --- Slow-loris is evicted, not served forever ------------------
    let mut loris = TcpStream::connect(server.local_addr()).expect("connect");
    let header: [u8; 8] = {
        let mut h = [0u8; 8];
        h[..4].copy_from_slice(&0x4A32_4B44u32.to_le_bytes());
        h[4..].copy_from_slice(&1_000_000u32.to_le_bytes());
        h
    };
    loris.write_all(&header).expect("loris header");
    for _ in 0..20 {
        if loris.write_all(&[0]).is_err() {
            break; // evicted mid-trickle
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    drop(loris);

    // --- Accounting survives all of it ------------------------------
    let server_stats = server.shutdown();
    assert!(server_stats.reconciles(), "{server_stats:?}");
    assert!(
        server_stats.frame_timeouts >= 1,
        "the loris must hit the frame deadline: {server_stats:?}"
    );
    let service_stats = Arc::try_unwrap(service)
        .ok()
        .expect("server released its handle")
        .shutdown();
    assert!(service_stats.reconciles(), "{service_stats:?}");
    println!(
        "server:      frames {}/{}, ok={} frame_timeouts={} (loris evicted) — accounting reconciles",
        server_stats.frames_in, server_stats.frames_out, server_stats.ok,
        server_stats.frame_timeouts,
    );
}
