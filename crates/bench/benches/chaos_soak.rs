//! Chaos-soak benchmark: sustained goodput of the network decode
//! stack when the loopback path misbehaves. The same multi-client
//! Table-1 mix runs three times —
//!
//! * **direct** — straight to the `DecodeServer`, the `net_throughput`
//!   baseline;
//! * **clean proxy** — through a fault-free `ChaosProxy`, isolating
//!   the proxy's forwarding cost;
//! * **lossy proxy** — through the lossy profile (fragmentation,
//!   stalls, rare corruption/drops), measuring goodput when requests
//!   can fail and clients retry behind a circuit breaker.
//!
//! Every successful strict decode is asserted bit-exact and the
//! server/service accounting identities are checked per run. In every
//! mode the clean proxy must sustain [`MIN_CLEAN_VS_DIRECT`] of the
//! direct goodput measured in the same run. Results go to
//! `BENCH_chaos.json`; `--test` or `BENCH_QUICK=1` runs a reduced smoke
//! pass and skips the JSON write.
//!
//! The proxy's byte schedule replays from `SEED`, but the lossy run's
//! ok/failed counts do not: a retry's backoff and each client's
//! deadline race wall-clock time, so one seed has read 65/25 and 66/24.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use jpeg2000::chaos::{ChaosConfig, ChaosProxy};
use jpeg2000::net::{CircuitBreaker, Client, NetError, NetRetryPolicy};
use jpeg2000::server::{DecodeServer, ServerConfig};
use jpeg2000::service::{DecodeService, Request, ServiceConfig};
use jpeg2000_models::workload::workload;
use jpeg2000_models::ModeSel;

const CLIENTS: usize = 3;
const SEED: u64 = 0x50AB_5EED;

/// Minimum clean-proxy goodput as a share of direct goodput. Both run
/// in one process on one host, so the ratio holds on any machine; a
/// proxy that stalls on Nagle reads 0.01-0.1, and full runs on a
/// 2-vCPU x86-64 VM read 0.68-0.97.
const MIN_CLEAN_VS_DIRECT: f64 = 0.5;

struct RunResult {
    ok: u64,
    failed: u64,
    rate: f64,
}

/// Drives `per_client` guarded requests from each of CLIENTS threads
/// at `addr`, returning goodput (successful decodes per second).
fn drive(addr: SocketAddr, per_client: usize) -> RunResult {
    let lossless = workload(ModeSel::Lossless);
    let lossy = workload(ModeSel::Lossy);
    let ok = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (ok, failed) = (&ok, &failed);
            let (lossless, lossy) = (&lossless, &lossy);
            scope.spawn(move || {
                let policy = NetRetryPolicy {
                    max_retries: 20,
                    backoff_base: Duration::from_millis(1),
                    jitter_seed: SEED ^ c as u64,
                    ..NetRetryPolicy::default()
                };
                let mut breaker = CircuitBreaker::new(4, Duration::from_millis(50));
                let mut client = Client::connect(addr)
                    .expect("connect")
                    .op_deadline(Duration::from_secs(5));
                for i in 0..per_client {
                    let wl = if (c + i) % 2 == 0 { lossless } else { lossy };
                    match client.decode_retry(
                        &Request::strict(),
                        &wl.codestream,
                        &policy,
                        Some(&mut breaker),
                    ) {
                        Ok(resp) => {
                            assert_eq!(
                                resp.image, *wl.reference,
                                "chaos soak must never yield a wrong image"
                            );
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(NetError::CircuitOpen) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_millis(60));
                        }
                        Err(_) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    RunResult {
        ok: ok.load(Ordering::Relaxed),
        failed: failed.load(Ordering::Relaxed),
        rate: ok.load(Ordering::Relaxed) as f64 / t0.elapsed().as_secs_f64(),
    }
}

/// One full server lifecycle around `f`, asserting the accounting
/// identities on teardown.
fn with_server<F: FnOnce(SocketAddr) -> RunResult>(f: F) -> RunResult {
    let service = Arc::new(DecodeService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }));
    let server = DecodeServer::start(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerConfig {
            handler_threads: CLIENTS + 1,
            frame_deadline: Duration::from_secs(2),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let result = f(server.local_addr());
    let server_stats = server.shutdown();
    assert!(server_stats.reconciles(), "{server_stats:?}");
    let svc_stats = Arc::try_unwrap(service)
        .ok()
        .expect("sole owner")
        .shutdown();
    assert!(svc_stats.reconciles(), "{svc_stats:?}");
    assert!(
        server_stats.reconciles_with(&svc_stats),
        "one service submission or coalesce per admitted request: {server_stats:?} / {svc_stats:?}"
    );
    result
}

fn main() {
    let quick = osss_bench::quick();
    let per_client = if quick { 4 } else { 30 };

    let direct = with_server(|addr| drive(addr, per_client));
    println!(
        "direct:      {:.1} ok/s ({} ok, {} failed)",
        direct.rate, direct.ok, direct.failed
    );
    assert_eq!(direct.failed, 0, "a perfect path must not fail requests");

    let clean = with_server(|addr| {
        let proxy = ChaosProxy::start(addr, ChaosConfig::clean(SEED)).expect("proxy");
        let r = drive(proxy.local_addr(), per_client);
        let stats = proxy.shutdown();
        assert_eq!(
            stats.upstream.drops + stats.downstream.drops + stats.blackholed,
            0,
            "clean schedule injects nothing"
        );
        r
    });
    println!(
        "clean proxy: {:.1} ok/s ({} ok, {} failed)",
        clean.rate, clean.ok, clean.failed
    );

    let lossy = with_server(|addr| {
        let proxy = ChaosProxy::start(addr, ChaosConfig::lossy(SEED)).expect("proxy");
        let r = drive(proxy.local_addr(), per_client);
        proxy.shutdown();
        r
    });
    println!(
        "lossy proxy: {:.1} ok/s ({} ok, {} failed)",
        lossy.rate, lossy.ok, lossy.failed
    );
    let clean_share = clean.rate / direct.rate;
    println!("clean proxy / direct: {clean_share:.2}");
    assert!(
        clean_share >= MIN_CLEAN_VS_DIRECT,
        "the clean proxy must sustain >= {MIN_CLEAN_VS_DIRECT} of direct goodput \
         (got {clean_share:.2}: {:.1} vs {:.1} ok/s)",
        clean.rate,
        direct.rate
    );

    let json = format!(
        "{{\n  \"bench\": \"chaos_soak\",\n  \
         \"workload\": \"table1_128x128_rgb_16_tiles_x2_modes\",\n  \
         \"clients\": {CLIENTS},\n  \"requests_per_client\": {per_client},\n  \
         \"seed\": {SEED},\n  \
         \"goodput_ok_per_s\": {{ \"direct\": {:.3}, \"clean_proxy\": {:.3}, \
         \"lossy_proxy\": {:.3} }},\n  \
         \"lossy_outcomes\": {{ \"ok\": {}, \"failed\": {} }}\n}}\n",
        direct.rate, clean.rate, lossy.rate, lossy.ok, lossy.failed,
    );
    osss_bench::write_json("chaos", &json);
}
