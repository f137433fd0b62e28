//! cold-net and hot-net: closed-loop clients over loopback TCP against
//! a default `DecodeServer` + `DecodeService`.
//!
//! Each connection sends its next request only after the previous
//! response arrived. The untraced client is the public `Client`; the
//! traced client issues the same public calls `Client::request` makes
//! (`encode_request`, `write_frame`, `read_frame`, `decode_response`)
//! on its own socket, with one span around each.

use crate::design;
use crate::json::Json;
use crate::plan::{Entry, Workload};
use crate::replay::LayerStats;
use crate::report::{self, Outcome, Values, END_TO_END, PER_LAYER};
use crate::stats::{percentile, ratio, sorted};
use crate::tally::Tally;
use crate::trace::{SpanLog, NO_PARENT};
use crate::{host_details, Ctx};
use jpeg2000::net::{
    decode_request, decode_response, encode_ok, encode_request, read_frame, write_frame, Client,
    NetError, NetResponse, WireError, MAX_FRAME_BYTES,
};
use jpeg2000::server::{DecodeServer, ServerConfig, ServerStats};
use jpeg2000::service::{DecodeService, Request, ServiceConfig, ServiceStats};
use osss_sim::checksum::crc32;
use osss_sim::probe::MetricsRegistry;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A default service behind a default server on an ephemeral loopback
/// port.
struct Stack {
    service: Arc<DecodeService>,
    server: DecodeServer,
}

impl Stack {
    fn start(metrics: Option<MetricsRegistry>) -> io::Result<Stack> {
        let service = Arc::new(DecodeService::new(ServiceConfig {
            metrics: metrics.clone(),
            ..ServiceConfig::default()
        }));
        let server = DecodeServer::start(
            Arc::clone(&service),
            "127.0.0.1:0",
            ServerConfig {
                metrics,
                ..ServerConfig::default()
            },
        )?;
        Ok(Stack { service, server })
    }

    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stops the server, then the service; returns both final tallies.
    ///
    /// # Errors
    ///
    /// When the stopped server still holds the service.
    fn shutdown(self) -> Result<(ServerStats, ServiceStats), String> {
        let server = self.server.shutdown();
        let service = Arc::try_unwrap(self.service)
            .map_err(|_| "the stopped server still holds the decode service".to_owned())?;
        Ok((server, service.shutdown()))
    }
}

/// Checks both accounting identities and the cross-family one: every
/// request the server resolved was one service submission or coalesced
/// onto one.
pub fn check_identities(server: &ServerStats, svc: &ServiceStats, problems: &mut Vec<String>) {
    if !svc.reconciles() {
        problems.push(format!("ServiceStats do not reconcile: {svc:?}"));
    }
    if !server.reconciles() {
        problems.push(format!("ServerStats do not reconcile: {server:?}"));
    }
    if svc.submitted + svc.coalesced != server.ok + server.expired + server.failed + server.internal
    {
        problems.push(format!(
            "cross-family identity broken: service {svc:?} vs server {server:?}"
        ));
    }
}

/// `later − earlier` for the counters; high-water marks keep `later`.
pub fn stats_delta(later: &ServiceStats, earlier: &ServiceStats) -> ServiceStats {
    ServiceStats {
        submitted: later.submitted - earlier.submitted,
        coalesced: later.coalesced - earlier.coalesced,
        completed: later.completed - earlier.completed,
        rejected: later.rejected - earlier.rejected,
        expired: later.expired - earlier.expired,
        cancelled: later.cancelled - earlier.cancelled,
        failed: later.failed - earlier.failed,
        header_hits: later.header_hits - earlier.header_hits,
        header_misses: later.header_misses - earlier.header_misses,
        header_evictions: later.header_evictions - earlier.header_evictions,
        image_hits: later.image_hits - earlier.image_hits,
        image_misses: later.image_misses - earlier.image_misses,
        image_evictions: later.image_evictions - earlier.image_evictions,
        ..*later
    }
}

/// Cache and coalescing shares of a stats window.
pub fn service_shares(s: &ServiceStats) -> Json {
    Json::obj()
        .with("image_hit_ratio", image_hit_ratio(s))
        .with("header_hit_ratio", header_hit_ratio(s))
        .with("coalesced_share", coalesced_ratio(s))
        .with("image_evictions", s.image_evictions)
        .with("header_evictions", s.header_evictions)
        .with("max_queue_depth", s.max_queue_depth)
}

/// Image-cache hits per lookup.
pub fn image_hit_ratio(s: &ServiceStats) -> f64 {
    ratio(s.image_hits as f64, (s.image_hits + s.image_misses) as f64)
}

/// Header-cache hits per lookup.
pub fn header_hit_ratio(s: &ServiceStats) -> f64 {
    ratio(
        s.header_hits as f64,
        (s.header_hits + s.header_misses) as f64,
    )
}

/// Coalesced requests per accepted request.
pub fn coalesced_ratio(s: &ServiceStats) -> f64 {
    ratio(s.coalesced as f64, (s.submitted + s.coalesced) as f64)
}

/// A client connection: the public `Client`, or a traced socket.
enum Conn {
    Plain(Client),
    Traced(TcpStream),
}

impl Conn {
    fn open(addr: SocketAddr, traced: bool) -> io::Result<Conn> {
        if traced {
            let s = TcpStream::connect(addr)?;
            // As `Client::connect` configures its socket.
            s.set_nodelay(true)?;
            Ok(Conn::Traced(s))
        } else {
            Client::connect(addr).map(Conn::Plain)
        }
    }
}

/// Payloads kept from a traced request for the replay phase (the first
/// requests of each connection, so their mix follows the traffic).
struct Captured {
    entry: Entry,
    request: Vec<u8>,
    response: Vec<u8>,
}

/// A reader that notes when the first response byte arrived.
struct FirstByte<'a> {
    sock: &'a TcpStream,
    first: Option<Instant>,
}

impl Read for FirstByte<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut s = self.sock;
        let n = s.read(buf)?;
        if n > 0 && self.first.is_none() {
            self.first = Some(Instant::now());
        }
        Ok(n)
    }
}

/// A traced request's result plus, when a response frame arrived, the
/// request and response payloads.
type TracedOutcome = (Result<NetResponse, NetError>, Option<(Vec<u8>, Vec<u8>)>);

/// The traced request path, under root span `root`.
fn traced_request(
    sock: &TcpStream,
    request: &Request,
    stream: &[u8],
    log: &mut SpanLog,
    req: u64,
    root: u32,
) -> TracedOutcome {
    let t0 = Instant::now();
    let send = log.open_at("net.send", req, root, t0);
    let payload = encode_request(request, stream);
    let t1 = Instant::now();
    log.record("net.encode_request", req, send, t0, t1);
    let written = write_frame(&mut &*sock, &payload);
    let t2 = Instant::now();
    log.record("net.write_frame", req, send, t1, t2);
    log.close_at(send, t2);
    if let Err(e) = written {
        return (Err(e.into()), None);
    }
    let mut reader = FirstByte { sock, first: None };
    let frame = read_frame(&mut reader, MAX_FRAME_BYTES);
    let t3 = Instant::now();
    let turn = log.record("net.read_frame", req, root, t2, t3);
    let first = reader.first.unwrap_or(t3);
    log.record("server.wait", req, turn, t2, first);
    log.record("net.recv", req, turn, first, t3);
    let body = match frame {
        Ok(Some(body)) => body,
        Ok(None) => return (Err(WireError::Truncated.into()), None),
        Err(e) => return (Err(e.into()), None),
    };
    let response = decode_response(&body);
    let t4 = Instant::now();
    log.record("net.decode_response", req, root, t3, t4);
    (response, Some((payload, body)))
}

/// What one client thread measured.
struct ClientOut {
    tally: Tally,
    log: SpanLog,
    busy: u64,
    captured: Vec<Captured>,
}

/// Issues one request on `conn` and records its outcome.
fn issue(ctx: Ctx<'_>, conn: &mut Conn, e: Entry, req: u64, out: &mut ClientOut) {
    let request = Request {
        kind: e.kind,
        timeout: None,
    };
    let stream = &ctx.corpus.streams[e.stream];
    out.tally.attempt(ctx.plan, ctx.corpus, e);
    let t0 = Instant::now();
    let (result, payloads) = match conn {
        Conn::Plain(client) => (client.request(&request, stream), None),
        Conn::Traced(sock) => {
            let root = out.log.open_at("client.request", req, NO_PARENT, t0);
            let r = traced_request(sock, &request, stream, &mut out.log, req, root);
            out.log.close_at(root, Instant::now());
            r
        }
    };
    let t1 = Instant::now();
    match result {
        Ok(resp) => {
            let reference = ctx.corpus.reference(&e);
            let verified = reference.matches(&resp.image, resp.report.as_ref());
            out.tally.respond(e, reference, t1 - t0, t1, verified);
        }
        Err(err) => {
            out.busy += u64::from(matches!(err, NetError::Busy));
            out.tally.fail(err.to_string(), t1);
        }
    }
    if let Some((request, response)) = payloads {
        if out.captured.len() < design::WIRE_SAMPLES {
            out.captured.push(Captured {
                entry: e,
                request,
                response,
            });
        }
    }
}

/// Starts a stack, connects the generator's connections and issues the
/// warm-up requests; returns the set-up time with the stack.
fn set_up(
    ctx: Ctx<'_>,
    metrics: Option<MetricsRegistry>,
    traced: bool,
) -> Result<(Stack, Vec<Conn>, Duration), String> {
    let t0 = Instant::now();
    let stack = Stack::start(metrics).map_err(|e| format!("server start: {e}"))?;
    let mut conns = (0..ctx.plan.connections)
        .map(|_| Conn::open(stack.addr(), traced))
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    let mut warm = ClientOut {
        tally: Tally::default(),
        log: SpanLog::new(t0),
        busy: 0,
        captured: Vec::new(),
    };
    for (i, e) in ctx.plan.warmup.iter().enumerate() {
        let n = conns.len();
        issue(ctx, &mut conns[i % n], *e, u64::MAX, &mut warm);
    }
    let elapsed = t0.elapsed();
    if warm.tally.ok != warm.tally.attempted {
        return Err(format!(
            "warm-up failed: {:?} {:?}",
            warm.tally.failures, warm.tally.first_mismatch
        ));
    }
    Ok((stack, conns, elapsed))
}

/// The closed loop: every connection on its own thread (the first on
/// this one) until `secs` elapse; a shared counter walks the plan's
/// cycle, so issue order is the plan's order.
fn closed_loop(
    ctx: Ctx<'_>,
    conns: Vec<Conn>,
    secs: f64,
    base: Instant,
) -> (Vec<ClientOut>, Instant) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let run = |id: usize, mut conn: Conn| {
        let mut out = ClientOut {
            tally: Tally::default(),
            log: SpanLog::new(base),
            busy: 0,
            captured: Vec::new(),
        };
        let cycle = &ctx.plan.cycle;
        let mut k = 0u64;
        while Instant::now() < end {
            let e = cycle[next.fetch_add(1, Ordering::Relaxed) % cycle.len()];
            issue(ctx, &mut conn, e, ((id as u64) << 40) | k, &mut out);
            k += 1;
        }
        out
    };
    let outs = std::thread::scope(|s| {
        let mut conns = conns.into_iter().enumerate();
        let (id0, first) = conns.next().expect("at least one connection");
        let handles: Vec<_> = conns.map(|(id, c)| s.spawn(move || run(id, c))).collect();
        let mut outs = vec![run(id0, first)];
        outs.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked")),
        );
        outs
    });
    (outs, start)
}

fn merge(outs: Vec<ClientOut>, base: Instant) -> ClientOut {
    let mut all = ClientOut {
        tally: Tally::default(),
        log: SpanLog::new(base),
        busy: 0,
        captured: Vec::new(),
    };
    for o in outs {
        all.tally.merge(o.tally);
        all.log.append(o.log);
        all.busy += o.busy;
        all.captured.extend(o.captured);
    }
    all
}

fn p99_limit(workload: Workload) -> f64 {
    match workload {
        Workload::HotNet => design::HOT_NET_P99_LIMIT_MS,
        Workload::BatchParallel => design::BATCH_P99_LIMIT_MS,
        _ => design::COLD_NET_P99_LIMIT_MS,
    }
}

/// A closed loop offers exactly the rate it sustains, so its
/// `slo_rate_rps` is that rate when the p99 latency stays within the
/// workload's fixed limit and nothing failed, and 0 otherwise.
pub fn closed_loop_slo_rate(workload: Workload, t: &Tally, window: Duration) -> f64 {
    let p99 = percentile(&sorted(t.lat_ms.clone()), 99.0);
    if t.failed == 0 && p99 <= p99_limit(workload) {
        ratio(t.ok as f64, window.as_secs_f64())
    } else {
        0.0
    }
}

/// The closed-loop SLO figures for the details line.
pub fn closed_loop_slo(workload: Workload, t: &Tally, window: Duration) -> Json {
    Json::obj()
        .with("p99_limit_ms", p99_limit(workload))
        .with("slo_rate_rps", closed_loop_slo_rate(workload, t, window))
}

/// Runs cold-net or hot-net.
pub fn run(ctx: Ctx<'_>, secs: f64, trace: bool, base: Instant) -> Outcome {
    match if trace {
        run_traced(ctx, secs, base)
    } else {
        run_untraced(ctx, secs, base)
    } {
        Ok(o) => o,
        Err(e) => Outcome {
            problems: vec![e],
            ..Outcome::default()
        },
    }
}

const TRANSPORT: &str = "loopback TCP (127.0.0.1)";

fn run_untraced(ctx: Ctx<'_>, secs: f64, base: Instant) -> Result<Outcome, String> {
    let mut problems = Vec::new();
    let mut setups = Vec::new();
    let mut live = None;
    for rep in 0..design::SETUP_REPS {
        let ticks0 = report::HostTicks::now();
        let (stack, conns, took) = set_up(ctx, None, false)?;
        setups.push(report::guest_seconds(took, ticks0));
        if rep + 1 == design::SETUP_REPS {
            live = Some((stack, conns));
        } else {
            drop(conns);
            let (server, svc) = stack.shutdown()?;
            check_identities(&server, &svc, &mut problems);
        }
    }
    let (stack, conns) = live.expect("at least one set-up");
    let before = stack.service.stats();
    let (cpu0, ticks0) = (report::process_cpu_s(), report::HostTicks::now());
    let (outs, start) = closed_loop(ctx, conns, secs, base);
    let cpu_s = report::process_cpu_s() - cpu0;
    let steal_share = ticks0.steal_share(report::HostTicks::now());
    let after = stack.service.stats();
    let (server, svc) = stack.shutdown()?;
    check_identities(&server, &svc, &mut problems);
    let out = merge(outs, base);
    let t = &out.tally;
    if let Some(m) = &t.first_mismatch {
        problems.push(m.clone());
    }
    let window = t.window(start);
    let mut v = Values::default();
    report::set_end_to_end(
        &mut v,
        &report::Measured {
            tally: t,
            p50_population: &t.lat_ms,
            window,
            cpu_s,
            steal_share,
        },
        &setups,
    );
    let window_stats = stats_delta(&after, &before);
    let details = Json::obj()
        .with("workload", ctx.plan.workload.name())
        .with("host", host_details(ctx, TRANSPORT))
        .with("latency", report::latency_summary(&t.lat_ms))
        .with("traffic", report::traffic_shares(t))
        .with("service", service_shares(&window_stats))
        .with("slo", closed_loop_slo(ctx.plan.workload, t, window))
        .with("steal_share", steal_share)
        .with(
            "throughput_wall_rps",
            ratio(t.ok as f64, window.as_secs_f64()),
        )
        .with(
            "setup_s_each",
            Json::Arr(setups.iter().map(|s| (*s).into()).collect()),
        );
    Ok(Outcome {
        problems,
        attempted: t.attempted,
        failed: t.failed,
        metrics: v.render(END_TO_END),
        details,
    })
}

/// Per item, the median of three timed calls of `op`, in µs.
fn replay_op_us<T>(items: &[T], mut op: impl FnMut(&T)) -> Vec<f64> {
    items
        .iter()
        .map(|it| {
            let runs: Vec<f64> = (0..3)
                .map(|_| {
                    let t = Instant::now();
                    op(it);
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            percentile(&sorted(runs), 50.0)
        })
        .collect()
}

fn run_traced(ctx: Ctx<'_>, secs: f64, base: Instant) -> Result<Outcome, String> {
    let mut problems = Vec::new();
    let half = secs / 2.0;
    // Untraced reference half: defaults, no registry, public Client.
    let (stack, conns, _) = set_up(ctx, None, false)?;
    let (outs, start) = closed_loop(ctx, conns, half, base);
    let (server, svc) = stack.shutdown()?;
    check_identities(&server, &svc, &mut problems);
    let plain = merge(outs, base).tally;
    let plain_window = plain.window(start);
    let mut v = Values::default();
    v.set(
        "latency_p99_ms",
        percentile(&sorted(plain.lat_ms.clone()), 99.0),
        plain.lat_ms.len() as u64,
    );
    v.set(
        "slo_rate_rps",
        closed_loop_slo_rate(ctx.plan.workload, &plain, plain_window),
        plain.ok,
    );

    // Traced half: registry through the public config fields, spans
    // around every call the client makes.
    let registry = MetricsRegistry::new();
    let (stack, conns, _) = set_up(ctx, Some(registry.clone()), true)?;
    let before = stack.service.stats();
    let snap_before = registry.snapshot();
    let (outs, start) = closed_loop(ctx, conns, half, base);
    let after = stack.service.stats();
    let (server, svc) = stack.shutdown()?;
    check_identities(&server, &svc, &mut problems);
    let mut traced = merge(outs, base);
    let t = &traced.tally;
    for m in [&plain.first_mismatch, &t.first_mismatch]
        .into_iter()
        .flatten()
    {
        problems.push(m.clone());
    }
    let window = t.window(start);
    let svc_window = stats_delta(&after, &before);

    let p50 = |xs: Vec<f64>| percentile(&sorted(xs), 50.0);
    let log = &traced.log;
    v.set(
        "net.send_us",
        p50(log.durations_us("net.send")),
        t.attempted,
    );
    v.set(
        "net.recv_us",
        p50(log.durations_us("net.recv")),
        t.attempted,
    );
    v.set(
        "net.decode_response_us",
        p50(log.durations_us("net.decode_response")),
        t.attempted,
    );
    v.set(
        "server.turn_us",
        p50(log.durations_us("net.read_frame")),
        t.attempted,
    );
    v.set(
        "net.request_bytes",
        ratio(t.request_bytes as f64, t.attempted as f64),
        t.attempted,
    );
    v.set(
        "net.response_bytes",
        ratio(t.response_bytes as f64, t.ok as f64),
        t.ok,
    );
    v.set(
        "net.busy_ratio",
        ratio(traced.busy as f64, t.attempted as f64),
        t.attempted,
    );

    // The client spans must tile the client-measured latency.
    let roots: Vec<(u64, u64)> = log
        .spans()
        .iter()
        .zip(log.self_ns())
        .filter(|(s, _)| s.name == "client.request")
        .map(|(s, own)| (s.dur_ns(), own))
        .collect();
    let uncovered = ratio(
        roots.iter().map(|r| r.1 as f64).sum(),
        roots.iter().map(|r| r.0 as f64).sum(),
    );
    v.set(
        "trace.client_uncovered_pct",
        uncovered * 100.0,
        roots.len() as u64,
    );
    if uncovered > design::CLIENT_UNCOVERED_TOLERANCE {
        problems.push(format!(
            "client spans leave {:.2}% of the measured latency uncovered",
            uncovered * 100.0
        ));
    }

    // Server and service layers, from their own tallies and the registry.
    let snap = registry.snapshot();
    let hist_mean_us = |name: &str| report::histogram_mean_us(&snap_before, &snap, name);
    v.set(
        "server.handle_us",
        hist_mean_us("server.latency"),
        server.frames_in,
    );
    v.set("server.busy", server.busy as f64, 1);
    v.set("server.frame_rejects", server.frame_rejects as f64, 1);
    set_service_layer(&mut v, &svc_window, t.attempted);
    v.set(
        "service.queue_wait_mean_us",
        hist_mean_us("service.queue_wait"),
        svc_window.completed,
    );

    // Replay: wire operations on the run's real payloads, then the
    // decode stages of each distinct traced entry.
    let captured = std::mem::take(&mut traced.captured);
    let payloads: Vec<&[u8]> = captured
        .iter()
        .flat_map(|c| [c.request.as_slice(), c.response.as_slice()])
        .collect();
    let crc_us = replay_op_us(&payloads, |p| {
        std::hint::black_box(crc32(std::hint::black_box(p)));
    });
    let bytes: usize = payloads.iter().map(|p| p.len()).sum();
    v.set(
        "net.crc32_mb_per_s",
        ratio(bytes as f64, crc_us.iter().sum()),
        payloads.len() as u64,
    );
    let responses: Vec<NetResponse> = captured
        .iter()
        .filter_map(|c| decode_response(&c.response).ok())
        .collect();
    v.set(
        "net.encode_ok_us",
        p50(replay_op_us(&responses, |r| {
            std::hint::black_box(encode_ok(&r.image, r.report.as_ref(), r.served_from));
        })),
        responses.len() as u64,
    );
    let requests: Vec<&[u8]> = captured.iter().map(|c| c.request.as_slice()).collect();
    v.set(
        "net.decode_request_us",
        p50(replay_op_us(&requests, |p| {
            let _ = std::hint::black_box(decode_request(p));
        })),
        requests.len() as u64,
    );
    let mut distinct: Vec<Entry> = Vec::new();
    for c in &captured {
        if distinct.len() < design::REPLAY_MAX && !distinct.contains(&c.entry) {
            distinct.push(c.entry);
        }
    }
    let mut layers = LayerStats::default();
    for (i, e) in distinct.iter().enumerate() {
        layers.replay(
            &ctx.corpus.streams[e.stream],
            e.kind,
            ctx.corpus.reference(e).digest,
            &mut traced.log,
            (1 << 62) | i as u64,
        );
    }
    layers.set_metrics(&mut v);
    layers.check(&mut problems);

    // Tracing overhead: the traced half against the untraced half.
    let plain_rate = ratio(plain.ok as f64, plain_window.as_secs_f64());
    let traced_rate = ratio(t.ok as f64, window.as_secs_f64());
    v.set(
        "trace.overhead_throughput_pct",
        ratio(plain_rate - traced_rate, plain_rate) * 100.0,
        t.ok,
    );
    let plain_p50 = percentile(&sorted(plain.lat_ms.clone()), 50.0);
    let traced_p50 = percentile(&sorted(t.lat_ms.clone()), 50.0);
    v.set(
        "trace.overhead_p50_pct",
        ratio(traced_p50 - plain_p50, plain_p50) * 100.0,
        t.ok,
    );

    let spans_file = crate::trace_path(ctx.plan);
    if let Err(e) = traced.log.write_tsv(&spans_file) {
        problems.push(format!("writing {}: {e}", spans_file.display()));
    }
    let details = Json::obj()
        .with("workload", ctx.plan.workload.name())
        .with("host", host_details(ctx, TRANSPORT))
        .with("latency_traced", report::latency_summary(&t.lat_ms))
        .with("latency_untraced", report::latency_summary(&plain.lat_ms))
        .with("traffic", report::traffic_shares(t))
        .with("service", service_shares(&svc_window))
        .with("replayed_entries", distinct.len())
        .with("replayed_payloads", captured.len())
        .with("spans", traced.log.spans().len())
        .with("spans_file", spans_file.display().to_string());
    Ok(Outcome {
        problems,
        attempted: t.attempted + plain.attempted,
        failed: t.failed + plain.failed,
        metrics: v.render(PER_LAYER),
        details,
    })
}

/// Sets the service-layer ratios from a stats window over `requests`.
pub fn set_service_layer(v: &mut Values, s: &ServiceStats, requests: u64) {
    let n = requests as f64;
    v.set(
        "service.image_hit_ratio",
        image_hit_ratio(s),
        s.image_hits + s.image_misses,
    );
    v.set(
        "service.header_hit_ratio",
        header_hit_ratio(s),
        s.header_hits + s.header_misses,
    );
    v.set(
        "service.coalesced_ratio",
        coalesced_ratio(s),
        s.submitted + s.coalesced,
    );
    v.set(
        "service.evictions_per_kreq",
        ratio((s.image_evictions + s.header_evictions) as f64 * 1e3, n),
        requests,
    );
    v.set(
        "service.expired_ratio",
        ratio(s.expired as f64, n),
        requests,
    );
    v.set(
        "service.rejected_ratio",
        ratio(s.rejected as f64, n),
        requests,
    );
    v.set("service.max_queue_depth", s.max_queue_depth as f64, 1);
}
