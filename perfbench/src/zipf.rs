//! zipf-service: Zipf-popular traffic in process against a default
//! `DecodeService`, the one workload that builds a queue.
//!
//! One generator thread drives the service with the non-blocking
//! `submit` in two phases:
//!
//! * **windowed** — the generator keeps [`design::ZIPF_WINDOW`]
//!   requests outstanding, so the caches hit, insert and evict under
//!   Zipf popularity. Its figures are the gated end-to-end metrics: the
//!   window adapts to the host, so a stall delays only the requests in
//!   flight. Its `latency_p50_ms` is over the requests a decode served:
//!   an image-cache hit takes microseconds of service, which leaves the
//!   host's thread wake-up latency as its whole figure.
//! * **open-loop ladder** — seeded Poisson arrivals at each fixed rate
//!   of [`design::ZIPF_LADDER_RPS`], latency from the scheduled due
//!   time (so generator lateness counts against the service). Here the
//!   queue builds, requests coalesce, and at the top rung it fills and
//!   deadlines fire. Its SLO rate and p99 are reported but not gated:
//!   an open loop turns every stall of the host into a backlog, and on
//!   a shared virtual machine they move more than any usable bound.
//!
//! While it waits, the generator collects resolved tickets (blocking on
//! the oldest, polling the rest).

use crate::design;
use crate::json::Json;
use crate::netload::{service_shares, set_service_layer, stats_delta};
use crate::plan::{Entry, Phase};
use crate::replay::LayerStats;
use crate::report::{self, Outcome, Values, END_TO_END, PER_LAYER};
use crate::stats::{mean, percentile, ratio, sorted};
use crate::tally::Tally;
use crate::trace::{SpanLog, NO_PARENT};
use crate::{host_details, Ctx};
use jpeg2000::net::WireReport;
use jpeg2000::service::{
    DecodeService, Request, ServedFrom, ServiceConfig, ServiceError, ServiceResponse, Ticket,
};
use osss_sim::probe::MetricsRegistry;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What drives submissions.
#[derive(Clone, Copy)]
enum Schedule<'a> {
    /// Keep [`design::ZIPF_WINDOW`] requests outstanding for `secs`,
    /// walking the plan's Zipf sequence.
    Window { secs: f64 },
    /// Submit each arrival at its due time.
    Open(&'a Phase),
}

/// What one phase measured.
struct PhaseOut {
    /// Offered rate (open loop) or 0 (windowed).
    rate_rps: f64,
    start: Instant,
    tally: Tally,
    lag_ms: Vec<f64>,
    outstanding: Vec<usize>,
    expired: u64,
    rejected: u64,
    /// `(served from, queue wait µs, service time µs)` per response.
    served: Vec<(ServedFrom, f64, f64)>,
    /// Latency of each verified response a decode produced (everything
    /// but image-cache hits), in milliseconds.
    decode_lat_ms: Vec<f64>,
    /// Process CPU time the phase consumed.
    cpu_s: f64,
    /// Share of the guest's CPU time stolen during the phase.
    steal_share: f64,
}

impl PhaseOut {
    fn p99_ms(&self) -> f64 {
        percentile(&sorted(self.tally.lat_ms.clone()), 99.0)
    }

    fn delivered_rps(&self) -> f64 {
        ratio(
            self.tally.ok as f64,
            self.tally.window(self.start).as_secs_f64(),
        )
    }

    /// Mean outstanding requests over the last third of the phase minus
    /// the first third's.
    fn backlog_growth(&self) -> f64 {
        let n = self.outstanding.len();
        let third = |range: std::ops::Range<usize>| {
            mean(
                &self.outstanding[range]
                    .iter()
                    .map(|&x| x as f64)
                    .collect::<Vec<_>>(),
            )
        };
        third(2 * n / 3..n) - third(0..n / 3)
    }

    fn meets_slo(&self) -> bool {
        self.tally.failed == 0
            && self.p99_ms() <= design::ZIPF_P99_LIMIT_MS
            && self.backlog_growth() <= design::BACKLOG_SLACK
    }

    fn summary(&self) -> Json {
        let lag = sorted(self.lag_ms.clone());
        Json::obj()
            .with("offered_rps", self.rate_rps)
            .with("delivered_rps", self.delivered_rps())
            .with("latency", report::latency_summary(&self.tally.lat_ms))
            .with("attempted", self.tally.attempted)
            .with("failed", self.tally.failed)
            .with("expired", self.expired)
            .with("rejected", self.rejected)
            .with(
                "gen_lag_ms",
                Json::obj()
                    .with("p50", percentile(&lag, 50.0))
                    .with("p99", percentile(&lag, 99.0))
                    .with("max", lag.last().copied().unwrap_or(0.0)),
            )
            .with("backlog_growth", self.backlog_growth())
            .with("meets_slo", self.meets_slo())
    }
}

struct Pending {
    ticket: Ticket,
    entry: Entry,
    req: u64,
    due: Instant,
    submitted: Instant,
    root: u32,
}

fn resolve(
    ctx: Ctx<'_>,
    out: &mut PhaseOut,
    log: &mut Option<SpanLog>,
    p: &Pending,
    result: Result<ServiceResponse, ServiceError>,
    done: Instant,
) {
    let reference = ctx.corpus.reference(&p.entry);
    match result {
        Ok(resp) => {
            let report = resp.report.as_ref().map(WireReport::summarise);
            let verified = reference.matches(&resp.image, report.as_ref());
            out.tally
                .respond(p.entry, reference, done - p.due, done, verified);
            if verified && resp.served_from != ServedFrom::ImageCache {
                out.decode_lat_ms.push((done - p.due).as_secs_f64() * 1e3);
            }
            out.served.push((
                resp.served_from,
                resp.queue_wait.as_secs_f64() * 1e6,
                resp.service_time.as_secs_f64() * 1e6,
            ));
        }
        Err(e) => {
            out.expired += u64::from(e == ServiceError::DeadlineExceeded);
            out.tally.fail(e.to_string(), done);
        }
    }
    if let Some(log) = log {
        log.record("service.ticket", p.req, p.root, p.submitted, done);
        log.close_at(p.root, done);
    }
}

/// Runs one phase to completion (every ticket resolved).
fn drive(
    service: &DecodeService,
    ctx: Ctx<'_>,
    schedule: Schedule<'_>,
    log: &mut Option<SpanLog>,
    req_base: u64,
) -> PhaseOut {
    // An open phase starts a millisecond out, so its first arrivals are
    // not already late.
    let (rate_rps, n, start, end) = match schedule {
        Schedule::Open(phase) => (
            phase.rate_rps,
            phase.arrivals.len(),
            Instant::now() + Duration::from_millis(1),
            None,
        ),
        Schedule::Window { secs } => {
            let start = Instant::now();
            (
                0.0,
                usize::MAX,
                start,
                Some(start + Duration::from_secs_f64(secs)),
            )
        }
    };
    let mut out = PhaseOut {
        rate_rps,
        start,
        tally: Tally::default(),
        lag_ms: Vec::new(),
        outstanding: Vec::new(),
        expired: 0,
        rejected: 0,
        served: Vec::new(),
        decode_lat_ms: Vec::new(),
        cpu_s: report::process_cpu_s(),
        steal_share: 0.0,
    };
    let ticks0 = report::HostTicks::now();
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut next = 0usize;
    loop {
        // Submit everything that is due.
        loop {
            let at = Instant::now();
            let (entry, due) = match schedule {
                Schedule::Open(phase) => {
                    let Some(a) = phase.arrivals.get(next) else {
                        break;
                    };
                    let due = start + Duration::from_nanos(a.at_ns);
                    if due > at {
                        break;
                    }
                    (a.entry, due)
                }
                Schedule::Window { .. } => {
                    if pending.len() >= design::ZIPF_WINDOW || end.is_some_and(|e| at >= e) {
                        break;
                    }
                    (ctx.plan.cycle[next % ctx.plan.cycle.len()], at)
                }
            };
            let req = req_base + next as u64;
            out.tally.attempt(ctx.plan, ctx.corpus, entry);
            let submitted = service.submit(
                Arc::clone(&ctx.corpus.streams[entry.stream]),
                Request {
                    kind: entry.kind,
                    // The windowed phase sets no deadline, so a host stall
                    // never turns into a failed request there.
                    timeout: match schedule {
                        Schedule::Open(_) => Some(design::zipf_deadline(entry.kind)),
                        Schedule::Window { .. } => None,
                    },
                },
            );
            let after = Instant::now();
            if matches!(schedule, Schedule::Open(_)) {
                out.lag_ms.push((at - due).as_secs_f64() * 1e3);
            }
            let root = log.as_mut().map_or(NO_PARENT, |l| {
                let root = l.open_at("service.request", req, NO_PARENT, due);
                l.record("gen.lag", req, root, due, at);
                l.record("service.submit", req, root, at, after);
                root
            });
            match submitted {
                Ok(ticket) => pending.push_back(Pending {
                    ticket,
                    entry,
                    req,
                    due,
                    submitted: after,
                    root,
                }),
                Err(e) => {
                    out.rejected += u64::from(e == ServiceError::QueueFull);
                    out.tally.fail(e.to_string(), after);
                    if let Some(l) = log.as_mut() {
                        l.close_at(root, after);
                    }
                }
            }
            out.outstanding.push(pending.len());
            next += 1;
        }
        // Collect whatever resolved.
        let mut i = 0;
        while i < pending.len() {
            match pending[i].ticket.wait_timeout(Duration::ZERO) {
                Some(result) => {
                    let done = Instant::now();
                    let p = pending.remove(i).expect("index in range");
                    resolve(ctx, &mut out, log, &p, result, done);
                }
                None => i += 1,
            }
        }
        let now = Instant::now();
        let exhausted = next >= n || end.is_some_and(|e| now >= e);
        if exhausted && pending.is_empty() {
            out.cpu_s = report::process_cpu_s() - out.cpu_s;
            out.steal_share = ticks0.steal_share(report::HostTicks::now());
            return out;
        }
        // Wait for the oldest ticket or the next due time.
        let until_due = match schedule {
            Schedule::Open(phase) if next < n => (start
                + Duration::from_nanos(phase.arrivals[next].at_ns))
            .saturating_duration_since(now),
            Schedule::Window { .. } if !exhausted && pending.len() < design::ZIPF_WINDOW => {
                Duration::ZERO
            }
            _ => Duration::MAX,
        };
        match pending.front() {
            Some(p) => {
                if let Some(result) = p.ticket.wait_timeout(until_due.min(design::POLL)) {
                    let done = Instant::now();
                    let p = pending.pop_front().expect("front exists");
                    resolve(ctx, &mut out, log, &p, result, done);
                }
            }
            None => std::thread::sleep(until_due),
        }
    }
}

/// Starts a service and decodes the warm-up entries through it.
fn set_up(
    ctx: Ctx<'_>,
    metrics: Option<MetricsRegistry>,
) -> Result<(DecodeService, Duration), String> {
    let t0 = Instant::now();
    let service = DecodeService::new(ServiceConfig {
        metrics,
        ..ServiceConfig::default()
    });
    for e in &ctx.plan.warmup {
        let resp = service
            .decode(
                Arc::clone(&ctx.corpus.streams[e.stream]),
                Request {
                    kind: e.kind,
                    timeout: None,
                },
            )
            .map_err(|err| format!("warm-up {e:?}: {err}"))?;
        let report = resp.report.as_ref().map(WireReport::summarise);
        if !ctx
            .corpus
            .reference(e)
            .matches(&resp.image, report.as_ref())
        {
            return Err(format!(
                "warm-up response for {e:?} differs from its reference"
            ));
        }
    }
    Ok((service, t0.elapsed()))
}

/// Every rung of the ladder in turn — the top rung always runs, so the
/// queue fills and deadlines fire even when a lower rung misses.
fn run_ladder(service: &DecodeService, ctx: Ctx<'_>, log: &mut Option<SpanLog>) -> Vec<PhaseOut> {
    ctx.plan
        .phases
        .iter()
        .enumerate()
        .map(|(i, phase)| {
            drive(
                service,
                ctx,
                Schedule::Open(phase),
                log,
                (i as u64 + 1) << 40,
            )
        })
        .collect()
}

/// The delivered rate of the highest rung that met the SLO with every
/// rung below it; 0 when the first rung misses.
fn slo_rate(rungs: &[PhaseOut]) -> f64 {
    rungs
        .iter()
        .take_while(|p| p.meets_slo())
        .last()
        .map_or(0.0, PhaseOut::delivered_rps)
}

/// The ladder's details: every rung, the SLO rate, and whether the
/// generator kept its schedule. A late generator delays every request
/// after the stall, so such a ladder describes the host rather than
/// the service; it is reported invalid (its outputs were still
/// verified).
fn ladder_details(rungs: &[PhaseOut]) -> Json {
    let lag: Vec<f64> = rungs
        .iter()
        .filter(|p| p.meets_slo())
        .flat_map(|p| p.lag_ms.iter().copied())
        .collect();
    let lag_p99 = percentile(&sorted(lag), 99.0);
    let valid = lag_p99 <= design::GEN_LAG_P99_BOUND_MS;
    if !valid {
        eprintln!(
            "WARNING: open-loop ladder invalid: generator p99 lateness {lag_p99:.3} ms exceeds {} ms",
            design::GEN_LAG_P99_BOUND_MS
        );
    }
    Json::obj()
        .with(
            "ladder_rps",
            Json::Arr(
                design::ZIPF_LADDER_RPS
                    .iter()
                    .map(|r| (*r).into())
                    .collect(),
            ),
        )
        .with("p99_limit_ms", design::ZIPF_P99_LIMIT_MS)
        .with(
            "deadline_ms",
            Json::Obj(
                design::ZIPF_KIND_MIX
                    .iter()
                    .map(|(k, _, d)| (format!("{k:?}"), (d.as_secs_f64() * 1e3).into()))
                    .collect(),
            ),
        )
        .with("slo_rate_rps", slo_rate(rungs))
        .with("valid", valid)
        .with("gen_lag_p99_ms", lag_p99)
        .with("gen_lag_p99_bound_ms", design::GEN_LAG_P99_BOUND_MS)
        .with(
            "rungs",
            Json::Arr(rungs.iter().map(PhaseOut::summary).collect()),
        )
}

fn mismatches(phases: &[&PhaseOut], problems: &mut Vec<String>) {
    for p in phases {
        if let Some(m) = &p.tally.first_mismatch {
            problems.push(m.clone());
        }
    }
}

const TRANSPORT: &str = "in-process";

fn check_stats(stats: &jpeg2000::service::ServiceStats, problems: &mut Vec<String>) {
    if !stats.reconciles() {
        problems.push(format!("ServiceStats do not reconcile: {stats:?}"));
    }
}

/// Runs zipf-service for `secs`.
pub fn run(ctx: Ctx<'_>, secs: f64, trace: bool, base: Instant) -> Outcome {
    let r = if trace {
        run_traced(ctx, secs, base)
    } else {
        run_untraced(ctx, secs)
    };
    r.unwrap_or_else(|e| Outcome {
        problems: vec![e],
        ..Outcome::default()
    })
}

fn run_untraced(ctx: Ctx<'_>, secs: f64) -> Result<Outcome, String> {
    let mut problems = Vec::new();
    let mut setups = Vec::new();
    let mut live = None;
    for rep in 0..design::SETUP_REPS {
        let ticks0 = report::HostTicks::now();
        let (service, took) = set_up(ctx, None)?;
        setups.push(report::guest_seconds(took, ticks0));
        if rep + 1 == design::SETUP_REPS {
            live = Some(service);
        } else {
            check_stats(&service.shutdown(), &mut problems);
        }
    }
    let service = live.expect("at least one set-up");
    let before = service.stats();
    let window_secs = secs * (1.0 - design::ZIPF_LADDER_SHARE);
    let windowed = drive(
        &service,
        ctx,
        Schedule::Window { secs: window_secs },
        &mut None,
        0,
    );
    let after_window = service.stats();
    let rungs = run_ladder(&service, ctx, &mut None);
    let stats = service.shutdown();
    check_stats(&stats, &mut problems);
    mismatches(
        &std::iter::once(&windowed).chain(&rungs).collect::<Vec<_>>(),
        &mut problems,
    );
    let t = &windowed.tally;
    let mut v = Values::default();
    report::set_end_to_end(
        &mut v,
        &report::Measured {
            tally: t,
            p50_population: &windowed.decode_lat_ms,
            window: t.window(windowed.start),
            cpu_s: windowed.cpu_s,
            steal_share: windowed.steal_share,
        },
        &setups,
    );
    let details = Json::obj()
        .with("workload", ctx.plan.workload.name())
        .with(
            "host",
            host_details(ctx, TRANSPORT).with("window", design::ZIPF_WINDOW),
        )
        .with("latency", report::latency_summary(&t.lat_ms))
        .with(
            "latency_decode_backed",
            report::latency_summary(&windowed.decode_lat_ms),
        )
        .with("traffic", report::traffic_shares(t))
        .with(
            "service",
            service_shares(&stats_delta(&after_window, &before)),
        )
        .with(
            "max_outstanding",
            windowed.outstanding.iter().copied().max().unwrap_or(0),
        )
        .with("steal_share", windowed.steal_share)
        .with("throughput_wall_rps", windowed.delivered_rps())
        .with("ladder", ladder_details(&rungs))
        .with(
            "ladder_service",
            service_shares(&stats_delta(&stats, &after_window)),
        )
        .with(
            "setup_s_each",
            Json::Arr(setups.iter().map(|s| (*s).into()).collect()),
        );
    // A rung that misses the SLO is a probe beyond capacity: its
    // refusals and expiries are its measurement, so only the windowed
    // phase and the rungs that met the SLO count as attempted.
    let counted = std::iter::once(&windowed).chain(rungs.iter().filter(|p| p.meets_slo()));
    let (attempted, failed) = counted.fold((0, 0), |(a, f), p| {
        (a + p.tally.attempted, f + p.tally.failed)
    });
    Ok(Outcome {
        problems,
        attempted,
        failed,
        metrics: v.render(END_TO_END),
        details,
    })
}

fn run_traced(ctx: Ctx<'_>, secs: f64, base: Instant) -> Result<Outcome, String> {
    let mut problems = Vec::new();
    let quarter = Schedule::Window { secs: secs / 4.0 };
    // Untraced reference: the windowed phase on a default service.
    let (service, _) = set_up(ctx, None)?;
    let plain = drive(&service, ctx, quarter, &mut None, 0);
    check_stats(&service.shutdown(), &mut problems);
    // Traced: registry through the public config field, spans around
    // every submit and ticket; the windowed phase, then the ladder.
    let registry = MetricsRegistry::new();
    let (service, _) = set_up(ctx, Some(registry.clone()))?;
    let before = service.stats();
    let snap_before = registry.snapshot();
    let mut log = Some(SpanLog::new(base));
    let windowed = drive(&service, ctx, quarter, &mut log, 0);
    let rungs = run_ladder(&service, ctx, &mut log);
    let stats = service.shutdown();
    check_stats(&stats, &mut problems);
    let mut log = log.expect("traced log");
    mismatches(
        &[&plain, &windowed]
            .into_iter()
            .chain(&rungs)
            .collect::<Vec<_>>(),
        &mut problems,
    );
    let window = stats_delta(&stats, &before);
    let phases: Vec<&PhaseOut> = std::iter::once(&windowed).chain(&rungs).collect();
    let requests: u64 = phases.iter().map(|p| p.tally.attempted).sum();

    let mut v = Values::default();
    if let Some(first) = rungs.first() {
        v.set(
            "latency_p99_ms",
            first.p99_ms(),
            first.tally.lat_ms.len() as u64,
        );
    }
    v.set("slo_rate_rps", slo_rate(&rungs), rungs.len() as u64);
    let served: Vec<(ServedFrom, f64, f64)> = phases
        .iter()
        .flat_map(|p| p.served.iter().copied())
        .collect();
    let waits = sorted(served.iter().map(|s| s.1).collect());
    v.set(
        "service.queue_wait_p50_us",
        percentile(&waits, 50.0),
        waits.len() as u64,
    );
    v.set(
        "service.queue_wait_p99_us",
        percentile(&waits, 99.0),
        waits.len() as u64,
    );
    for (name, class) in [
        ("service.service_time_p50_us.cold", ServedFrom::Cold),
        (
            "service.service_time_p50_us.header",
            ServedFrom::HeaderCache,
        ),
        ("service.service_time_p50_us.image", ServedFrom::ImageCache),
        (
            "service.service_time_p50_us.coalesced",
            ServedFrom::Coalesced,
        ),
    ] {
        let times = sorted(
            served
                .iter()
                .filter(|s| s.0 == class)
                .map(|s| s.2)
                .collect(),
        );
        v.set(name, percentile(&times, 50.0), times.len() as u64);
    }
    set_service_layer(&mut v, &window, requests);
    v.set(
        "service.queue_wait_mean_us",
        report::histogram_mean_us(&snap_before, &registry.snapshot(), "service.queue_wait"),
        window.completed,
    );
    let lag = sorted(
        rungs
            .iter()
            .flat_map(|p| p.lag_ms.iter().copied())
            .collect(),
    );
    v.set("gen.lag_p99_ms", percentile(&lag, 99.0), lag.len() as u64);

    // Tracing overhead on the windowed phase.
    let p50 = |t: &Tally| percentile(&sorted(t.lat_ms.clone()), 50.0);
    let (plain_p50, traced_p50) = (p50(&plain.tally), p50(&windowed.tally));
    v.set(
        "trace.overhead_p50_pct",
        ratio(traced_p50 - plain_p50, plain_p50) * 100.0,
        windowed.tally.ok,
    );
    let (plain_rate, traced_rate) = (plain.delivered_rps(), windowed.delivered_rps());
    v.set(
        "trace.overhead_throughput_pct",
        ratio(plain_rate - traced_rate, plain_rate) * 100.0,
        windowed.tally.ok,
    );

    // Replay the first distinct entries of the request sequence.
    let mut entries: Vec<Entry> = Vec::new();
    for e in &ctx.plan.cycle {
        if entries.len() >= design::REPLAY_MAX {
            break;
        }
        if !entries.contains(e) {
            entries.push(*e);
        }
    }
    let mut layers = LayerStats::default();
    for (i, e) in entries.iter().enumerate() {
        layers.replay(
            &ctx.corpus.streams[e.stream],
            e.kind,
            ctx.corpus.reference(e).digest,
            &mut log,
            (1 << 62) | i as u64,
        );
    }
    layers.set_metrics(&mut v);
    layers.check(&mut problems);

    let spans_file = crate::trace_path(ctx.plan);
    if let Err(e) = log.write_tsv(&spans_file) {
        problems.push(format!("writing {}: {e}", spans_file.display()));
    }
    let details = Json::obj()
        .with("workload", ctx.plan.workload.name())
        .with(
            "host",
            host_details(ctx, TRANSPORT).with("window", design::ZIPF_WINDOW),
        )
        .with(
            "latency_traced",
            report::latency_summary(&windowed.tally.lat_ms),
        )
        .with(
            "latency_untraced",
            report::latency_summary(&plain.tally.lat_ms),
        )
        .with("traffic", report::traffic_shares(&windowed.tally))
        .with("service", service_shares(&window))
        .with("ladder", ladder_details(&rungs))
        .with("replayed_entries", entries.len())
        .with("spans", log.spans().len())
        .with("spans_file", spans_file.display().to_string());
    let counted = [&plain, &windowed]
        .into_iter()
        .chain(rungs.iter().filter(|p| p.meets_slo()));
    let (attempted, failed) = counted.fold((0, 0), |(a, f), p| {
        (a + p.tally.attempted, f + p.tally.failed)
    });
    Ok(Outcome {
        problems,
        attempted,
        failed,
        metrics: v.render(PER_LAYER),
        details,
    })
}
