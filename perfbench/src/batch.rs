//! batch-parallel: an offline library batch with no service or
//! network. One thread decodes the plan's 512×512 images, alternating
//! `decode_parallel` and `decode_tolerant_parallel` at the automatic
//! worker count.

use crate::corpus::Corpus;
use crate::design;
use crate::json::Json;
use crate::netload::{closed_loop_slo, closed_loop_slo_rate};
use crate::plan::Entry;
use crate::replay::LayerStats;
use crate::report::{self, Outcome, Values, END_TO_END, PER_LAYER};
use crate::stats::{mean, percentile, ratio, sorted};
use crate::tally::Tally;
use crate::trace::{SpanLog, NO_PARENT};
use crate::{host_details, Ctx};
use jpeg2000::image::Image;
use jpeg2000::net::WireReport;
use jpeg2000::parallel::{decode_parallel, decode_parallel_observed, decode_tolerant_parallel};
use jpeg2000::service::RequestKind;
use std::time::{Duration, Instant};

/// Decodes `entry` with the parallel entry point for its kind.
fn decode(corpus: &Corpus, e: Entry) -> Result<(Image, Option<WireReport>), String> {
    let bytes = &corpus.streams[e.stream];
    match e.kind {
        RequestKind::Tolerant => decode_tolerant_parallel(bytes, 0)
            .map(|(image, report)| (image, Some(WireReport::summarise(&report)))),
        _ => decode_parallel(bytes, 0).map(|d| (d.image, None)),
    }
    .map_err(|err| err.to_string())
}

fn batch_loop(ctx: Ctx<'_>, secs: f64, mut log: Option<&mut SpanLog>) -> (Tally, Instant) {
    let mut t = Tally::default();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let cycle = &ctx.plan.cycle;
    let mut i = 0usize;
    while Instant::now() < end {
        let e = cycle[i % cycle.len()];
        t.attempt(ctx.plan, ctx.corpus, e);
        let t0 = Instant::now();
        let r = decode(ctx.corpus, e);
        let t1 = Instant::now();
        match r {
            Ok((image, report)) => {
                let reference = ctx.corpus.reference(&e);
                let verified = reference.matches(&image, report.as_ref());
                t.respond(e, reference, t1 - t0, t1, verified);
            }
            Err(err) => t.fail(err, t1),
        }
        if let Some(log) = log.as_deref_mut() {
            log.record("parallel.decode", i as u64, NO_PARENT, t0, t1);
        }
        i += 1;
    }
    (t, start)
}

/// The warm-up decode before the first timed one.
fn set_up(ctx: Ctx<'_>) -> Result<Duration, String> {
    let t0 = Instant::now();
    for e in &ctx.plan.warmup {
        let (image, report) = decode(ctx.corpus, *e)?;
        if !ctx.corpus.reference(e).matches(&image, report.as_ref()) {
            return Err(format!(
                "warm-up decode of {e:?} differs from its reference"
            ));
        }
    }
    Ok(t0.elapsed())
}

const TRANSPORT: &str = "none (library calls)";

/// Runs batch-parallel.
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
    let setups = (0..design::SETUP_REPS)
        .map(|_| {
            let ticks0 = report::HostTicks::now();
            set_up(ctx).map(|d| report::guest_seconds(d, ticks0))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let (cpu0, ticks0) = (report::process_cpu_s(), report::HostTicks::now());
    let (t, start) = batch_loop(ctx, secs, None);
    let cpu_s = report::process_cpu_s() - cpu0;
    let steal_share = ticks0.steal_share(report::HostTicks::now());
    let mut problems: Vec<String> = t.first_mismatch.iter().cloned().collect();
    let window = t.window(start);
    let mut v = Values::default();
    report::set_end_to_end(
        &mut v,
        &report::Measured {
            tally: &t,
            p50_population: &t.lat_ms,
            window,
            cpu_s,
            steal_share,
        },
        &setups,
    );
    if t.failures.values().sum::<u64>() > 0 {
        problems.push(format!("decode failures: {:?}", t.failures));
    }
    let details = Json::obj()
        .with("workload", ctx.plan.workload.name())
        .with("host", host_details(ctx, TRANSPORT))
        .with("latency", report::latency_summary(&t.lat_ms))
        .with("traffic", report::traffic_shares(&t))
        .with("slo", closed_loop_slo(ctx.plan.workload, &t, window))
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

fn run_traced(ctx: Ctx<'_>, secs: f64, base: Instant) -> Result<Outcome, String> {
    let mut problems = Vec::new();
    set_up(ctx)?;
    let (plain, plain_start) = batch_loop(ctx, secs / 2.0, None);
    let mut log = SpanLog::new(base);
    let (t, start) = batch_loop(ctx, secs / 2.0, Some(&mut log));
    for m in [&plain.first_mismatch, &t.first_mismatch]
        .into_iter()
        .flatten()
    {
        problems.push(m.clone());
    }
    let mut v = Values::default();
    let plain_window = plain.window(plain_start);
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

    // Replay every distinct entry stage by stage; for strict entries
    // also time one observed parallel decode of the same stream.
    let mut layers = LayerStats::default();
    let mut entries: Vec<Entry> = Vec::new();
    for e in &ctx.plan.cycle {
        if entries.len() < design::REPLAY_MAX && !entries.contains(e) {
            entries.push(*e);
        }
    }
    let (mut stage_ns, mut wall_ns) = (0u64, 0u64);
    let mut imbalance = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        let bytes = &ctx.corpus.streams[e.stream];
        let before = layers.stages.total();
        layers.replay(
            bytes,
            e.kind,
            ctx.corpus.reference(e).digest,
            &mut log,
            (1 << 62) | i as u64,
        );
        if e.kind != RequestKind::Strict {
            continue;
        }
        let t0 = Instant::now();
        let observed = decode_parallel_observed(bytes, 0, None);
        let wall = t0.elapsed();
        match observed {
            Ok((_, stats)) => {
                stage_ns += layers.stages.total() - before;
                wall_ns += wall.as_nanos() as u64;
                let tiles: Vec<f64> = stats.per_worker_tiles.iter().map(|&n| n as f64).collect();
                let max = tiles.iter().copied().fold(0.0, f64::max);
                imbalance.push(ratio(max, mean(&tiles)));
            }
            Err(err) => problems.push(format!("observed parallel decode failed: {err}")),
        }
    }
    layers.set_metrics(&mut v);
    layers.check(&mut problems);
    v.set(
        "parallel.speedup",
        ratio(stage_ns as f64, wall_ns as f64),
        imbalance.len() as u64,
    );
    v.set(
        "parallel.imbalance",
        mean(&imbalance),
        imbalance.len() as u64,
    );

    let rate = |t: &Tally, s: Instant| ratio(t.ok as f64, t.window(s).as_secs_f64());
    let (plain_rate, traced_rate) = (rate(&plain, plain_start), rate(&t, start));
    v.set(
        "trace.overhead_throughput_pct",
        ratio(plain_rate - traced_rate, plain_rate) * 100.0,
        t.ok,
    );
    let p50 = |t: &Tally| percentile(&sorted(t.lat_ms.clone()), 50.0);
    v.set(
        "trace.overhead_p50_pct",
        ratio(p50(&t) - p50(&plain), p50(&plain)) * 100.0,
        t.ok,
    );

    let spans_file = crate::trace_path(ctx.plan);
    if let Err(e) = log.write_tsv(&spans_file) {
        problems.push(format!("writing {}: {e}", spans_file.display()));
    }
    let details = Json::obj()
        .with("workload", ctx.plan.workload.name())
        .with("host", host_details(ctx, TRANSPORT))
        .with("latency_traced", report::latency_summary(&t.lat_ms))
        .with("latency_untraced", report::latency_summary(&plain.lat_ms))
        .with("traffic", report::traffic_shares(&t))
        .with("replayed_entries", entries.len())
        .with("spans", log.spans().len())
        .with("spans_file", spans_file.display().to_string());
    Ok(Outcome {
        problems,
        attempted: plain.attempted + t.attempted,
        failed: plain.failed + t.failed,
        metrics: v.render(PER_LAYER),
        details,
    })
}
