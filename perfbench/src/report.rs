//! Metric names, the result lines, and host facts.
//!
//! Every run prints two JSON lines on stdout: a `details` object (sample
//! counts, property shares, host facts, per-rung figures, checks) and,
//! last, the result object the driver reads. With `--trace 0` its
//! metrics are every [`END_TO_END`] metric; with `--trace 1`, every
//! [`PER_LAYER`] metric. A layer a workload does not exercise reports 0.

use crate::json::Json;
use crate::stats::{percentile, ratio, sorted};
use crate::tally::Tally;
use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_rps", "1/s"),
    ("decoded_mpix_per_s", "Mpix/s"),
    ("latency_p50_ms", "ms"),
    ("cpu_ms_per_request", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics from the traced run: `(name, unit)`. The first two
/// are end-to-end figures too noisy on a shared virtual machine to
/// gate (see README.md); the traced run reports them from its untraced
/// half.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("latency_p99_ms", "ms"),
    ("slo_rate_rps", "1/s"),
    ("net.send_us", "us"),
    ("net.recv_us", "us"),
    ("net.decode_response_us", "us"),
    ("net.crc32_mb_per_s", "MB/s"),
    ("net.encode_ok_us", "us"),
    ("net.decode_request_us", "us"),
    ("net.request_bytes", "bytes"),
    ("net.response_bytes", "bytes"),
    ("net.busy_ratio", "ratio"),
    ("server.turn_us", "us"),
    ("server.handle_us", "us"),
    ("server.busy", "count"),
    ("server.frame_rejects", "count"),
    ("service.queue_wait_p50_us", "us"),
    ("service.queue_wait_p99_us", "us"),
    ("service.queue_wait_mean_us", "us"),
    ("service.service_time_p50_us.cold", "us"),
    ("service.service_time_p50_us.header", "us"),
    ("service.service_time_p50_us.image", "us"),
    ("service.service_time_p50_us.coalesced", "us"),
    ("service.image_hit_ratio", "ratio"),
    ("service.header_hit_ratio", "ratio"),
    ("service.coalesced_ratio", "ratio"),
    ("service.evictions_per_kreq", "count"),
    ("service.expired_ratio", "ratio"),
    ("service.rejected_ratio", "ratio"),
    ("service.max_queue_depth", "count"),
    ("codestream.parse_us", "us"),
    ("entropy.ms_per_image", "ms"),
    ("entropy.share", "ratio"),
    ("entropy.code_blocks", "count"),
    ("entropy.coding_passes", "count"),
    ("entropy.mq_renorms", "count"),
    ("entropy.bytes_in", "bytes"),
    ("entropy.ns_per_pass", "ns"),
    ("quant.ms_per_image", "ms"),
    ("quant.share", "ratio"),
    ("dwt.ms_per_image", "ms"),
    ("dwt.share", "ratio"),
    ("ct.mct_ms_per_image", "ms"),
    ("ct.mct_share", "ratio"),
    ("ct.dc_shift_ms_per_image", "ms"),
    ("ct.dc_shift_share", "ratio"),
    ("codec.place_ms_per_image", "ms"),
    ("codec.place_share", "ratio"),
    ("codec.partial_ms_per_image", "ms"),
    ("codec.partial_share", "ratio"),
    ("parallel.speedup", "ratio"),
    ("parallel.imbalance", "ratio"),
    ("gen.lag_p99_ms", "ms"),
    ("trace.overhead_throughput_pct", "%"),
    ("trace.overhead_p50_pct", "%"),
    ("trace.stage_sum_error_pct", "%"),
    ("trace.client_uncovered_pct", "%"),
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit from the same table.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: u64,
}

/// Values keyed by name, rendered in table order with 0 for any name
/// left unset.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, (f64, u64)>);

impl Values {
    /// Sets `name` from `samples` samples.
    ///
    /// # Panics
    ///
    /// When `name` is in neither table (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.0.insert(name, (value, samples));
    }

    /// The metrics of `table`, in order.
    pub fn render(&self, table: &[(&'static str, &'static str)]) -> Vec<Metric> {
        table
            .iter()
            .map(|&(name, unit)| {
                let (value, samples) = self.0.get(name).copied().unwrap_or((0.0, 0));
                Metric {
                    name,
                    value,
                    unit,
                    samples,
                }
            })
            .collect()
    }
}

/// The guest's CPU accounting from the first line of `/proc/stat`:
/// ticks the hypervisor stole, and ticks in total, over all CPUs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostTicks {
    steal: u64,
    total: u64,
}

impl HostTicks {
    /// The counters now (zero where `/proc/stat` is unavailable).
    pub fn now() -> Self {
        let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = line
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|t| t.parse().ok())
            .collect();
        HostTicks {
            steal: ticks.get(7).copied().unwrap_or(0),
            total: ticks.iter().sum(),
        }
    }

    /// Share of the guest's CPU time stolen from `self` until `later`.
    pub fn steal_share(self, later: HostTicks) -> f64 {
        ratio(
            later.steal.saturating_sub(self.steal) as f64,
            later.total.saturating_sub(self.total) as f64,
        )
    }
}

/// Seconds of `elapsed` the guest had CPU for: `elapsed` less the share
/// the hypervisor stole since `ticks0` (see [`set_end_to_end`]).
pub fn guest_seconds(elapsed: Duration, ticks0: HostTicks) -> f64 {
    elapsed.as_secs_f64() * (1.0 - ticks0.steal_share(HostTicks::now()))
}

/// Mean in µs of what histogram `name` recorded between two snapshots
/// of one registry (0 when nothing was).
pub fn histogram_mean_us(
    before: &osss_sim::probe::MetricsSnapshot,
    after: &osss_sim::probe::MetricsSnapshot,
    name: &str,
) -> f64 {
    let count_total = |s: &osss_sim::probe::MetricsSnapshot| {
        s.histograms
            .get(name)
            .map_or((0, 0), |h| (h.count(), h.total().as_ps()))
    };
    let (c0, t0) = count_total(before);
    let (c1, t1) = count_total(after);
    ratio(
        t1.saturating_sub(t0) as f64 / 1e6,
        c1.saturating_sub(c0) as f64,
    )
}

/// A measured phase as the end-to-end metrics see it.
pub struct Measured<'a> {
    /// The phase's outcomes.
    pub tally: &'a Tally,
    /// Latencies behind `latency_p50_ms`, in milliseconds.
    pub p50_population: &'a [f64],
    /// From the first issue to the last resolution.
    pub window: Duration,
    /// Process CPU time the phase consumed.
    pub cpu_s: f64,
    /// Share of the guest's CPU time the hypervisor stole meanwhile.
    pub steal_share: f64,
}

/// Sets the end-to-end metrics that every workload derives the same
/// way from its measured phase and its set-up times (already in guest
/// seconds, from [`guest_seconds`]).
///
/// Rates count per second of CPU the guest actually had: the window
/// minus the share the hypervisor stole. On a shared virtual machine a
/// saturated workload's wall-clock rate tracks its neighbours' load
/// (the stolen share moved between 3% and 40% from run to run on the
/// two-vCPU host this was built on) while the corrected rate does not;
/// without steal accounting the share is 0 and the rate is the
/// wall-clock one.
pub fn set_end_to_end(v: &mut Values, m: &Measured<'_>, setups_s: &[f64]) {
    let t = m.tally;
    let lat = sorted(m.p50_population.to_vec());
    let secs = m.window.as_secs_f64() * (1.0 - m.steal_share);
    v.set("throughput_rps", ratio(t.ok as f64, secs), t.ok);
    v.set(
        "decoded_mpix_per_s",
        ratio(t.pixels as f64 / 1e6, secs),
        t.ok,
    );
    v.set("latency_p50_ms", percentile(&lat, 50.0), lat.len() as u64);
    v.set(
        "cpu_ms_per_request",
        ratio(m.cpu_s * 1e3, t.ok as f64),
        t.ok,
    );
    let setups = sorted(setups_s.to_vec());
    v.set("setup_s", percentile(&setups, 50.0), setups.len() as u64);
    v.set("peak_rss_mib", peak_rss_mib(), 1);
}

/// The property shares of a phase's traffic.
pub fn traffic_shares(t: &Tally) -> Json {
    let a = t.attempted as f64;
    Json::obj()
        .with("requests", t.attempted)
        .with("failed_ratio", ratio(t.failed as f64, a))
        .with("partial_decode_share", ratio(t.partial as f64, a))
        .with("lossy_share", ratio(t.lossy as f64, a))
        .with("lossless_share", ratio((t.attempted - t.lossy) as f64, a))
        .with("mean_request_bytes", ratio(t.request_bytes as f64, a))
        .with(
            "mean_response_bytes",
            ratio(t.response_bytes as f64, t.ok as f64),
        )
        .with(
            "failures",
            Json::Obj(
                t.failures
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Int(*v)))
                    .collect(),
            ),
        )
}

/// Latency summary: percentiles and their support.
pub fn latency_summary(lat_ms: &[f64]) -> Json {
    let lat = sorted(lat_ms.to_vec());
    Json::obj()
        .with("samples", lat.len())
        .with("p50_ms", percentile(&lat, 50.0))
        .with("p90_ms", percentile(&lat, 90.0))
        .with("p99_ms", percentile(&lat, 99.0))
        .with("beyond_p99", crate::stats::beyond(&lat, 99.0))
        .with("max_ms", lat.last().copied().unwrap_or(0.0))
}

/// CPU time the process has run (user + system, all threads, live and
/// exited), in seconds; 0 where `/proc` is unavailable. Time the
/// hypervisor steals from the guest is not charged to the process.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 (clock ticks of 1/100 s).
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
            Some(ticks / 100.0)
        })
        .unwrap_or(0.0)
}

/// The process's high-water resident set, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Why the run is not correct; empty when it is.
    pub problems: Vec<String>,
    /// Requests (or images) attempted in the counted phases.
    pub attempted: u64,
    /// Of those, failed, refused, expired or wrong.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Everything else worth keeping with the result.
    pub details: Json,
}

impl Outcome {
    /// Prints the human summary on stderr and the two JSON lines on
    /// stdout, the result line last.
    pub fn print(mut self) {
        for m in &mut self.metrics {
            if !m.value.is_finite() {
                self.problems
                    .push(format!("metric {} is not finite ({})", m.name, m.value));
                m.value = 0.0;
            }
        }
        for m in &self.metrics {
            eprintln!(
                "{:<40} {:>16.6} {:<8} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for p in &self.problems {
            eprintln!("PROBLEM: {p}");
        }
        if self.attempted == 0 {
            self.problems.push("no request was attempted".to_owned());
        }
        let mut details = self.details;
        details.set(
            "samples",
            Json::Obj(
                self.metrics
                    .iter()
                    .map(|m| (m.name.to_owned(), Json::Int(m.samples)))
                    .collect(),
            ),
        );
        details.set(
            "problems",
            Json::Arr(self.problems.iter().map(|p| p.as_str().into()).collect()),
        );
        println!("{}", Json::obj().with("details", details));
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_owned(),
                        Json::obj().with("value", m.value).with("unit", m.unit),
                    )
                })
                .collect(),
        );
        println!(
            "{}",
            Json::obj()
                .with("correct", self.problems.is_empty())
                .with("attempted", self.attempted)
                .with("failed", self.failed)
                .with("metrics", metrics)
        );
    }
}
