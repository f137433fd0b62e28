//! Unified observability: counters, gauges and sim-time histograms
//! behind one [`MetricsRegistry`], plus the scheduler probe that feeds
//! it.
//!
//! The paper's methodology depends on every refinement layer staying
//! *observable* — EET occupancy at the Application Layer, bus grants
//! and arbitration waits at the VTA layer. This module is the single
//! sink those numbers flow into: model code grabs cheap handles
//! ([`Counter`], [`Gauge`], [`Histogram`]) and the registry renders a
//! deterministic JSON snapshot in the repository's `BENCH_*.json`
//! style.
//!
//! Cost discipline: a handle is one `Arc`'d atomic; incrementing it is
//! a relaxed atomic add. Components that are not handed a registry (or
//! a probe) pay a single `Option` check — the decoder hot path and the
//! scheduler stay at full speed when nothing is attached.
//!
//! ```
//! use osss_sim::probe::MetricsRegistry;
//! use osss_sim::SimTime;
//!
//! let reg = MetricsRegistry::new();
//! let tiles = reg.counter("decode.tiles");
//! tiles.add(16);
//! reg.observe("decode.tile_time", SimTime::ms(180));
//! assert!(reg.to_json().contains("\"decode.tiles\": 16"));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::lock_unpoisoned;
use crate::time::SimTime;

/// Number of log2 picosecond buckets: covers one picosecond up to
/// about 13 simulated days, which bounds every model in this workspace.
const HIST_BUCKETS: usize = 51;

/// A monotonically increasing event count.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depths, credits, balances).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative) and returns the new value.
    pub fn add(&self, d: i64) -> i64 {
        self.0.fetch_add(d, Ordering::Relaxed) + d
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram of simulated durations with logarithmic (power-of-two
/// picosecond) buckets — wait times, invoke latencies, transfer times.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimeHistogram {
    count: u64,
    total: SimTime,
    max: SimTime,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for TimeHistogram {
    fn default() -> Self {
        TimeHistogram {
            count: 0,
            total: SimTime::ZERO,
            max: SimTime::ZERO,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl TimeHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(t: SimTime) -> usize {
        // bucket b holds durations in [2^(b-1), 2^b) ps; bucket 0 holds 0.
        (64 - t.as_ps().leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }

    /// Records one duration.
    pub fn observe(&mut self, t: SimTime) {
        self.count = self.count.saturating_add(1);
        self.total = self.total.saturating_add(t);
        self.max = self.max.max(t);
        self.buckets[Self::bucket_of(t)] += 1;
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded durations.
    pub fn total(&self) -> SimTime {
        self.total
    }

    /// Largest recorded duration.
    pub fn max(&self) -> SimTime {
        self.max
    }

    /// Mean recorded duration (zero when empty — a degenerate run must
    /// render as zero, not divide by zero).
    pub fn mean(&self) -> SimTime {
        self.total
            .as_ps()
            .checked_div(self.count)
            .map_or(SimTime::ZERO, SimTime::ps)
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &TimeHistogram) {
        self.count = self.count.saturating_add(other.count);
        self.total = self.total.saturating_add(other.total);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
    }
}

/// Shared handle to a registry-owned [`TimeHistogram`].
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<Mutex<TimeHistogram>>);

impl Histogram {
    /// Records one duration.
    pub fn observe(&self, t: SimTime) {
        lock_unpoisoned(&self.0).observe(t);
    }

    /// A copy of the current distribution.
    pub fn snapshot(&self) -> TimeHistogram {
        lock_unpoisoned(&self.0).clone()
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Hist(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Hist(_) => "histogram",
        }
    }
}

/// A point-in-time copy of every metric, keyed by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram distributions.
    pub histograms: BTreeMap<String, TimeHistogram>,
}

/// The unified metrics sink: named counters, gauges and sim-time
/// histograms with get-or-create handle access. Cloning shares the
/// underlying store, so one registry can be threaded through the
/// scheduler, the transport and the decoder of a single run.
///
/// # Panics
///
/// Requesting an existing name as a *different* metric kind panics —
/// that is a programming error, not a runtime condition.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("metrics", &lock_unpoisoned(&self.inner).len())
            .finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn entry<T: Clone>(
        &self,
        name: &str,
        make: impl FnOnce() -> Metric,
        pick: impl Fn(&Metric) -> Option<T>,
    ) -> T {
        let mut map = lock_unpoisoned(&self.inner);
        let m = map.entry(name.to_string()).or_insert_with(make);
        match pick(m) {
            Some(t) => t,
            None => panic!("metric `{name}` already registered as a {}", m.kind()),
        }
    }

    /// The counter named `name` (created on first use).
    pub fn counter(&self, name: &str) -> Counter {
        self.entry(
            name,
            || Metric::Counter(Counter::default()),
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// The gauge named `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.entry(
            name,
            || Metric::Gauge(Gauge::default()),
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// The histogram named `name` (created on first use).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.entry(
            name,
            || Metric::Hist(Histogram::default()),
            |m| match m {
                Metric::Hist(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// Adds `n` to the counter named `name` — the one-shot form for
    /// bulk exports of pre-aggregated stats structs.
    pub fn add_counter(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Sets the gauge named `name`.
    pub fn set_gauge(&self, name: &str, v: i64) {
        self.gauge(name).set(v);
    }

    /// Records `t` into the histogram named `name`.
    pub fn observe(&self, name: &str, t: SimTime) {
        self.histogram(name).observe(t);
    }

    /// Whether no metric has been registered.
    pub fn is_empty(&self) -> bool {
        lock_unpoisoned(&self.inner).is_empty()
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = lock_unpoisoned(&self.inner);
        let mut snap = MetricsSnapshot::default();
        for (name, m) in map.iter() {
            match m {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Hist(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }

    /// Renders the snapshot as deterministic JSON (sorted keys, stable
    /// field order) in the style of the repository's `BENCH_*.json`
    /// trajectory files.
    pub fn to_json(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"counters\": {{");
        write_map(&mut out, &snap.counters, |v| v.to_string());
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"gauges\": {{");
        write_map(&mut out, &snap.gauges, |v| v.to_string());
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"histograms\": {{");
        write_map(&mut out, &snap.histograms, |h| {
            format!(
                "{{ \"count\": {}, \"total_ps\": {}, \"mean_ps\": {}, \"max_ps\": {} }}",
                h.count(),
                h.total().as_ps(),
                h.mean().as_ps(),
                h.max().as_ps()
            )
        });
        let _ = writeln!(out, "  }}");
        out.push_str("}\n");
        out
    }
}

fn write_map<V>(out: &mut String, map: &BTreeMap<String, V>, render: impl Fn(&V) -> String) {
    let last = map.len().saturating_sub(1);
    for (i, (k, v)) in map.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        let _ = writeln!(out, "    \"{k}\": {}{comma}", render(v));
    }
}

// ---------------------------------------------------------------------------
// Scheduler probe
// ---------------------------------------------------------------------------

/// Raw per-simulation scheduler instrumentation, collected inside the
/// kernel lock. Enabled by [`crate::Simulation::enable_sched_probe`];
/// when absent the scheduler pays one `Option` check per site.
#[derive(Debug, Default)]
pub(crate) struct SchedProbe {
    pub(crate) activations: Vec<u64>,
    pub(crate) wakeups: Vec<u64>,
    pub(crate) wait_time: Vec<SimTime>,
    pub(crate) wait_since: Vec<Option<SimTime>>,
    pub(crate) depth_max: usize,
    pub(crate) depth_sum: u64,
    pub(crate) depth_samples: u64,
    pub(crate) wait_hist: TimeHistogram,
}

impl SchedProbe {
    fn ensure(&mut self, n: usize) {
        if self.activations.len() <= n {
            self.activations.resize(n + 1, 0);
            self.wakeups.resize(n + 1, 0);
            self.wait_time.resize(n + 1, SimTime::ZERO);
            self.wait_since.resize(n + 1, None);
        }
    }

    pub(crate) fn on_activation(&mut self, pid: usize) {
        self.ensure(pid);
        self.activations[pid] += 1;
    }

    pub(crate) fn on_begin_wait(&mut self, pid: usize, now: SimTime) {
        self.ensure(pid);
        self.wait_since[pid] = Some(now);
    }

    pub(crate) fn on_wake(&mut self, pid: usize, now: SimTime) {
        self.ensure(pid);
        self.wakeups[pid] += 1;
        if let Some(since) = self.wait_since[pid].take() {
            let waited = now.checked_sub(since).unwrap_or(SimTime::ZERO);
            self.wait_time[pid] = self.wait_time[pid].saturating_add(waited);
            self.wait_hist.observe(waited);
        }
    }

    pub(crate) fn sample_depth(&mut self, depth: usize) {
        self.depth_max = self.depth_max.max(depth);
        self.depth_sum = self.depth_sum.saturating_add(depth as u64);
        self.depth_samples += 1;
    }
}

/// Per-process scheduler measurements.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcSched {
    /// Process name.
    pub name: String,
    /// Times the scheduler handed the process a time slice.
    pub activations: u64,
    /// Completed wakeups from a blocking wait.
    pub wakeups: u64,
    /// Total simulated time spent blocked (completed waits only).
    pub wait_time: SimTime,
}

/// Snapshot of the scheduler probe after (or during) a run.
#[derive(Debug, Clone, Default)]
pub struct SchedSnapshot {
    /// One entry per spawned process, in spawn order.
    pub procs: Vec<ProcSched>,
    /// Largest runnable-queue depth observed.
    pub runnable_depth_max: usize,
    /// Mean runnable-queue depth over all samples (zero when no sample
    /// was taken).
    pub runnable_depth_avg: f64,
    /// Distribution of completed wait durations across all processes.
    pub wait_hist: TimeHistogram,
}

impl SchedSnapshot {
    /// Exports the snapshot into `reg` under the `sched.` prefix.
    pub fn export_to(&self, reg: &MetricsRegistry) {
        for p in &self.procs {
            reg.add_counter(&format!("sched.{}.activations", p.name), p.activations);
            reg.add_counter(&format!("sched.{}.wakeups", p.name), p.wakeups);
            reg.add_counter(&format!("sched.{}.wait_ps", p.name), p.wait_time.as_ps());
        }
        reg.set_gauge("sched.runnable_depth_max", self.runnable_depth_max as i64);
        reg.set_gauge(
            "sched.runnable_depth_avg_x1000",
            (self.runnable_depth_avg * 1000.0) as i64,
        );
        let h = reg.histogram("sched.wait");
        let mut merged = h.snapshot();
        merged.merge(&self.wait_hist);
        // Histogram handles have no bulk-store; re-observing would skew
        // the buckets, so replace through a fresh merge each export.
        *lock_unpoisoned(&h.0) = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_histogram_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("c").get(), 5, "handle is shared by name");
        let g = reg.gauge("g");
        g.set(7);
        assert_eq!(g.add(-10), -3);
        reg.observe("h", SimTime::ns(10));
        reg.observe("h", SimTime::ns(30));
        let h = reg.histogram("h").snapshot();
        assert_eq!(h.count(), 2);
        assert_eq!(h.total(), SimTime::ns(40));
        assert_eq!(h.mean(), SimTime::ns(20));
        assert_eq!(h.max(), SimTime::ns(30));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn empty_histogram_mean_is_zero_not_nan() {
        let h = TimeHistogram::new();
        assert_eq!(h.mean(), SimTime::ZERO);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn json_is_deterministic_and_sorted() {
        let reg = MetricsRegistry::new();
        reg.add_counter("b.second", 2);
        reg.add_counter("a.first", 1);
        reg.set_gauge("depth", -4);
        reg.observe("wait", SimTime::us(3));
        let json = reg.to_json();
        assert_eq!(json, reg.to_json(), "snapshot must be stable");
        let a = json.find("a.first").expect("a.first present");
        let b = json.find("b.second").expect("b.second present");
        assert!(a < b, "keys must be sorted");
        assert!(json.contains("\"depth\": -4"));
        assert!(json.contains("\"count\": 1"));
        // Shape check: the BENCH_* style — one top-level object, three
        // fixed sections.
        assert!(json.starts_with("{\n"));
        for section in ["\"counters\"", "\"gauges\"", "\"histograms\""] {
            assert!(json.contains(section), "{section} missing");
        }
    }

    #[test]
    fn histogram_merge_accumulates() {
        let mut a = TimeHistogram::new();
        a.observe(SimTime::ns(1));
        let mut b = TimeHistogram::new();
        b.observe(SimTime::ms(1));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), SimTime::ms(1));
    }
}
