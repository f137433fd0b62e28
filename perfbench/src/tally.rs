//! Per-request outcome accounting shared by every workload.

use crate::corpus::{Corpus, Reference};
use crate::plan::{Entry, Plan};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Outcomes of one measured phase.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests issued.
    pub attempted: u64,
    /// Verified successes.
    pub ok: u64,
    /// Failures, refusals, expiries and wrong answers.
    pub failed: u64,
    /// Responses that differed from their reference.
    pub mismatched: u64,
    /// Latency of each verified success, in milliseconds.
    pub lat_ms: Vec<f64>,
    /// Output pixels of verified successes.
    pub pixels: u64,
    /// Request payload bytes issued.
    pub request_bytes: u64,
    /// Response payload bytes of verified successes.
    pub response_bytes: u64,
    /// Issued requests of a partial kind (quality or thumbnail).
    pub partial: u64,
    /// Issued requests for lossy streams.
    pub lossy: u64,
    /// Failure counts by rendered error.
    pub failures: BTreeMap<String, u64>,
    /// The first wrong answer, for the problem report.
    pub first_mismatch: Option<String>,
    /// When the last request of the phase resolved.
    pub last_done: Option<Instant>,
}

impl Tally {
    /// Counts one issued request.
    pub fn attempt(&mut self, plan: &Plan, corpus: &Corpus, e: Entry) {
        self.attempted += 1;
        self.request_bytes += corpus.request_bytes[e.stream];
        self.partial += u64::from(e.is_partial());
        self.lossy += u64::from(plan.streams[e.stream].lossy);
    }

    /// Records a response: `verified` says whether it matched
    /// `reference`. A wrong answer counts as failed, never as slow.
    pub fn respond(
        &mut self,
        e: Entry,
        reference: &Reference,
        latency: Duration,
        done: Instant,
        verified: bool,
    ) {
        self.last_done = Some(self.last_done.map_or(done, |d| d.max(done)));
        if verified {
            self.ok += 1;
            self.lat_ms.push(latency.as_secs_f64() * 1e3);
            self.pixels += reference.pixels;
            self.response_bytes += reference.response_bytes;
        } else {
            self.mismatched += 1;
            self.failed += 1;
            self.first_mismatch
                .get_or_insert_with(|| format!("response for {e:?} differs from its reference"));
        }
    }

    /// Records a failed, refused or expired request.
    pub fn fail(&mut self, what: String, done: Instant) {
        self.last_done = Some(self.last_done.map_or(done, |d| d.max(done)));
        self.failed += 1;
        *self.failures.entry(what).or_default() += 1;
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        self.lat_ms.extend(other.lat_ms);
        self.pixels += other.pixels;
        self.request_bytes += other.request_bytes;
        self.response_bytes += other.response_bytes;
        self.partial += other.partial;
        self.lossy += other.lossy;
        for (k, v) in other.failures {
            *self.failures.entry(k).or_default() += v;
        }
        if self.first_mismatch.is_none() {
            self.first_mismatch = other.first_mismatch;
        }
        self.last_done = match (self.last_done, other.last_done) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Time from `start` to the last resolution (at least 1 ns).
    pub fn window(&self, start: Instant) -> Duration {
        self.last_done
            .map_or(Duration::ZERO, |d| d.saturating_duration_since(start))
            .max(Duration::from_nanos(1))
    }
}
