//! Spans recorded by the benchmark around its own calls into each
//! layer: name, start, end, parent and request id. They are kept in
//! memory and written out when the run ends.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `net.write_frame`.
    pub name: &'static str,
    /// Request the span belongs to.
    pub req: u64,
    /// Index of the enclosing span in the same log, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, in nanoseconds after the log's base instant.
    pub start_ns: u64,
    /// End, in nanoseconds after the log's base instant.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span log with one time base.
#[derive(Debug)]
pub struct SpanLog {
    base: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log timed from `base`.
    pub fn new(base: Instant) -> Self {
        SpanLog {
            base,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.base).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let span = Span {
            name,
            req,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        u32::try_from(self.spans.len() - 1).expect("fewer than 2^32 spans")
    }

    /// Opens a span at `start` (closed by [`Self::close_at`]), so its
    /// children can name it as their parent.
    pub fn open_at(&mut self, name: &'static str, req: u64, parent: u32, start: Instant) -> u32 {
        self.record(name, req, parent, start, start)
    }

    /// Closes span `id` at `end`.
    pub fn close_at(&mut self, id: u32, end: Instant) {
        let end_ns = self.ns(end);
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves `other`'s spans into this log, keeping parent links and
    /// re-basing times onto this log's base.
    pub fn append(&mut self, other: SpanLog) {
        let offset = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let shift = other.base.saturating_duration_since(self.base).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: if s.parent == NO_PARENT {
                NO_PARENT
            } else {
                s.parent + offset
            },
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            ..s
        }));
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                kids[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(kids)
            .map(|(s, mut k)| {
                k.sort_unstable();
                let mut covered = 0;
                let mut run: Option<(u64, u64)> = None;
                for (a, b) in k {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    run = match run {
                        Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                        Some((ra, rb)) => {
                            covered += rb - ra;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ra, rb)) = run {
                    covered += rb - ra;
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    /// Writes the log as tab-separated `req id parent name start_ns
    /// end_ns self_ns` lines.
    ///
    /// # Errors
    ///
    /// Any I/O error.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "req\tid\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}\t{own}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_children() {
        let base = Instant::now();
        let at = |us| base + Duration::from_micros(us);
        let mut log = SpanLog::new(base);
        let root = log.open_at("root", 1, NO_PARENT, at(0));
        log.record("a", 1, root, at(10), at(40));
        log.record("b", 1, root, at(30), at(60));
        log.close_at(root, at(100));
        assert_eq!(log.self_ns(), vec![50_000, 30_000, 30_000]);
    }
}
