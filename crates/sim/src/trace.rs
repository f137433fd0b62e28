//! Lightweight value-change tracing for debugging models.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::context::Context;
use crate::lock_unpoisoned;
use crate::time::SimTime;

/// One recorded value change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation time of the change.
    pub time: SimTime,
    /// Name of the traced quantity.
    pub name: String,
    /// Rendered value.
    pub value: String,
}

/// Records `(time, name, value)` triples during simulation and renders them
/// as a value-change dump.
///
/// Dots in a name become VCD hierarchy: `vta.bus.words` is declared as
/// variable `words` inside `$scope module vta` / `$scope module bus`.
/// Undotted names land in a root scope named `trace`. Signals whose
/// values all parse as `i64` are declared as 64-bit wires and emitted
/// as two's-complement vector changes; any other signal is declared
/// with the `string` var type.
///
/// # Example
///
/// ```
/// use osss_sim::{Simulation, SimTime};
/// use osss_sim::trace::Tracer;
///
/// # fn main() -> Result<(), osss_sim::SimError> {
/// let tracer = Tracer::new();
/// let mut sim = Simulation::new();
/// let t = tracer.clone();
/// sim.spawn_process("p", move |ctx| {
///     t.record(ctx, "state", "DECODE");
///     ctx.wait(SimTime::ns(10))?;
///     t.record(ctx, "state", "IDWT");
///     Ok(())
/// });
/// sim.run()?;
/// assert_eq!(tracer.len(), 2);
/// assert!(tracer.to_text().contains("IDWT"));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    records: Arc<Mutex<Vec<TraceRecord>>>,
}

impl Tracer {
    /// Creates an empty tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record at the current simulation time.
    pub fn record(&self, ctx: &Context, name: &str, value: impl ToString) {
        self.record_at(ctx.now(), name, value);
    }

    /// Appends a record at an explicit time — for callers outside a
    /// simulation process (native worker threads, post-run analysis).
    pub fn record_at(&self, time: SimTime, name: &str, value: impl ToString) {
        lock_unpoisoned(&self.records).push(TraceRecord {
            time,
            name: name.to_string(),
            value: value.to_string(),
        });
    }

    /// Number of records captured so far.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.records).len()
    }

    /// Whether no records were captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of all records.
    pub fn records(&self) -> Vec<TraceRecord> {
        lock_unpoisoned(&self.records).clone()
    }

    /// Renders the dump as `time  name = value` lines.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for r in lock_unpoisoned(&self.records).iter() {
            let _ = writeln!(out, "{:>14}  {} = {}", r.time.to_string(), r.name, r.value);
        }
        out
    }

    /// Renders the dump as a VCD (value change dump) file that standard
    /// waveform viewers (GTKWave etc.) open directly.
    ///
    /// Records are sorted stably by time, so concurrently captured
    /// records (e.g. from [`Self::record_at`] on worker threads) still
    /// yield monotonic timestamps. Numeric signals emit 64-bit
    /// two's-complement vector changes — negative values are preserved,
    /// not folded onto their absolute value. Non-numeric signals are
    /// declared `string` so their `s...` changes are valid VCD.
    pub fn to_vcd(&self) -> String {
        let mut records = lock_unpoisoned(&self.records).clone();
        records.sort_by_key(|r| r.time);

        // Stable identifier per traced name, in first-appearance order,
        // with an O(1) map instead of a per-record linear scan.
        let mut index: HashMap<&str, usize> = HashMap::new();
        let mut names: Vec<&str> = Vec::new();
        let mut numeric: Vec<bool> = Vec::new();
        for r in records.iter() {
            let idx = *index.entry(r.name.as_str()).or_insert_with(|| {
                names.push(&r.name);
                numeric.push(true);
                names.len() - 1
            });
            numeric[idx] &= r.value.parse::<i64>().is_ok();
        }

        let mut out = String::new();
        let _ = writeln!(out, "$timescale 1ps $end");
        write_scope_tree(&mut out, &names, &numeric);
        let _ = writeln!(out, "$enddefinitions $end");

        let mut last_time: Option<SimTime> = None;
        for r in records.iter() {
            if last_time != Some(r.time) {
                let _ = writeln!(out, "#{}", r.time.as_ps());
                last_time = Some(r.time);
            }
            let idx = index[r.name.as_str()];
            match r.value.parse::<i64>() {
                Ok(v) if numeric[idx] => {
                    // 64-bit two's complement: -5 and 5 are distinct.
                    let _ = writeln!(out, "b{:b} {}", v as u64, ident(idx));
                }
                _ => {
                    let _ = writeln!(out, "s{} {}", r.value.replace(' ', "_"), ident(idx));
                }
            }
        }
        out
    }
}

/// VCD identifiers: printable ASCII starting at '!'.
fn ident(idx: usize) -> String {
    let mut id = String::new();
    let mut n = idx;
    loop {
        id.push((b'!' + (n % 94) as u8) as char);
        n /= 94;
        if n == 0 {
            break;
        }
    }
    id
}

/// Emits `$scope`/`$var`/`$upscope` lines for the dotted name set:
/// `a.b.c` nests variable `c` inside scopes `a` and `b`; undotted names
/// live in a root scope called `trace`.
fn write_scope_tree(out: &mut String, names: &[&str], numeric: &[bool]) {
    #[derive(Default)]
    struct Node<'a> {
        // Vec keeps first-appearance order; scope counts are tiny.
        subs: Vec<(&'a str, Node<'a>)>,
        vars: Vec<(usize, &'a str)>,
    }
    impl<'a> Node<'a> {
        fn child(&mut self, seg: &'a str) -> &mut Node<'a> {
            if let Some(i) = self.subs.iter().position(|(s, _)| *s == seg) {
                return &mut self.subs[i].1;
            }
            self.subs.push((seg, Node::default()));
            &mut self.subs.last_mut().expect("just pushed").1
        }
    }

    let mut root = Node::default();
    for (i, name) in names.iter().enumerate() {
        let mut node = &mut root;
        let mut rest = *name;
        let mut nested = false;
        while let Some((seg, tail)) = rest.split_once('.') {
            if seg.is_empty() {
                break;
            }
            node = node.child(seg);
            nested = true;
            rest = tail;
        }
        if !nested {
            node = node.child("trace");
        }
        node.vars.push((i, rest));
    }

    fn emit(out: &mut String, node: &Node<'_>, numeric: &[bool]) {
        for &(idx, leaf) in &node.vars {
            if numeric[idx] {
                let _ = writeln!(out, "$var wire 64 {} {} $end", ident(idx), leaf);
            } else {
                let _ = writeln!(out, "$var string 1 {} {} $end", ident(idx), leaf);
            }
        }
        for (name, sub) in &node.subs {
            let _ = writeln!(out, "$scope module {name} $end");
            emit(out, sub, numeric);
            let _ = writeln!(out, "$upscope $end");
        }
    }
    emit(out, &root, numeric);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Simulation;
    use crate::vcd;

    #[test]
    fn records_are_ordered_by_time() {
        let tracer = Tracer::new();
        let mut sim = Simulation::new();
        let t = tracer.clone();
        sim.spawn_process("p", move |ctx| {
            t.record(ctx, "x", 1);
            ctx.wait(SimTime::ns(5))?;
            t.record(ctx, "x", 2);
            Ok(())
        });
        sim.run().expect("run");
        let recs = tracer.records();
        assert_eq!(recs.len(), 2);
        assert!(recs[0].time < recs[1].time);
        assert_eq!(recs[1].value, "2");
    }

    #[test]
    fn empty_tracer() {
        let tracer = Tracer::new();
        assert!(tracer.is_empty());
        assert_eq!(tracer.to_text(), "");
    }

    #[test]
    fn vcd_output_has_header_vars_and_changes() {
        let tracer = Tracer::new();
        let mut sim = Simulation::new();
        let t = tracer.clone();
        sim.spawn_process("p", move |ctx| {
            t.record(ctx, "count", 1);
            t.record(ctx, "state", "DECODE");
            ctx.wait(SimTime::ns(3))?;
            t.record(ctx, "count", 2);
            Ok(())
        });
        sim.run().expect("run");
        let vcd_text = tracer.to_vcd();
        assert!(vcd_text.starts_with("$timescale 1ps $end"));
        assert!(vcd_text.contains("$var wire 64 ! count $end"));
        assert!(
            vcd_text.contains("$var string 1 \" state $end"),
            "non-numeric signals must be declared string, not wire:\n{vcd_text}"
        );
        assert!(vcd_text.contains("$enddefinitions $end"));
        assert!(vcd_text.contains("#0\n"));
        assert!(vcd_text.contains("#3000\n"), "3 ns = 3000 ps");
        assert!(vcd_text.contains("b1 !"));
        assert!(vcd_text.contains("b10 !"), "2 in binary");
        assert!(vcd_text.contains("sDECODE \""));
        vcd::parse(&vcd_text).expect("self-validating dump");
    }

    #[test]
    fn vcd_timestamps_are_not_repeated() {
        let tracer = Tracer::new();
        let mut sim = Simulation::new();
        let t = tracer.clone();
        sim.spawn_process("p", move |ctx| {
            t.record(ctx, "a", 1);
            t.record(ctx, "b", 2); // same instant: one #0 line
            ctx.wait(SimTime::ns(1))?;
            t.record(ctx, "a", 3);
            Ok(())
        });
        sim.run().expect("run");
        let vcd_text = tracer.to_vcd();
        assert_eq!(vcd_text.matches("#0\n").count(), 1);
        assert_eq!(vcd_text.matches("#1000\n").count(), 1);
    }

    #[test]
    fn negative_values_are_twos_complement_not_abs() {
        // Regression: the old dump rendered -5 via unsigned_abs(), so
        // -5 and 5 emitted the identical `b101` line.
        let tracer = Tracer::new();
        tracer.record_at(SimTime::ZERO, "credit", 5);
        tracer.record_at(SimTime::ns(1), "credit", -5);
        let vcd_text = tracer.to_vcd();
        assert!(vcd_text.contains("b101 !"), "positive five:\n{vcd_text}");
        let minus_five = format!("b{:b} !", -5i64 as u64);
        assert!(
            vcd_text.contains(&minus_five),
            "negative five must be 64-bit two's complement:\n{vcd_text}"
        );
        assert_eq!(
            vcd_text.matches("b101 !").count(),
            1,
            "-5 must not collapse onto 5"
        );
        let doc = vcd::parse(&vcd_text).expect("valid");
        assert_eq!(doc.changes_of("credit").len(), 2);
    }

    #[test]
    fn dotted_names_become_nested_scopes() {
        let tracer = Tracer::new();
        tracer.record_at(SimTime::ZERO, "vta.bus.words", 8);
        tracer.record_at(SimTime::ZERO, "vta.cpu.state", "RUN");
        tracer.record_at(SimTime::ZERO, "plain", 1);
        let vcd_text = tracer.to_vcd();
        let doc = vcd::parse(&vcd_text).expect("valid");
        assert_eq!(
            doc.var_named("words").expect("words").scope,
            vec!["vta", "bus"]
        );
        assert_eq!(doc.var_named("state").expect("state").var_type, "string");
        assert_eq!(doc.var_named("plain").expect("plain").scope, vec!["trace"]);
    }

    #[test]
    fn mixed_type_signal_falls_back_to_string() {
        let tracer = Tracer::new();
        tracer.record_at(SimTime::ZERO, "s", 3);
        tracer.record_at(SimTime::ns(1), "s", "IDLE");
        let vcd_text = tracer.to_vcd();
        assert!(vcd_text.contains("$var string 1 ! s $end"));
        assert!(vcd_text.contains("s3 !"), "numeric value as string change");
        vcd::parse(&vcd_text).expect("valid");
    }

    #[test]
    fn out_of_order_record_at_still_yields_monotonic_vcd() {
        let tracer = Tracer::new();
        tracer.record_at(SimTime::ns(2), "x", 2);
        tracer.record_at(SimTime::ns(1), "x", 1);
        tracer.record_at(SimTime::ns(2), "y", 9);
        let doc = vcd::parse(&tracer.to_vcd()).expect("valid");
        assert_eq!(doc.changes.len(), 3);
        assert_eq!(doc.changes[0].time, 1000);
    }
}
