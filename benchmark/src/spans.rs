//! The harness's own span recorder: one span per call into a layer's
//! public functions, kept in memory and written out when the pass ends.
//! The program's `SBGT_TRACE` recorder stays off in every pass; these
//! spans are taken from outside it.
//!
//! The recorder is single-threaded on purpose: the generator and the
//! layer replay each run on one thread, and that is all it records.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Cohort field of a span that belongs to no cohort.
pub const NO_COHORT: u64 = u64::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The identifier spans of one request share.
    pub cohort: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; `None` inside when recording is off.
#[must_use]
pub struct Open(Option<u32>);

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last: a new span's parent is the top.
    stack: Vec<u32>,
}

impl Spans {
    /// A recorder that records nothing and never reads the clock: the
    /// end-to-end pass runs with this one.
    pub fn off() -> Self {
        Spans::new(false)
    }

    pub fn on() -> Self {
        Spans::new(true)
    }

    fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since the recorder's epoch of an instant taken elsewhere.
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, cohort: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            cohort,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Close a span opened by [`Spans::enter`]. Spans close innermost
    /// first; anything else is a bug in the harness.
    pub fn exit(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(
            self.stack.pop(),
            Some(index),
            "spans must close innermost first"
        );
        self.spans[index as usize].end_ns = end_ns;
    }

    /// Time one call as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, cohort: u64, call: impl FnOnce() -> R) -> R {
        let open = self.enter(name, cohort);
        let result = call();
        self.exit(open);
        result
    }

    /// Record a span whose ends were observed at different places (a
    /// cohort's seal-to-report interval), under the innermost open span.
    pub fn record(&mut self, name: &'static str, cohort: u64, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: self.stack.last().copied(),
            cohort,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another recorder's finished spans, on this one's clock and
    /// with their parent links intact.
    pub fn absorb(&mut self, other: Spans) {
        let offset = self.spans.len() as u32;
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: s.parent.map(|p| p + offset),
            ..s
        }));
    }

    /// Durations in nanoseconds of every span called `name`, ascending.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        crate::stats::sorted(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns() as f64)
                .collect(),
        )
    }

    /// Sum in nanoseconds over every span called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .sum()
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its child spans cover (overlapping children count
    /// once, and only inside the parent).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent as usize];
                let start = span.start_ns.max(p.start_ns);
                let end = span.end_ns.min(p.end_ns);
                if end > start {
                    children[parent as usize].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// Per span name: how many, their total time and their total self
    /// time in nanoseconds, ordered by name. The layer table of a traced
    /// run's record.
    pub fn summary(&self) -> Vec<(&'static str, usize, u64, u64)> {
        let mut by_name: std::collections::BTreeMap<&'static str, (usize, u64, u64)> =
            std::collections::BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            let entry = by_name.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.duration_ns();
            entry.2 += own;
        }
        by_name
            .into_iter()
            .map(|(name, (count, total, own))| (name, count, total, own))
            .collect()
    }

    /// Write every span as one JSON array, one object per line.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"[\n")?;
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let cohort = if span.cohort == NO_COHORT {
                "null".to_string()
            } else {
                span.cohort.to_string()
            };
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"cohort\": {cohort}}}{comma}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        out.write_all(b"]\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            cohort: NO_COHORT,
        }
    }

    #[test]
    fn self_time_subtracts_the_cover_of_children() {
        let mut spans = Spans::on();
        spans.spans = vec![
            span(0, 100, None),
            // Two overlapping children cover 10..50 once, not twice.
            span(10, 40, Some(0)),
            span(30, 50, Some(0)),
            // A child that outlives its parent counts only inside it.
            span(90, 130, Some(0)),
            // A grandchild reduces its own parent, not the root.
            span(12, 20, Some(1)),
        ];
        assert_eq!(
            spans.self_times_ns(),
            vec![100 - 40 - 10, 30 - 8, 20, 40, 8]
        );
        assert_eq!(
            spans.summary(),
            vec![("t", 5, 100 + 30 + 20 + 40 + 8, 50 + 22 + 20 + 40 + 8)]
        );
    }

    #[test]
    fn nesting_sets_parents_and_off_records_nothing() {
        let mut spans = Spans::on();
        let outer = spans.enter("outer", 7);
        let answer = spans.time("inner", 7, || 42);
        spans.record("async", 7, 5, 3);
        spans.exit(outer);
        assert_eq!(answer, 42);
        let recorded = spans.spans();
        assert_eq!(recorded.len(), 3);
        assert_eq!(recorded[0].parent, None);
        assert_eq!(recorded[1].parent, Some(0));
        assert_eq!(recorded[2].parent, Some(0));
        assert_eq!(
            recorded[2].duration_ns(),
            0,
            "a reversed interval is clamped"
        );
        assert!(recorded[0].end_ns >= recorded[1].end_ns);
        assert_eq!(spans.durations_ns("inner").len(), 1);

        // Absorbed spans keep their own parent links.
        let mut other = Spans::on();
        let open = other.enter("late", 9);
        other.time("leaf", 9, || ());
        other.exit(open);
        spans.absorb(other);
        let recorded = spans.spans();
        assert_eq!(recorded.len(), 5);
        assert_eq!(recorded[3].parent, None);
        assert_eq!(recorded[4].parent, Some(3));
        assert!(recorded[3].start_ns >= recorded[0].start_ns);

        let mut off = Spans::off();
        let open = off.enter("outer", 1);
        off.time("inner", 1, || ());
        off.record("async", 1, 0, 1);
        off.exit(open);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn span_file_is_valid_json() {
        let mut spans = Spans::on();
        let open = spans.enter("a.b", 3);
        spans.time("c", NO_COHORT, || ());
        spans.exit(open);
        let path = crate::host::out_dir()
            .unwrap()
            .join(format!("test-spans-{}.json", std::process::id()));
        spans.write_json(&path).unwrap();
        let doc = crate::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let items = doc.as_arr().unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].get("parent").unwrap().as_num(), Some(0.0));
        assert_eq!(items[1].get("cohort"), Some(&crate::json::Json::Null));
    }
}
