//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the run's epoch),
//! an optional parent (an index into the same tracer) and an id: the index of
//! the batch it belongs to, so the spans of one batch share it.  A disabled
//! tracer records nothing and costs one branch per call, so the untraced run
//! measures the program, not the tracer.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// A handle to an open span; `None` when tracing is off.
pub type SpanRef = Option<usize>;

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// An empty tracer on the same clock, for another thread to fill and
    /// [`Tracer::absorb`] to take back.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.epoch, self.enabled)
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span that started at `start`; close it with [`Tracer::end_at`].
    pub fn begin_at(
        &mut self,
        name: &'static str,
        id: u64,
        parent: SpanRef,
        start: Instant,
    ) -> SpanRef {
        if !self.enabled {
            return None;
        }
        let start = self.offset(start);
        self.spans.push(Span {
            name,
            id,
            parent,
            start,
            end: start,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end_at(&mut self, span: SpanRef, end: Instant) {
        if let Some(index) = span {
            let end = self.offset(end);
            let span = &mut self.spans[index];
            span.end = end.max(span.start);
        }
    }

    /// Records a span whose endpoints the caller measured already.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: SpanRef,
        start: Instant,
        end: Instant,
    ) -> SpanRef {
        let span = self.begin_at(name, id, parent, start);
        self.end_at(span, end);
        span
    }

    /// Nanoseconds since the epoch; the tracer's clock for phase bounds.
    pub fn at(&self, instant: Instant) -> u64 {
        self.offset(instant)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }

    /// Per span name: count, total and self time (nanoseconds).
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, u64, u64)> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(selfs) {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.duration();
            entry.2 += own;
        }
        out
    }

    /// Every span plus the per-name summary, as one JSON document.
    pub fn to_json(&self) -> Json {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let index_of = |name: &str| names.binary_search(&name).expect("name was collected");
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::from(index_of(s.name) as u64),
                    Json::from(s.id),
                    s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                    Json::from(s.start),
                    Json::from(s.end),
                ])
            })
            .collect();
        let summary = self
            .summary()
            .into_iter()
            .map(|(name, (count, total, own))| {
                (
                    name.to_string(),
                    Json::obj([
                        ("count", Json::from(count as u64)),
                        ("total_ns", Json::from(total)),
                        ("self_ns", Json::from(own)),
                    ]),
                )
            })
            .collect();
        Json::obj([
            (
                "columns",
                Json::Arr(
                    ["name", "id", "parent", "start_ns", "end_ns"]
                        .iter()
                        .map(|c| Json::from(*c))
                        .collect(),
                ),
            ),
            (
                "names",
                Json::Arr(names.iter().map(|n| Json::from(*n)).collect()),
            ),
            ("spans", Json::Arr(spans)),
            ("summary", Json::Obj(summary)),
        ])
    }
}

/// Length of the union of `intervals` (half-open, in any order).
pub fn union_length(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    if let Some((s, e)) = current {
        total += e - s;
    }
    total
}

/// Self time of every span: its duration minus the part of it that its
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start.max(p.start), span.end.min(p.end));
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| span.duration() - union_length(kids))
        .collect()
}

/// Share of `[from, to]` that no top-level span (one without a parent)
/// covers.
pub fn uncovered_frac(spans: &[Span], from: u64, to: u64) -> f64 {
    if to <= from {
        return 0.0;
    }
    let mut covered: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .filter_map(|s| {
            let (start, end) = (s.start.max(from), s.end.min(to));
            (start < end).then_some((start, end))
        })
        .collect();
    1.0 - union_length(&mut covered) as f64 / (to - from) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn union_merges_overlaps_and_gaps() {
        assert_eq!(union_length(&mut []), 0);
        assert_eq!(union_length(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_length(&mut [(20, 25), (0, 10), (10, 12)]), 17);
        assert_eq!(union_length(&mut [(0, 100), (10, 20), (30, 40)]), 100);
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = [
            span("batch", None, 0, 100),
            span("submit", Some(0), 10, 20),
            span("drain", Some(0), 20, 90),
            // Grandchild: counts against `drain`, not against `batch`.
            span("journal", Some(2), 50, 70),
            // Two overlapping children of `drain` would double-count if
            // subtracted naively.
            span("publish", Some(2), 60, 80),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 40, 20, 20]);
    }

    #[test]
    fn self_time_clips_children_to_their_parent() {
        let spans = [span("outer", None, 10, 20), span("inner", Some(0), 5, 15)];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn uncovered_counts_only_top_level_spans() {
        let spans = [
            span("batch", None, 0, 40),
            span("inner", Some(0), 0, 40),
            span("batch", None, 60, 80),
        ];
        assert!((uncovered_frac(&spans, 0, 100) - 0.4).abs() < 1e-12);
        assert!((uncovered_frac(&spans, 20, 60) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn absorb_rebases_parents_and_disabled_tracers_record_nothing() {
        let epoch = Instant::now();
        let now = Instant::now();
        let mut a = Tracer::new(epoch, true);
        a.record("a", 0, None, now, now);
        let mut b = a.fork();
        let parent = b.begin_at("b", 1, None, now);
        b.record("c", 1, parent, now, now);
        b.end_at(parent, now);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.summary()["c"].0, 1);

        let mut off = Tracer::new(epoch, false);
        let span = off.begin_at("x", 0, None, now);
        off.end_at(span, now);
        assert_eq!(off.record("y", 0, span, now, now), None);
        assert!(off.spans().is_empty());
    }
}
