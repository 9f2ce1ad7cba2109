//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program under test is not instrumented by this change: every span is
//! opened and closed here, around a call into a layer's public functions, and
//! the stage children of a query span are filled in from the `StageTimings`
//! the engine returns. Spans stay in memory and are written out once, when
//! the traced run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Identifier shared by every span of one query / request / mutation.
    pub op: u64,
    /// The layer the call went into (`query`, `wire`, `serve`, `live`, …).
    pub layer: &'static str,
    /// The function or stage timed.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// In-memory span recorder. A disabled tracer records nothing, so one code
/// path serves both the untraced and the traced pass and their difference is
/// the tracing overhead.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    next_op: u64,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            next_op: 0,
        }
    }

    /// A fresh operation identifier.
    pub fn next_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span of `layer` (`None` when disabled). Spans may nest: pass
    /// the returned id as the `parent` of the calls made inside it.
    pub fn begin(
        &mut self,
        op: u64,
        parent: Option<SpanId>,
        layer: &'static str,
        name: &'static str,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            op,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Self::begin`].
    pub fn end(&mut self, span: Option<SpanId>) {
        if let Some(id) = span {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Times `call` as one span of `layer` and returns its result with the
    /// span's id (`None` when disabled).
    pub fn span<T>(
        &mut self,
        op: u64,
        parent: Option<SpanId>,
        layer: &'static str,
        name: &'static str,
        call: impl FnOnce() -> T,
    ) -> (T, Option<SpanId>) {
        let span = self.begin(op, parent, layer, name);
        let value = call();
        self.end(span);
        (value, span)
    }

    /// Adds consecutive child spans under `parent`, laid out from the
    /// parent's start: the engine reports how long each stage took, not when
    /// it ran, and the stages of one query run back to back.
    pub fn stage_children(
        &mut self,
        parent: Option<SpanId>,
        layer: &'static str,
        stages: &[(&'static str, u64)],
    ) {
        let Some(parent_id) = parent else { return };
        let (op, mut cursor) = (self.spans[parent_id].op, self.spans[parent_id].start_ns);
        for &(name, duration_ns) in stages {
            self.spans.push(Span {
                parent,
                op,
                layer,
                name,
                start_ns: cursor,
                end_ns: cursor + duration_ns,
            });
            cursor += duration_ns;
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its children cover (overlapping children are counted once, and a child is
/// clipped to its parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let (lo, hi) = (spans[parent].start_ns, spans[parent].end_ns);
            let clipped = (span.start_ns.clamp(lo, hi), span.end_ns.clamp(lo, hi));
            if clipped.1 > clipped.0 {
                children[parent].push(clipped);
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

/// Self time summed per layer, in nanoseconds.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        *totals.entry(span.layer).or_insert(0) += self_ns;
    }
    totals
}

/// The trace file: every span plus per-layer self time and the counts taken
/// at the same boundaries.
pub fn trace_document(workload: &str, seed: u64, spans: &[Span], counts: &[(String, f64)]) -> Json {
    let self_ns = self_times(spans);
    let span_rows = spans
        .iter()
        .enumerate()
        .map(|(id, span)| {
            Json::object([
                ("id", Json::from(id as u64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                ),
                ("op", Json::from(span.op)),
                ("layer", Json::from(span.layer)),
                ("name", Json::from(span.name)),
                ("start_ns", Json::from(span.start_ns)),
                ("end_ns", Json::from(span.end_ns)),
                ("self_ns", Json::from(self_ns[id])),
            ])
        })
        .collect();
    Json::object([
        ("workload", Json::from(workload)),
        ("seed", Json::from(seed)),
        (
            "layer_self_ns",
            Json::Object(
                layer_self_times(spans)
                    .into_iter()
                    .map(|(layer, ns)| (layer.to_string(), Json::from(ns)))
                    .collect(),
            ),
        ),
        (
            "counts",
            Json::Object(
                counts
                    .iter()
                    .map(|(name, value)| (name.clone(), Json::Number(*value)))
                    .collect(),
            ),
        ),
        ("spans", Json::Array(span_rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            op: 1,
            layer,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = vec![
            span(None, "request", 0, 100),
            span(Some(0), "wire", 10, 30),
            span(Some(0), "serve", 30, 90),
            span(Some(2), "query", 40, 80),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 20, 40]);
        let layers = layer_self_times(&spans);
        assert_eq!(layers["request"], 20);
        assert_eq!(layers["query"], 40);
        assert_eq!(layers.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span(None, "a", 0, 100),
            span(Some(0), "b", 10, 60),
            span(Some(0), "b", 40, 80),
            // Stage timings can overshoot the measured parent by a few ns.
            span(Some(0), "b", 90, 130),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn stage_children_tile_the_parent_from_its_start() {
        let mut tracer = Tracer::new(true);
        let ((), parent) = tracer.span(7, None, "query", "type2", || {});
        tracer.stage_children(parent, "query", &[("filter", 5), ("verify", 3)]);
        let spans = tracer.spans();
        let start = spans[0].start_ns;
        assert_eq!((spans[1].start_ns, spans[1].end_ns), (start, start + 5));
        assert_eq!((spans[2].start_ns, spans[2].end_ns), (start + 5, start + 8));
        assert!(spans.iter().all(|s| s.op == 7));
    }

    #[test]
    fn begin_and_end_nest_spans() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.begin(1, None, "client", "request");
        let ((), inner) = tracer.span(1, outer, "wire", "encode", || {});
        tracer.end(outer);
        let spans = tracer.spans();
        assert_eq!(spans[inner.unwrap()].parent, outer);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let (value, id) = tracer.span(1, None, "query", "type2", || 42);
        assert_eq!((value, id), (42, None));
        tracer.stage_children(id, "query", &[("filter", 5)]);
        assert!(tracer.spans().is_empty());
    }
}
