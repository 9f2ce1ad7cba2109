//! The metrics registry: named families of atomic counters, gauges and
//! log2-bucketed histograms, rendered as Prometheus text exposition.
//!
//! Registration takes a short lock on the family table and hands back a
//! cloneable handle wrapping an `Arc`'d atomic; recording through a handle
//! is lock-free (relaxed atomics) and gated on the crate-wide
//! [`crate::enabled`] flag, so the hot path costs one load when telemetry is
//! off and a couple of relaxed RMWs when it is on.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: one per power of two of `u64` plus the
/// `<= 1` bucket.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The log2 bucket of a value: bucket `0` absorbs `value <= 1`, bucket `i`
/// (for `i >= 1`) covers `(2^(i-1), 2^i]`. It lives here so every layer
/// bins identically, and `serve_parity.rs` reads the scraped edges back.
pub fn log2_bucket(value: u64) -> usize {
    if value <= 1 {
        0
    } else {
        (u64::BITS - (value - 1).leading_zeros()) as usize
    }
}

/// Inclusive upper edge of a histogram bucket (`2^i`, saturating for the
/// last bucket, which the exposition renders as `+Inf`).
pub fn bucket_upper_edge(bucket: usize) -> u64 {
    if bucket >= 64 {
        u64::MAX
    } else {
        1u64 << bucket
    }
}

/// Lower edge of a histogram bucket: every value binned into `bucket` is
/// strictly greater than this (except bucket 0, whose lower edge is 0).
/// This is what makes a scraped histogram's percentile a safe *lower bound*
/// on the true percentile — the cross-check `serve_parity.rs` runs against
/// the client-side exact percentile.
pub fn bucket_lower_edge(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else {
        1u64 << (bucket - 1)
    }
}

/// What a metric family measures; determines the `# TYPE` exposition line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MetricKind {
    /// A monotonically increasing `u64`.
    Counter,
    /// A settable `i64` level.
    Gauge,
    /// A log2-bucketed distribution of `u64` observations.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A monotonically increasing counter. Cloning shares the underlying atomic.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (for local aggregation).
    pub fn standalone() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds `n`; a no-op while telemetry is disabled.
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one; a no-op while telemetry is disabled.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable level. Cloning shares the underlying atomic.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A gauge not attached to any registry.
    pub fn standalone() -> Self {
        Gauge(Arc::new(AtomicI64::new(0)))
    }

    /// Sets the level; a no-op while telemetry is disabled.
    pub fn set(&self, value: i64) {
        if crate::enabled() {
            self.0.store(value, Ordering::Relaxed);
        }
    }

    /// Adjusts the level by `delta` (negative to decrement); a no-op while
    /// telemetry is disabled.
    pub fn add(&self, delta: i64) {
        if crate::enabled() {
            self.0.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistogramCore {
    counts: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

/// A log2-bucketed histogram of `u64` observations (see [`log2_bucket`]).
/// The unit is the caller's — time histograms in this workspace observe
/// microseconds and carry a `_us` name suffix. Cloning shares the buckets.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// A histogram not attached to any registry (for local aggregation,
    /// e.g. a test's own latencies).
    pub fn standalone() -> Self {
        Histogram(Arc::new(HistogramCore {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }))
    }

    /// Records one observation; a no-op while telemetry is disabled.
    pub fn observe(&self, value: u64) {
        if crate::enabled() {
            self.0.counts[log2_bucket(value)].fetch_add(1, Ordering::Relaxed);
            self.0.sum.fetch_add(value, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the buckets. Concurrent observers may land
    /// between bucket reads; each observation is counted exactly once, so
    /// totals are conserved (asserted by the crate's 8-thread hammer test).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .0
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]'s buckets.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts, indexed by [`log2_bucket`].
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Lower edge (see [`bucket_lower_edge`]) of the bucket holding the
    /// nearest-rank `p`-th percentile, or `None` for an empty histogram.
    /// `p` is a fraction in `(0, 1]`.
    pub fn percentile_lower_edge(&self, p: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (bucket, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_lower_edge(bucket));
            }
        }
        None
    }
}

enum Primitive {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Series {
    /// `(key, value)` of the series' single label, if any.
    label: Option<(&'static str, String)>,
    value: Primitive,
}

struct Family {
    name: &'static str,
    help: &'static str,
    kind: MetricKind,
    series: Vec<Series>,
}

/// A named collection of metric families. Registration is idempotent: asking
/// for an existing `(name, label)` returns a handle to the same atomic.
///
/// Two registries never share state, so independent servers in one process
/// (the parity tests spin several up) keep independent counters; the
/// process-global [`crate::global`] registry holds the metrics that have no
/// per-instance owner.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register(
        &self,
        name: &'static str,
        help: &'static str,
        kind: MetricKind,
        label: Option<(&'static str, String)>,
        make: impl FnOnce() -> Primitive,
    ) -> Primitive {
        let mut families = self.families.lock().expect("metrics registry poisoned");
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(family) => {
                assert_eq!(
                    family.kind, kind,
                    "metric {name} registered as {:?} and {kind:?}",
                    family.kind
                );
                family
            }
            None => {
                families.push(Family {
                    name,
                    help,
                    kind,
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(series) = family.series.iter().find(|s| s.label == label) {
            return match &series.value {
                Primitive::Counter(c) => Primitive::Counter(c.clone()),
                Primitive::Gauge(g) => Primitive::Gauge(g.clone()),
                Primitive::Histogram(h) => Primitive::Histogram(h.clone()),
            };
        }
        let value = make();
        let handle = match &value {
            Primitive::Counter(c) => Primitive::Counter(c.clone()),
            Primitive::Gauge(g) => Primitive::Gauge(g.clone()),
            Primitive::Histogram(h) => Primitive::Histogram(h.clone()),
        };
        family.series.push(Series { label, value });
        handle
    }

    /// Registers (or retrieves) an unlabeled counter.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Counter {
        self.counter_with(name, help, None)
    }

    /// Registers (or retrieves) a counter series, optionally labeled with a
    /// single `(key, value)` pair.
    pub fn counter_with(
        &self,
        name: &'static str,
        help: &'static str,
        label: Option<(&'static str, String)>,
    ) -> Counter {
        match self.register(name, help, MetricKind::Counter, label, || {
            Primitive::Counter(Counter::standalone())
        }) {
            Primitive::Counter(c) => c,
            _ => unreachable!("registered a counter"),
        }
    }

    /// Registers (or retrieves) an unlabeled gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Gauge {
        self.gauge_with(name, help, None)
    }

    /// Registers (or retrieves) a gauge series, optionally labeled.
    pub fn gauge_with(
        &self,
        name: &'static str,
        help: &'static str,
        label: Option<(&'static str, String)>,
    ) -> Gauge {
        match self.register(name, help, MetricKind::Gauge, label, || {
            Primitive::Gauge(Gauge::standalone())
        }) {
            Primitive::Gauge(g) => g,
            _ => unreachable!("registered a gauge"),
        }
    }

    /// Registers (or retrieves) an unlabeled histogram.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Histogram {
        self.histogram_with(name, help, None)
    }

    /// Registers (or retrieves) a histogram series, optionally labeled.
    pub fn histogram_with(
        &self,
        name: &'static str,
        help: &'static str,
        label: Option<(&'static str, String)>,
    ) -> Histogram {
        match self.register(name, help, MetricKind::Histogram, label, || {
            Primitive::Histogram(Histogram::standalone())
        }) {
            Primitive::Histogram(h) => h,
            _ => unreachable!("registered a histogram"),
        }
    }

    /// Renders the registry as Prometheus text exposition: families sorted
    /// by name, each with its `# HELP`/`# TYPE` header; series in
    /// registration order with a stable label order (the series' own label
    /// first, `le` last on histogram buckets). Histogram buckets are
    /// cumulative and trailing empty buckets are folded into `+Inf`.
    pub fn render(&self) -> String {
        let families = self.families.lock().expect("metrics registry poisoned");
        let mut order: Vec<usize> = (0..families.len()).collect();
        order.sort_by_key(|&i| families[i].name);
        let mut out = String::new();
        for i in order {
            let family = &families[i];
            let _ = writeln!(out, "# HELP {} {}", family.name, family.help);
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.as_str());
            for series in &family.series {
                render_series(&mut out, family.name, series);
            }
        }
        out
    }
}

fn label_text(label: &Option<(&'static str, String)>) -> String {
    match label {
        Some((key, value)) => format!("{{{key}=\"{value}\"}}"),
        None => String::new(),
    }
}

fn bucket_label(label: &Option<(&'static str, String)>, le: &str) -> String {
    match label {
        Some((key, value)) => format!("{{{key}=\"{value}\",le=\"{le}\"}}"),
        None => format!("{{le=\"{le}\"}}"),
    }
}

fn render_series(out: &mut String, name: &str, series: &Series) {
    match &series.value {
        Primitive::Counter(c) => {
            let _ = writeln!(out, "{name}{} {}", label_text(&series.label), c.get());
        }
        Primitive::Gauge(g) => {
            let _ = writeln!(out, "{name}{} {}", label_text(&series.label), g.get());
        }
        Primitive::Histogram(h) => {
            let snapshot = h.snapshot();
            let last = snapshot
                .counts
                .iter()
                .rposition(|&c| c > 0)
                .unwrap_or(0)
                .min(63);
            let mut cumulative = 0u64;
            for bucket in 0..=last {
                cumulative += snapshot.counts[bucket];
                let le = bucket_upper_edge(bucket).to_string();
                let _ = writeln!(
                    out,
                    "{name}_bucket{} {cumulative}",
                    bucket_label(&series.label, &le)
                );
            }
            let total = snapshot.count();
            let _ = writeln!(
                out,
                "{name}_bucket{} {total}",
                bucket_label(&series.label, "+Inf")
            );
            let _ = writeln!(
                out,
                "{name}_sum{} {}",
                label_text(&series.label),
                snapshot.sum
            );
            let _ = writeln!(out, "{name}_count{} {total}", label_text(&series.label));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_bucket_pins_the_loadgen_boundaries() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 0);
        assert_eq!(log2_bucket(2), 1);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 2);
        assert_eq!(log2_bucket(5), 3);
        assert_eq!(log2_bucket(8), 3);
        assert_eq!(log2_bucket(9), 4);
        assert_eq!(log2_bucket(1024), 10);
        assert_eq!(log2_bucket(1025), 11);
        assert_eq!(log2_bucket(u64::MAX), 64);
        // Edges: every value in bucket i sits in (lower, upper].
        for bucket in 1..64 {
            assert_eq!(log2_bucket(bucket_lower_edge(bucket)), bucket - 1);
            assert_eq!(log2_bucket(bucket_lower_edge(bucket) + 1), bucket);
            assert_eq!(log2_bucket(bucket_upper_edge(bucket)), bucket);
        }
    }

    #[test]
    fn registration_is_idempotent_and_kind_checked() {
        let registry = Registry::new();
        let a = registry.counter("ssr_test_total", "a test counter");
        let b = registry.counter("ssr_test_total", "a test counter");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        let labeled = registry.counter_with(
            "ssr_test_labeled_total",
            "labeled",
            Some(("shard", "0".to_string())),
        );
        labeled.inc();
        let again = registry.counter_with(
            "ssr_test_labeled_total",
            "labeled",
            Some(("shard", "0".to_string())),
        );
        assert_eq!(again.get(), 1);
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn conflicting_kinds_panic() {
        let registry = Registry::new();
        let _ = registry.counter("ssr_conflict", "first as counter");
        let _ = registry.gauge("ssr_conflict", "then as gauge");
    }

    #[test]
    fn percentile_lower_edge_brackets_the_exact_percentile() {
        let h = Histogram::standalone();
        for us in [1u64, 2, 3, 100, 900, 1000, 5000] {
            h.observe(us);
        }
        let snapshot = h.snapshot();
        assert_eq!(snapshot.count(), 7);
        // p50 rank 4 of [1,2,3,100,900,1000,5000] = 100, bucket 7 (65..=128].
        assert_eq!(snapshot.percentile_lower_edge(0.5), Some(64));
        // p99 rank 7 = 5000, bucket 13 (4096..=8192].
        assert_eq!(snapshot.percentile_lower_edge(0.99), Some(4096));
        assert!(Histogram::standalone()
            .snapshot()
            .percentile_lower_edge(0.99)
            .is_none());
    }
}
