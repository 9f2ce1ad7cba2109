//! Zero-dependency telemetry for the subsequence-retrieval stack.
//!
//! The crate sits at the **bottom** of the workspace DAG — it depends on
//! nothing but `std`, so every layer (storage, index, engine, server, bench)
//! can record into it without dependency cycles. Three pieces:
//!
//! * a **metrics registry** ([`Registry`]) of atomically-updated counters,
//!   gauges and log2-bucketed histograms, registered by static name and
//!   rendered as Prometheus text exposition ([`Registry::render`]);
//! * **query tracing** ([`TraceBuf`], [`TraceRing`]) — per-query span
//!   records cheap enough for the hot path, collected into a bounded ring of
//!   recent events and rendered as an indented span tree for slow-query
//!   logs;
//! * a process-wide **kill switch** ([`set_enabled`]), which the benchmark's
//!   `obs.overhead_frac` row throws to time the same queries with recording
//!   on and off.
//!
//! Everything here is *observation only*: nothing in this crate feeds back
//! into query execution, so results and the deterministic per-query
//! statistics ([`QueryStats`]-style counters upstream) are bit-identical
//! whether telemetry is enabled, disabled, or absent.
//!
//! The histograms bucket by log2 (bucket 0 absorbs values `<= 1`, bucket
//! *i* covers `(2^(i-1), 2^i]`), so a scraped percentile's bucket edge
//! bounds the exact one: `serve_parity.rs` cross-checks the server's p99
//! against the client's that way.
//!
//! [`QueryStats`]: Registry

#![warn(missing_docs)]

mod metrics;
mod trace;

pub use metrics::{
    bucket_lower_edge, bucket_upper_edge, log2_bucket, Counter, Gauge, Histogram,
    HistogramSnapshot, MetricKind, Registry, HISTOGRAM_BUCKETS,
};
pub use trace::{TraceBuf, TraceEvent, TraceRing};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Whether telemetry recording is active. `true` at startup.
static OBS_ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enables or disables telemetry recording. With recording off,
/// every [`Counter::add`], [`Gauge::set`] and [`Histogram::observe`] is a
/// single relaxed load and an early return — the no-op side of the
/// benchmark's `obs.overhead_frac` row. Reading ([`Counter::get`],
/// [`Registry::render`], …) is never gated.
pub fn set_enabled(on: bool) {
    OBS_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether telemetry recording is currently enabled.
pub fn enabled() -> bool {
    OBS_ENABLED.load(Ordering::Relaxed)
}

/// The process-global registry. Layers without a natural owner (snapshot
/// load, WAL replay) record here; components with a lifetime of their own
/// (the query server) hold a private [`Registry`] so two instances in one
/// process never mix counters, and concatenate this one into their
/// exposition.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Capacity of the process-global trace ring.
const GLOBAL_RING_CAPACITY: usize = 1024;

/// The process-global ring of recent trace events. Query traces, server
/// admission spans and open-time spans (snapshot load, WAL replay) all land
/// here, so the last `1024` events of a process are always reconstructable.
pub fn trace_ring() -> &'static TraceRing {
    static RING: OnceLock<TraceRing> = OnceLock::new();
    RING.get_or_init(|| TraceRing::new(GLOBAL_RING_CAPACITY))
}
