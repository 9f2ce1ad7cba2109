//! Metrics over arbitrary item types.
//!
//! The index structures in this crate are agnostic to what they index: they
//! only need a [`Metric`] — a symmetric distance obeying the triangle
//! inequality. In the framework the items are fixed-length windows (element
//! vectors) and the metric is one of the consistent, metric sequence distances
//! from `ssr-distance`; [`SequenceMetricAdapter`] provides that bridge.

use std::sync::Arc;

use ssr_distance::{CallCounter, CellCounter, SequenceDistance};
use ssr_sequence::{Element, WindowId, WindowStore};

/// A distance over items of type `T` that is symmetric and satisfies the
/// triangle inequality.
///
/// Implementations must be deterministic; the index structures rely on
/// `dist(a, a) == 0` and on the triangle inequality for correctness of their
/// pruning rules.
pub trait Metric<T>: Send + Sync {
    /// Distance between two items.
    fn dist(&self, a: &T, b: &T) -> f64;

    /// Threshold-aware distance: `Some(d)` with `d == self.dist(a, b)`
    /// exactly when `dist(a, b) ≤ tau`, `None` otherwise — never approximate.
    ///
    /// Range queries always know such a threshold (the query radius, widened
    /// by the triangle-inequality residual of the node being visited), as do
    /// the tree insert descents (the radius of the level being searched),
    /// and threshold-aware sequence kernels can cut most of their DP work
    /// when they know it. The default runs the full distance, so any metric is
    /// automatically correct.
    fn dist_within(&self, a: &T, b: &T, tau: f64) -> Option<f64> {
        let d = self.dist(a, b);
        if d <= tau {
            Some(d)
        } else {
            None
        }
    }
}

impl<T, M: Metric<T> + ?Sized> Metric<T> for Arc<M> {
    fn dist(&self, a: &T, b: &T) -> f64 {
        (**self).dist(a, b)
    }

    fn dist_within(&self, a: &T, b: &T, tau: f64) -> Option<f64> {
        (**self).dist_within(a, b, tau)
    }
}

impl<T, M: Metric<T> + ?Sized> Metric<T> for &M {
    fn dist(&self, a: &T, b: &T) -> f64 {
        (**self).dist(a, b)
    }

    fn dist_within(&self, a: &T, b: &T, tau: f64) -> Option<f64> {
        (**self).dist_within(a, b, tau)
    }
}

/// Adapts a closure into a [`Metric`].
#[derive(Clone, Debug)]
pub struct FnMetric<F>(pub F);

impl<T, F> Metric<T> for FnMetric<F>
where
    F: Fn(&T, &T) -> f64 + Send + Sync,
{
    fn dist(&self, a: &T, b: &T) -> f64 {
        (self.0)(a, b)
    }
}

/// Adapts a metric [`SequenceDistance`] into a [`Metric`] over `Vec<E>` items
/// (the window representation used by the framework).
#[derive(Clone, Debug)]
pub struct SequenceMetricAdapter<D> {
    distance: D,
}

impl<D> SequenceMetricAdapter<D> {
    /// Wraps a sequence distance.
    ///
    /// The caller is responsible for only indexing with *metric* distances;
    /// [`ssr_distance::SequenceDistance::is_metric`] can be consulted. Using a
    /// non-metric distance (e.g. DTW) silently breaks the pruning guarantees,
    /// which is exactly the restriction the paper states in Section 5.
    pub fn new(distance: D) -> Self {
        SequenceMetricAdapter { distance }
    }

    /// The wrapped distance.
    pub fn inner(&self) -> &D {
        &self.distance
    }
}

impl<E, D> Metric<Vec<E>> for SequenceMetricAdapter<D>
where
    E: Element + Send + Sync,
    D: SequenceDistance<E>,
{
    fn dist(&self, a: &Vec<E>, b: &Vec<E>) -> f64 {
        self.distance.distance(a, b)
    }

    fn dist_within(&self, a: &Vec<E>, b: &Vec<E>, tau: f64) -> Option<f64> {
        self.distance.distance_within(a, b, tau)
    }
}

/// The arena-era window metric: items are [`WindowId`]s, resolved to `&[E]`
/// slices of the shared [`WindowStore`] (and through it the `ElementArena`)
/// on every evaluation. No element is ever copied — both sides of every
/// kernel invocation are borrowed views of contiguous storage, which is the
/// whole point of the flat layout.
///
/// This handle is the **only** one a database keeps on its window table: the
/// framework reads the store through its index's metric, and a read-only
/// replica shares it by cloning the index (an `Arc` clone here). Evaluations
/// only ever read; [`Self::windows_mut`] is how a sequence is appended.
#[derive(Clone, Debug)]
pub struct WindowSliceMetric<E, D> {
    distance: D,
    windows: Arc<WindowStore<E>>,
}

impl<E: Element, D> WindowSliceMetric<E, D> {
    /// Wraps a sequence distance together with the window store its item
    /// ids resolve against.
    ///
    /// As with [`SequenceMetricAdapter`], the caller is responsible for only
    /// indexing with *metric* distances.
    pub fn new(distance: D, windows: Arc<WindowStore<E>>) -> Self {
        WindowSliceMetric { distance, windows }
    }

    /// The wrapped distance.
    pub fn inner(&self) -> &D {
        &self.distance
    }

    /// The shared window store item ids resolve against.
    pub fn windows(&self) -> &Arc<WindowStore<E>> {
        &self.windows
    }

    /// The store, for appending ([`WindowStore::push_sequence`], its one
    /// mutation): in place when this metric holds the only handle, on a
    /// private copy (`Arc::make_mut`) while a replica's metric still reads
    /// the old one. Either way the store is append-only, so every id already
    /// stored in an index using this metric keeps resolving to the same
    /// elements.
    pub fn windows_mut(&mut self) -> &mut WindowStore<E> {
        Arc::make_mut(&mut self.windows)
    }

    /// Resolves one stored item to its element slice.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not address a window of the store — snapshot
    /// loading validates ids before any metric is consulted, and the build
    /// path only ever inserts ids it just created.
    fn slice(&self, id: WindowId) -> &[E] {
        self.windows
            .slice(id)
            .expect("index item ids address windows of the shared store")
    }
}

impl<E, D> Metric<WindowId> for WindowSliceMetric<E, D>
where
    E: Element + Send + Sync,
    D: SequenceDistance<E>,
{
    fn dist(&self, a: &WindowId, b: &WindowId) -> f64 {
        self.distance.distance(self.slice(*a), self.slice(*b))
    }

    fn dist_within(&self, a: &WindowId, b: &WindowId, tau: f64) -> Option<f64> {
        self.distance
            .distance_within(self.slice(*a), self.slice(*b), tau)
    }
}

/// A metric wrapper that counts every distance evaluation on a shared
/// [`CallCounter`] — used to measure the pruning ratios of Figures 8–11 —
/// and mirrors the DP cells the underlying kernels evaluate into a shared
/// [`CellCounter`], so the *depth* of each evaluation is accounted for
/// alongside its mere occurrence. A thresholded evaluation counts as exactly
/// one call whether or not it was pruned: pruning saves cells, never calls,
/// which is what keeps distance-call statistics bit-identical when the
/// threshold path is enabled.
#[derive(Clone, Debug)]
pub struct CountingMetric<M> {
    inner: M,
    counter: CallCounter,
    cells: CellCounter,
}

impl<M> CountingMetric<M> {
    /// Wraps `inner`, recording calls on `counter` (with a fresh cell
    /// counter; see [`Self::with_cell_counter`]).
    pub fn new(inner: M, counter: CallCounter) -> Self {
        CountingMetric {
            inner,
            counter,
            cells: CellCounter::new(),
        }
    }

    /// Records DP cells on the given shared counter instead of a fresh one.
    pub fn with_cell_counter(mut self, cells: CellCounter) -> Self {
        self.cells = cells;
        self
    }

    /// Redirects future evaluations onto the given counters. A read-only
    /// replica engine clones its index structure and then calls this so each
    /// replica accounts on private atomics instead of contending (and mixing
    /// its tallies) with the engine it was cloned from.
    pub fn set_counters(&mut self, counter: CallCounter, cells: CellCounter) {
        self.counter = counter;
        self.cells = cells;
    }

    /// The shared call counter.
    pub fn counter(&self) -> &CallCounter {
        &self.counter
    }

    /// The shared DP-cell counter.
    pub fn cell_counter(&self) -> &CellCounter {
        &self.cells
    }

    /// The wrapped metric.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Mutable access to the wrapped metric (the live-ingestion path grows
    /// a [`WindowSliceMetric`]'s window store through this).
    pub fn inner_mut(&mut self) -> &mut M {
        &mut self.inner
    }

    /// The single charging point every counted evaluation goes through: one
    /// call on the shared counter, plus the DP cells the evaluation filled
    /// (measured as a thread-local delta). The CI-gated counters rest on
    /// every evaluation surface — item–item, thresholded, and the probes of
    /// a family range query, which the framework evaluates itself (a raw
    /// query slice against a stored id handle) and charges here, one call
    /// per probe — going through this one helper, so they can never drift
    /// apart.
    pub fn charge<R>(&self, eval: impl FnOnce() -> R) -> R {
        self.counter.record();
        let before = ssr_distance::dp_cells_thread_total();
        let result = eval();
        self.cells
            .add(ssr_distance::dp_cells_thread_total() - before);
        result
    }
}

impl<T, M: Metric<T>> Metric<T> for CountingMetric<M> {
    fn dist(&self, a: &T, b: &T) -> f64 {
        self.charge(|| self.inner.dist(a, b))
    }

    fn dist_within(&self, a: &T, b: &T, tau: f64) -> Option<f64> {
        self.charge(|| self.inner.dist_within(a, b, tau))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_distance::Levenshtein;
    use ssr_sequence::Symbol;

    fn sym(text: &str) -> Vec<Symbol> {
        text.chars().map(Symbol::from_char).collect()
    }

    #[test]
    fn fn_metric_delegates_to_closure() {
        let m = FnMetric(|a: &f64, b: &f64| (a - b).abs());
        assert_eq!(m.dist(&3.0, &7.5), 4.5);
    }

    #[test]
    fn sequence_adapter_bridges_to_sequence_distances() {
        let m = SequenceMetricAdapter::new(Levenshtein::new());
        assert_eq!(m.dist(&sym("KITTEN"), &sym("SITTING")), 3.0);
    }

    #[test]
    fn counting_metric_counts() {
        let counter = CallCounter::new();
        let m = CountingMetric::new(
            SequenceMetricAdapter::new(Levenshtein::new()),
            counter.clone(),
        );
        let a = sym("ACGT");
        let b = sym("AGGT");
        assert_eq!(m.dist(&a, &b), 1.0);
        assert_eq!(m.dist(&a, &a), 0.0);
        assert_eq!(counter.get(), 2);
    }

    #[test]
    fn window_slice_metric_resolves_ids_through_the_arena() {
        use ssr_sequence::{partition_windows_dataset, Sequence, SequenceDataset};

        let ds: SequenceDataset<Symbol> =
            vec![Sequence::new(sym("ACGTAGGT"))].into_iter().collect();
        let store = Arc::new(partition_windows_dataset(&ds, 4));
        let mut m = WindowSliceMetric::new(Levenshtein::new(), Arc::clone(&store));
        // Item–item distances resolve both ids to arena slices…
        assert_eq!(m.dist(&WindowId(0), &WindowId(1)), 1.0); // ACGT vs AGGT
        assert_eq!(m.dist_within(&WindowId(0), &WindowId(1), 0.5), None);

        // …and an append while `store` is still held elsewhere grows a
        // private copy: the other handle keeps its two windows.
        m.windows_mut().push_sequence(&sym("ACGA"), None);
        assert_eq!(m.dist(&WindowId(0), &WindowId(2)), 1.0);
        assert_eq!((store.len(), m.windows().len()), (2, 3));
        // Once unshared, the next append happens in place.
        let before = Arc::as_ptr(m.windows());
        m.windows_mut().push_sequence(&sym("TTTT"), None);
        assert_eq!(Arc::as_ptr(m.windows()), before);

        // A counting wrapper charges a probe the caller evaluates itself —
        // a raw slice against a resolved item — like any other evaluation.
        let q = sym("ACGT");
        let counter = CallCounter::new();
        let counted = CountingMetric::new(m, counter.clone());
        let window = store.slice(WindowId(1)).unwrap();
        let probed = counted.charge(|| Levenshtein::new().distance_within(&q, window, 1.0));
        assert_eq!(probed, Some(1.0));
        let _ = counted.dist(&WindowId(0), &WindowId(1));
        assert_eq!(counter.get(), 2);
    }

    #[test]
    fn arc_and_reference_metrics_work() {
        let base = FnMetric(|a: &f64, b: &f64| (a - b).abs());
        let arc: Arc<FnMetric<_>> = Arc::new(base);
        assert_eq!(arc.dist(&1.0, &4.0), 3.0);
        let by_ref: &FnMetric<_> = &arc;
        assert_eq!(Metric::<f64>::dist(&by_ref, &1.0, &2.0), 1.0);
    }
}
