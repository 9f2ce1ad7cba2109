//! Reference-based indexing with Maximum-Variance pivot selection
//! (Venkateswaran et al., VLDB 2006 / VLDB Journal 2008).
//!
//! This is the "MV-k" baseline of the paper's Figures 8–11. The index keeps a
//! set of `k` reference objects (pivots) and pre-computes the distance from
//! every stored item to every pivot — a `k × n` table, which is why the paper
//! stresses that its space overhead grows with `k` (MV-50 uses ten times the
//! space of MV-5). A range query first computes the `k` query–pivot distances,
//! then uses the triangle inequality per item:
//!
//! * `max_j |δ(q, r_j) − δ(x, r_j)| > ε`  ⇒ the item is pruned without a
//!   distance computation;
//! * `min_j (δ(q, r_j) + δ(x, r_j)) ≤ ε` ⇒ the item is accepted without a
//!   distance computation;
//! * otherwise the true distance is evaluated.
//!
//! Pivot selection follows the Maximum Variance heuristic: candidates are
//! scored by the variance of their distances to a deterministic sample of the
//! dataset and the `k` highest-variance candidates become the pivots. The
//! paper uses MV (rather than the more expensive Maximum Pruning variant)
//! because it needs no training queries; we follow suit.

use ssr_storage::{Decode, DecodeWith, Encode, StorageError};

use crate::metric::Metric;
use crate::par::fanout_map;
use crate::traits::{one_lane_query, FamilyScratch, ItemId, RangeIndex, SpaceStats};

/// Reference-based index with Maximum-Variance pivots.
#[derive(Clone)]
pub struct MvReferenceIndex<T, M> {
    metric: M,
    num_references: usize,
    /// Worker threads used by [`Self::rebuild`] (1 = sequential).
    build_threads: usize,
    /// How many items to sample when scoring pivot candidates.
    selection_sample: usize,
    items: Vec<T>,
    /// Indices (into `items`) of the selected pivots.
    references: Vec<usize>,
    /// `table[i]` holds the distances from item `i` to every pivot.
    table: Vec<Vec<f64>>,
    /// Items inserted since the last (re)build that are not yet in the table.
    dirty: bool,
}

impl<T, M: Metric<T>> MvReferenceIndex<T, M> {
    /// Creates an empty index that will use `num_references` pivots.
    ///
    /// # Panics
    ///
    /// Panics if `num_references == 0`.
    pub fn new(metric: M, num_references: usize) -> Self {
        assert!(num_references >= 1, "at least one reference is required");
        MvReferenceIndex {
            metric,
            num_references,
            build_threads: 1,
            selection_sample: 64,
            items: Vec::new(),
            references: Vec::new(),
            table: Vec::new(),
            dirty: false,
        }
    }

    /// Sets the number of worker threads [`Self::rebuild`] may use. Pivot
    /// scoring and the pivot-distance table are embarrassingly parallel per
    /// item, and every distance is computed exactly once in both paths, so
    /// the resulting index — and its distance-call count — is bit-identical
    /// at every thread count.
    pub fn with_build_threads(mut self, threads: usize) -> Self {
        self.build_threads = threads.max(1);
        self
    }

    /// Number of pivots this index uses.
    pub fn num_references(&self) -> usize {
        self.num_references
    }

    /// Mutable access to the metric (used by live ingestion to swap in a
    /// grown window store before inserting the new tail items).
    pub fn metric_mut(&mut self) -> &mut M {
        &mut self.metric
    }
}

impl<T: Send + Sync, M: Metric<T>> MvReferenceIndex<T, M> {
    /// Bulk-inserts items and rebuilds the **whole** pivot table once at the
    /// end — pivots are selected over the final item set, so this structure
    /// has no cheaper way to grow. It is also what appending a sequence to a
    /// framework database costs on this backend.
    pub fn extend<I: IntoIterator<Item = T>>(&mut self, items: I) {
        self.items.extend(items);
        self.dirty = true;
        self.rebuild();
    }

    /// Selects pivots and recomputes the distance table.
    ///
    /// Called automatically by queries when items were inserted one by one;
    /// exposed so benchmarks can separate build cost from query cost.
    pub fn rebuild(&mut self) {
        let n = self.items.len();
        self.references.clear();
        self.table = vec![Vec::new(); n];
        self.dirty = false;
        if n == 0 {
            return;
        }
        let k = self.num_references.min(n);

        // Deterministic sample of items used to score candidates.
        let sample_size = self.selection_sample.min(n);
        let sample_stride = (n / sample_size).max(1);
        let sample: Vec<usize> = (0..n).step_by(sample_stride).take(sample_size).collect();

        // Candidate pivots: a deterministic spread across the dataset, at most
        // 4k candidates to keep selection cost bounded.
        let cand_count = (4 * k).min(n);
        let cand_stride = (n / cand_count).max(1);
        let candidates: Vec<usize> = (0..n).step_by(cand_stride).take(cand_count).collect();

        let items = &self.items;
        let metric = &self.metric;
        let mut scored: Vec<(usize, f64)> =
            fanout_map(self.build_threads, candidates.len(), |ci| {
                let c = candidates[ci];
                let dists: Vec<f64> = sample
                    .iter()
                    .map(|&s| metric.dist(&items[c], &items[s]))
                    .collect();
                let mean = dists.iter().sum::<f64>() / dists.len() as f64;
                let var =
                    dists.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / dists.len() as f64;
                (c, var)
            });
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        self.references = scored.into_iter().take(k).map(|(c, _)| c).collect();

        // Pivot table: distance from every item to every pivot.
        let references = &self.references;
        self.table = fanout_map(self.build_threads, n, |i| {
            references
                .iter()
                .map(|&r| metric.dist(&items[i], &items[r]))
                .collect::<Vec<f64>>()
        });
    }

    /// Range query that reports how many true distance computations it used
    /// (pivot distances plus verified items), for the pruning-ratio figures.
    pub fn range_query_counted(&self, query: &T, radius: f64) -> (Vec<ItemId>, u64) {
        let mut calls = 0u64;
        let ids = one_lane_query(self, radius, |item, tau| {
            calls += 1;
            self.metric.dist_within(query, item, tau)
        });
        (ids, calls)
    }
}

impl<T, M> MvReferenceIndex<T, M> {
    fn ensure_built(&self) {
        assert!(
            !self.dirty,
            "MvReferenceIndex::rebuild must be called after ad-hoc inserts before querying"
        );
    }

    /// Stored items in id order (the id of `items()[i]` is `ItemId(i)`).
    /// Snapshot loading uses this to validate decoded item handles before
    /// any of them is resolved.
    pub fn items(&self) -> &[T] {
        &self.items
    }
}

impl<T: Send + Sync, M: Metric<T>> RangeIndex<T> for MvReferenceIndex<T, M> {
    type Metric = M;

    fn metric(&self) -> &M {
        &self.metric
    }

    fn insert(&mut self, item: T) -> ItemId {
        let id = ItemId(self.items.len());
        self.items.push(item);
        self.dirty = true;
        id
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn item(&self, id: ItemId) -> Option<&T> {
        self.items.get(id.0)
    }

    /// One probe per pivot fills that pivot's distance to every lane — at an
    /// infinite threshold: the pivot distances feed both the lower *and* the
    /// upper triangle-inequality bound, so they must be exact. Each lane
    /// then prunes or accepts every item from its own bounds, and an item
    /// some lane can do neither for is verified by one probe for all of
    /// those lanes; verification only asks whether `d ≤ radius`, so the
    /// radius itself is that probe's threshold.
    fn family_query<P>(&self, lanes: usize, radius: f64, mut probe: P, scratch: &mut FamilyScratch)
    where
        P: FnMut(&T, f64, &mut [f64]),
    {
        self.ensure_built();
        scratch.begin(lanes);
        scratch
            .dists
            .resize(lanes * (1 + self.references.len()), f64::INFINITY);
        let (dists, to_pivot) = scratch.dists.split_at_mut(lanes);
        for (&r, row) in self.references.iter().zip(to_pivot.chunks_mut(lanes)) {
            probe(&self.items[r], f64::INFINITY, row);
        }
        for (i, row) in self.table.iter().enumerate() {
            scratch.stack.clear();
            for lane in 0..lanes {
                let mut lower = 0.0f64;
                let mut upper = f64::INFINITY;
                for (dx, of_pivot) in row.iter().zip(to_pivot.chunks(lanes)) {
                    let dq = of_pivot[lane];
                    lower = lower.max((dq - dx).abs());
                    upper = upper.min(dq + dx);
                }
                if lower > radius {
                    continue;
                } else if upper <= radius {
                    scratch.hits.push((lane, ItemId(i)));
                } else {
                    scratch.stack.push(lane);
                }
            }
            if !scratch.stack.is_empty() {
                probe(&self.items[i], radius, dists);
                let within = scratch.stack.iter().filter(|&&lane| dists[lane] <= radius);
                scratch.hits.extend(within.map(|&lane| (lane, ItemId(i))));
            }
        }
        scratch.touched = self.items.len();
        scratch.finish();
    }

    fn space_stats(&self) -> SpaceStats {
        let entries = self.table.iter().map(Vec::len).sum();
        SpaceStats {
            items: self.items.len(),
            entries,
            levels: 1,
            avg_parents: self.references.len() as f64,
            estimated_bytes: entries * std::mem::size_of::<f64>()
                + self.references.len() * std::mem::size_of::<usize>(),
            serialized_bytes: self.structure_encoded_len(),
            item_bytes: self.items.len() * std::mem::size_of::<T>(),
            arena_bytes: 0,
        }
    }
}

// -- snapshot codec ---------------------------------------------------------

impl<T, M> MvReferenceIndex<T, M> {
    /// Encodes the pivot bookkeeping — everything except the items and the
    /// metric (which is runtime context reattached on decode).
    fn encode_structure(&self, w: &mut ssr_storage::Writer) {
        w.put_usize(self.num_references);
        w.put_usize(self.selection_sample);
        self.references.encode(w);
        self.table.encode(w);
    }

    /// Exact byte size of [`Self::encode_structure`]'s output.
    fn structure_encoded_len(&self) -> usize {
        ssr_storage::Writer::measure(|w| self.encode_structure(w))
    }

    /// Stable backend name for telemetry labels.
    pub fn backend_name(&self) -> &'static str {
        "mv_reference"
    }
}

impl<T: Encode, M> Encode for MvReferenceIndex<T, M> {
    /// # Panics
    ///
    /// Panics if items were inserted ad hoc without a [`Self::rebuild`]:
    /// snapshotting a stale pivot table is a programming error.
    fn encode(&self, w: &mut ssr_storage::Writer) {
        assert!(
            !self.dirty,
            "MvReferenceIndex::rebuild must be called before snapshotting"
        );
        self.items.encode(w);
        self.encode_structure(w);
    }
}

impl<T: Decode + Send + Sync, M: Metric<T>> DecodeWith<M> for MvReferenceIndex<T, M> {
    fn decode_with(r: &mut ssr_storage::Reader<'_>, metric: M) -> Result<Self, StorageError> {
        let items = Vec::<T>::decode(r)?;
        let num_references = r.take_usize()?;
        if num_references == 0 {
            return Err(StorageError::Malformed(
                "MV index with zero references".into(),
            ));
        }
        let selection_sample = r.take_usize()?;
        let references = Vec::<usize>::decode(r)?;
        let table = Vec::<Vec<f64>>::decode(r)?;
        if references.iter().any(|&r| r >= items.len()) {
            return Err(StorageError::Malformed(
                "MV reference index out of range".into(),
            ));
        }
        if table.len() != items.len() {
            return Err(StorageError::Malformed(format!(
                "MV pivot table has {} rows for {} items",
                table.len(),
                items.len()
            )));
        }
        if table.iter().any(|row| row.len() != references.len()) {
            return Err(StorageError::Malformed(
                "MV pivot table row width disagrees with reference count".into(),
            ));
        }
        Ok(MvReferenceIndex {
            metric,
            num_references,
            build_threads: 1,
            selection_sample,
            items,
            references,
            table,
            dirty: false,
        })
    }
}

#[cfg(test)]
#[allow(clippy::type_complexity)]
mod tests {
    use super::*;
    use crate::metric::FnMetric;

    fn scalar_metric() -> FnMetric<fn(&f64, &f64) -> f64> {
        FnMetric(|a: &f64, b: &f64| (a - b).abs())
    }

    fn build(values: &[f64], k: usize) -> MvReferenceIndex<f64, FnMetric<fn(&f64, &f64) -> f64>> {
        let mut idx = MvReferenceIndex::new(scalar_metric(), k);
        idx.extend(values.iter().copied());
        idx
    }

    #[test]
    fn range_queries_match_brute_force() {
        let values: Vec<f64> = (0..250).map(|i| ((i * 41) % 233) as f64 * 0.4).collect();
        let idx = build(&values, 5);
        for &(q, r) in &[(12.0, 3.0), (50.0, 0.2), (0.0, 200.0), (93.0, 9.0)] {
            let mut got: Vec<usize> = idx.range_query(&q, r).into_iter().map(|i| i.0).collect();
            got.sort_unstable();
            let expected: Vec<usize> = values
                .iter()
                .enumerate()
                .filter(|(_, &v)| (v - q).abs() <= r)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(got, expected, "q={q} r={r}");
        }
    }

    #[test]
    fn empty_index_is_fine() {
        let idx = build(&[], 5);
        assert!(idx.range_query(&1.0, 10.0).is_empty());
        assert_eq!(idx.space_stats().entries, 0);
    }

    #[test]
    fn space_grows_linearly_with_reference_count() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let small = build(&values, 5).space_stats();
        let large = build(&values, 50).space_stats();
        assert_eq!(small.entries, 100 * 5);
        assert_eq!(large.entries, 100 * 50);
        assert_eq!(large.entries, 10 * small.entries);
        assert!(large.estimated_bytes > small.estimated_bytes);
    }

    #[test]
    fn counted_queries_prune_relative_to_linear_scan() {
        let values: Vec<f64> = (0..2000).map(|i| ((i * 37) % 1999) as f64 * 0.1).collect();
        let idx = build(&values, 10);
        let (result, calls) = idx.range_query_counted(&30.0, 1.0);
        assert!(!result.is_empty());
        assert!(
            calls < values.len() as u64 / 2,
            "expected pruning, used {calls} distances"
        );
    }

    #[test]
    fn more_references_prune_at_least_as_well_on_small_radii() {
        let values: Vec<f64> = (0..1000).map(|i| ((i * 61) % 997) as f64 * 0.2).collect();
        let few = build(&values, 2);
        let many = build(&values, 20);
        let (_, calls_few) = few.range_query_counted(&55.0, 0.5);
        let (_, calls_many) = many.range_query_counted(&55.0, 0.5);
        // More pivots cost more up-front query-pivot distances but prune more
        // candidates; on a small radius the total should not be dramatically
        // worse, and the answer sets must agree.
        assert_eq!(few.range_query(&55.0, 0.5), many.range_query(&55.0, 0.5));
        assert!(calls_many <= calls_few + 18, "{calls_many} vs {calls_few}");
    }

    #[test]
    #[should_panic(expected = "rebuild must be called")]
    fn querying_after_adhoc_insert_requires_rebuild() {
        let mut idx = build(&[1.0, 2.0], 1);
        idx.insert(3.0);
        let _ = idx.range_query(&1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one reference")]
    fn zero_references_rejected() {
        let _ = MvReferenceIndex::new(scalar_metric(), 0);
    }
}
