//! Naive linear scan baseline.

use ssr_storage::{Decode, DecodeWith, Encode, StorageError};

use crate::metric::Metric;
use crate::traits::{FamilyScratch, ItemId, RangeIndex, SpaceStats};

/// The naive baseline: a range query computes the distance from the query to
/// every stored item. All pruning ratios in the paper's Figures 8–11 are
/// expressed relative to this structure, and the correctness property tests of
/// the other indexes compare against its answers.
#[derive(Clone)]
pub struct LinearScan<T, M> {
    metric: M,
    items: Vec<T>,
}

impl<T, M: Metric<T>> LinearScan<T, M> {
    /// Creates an empty linear scan "index".
    pub fn new(metric: M) -> Self {
        LinearScan {
            metric,
            items: Vec::new(),
        }
    }

    /// Mutable access to the metric (used by live ingestion to swap in a
    /// grown window store before inserting the new tail items).
    pub fn metric_mut(&mut self) -> &mut M {
        &mut self.metric
    }

    /// Bulk-inserts a collection of items.
    pub fn extend<I: IntoIterator<Item = T>>(&mut self, items: I) {
        self.items.extend(items);
    }
}

impl<T, M> LinearScan<T, M> {
    /// Stored items in id order (the id of `items()[i]` is `ItemId(i)`).
    /// Snapshot loading uses this to validate decoded item handles before
    /// any of them is resolved.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Stable backend name for telemetry labels.
    pub fn backend_name(&self) -> &'static str {
        "linear_scan"
    }
}

impl<T, M: Metric<T>> RangeIndex<T> for LinearScan<T, M> {
    type Metric = M;

    fn metric(&self) -> &M {
        &self.metric
    }

    fn insert(&mut self, item: T) -> ItemId {
        let id = ItemId(self.items.len());
        self.items.push(item);
        id
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn item(&self, id: ItemId) -> Option<&T> {
        self.items.get(id.0)
    }

    /// Every item is visited once, in id order, for all lanes together (one
    /// distance call by a counting probe); the threshold is the radius
    /// itself, so a threshold-aware probe abandons each non-matching item
    /// after a fraction of its DP cells.
    fn family_query<P>(&self, lanes: usize, radius: f64, mut probe: P, scratch: &mut FamilyScratch)
    where
        P: FnMut(&T, f64, &mut [f64]),
    {
        scratch.begin(lanes);
        for (i, item) in self.items.iter().enumerate() {
            probe(item, radius, &mut scratch.dists);
            for (lane, d) in scratch.dists.iter().enumerate() {
                if *d <= radius {
                    scratch.hits.push((lane, ItemId(i)));
                }
            }
        }
        scratch.touched = self.items.len();
        scratch.finish();
    }

    fn space_stats(&self) -> SpaceStats {
        SpaceStats {
            items: self.items.len(),
            entries: 0,
            levels: 1,
            avg_parents: 0.0,
            estimated_bytes: 0,
            serialized_bytes: 0,
            item_bytes: self.items.len() * std::mem::size_of::<T>(),
            arena_bytes: 0,
        }
    }
}

// -- snapshot codec ---------------------------------------------------------

impl<T: Encode, M> Encode for LinearScan<T, M> {
    fn encode(&self, w: &mut ssr_storage::Writer) {
        self.items.encode(w);
    }
}

impl<T: Decode, M: Metric<T>> DecodeWith<M> for LinearScan<T, M> {
    fn decode_with(r: &mut ssr_storage::Reader<'_>, metric: M) -> Result<Self, StorageError> {
        Ok(LinearScan {
            metric,
            items: Vec::<T>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::FnMetric;

    #[test]
    fn linear_scan_returns_exact_answers() {
        let mut scan = LinearScan::new(FnMetric(|a: &f64, b: &f64| (a - b).abs()));
        for v in [1.0, 5.0, 9.0, 5.5] {
            scan.insert(v);
        }
        let mut got: Vec<usize> = scan
            .range_query(&5.2, 0.5)
            .into_iter()
            .map(|i| i.0)
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 3]);
        assert_eq!(scan.len(), 4);
        assert_eq!(scan.item(ItemId(2)), Some(&9.0));
        assert_eq!(scan.space_stats().entries, 0);
    }
}
