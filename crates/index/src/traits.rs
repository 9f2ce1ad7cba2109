//! Common interface of the range-query indexes.

use std::fmt;

use crate::hierarchy::Slots;
use crate::metric::Metric;

/// Identifier of an item stored in an index.
///
/// Items keep the id they were assigned at insertion for the lifetime of the
/// index, even across deletions, so the framework can use the id as a stable
/// window identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ItemId(pub usize);

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "item#{}", self.0)
    }
}

/// Space accounting of an index, matching the quantities reported in the
/// paper's Figures 5–7.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct SpaceStats {
    /// Number of live items stored.
    pub items: usize,
    /// Number of index entries beyond the items themselves: reference-list
    /// entries (parent→child links) for the hierarchical structures, pivot
    /// table cells for reference-based indexing, zero for a linear scan.
    pub entries: usize,
    /// Number of levels of the hierarchy (1 for flat structures).
    pub levels: usize,
    /// Average number of parents per item (the "average size of each
    /// reference list" series of Figure 5); zero for flat structures.
    pub avg_parents: f64,
    /// Estimated in-memory footprint of the index bookkeeping in bytes,
    /// excluding the items' own payload.
    pub estimated_bytes: usize,
    /// Exact byte size of the index's structural bookkeeping when encoded in
    /// the `ssr-storage` snapshot format, excluding the item payloads
    /// (measured by running the snapshot encoder over the structure). Zero
    /// for structures that persist no bookkeeping (linear scan).
    pub serialized_bytes: usize,
    /// Deterministic resident bytes of the item *handles* the index stores:
    /// `stored items × size_of::<T>()`. With arena-backed items (`WindowId`)
    /// this is the index's entire per-item payload — one machine word each;
    /// any heap payload of owned item types (e.g. `Vec<E>` test items) is
    /// deliberately not chased, because the framework's invariant is that
    /// there is none. Computed from lengths, never allocator capacities, so
    /// the value is identical on every machine and safe to gate in CI.
    pub item_bytes: usize,
    /// Deterministic resident bytes of the shared element storage the item
    /// handles resolve against (the `ElementArena` behind a window store).
    /// Zero for self-contained indexes; filled in by the framework layer,
    /// which owns the arena the index only borrows through its metric.
    pub arena_bytes: usize,
}

impl SpaceStats {
    /// Estimated footprint in mebibytes.
    pub fn estimated_mib(&self) -> f64 {
        self.estimated_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Resident bytes per stored item: shared arena plus per-item handles,
    /// divided by the live item count (0.0 for an empty index). The framework's
    /// `resident_window_bytes` additionally counts the window store's view
    /// table, which the index does not own, so it sits a few words per item
    /// above this number.
    pub fn bytes_per_item(&self) -> f64 {
        if self.items == 0 {
            return 0.0;
        }
        (self.arena_bytes + self.item_bytes) as f64 / self.items as f64
    }
}

/// Reusable state of [`RangeIndex::family_query`]: the probe's output slots,
/// the hit list and the metric trees' per-node walk state. A caller that
/// runs many family queries — the framework runs one per query offset —
/// keeps one scratch and every query after the first allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct FamilyScratch {
    /// The probe's output, one slot per lane (MV-Reference keeps one more
    /// row of them per pivot behind it).
    pub(crate) dists: Vec<f64>,
    pub(crate) hits: Vec<(usize, ItemId)>,
    /// A work list: the nodes a tree's subtree enumeration has yet to
    /// enter, or MV-Reference's undecided lanes of one item.
    pub(crate) stack: Vec<usize>,
    pub(crate) touched: usize,
    pub(crate) slots: Slots,
}

impl FamilyScratch {
    /// The `(lane, item)` pairs the last family query found within its
    /// radius, by lane and, within a lane, by increasing item id.
    pub fn hits(&self) -> &[(usize, ItemId)] {
        &self.hits
    }

    /// How many nodes the last family query read or wrote state for: the
    /// node slots a tree walk touched, each once, or every item of a linear
    /// pass. A tree walk touches the nodes it probes, the children they push
    /// to and the nodes it accepts, never an excluded subtree.
    pub fn touched(&self) -> usize {
        self.touched
    }

    /// Clears the output for a query of `lanes` lanes.
    pub(crate) fn begin(&mut self, lanes: usize) {
        assert!(lanes > 0, "a family has at least one lane");
        self.dists.clear();
        self.dists.resize(lanes, f64::INFINITY);
        self.hits.clear();
        self.touched = 0;
    }

    /// Ends a query that found its hits in any order.
    pub(crate) fn finish(&mut self) {
        self.hits.sort_unstable();
    }
}

/// An index answering range similarity queries `{ x : δ(q, x) ≤ radius }`.
pub trait RangeIndex<T> {
    /// The metric the index was built with.
    type Metric: Metric<T>;

    /// The metric in use.
    fn metric(&self) -> &Self::Metric;

    /// Inserts an item, returning its id.
    fn insert(&mut self, item: T) -> ItemId;

    /// Number of live items.
    fn len(&self) -> usize;

    /// Whether the index holds no live items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow an item by id (`None` if the id was never assigned or the item
    /// was deleted).
    fn item(&self, id: ItemId) -> Option<&T>;

    /// All ids whose item lies within `radius` of `query`.
    ///
    /// The result order is unspecified; callers that need determinism sort.
    /// This is the one-lane [`Self::family_query`] whose probe is the
    /// metric's `dist_within(query, item, tau)`.
    fn range_query(&self, query: &T, radius: f64) -> Vec<ItemId> {
        one_lane_query(self, radius, |item, tau| {
            self.metric().dist_within(query, item, tau)
        })
    }

    /// One range query for a *family* of `lanes ≥ 1` probes that are cheap to
    /// evaluate together — the framework's query segments that start at one
    /// offset are prefixes of one another, and one dynamic program answers
    /// them all. The probes may have any representation: the index only sees
    /// `probe(item, tau, out)`, which must set `out[l]`, for every lane `l`,
    /// to lane `l`'s exact distance to `item` when that is `≤ tau` and to `∞`
    /// otherwise.
    ///
    /// Every lane is answered exactly as if it were queried alone — same
    /// decisions from the same distances, same thresholds — but an item (a
    /// node of the hierarchy) is visited once, for all the lanes that still
    /// need it; the slots of lanes that had decided it already are ignored.
    /// The hits are left in `scratch` ([`FamilyScratch::hits`]).
    /// [`Self::range_query`] is the one-lane case.
    ///
    /// A probe costs what it visits: the trees touch the nodes they probe,
    /// the children those push to and the nodes they accept, and never a
    /// subtree every lane has excluded ([`FamilyScratch::touched`]); the
    /// linear scan and MV-Reference's pivot table read every item.
    fn family_query<P>(&self, lanes: usize, radius: f64, probe: P, scratch: &mut FamilyScratch)
    where
        P: FnMut(&T, f64, &mut [f64]);

    /// Space accounting for the structure.
    fn space_stats(&self) -> SpaceStats;
}

/// The one-lane family query whose probe is `dist_within(item, tau)`.
pub(crate) fn one_lane_query<T, I: RangeIndex<T> + ?Sized>(
    index: &I,
    radius: f64,
    mut dist_within: impl FnMut(&T, f64) -> Option<f64>,
) -> Vec<ItemId> {
    let mut scratch = FamilyScratch::default();
    index.family_query(
        1,
        radius,
        |item, tau, out| out[0] = dist_within(item, tau).unwrap_or(f64::INFINITY),
        &mut scratch,
    );
    scratch.hits.iter().map(|&(_, id)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_id_display() {
        assert_eq!(ItemId(12).to_string(), "item#12");
    }

    #[test]
    fn space_stats_mib_conversion() {
        let stats = SpaceStats {
            items: 10,
            entries: 20,
            levels: 3,
            avg_parents: 2.0,
            estimated_bytes: 2 * 1024 * 1024,
            serialized_bytes: 0,
            item_bytes: 80,
            arena_bytes: 320,
        };
        assert!((stats.estimated_mib() - 2.0).abs() < 1e-12);
        assert!((stats.bytes_per_item() - 40.0).abs() < 1e-12);
        assert_eq!(SpaceStats::default().bytes_per_item(), 0.0);
    }
}
