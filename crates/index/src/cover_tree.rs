//! Cover Tree baseline (Beygelzimer, Kakade & Langford, ICML 2006).
//!
//! The Cover Tree is the linear-space, single-parent baseline the paper
//! compares the Reference Net against. This implementation uses the same
//! levelled geometry as [`crate::ReferenceNet`] — level `i` is associated with
//! radius `ǫ'·2^i`, parents always sit strictly above their children, and a
//! parent is within `ǫ'·2^{child_level + 1}` of each child — but every node
//! has **exactly one** parent, so it is a tree. Range queries walk down the
//! tree from the root (the `hierarchy` module), pruning or bulk-accepting
//! whole subtrees with the triangle inequality against each node's `reach` —
//! the bound its own edges add up to, zero for a leaf — which is also what
//! every distance call is cut off at (`radius + reach`). The lack of
//! multiple parents is precisely what the paper's Figure 2 shows can force
//! extra distance computations compared to the Reference Net.

use std::collections::BTreeMap;

use ssr_storage::{Decode, DecodeWith, Encode, StorageError};

use crate::hierarchy::{self, Levelled};
use crate::metric::Metric;
use crate::traits::{FamilyScratch, ItemId, RangeIndex, SpaceStats};

#[derive(Clone, Debug)]
struct Node {
    level: i32,
    parent: Option<usize>,
    children: Vec<usize>,
    /// Upper bound on the distance from this node to anything in its
    /// subtree: `max` over children `c` of `ǫ'·2^{level(c)+1} + reach(c)`,
    /// zero for a leaf. A pure function of the edges and levels, so it is
    /// never serialized: the bottom-up pass of `structural_bounds` rebuilds
    /// it without a single distance call.
    reach: f64,
}

/// A cover tree over items of type `T` under metric `M`.
#[derive(Clone)]
pub struct CoverTree<T, M> {
    epsilon_prime: f64,
    metric: M,
    items: Vec<T>,
    nodes: Vec<Node>,
    by_level: BTreeMap<i32, Vec<usize>>,
    root: Option<usize>,
}

impl<T, M> CoverTree<T, M> {
    /// Stored items in id order (the id of `items()[i]` is `ItemId(i)`).
    /// Snapshot loading uses this to validate decoded item handles before
    /// any of them is resolved.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Number of children of `id` (0 for a leaf or an unknown id).
    pub fn list_len(&self, id: ItemId) -> usize {
        self.nodes.get(id.0).map_or(0, |n| n.children.len())
    }
}

impl<T, M> Levelled<T> for CoverTree<T, M> {
    fn root(&self) -> Option<usize> {
        self.root
    }

    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Its one bound serves as its list bound too, so a tree node takes no
    /// list decision a subtree decision does not.
    fn node(&self, n: usize) -> hierarchy::Node<'_, T> {
        let node = &self.nodes[n];
        hierarchy::Node {
            item: &self.items[n],
            level: node.level,
            children: &node.children,
            parents: node.parent.as_slice(),
            reach: node.reach,
            list: node.reach,
        }
    }

    fn alive(&self, _: usize) -> bool {
        true
    }

    fn by_level(&self) -> &BTreeMap<i32, Vec<usize>> {
        &self.by_level
    }

    fn radius(&self, level: i32) -> f64 {
        self.epsilon_prime * f64::powi(2.0, level)
    }
}

impl<T, M: Metric<T>> CoverTree<T, M> {
    /// Creates an empty cover tree with base radius `ǫ' = 1`.
    pub fn new(metric: M) -> Self {
        Self::with_epsilon_prime(metric, 1.0)
    }

    /// Creates an empty cover tree with an explicit base radius.
    pub fn with_epsilon_prime(metric: M, epsilon_prime: f64) -> Self {
        assert!(
            epsilon_prime > 0.0 && epsilon_prime.is_finite(),
            "epsilon_prime must be positive and finite"
        );
        CoverTree {
            epsilon_prime,
            metric,
            items: Vec::new(),
            nodes: Vec::new(),
            by_level: BTreeMap::new(),
            root: None,
        }
    }

    /// Mutable access to the metric (used by live ingestion to swap in a
    /// grown window store before inserting the new tail items).
    pub fn metric_mut(&mut self) -> &mut M {
        &mut self.metric
    }

    /// Bulk-inserts a collection of items.
    pub fn extend<I: IntoIterator<Item = T>>(&mut self, items: I) {
        for item in items {
            self.insert(item);
        }
    }

    /// Structural invariants, used by tests: those both trees keep (edges
    /// descend a level within `ǫ'·2^{child_level + 1}` and are listed at
    /// both ends, every node is reachable from the root, every stored
    /// `reach` is the bottom-up pass's and bounds the node's subtree).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.check_levels(|a, b| self.metric.dist(a, b))
    }

    fn set_level(&mut self, idx: usize, level: i32) {
        if let Some(ids) = self.by_level.get_mut(&self.nodes[idx].level) {
            ids.retain(|&n| n != idx);
            if ids.is_empty() {
                self.by_level.remove(&self.nodes[idx].level);
            }
        }
        self.nodes[idx].level = level;
        self.by_level.entry(level).or_default().push(idx);
    }
}

impl<T, M: Metric<T>> RangeIndex<T> for CoverTree<T, M> {
    type Metric = M;

    fn metric(&self) -> &M {
        &self.metric
    }

    fn insert(&mut self, item: T) -> ItemId {
        let idx = self.items.len();
        self.items.push(item);
        self.nodes.push(Node {
            level: 0,
            parent: None,
            children: Vec::new(),
            reach: 0.0,
        });

        let root = match self.root {
            Some(r) => r,
            None => {
                self.root = Some(idx);
                self.set_level(idx, 0);
                return ItemId(idx);
            }
        };

        let d_root = self.metric.dist(&self.items[idx], &self.items[root]);
        assert!(d_root.is_finite(), "metric returned a non-finite distance");
        let mut root_level = self.nodes[root].level;
        while d_root > self.radius(root_level) || root_level < 1 {
            root_level += 1;
        }
        if root_level != self.nodes[root].level {
            self.set_level(root, root_level);
        }

        // Descend, keeping the candidate cover set of the current level.
        let mut level = root_level;
        let mut cands: Vec<(usize, f64)> = vec![(root, d_root)];
        loop {
            let next_radius = self.radius(level - 1);
            let mut next: Vec<(usize, f64)> = Vec::new();
            for &(n, d) in &cands {
                if d <= next_radius {
                    next.push((n, d));
                }
                for &c in &self.nodes[n].children {
                    if self.nodes[c].level < level - 1 {
                        continue;
                    }
                    // Only children within `next_radius` are kept, so the
                    // kernel may abandon as soon as it knows this one is not.
                    let within =
                        self.metric
                            .dist_within(&self.items[idx], &self.items[c], next_radius);
                    if let Some(dc) = within {
                        next.push((c, dc));
                    }
                }
            }
            let placement = if next.is_empty() {
                Some(level - 1)
            } else if level - 1 == 0 {
                Some(0)
            } else {
                None
            };
            if let Some(placement) = placement {
                // Single parent: the nearest candidate of the level above.
                let bound = self.radius(placement + 1);
                let parent = cands
                    .iter()
                    .copied()
                    .filter(|&(p, d)| self.nodes[p].level > placement && d <= bound)
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .map(|(p, _)| p)
                    .expect("descent always leaves at least one covering parent");
                self.set_level(idx, placement);
                self.nodes[idx].parent = Some(parent);
                self.nodes[parent].children.push(idx);
                // The new leaf can only grow its ancestors' reach: carry the
                // growth up until an ancestor already reaches that far,
                // which leaves exactly what `structural_bounds` computes.
                let mut child = idx;
                while let Some(p) = self.nodes[child].parent {
                    let through =
                        self.radius(self.nodes[child].level + 1) + self.nodes[child].reach;
                    if through <= self.nodes[p].reach {
                        break;
                    }
                    self.nodes[p].reach = through;
                    child = p;
                }
                return ItemId(idx);
            }
            cands = next;
            level -= 1;
        }
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn item(&self, id: ItemId) -> Option<&T> {
        self.items.get(id.0)
    }

    /// A frontier walk from the root (the `hierarchy` module): a node is
    /// probed once, for every lane that has not decided it, and each of
    /// those lanes then decides the node and — where its own distance
    /// allows — the whole subtree. The only decisions that need the exact
    /// distance are those with `d ≤ radius + reach`: anything farther is
    /// pruned with its subtree, which is what the `∞` a probe reports beyond
    /// that threshold does. A leaf has reach 0 and is probed at the query
    /// radius itself.
    fn family_query<P>(&self, lanes: usize, radius: f64, probe: P, scratch: &mut FamilyScratch)
    where
        P: FnMut(&T, f64, &mut [f64]),
    {
        self.family_walk(lanes, radius, probe, scratch);
    }

    fn space_stats(&self) -> SpaceStats {
        // One parent per non-root node.
        let entries = self.items.len().saturating_sub(1);
        // Per node: level tag + child Vec header + parent slot + reach.
        let estimated_bytes = self.items.len()
            * (4 + std::mem::size_of::<Vec<usize>>() + 16 + std::mem::size_of::<f64>());
        let avg_parents = if self.items.len() <= 1 { 0.0 } else { 1.0 };
        SpaceStats {
            items: self.items.len(),
            entries,
            levels: self.by_level.len(),
            avg_parents,
            estimated_bytes,
            serialized_bytes: self.structure_encoded_len(),
            item_bytes: self.items.len() * std::mem::size_of::<T>(),
            arena_bytes: 0,
        }
    }
}

// -- snapshot codec ---------------------------------------------------------

impl Encode for Node {
    fn encode(&self, w: &mut ssr_storage::Writer) {
        w.put_i32(self.level);
        self.parent.encode(w);
        self.children.encode(w);
    }
}

impl Decode for Node {
    fn decode(r: &mut ssr_storage::Reader<'_>) -> Result<Self, StorageError> {
        Ok(Node {
            level: r.take_i32()?,
            parent: Option::<usize>::decode(r)?,
            children: Vec::<usize>::decode(r)?,
            // Derived from the edges once the whole tree is decoded.
            reach: 0.0,
        })
    }
}

impl<T, M> CoverTree<T, M> {
    /// Encodes the tree bookkeeping — everything except the items and the
    /// metric. As for the Reference Net, the `by_level` buckets are stored
    /// verbatim, so a loaded tree encodes to the very same bytes.
    fn encode_structure(&self, w: &mut ssr_storage::Writer) {
        w.put_f64(self.epsilon_prime);
        self.nodes.encode(w);
        let levels: Vec<(i32, Vec<usize>)> = self
            .by_level
            .iter()
            .map(|(&level, ids)| (level, ids.clone()))
            .collect();
        levels.encode(w);
        self.root.encode(w);
    }

    /// Exact byte size of [`Self::encode_structure`]'s output.
    fn structure_encoded_len(&self) -> usize {
        ssr_storage::Writer::measure(|w| self.encode_structure(w))
    }

    /// Stable backend name for telemetry labels.
    pub fn backend_name(&self) -> &'static str {
        "cover_tree"
    }
}

impl<T: Encode, M> Encode for CoverTree<T, M> {
    fn encode(&self, w: &mut ssr_storage::Writer) {
        self.items.encode(w);
        self.encode_structure(w);
    }
}

impl<T: Decode, M: Metric<T>> DecodeWith<M> for CoverTree<T, M> {
    fn decode_with(r: &mut ssr_storage::Reader<'_>, metric: M) -> Result<Self, StorageError> {
        let items = Vec::<T>::decode(r)?;
        let epsilon_prime = r.take_f64()?;
        if !(epsilon_prime > 0.0 && epsilon_prime.is_finite()) {
            return Err(StorageError::Malformed(
                "cover tree epsilon_prime must be positive and finite".into(),
            ));
        }
        let nodes = Vec::<Node>::decode(r)?;
        if nodes.len() != items.len() {
            return Err(StorageError::Malformed(format!(
                "cover tree has {} nodes for {} items",
                nodes.len(),
                items.len()
            )));
        }
        let by_level = hierarchy::decode_levels(r, nodes.len())?;
        let root = Option::<usize>::decode(r)?;
        let mut tree = CoverTree {
            epsilon_prime,
            metric,
            items,
            nodes,
            by_level,
            root,
        };
        tree.check_decoded()?;
        let bounds = tree.structural_bounds();
        for (node, (reach, _)) in tree.nodes.iter_mut().zip(bounds) {
            node.reach = reach;
        }
        Ok(tree)
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

    fn build(values: &[f64]) -> CoverTree<f64, FnMetric<fn(&f64, &f64) -> f64>> {
        let mut tree = CoverTree::new(scalar_metric());
        for &v in values {
            tree.insert(v);
        }
        tree
    }

    #[test]
    fn empty_tree() {
        let tree = build(&[]);
        assert!(tree.is_empty());
        assert!(tree.range_query(&0.0, 10.0).is_empty());
    }

    #[test]
    fn range_queries_match_brute_force() {
        let values: Vec<f64> = (0..300).map(|i| ((i * 29) % 271) as f64 * 0.3).collect();
        let tree = build(&values);
        tree.check_invariants().unwrap();
        for &(q, r) in &[(5.0, 2.0), (40.0, 0.25), (0.0, 100.0), (81.0, 7.5)] {
            let mut got: Vec<usize> = tree.range_query(&q, r).into_iter().map(|i| i.0).collect();
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
    fn thresholds_are_the_nodes_own_reach() {
        let values: Vec<f64> = (0..400).map(|i| ((i * 37) % 397) as f64 * 0.3).collect();
        for epsilon_prime in [0.5, 1.0, 3.0] {
            let mut tree = CoverTree::with_epsilon_prime(scalar_metric(), epsilon_prime);
            tree.extend(values.iter().copied());
            tree.check_invariants().unwrap();
            let mut leaves = 0;
            for &(q, r) in &[(10.0, 5.0), (75.0, 0.4), (0.0, 150.0), (60.0, 0.0)] {
                // Lane `l` asks for `family[l]`: near, nearer and far lanes,
                // so some decide a subtree the others still have to walk.
                let family = [q, q + 0.3, q - 7.0, q + 45.0];
                let mut probed = vec![false; values.len()];
                let mut scratch = FamilyScratch::default();
                tree.family_query(
                    family.len(),
                    r,
                    |item, tau, out| {
                        let n = tree
                            .items
                            .iter()
                            .position(|x| std::ptr::eq(x, item))
                            .expect("probed items live in the tree");
                        assert!(!std::mem::replace(&mut probed[n], true), "{n} probed twice");
                        let node = &tree.nodes[n];
                        if node.children.is_empty() {
                            leaves += 1;
                            assert_eq!(tau, r, "leaf {n}");
                        }
                        assert!(
                            r <= tau && tau <= r + tree.radius(node.level + 1),
                            "node {n} at level {} probed at {tau} for radius {r}",
                            node.level
                        );
                        for (slot, q) in out.iter_mut().zip(&family) {
                            *slot = tree
                                .metric
                                .dist_within(q, item, tau)
                                .unwrap_or(f64::INFINITY);
                        }
                    },
                    &mut scratch,
                );
                for (lane, &q) in family.iter().enumerate() {
                    let hits = scratch.hits().iter().filter(|hit| hit.0 == lane);
                    let got: Vec<usize> = hits.map(|hit| hit.1 .0).collect();
                    let expected: Vec<usize> = (0..values.len())
                        .filter(|&i| (values[i] - q).abs() <= r)
                        .collect();
                    assert_eq!(got, expected, "q={q} r={r} eps'={epsilon_prime}");
                }
            }
            assert!(leaves > 0, "the audit never saw a leaf");
        }
    }

    #[test]
    fn every_node_has_exactly_one_parent() {
        let values: Vec<f64> = (0..100).map(|i| ((i * 17) % 89) as f64).collect();
        let tree = build(&values);
        let stats = tree.space_stats();
        assert_eq!(stats.items, 100);
        assert_eq!(stats.entries, 99);
        assert_eq!(stats.avg_parents, 1.0);
        assert!(stats.levels >= 2);
    }

    #[test]
    fn duplicates_are_retrievable() {
        let tree = build(&[2.0, 2.0, 2.0, 9.0]);
        tree.check_invariants().unwrap();
        let mut got: Vec<usize> = tree
            .range_query(&2.0, 0.01)
            .into_iter()
            .map(|i| i.0)
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn query_prunes_compared_to_linear_scan() {
        use crate::metric::CountingMetric;
        use ssr_distance::CallCounter;

        let counter = CallCounter::new();
        let metric = CountingMetric::new(scalar_metric(), counter.clone());
        let mut tree = CoverTree::new(metric);
        for i in 0..2000 {
            tree.insert(((i * 37) % 1999) as f64 * 0.1);
        }
        counter.reset();
        let result = tree.range_query(&50.0, 1.0);
        assert!(!result.is_empty());
        assert!(
            counter.get() < 1000,
            "expected pruning, got {}",
            counter.get()
        );
    }
}
