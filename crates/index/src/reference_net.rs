//! The Reference Net (Section 6 and Appendix A of the paper).
//!
//! A Reference Net is a hierarchy of references over the indexed items:
//!
//! * level `i` is associated with the radius `ǫ_i = ǫ'·2^i`;
//! * every item appears at exactly one (its highest) level;
//! * a reference at level `i` keeps a *list* of references from the level
//!   below within distance `ǫ_i` (the **inclusive** property: every reference
//!   has at least one parent);
//! * references stored at the same level are far apart (the **exclusive**
//!   property), which keeps the hierarchy shallow;
//! * unlike a cover tree, a reference may appear in the lists of **multiple**
//!   parents (optionally capped at `nummax`), which lets range queries accept
//!   whole lists from whichever parent happens to be close to the query
//!   (Figure 2 of the paper).
//!
//! Range queries follow Algorithm 3: references are visited from the top,
//! each once every reference listing it has been; for each undecided
//! reference one distance is computed and the triangle inequality is used to
//! accept or prune either its direct list or everything derived from it
//! (Lemma 4). Lemma 4 only needs *an upper bound* on the distance from a
//! reference to what it covers, so instead of the level's worst case
//! (`ǫ'·2^i` / `ǫ'·2^{i+1}`) every node keeps the bound its own edges
//! actually add up to — its `list` and `reach`, zero for a childless
//! reference — and each distance call is cut off at `radius + reach`. The
//! number of distance evaluations is the number of references that could
//! not be bulk-decided — the quantity the paper's Figures 8–11 report as a
//! fraction of the naive linear scan.
//!
//! A probe costs what it visits, as those figures assume: the query is a
//! frontier walk (the `hierarchy` module) that touches the references it
//! probes, the lists it descends into and the references it accepts, and
//! never a subtree every lane has excluded — no per-query pass over all
//! nodes.

use std::collections::BTreeMap;

use ssr_storage::{Decode, DecodeWith, Encode, StorageError};

use crate::hierarchy::{self, Levelled};
use crate::metric::Metric;
use crate::traits::{FamilyScratch, ItemId, RangeIndex, SpaceStats};

/// Configuration of a [`ReferenceNet`].
#[derive(Clone, Copy, Debug)]
pub struct ReferenceNetConfig {
    /// The base radius `ǫ'`; level `i` references cover radius `ǫ'·2^i`.
    /// The paper uses `ǫ' = 1` for all experiments.
    pub epsilon_prime: f64,
    /// Maximum number of reference lists a single item may appear in
    /// (`nummax`). `None` leaves the number of parents unconstrained.
    pub max_parents: Option<usize>,
}

impl Default for ReferenceNetConfig {
    fn default() -> Self {
        ReferenceNetConfig {
            epsilon_prime: 1.0,
            max_parents: None,
        }
    }
}

impl ReferenceNetConfig {
    /// Config with the given base radius and unconstrained parents.
    pub fn with_epsilon_prime(epsilon_prime: f64) -> Self {
        assert!(
            epsilon_prime > 0.0 && epsilon_prime.is_finite(),
            "epsilon_prime must be positive and finite"
        );
        ReferenceNetConfig {
            epsilon_prime,
            ..Default::default()
        }
    }

    /// Caps the number of parents per item (`nummax`), as in the paper's
    /// "DFD-5" configuration.
    pub fn with_max_parents(mut self, max_parents: usize) -> Self {
        assert!(max_parents >= 1, "max_parents must be at least 1");
        self.max_parents = Some(max_parents);
        self
    }
}

#[derive(Clone, Debug)]
struct Node {
    level: i32,
    parents: Vec<usize>,
    children: Vec<usize>,
    alive: bool,
    /// Upper bound on the distance from this reference to anything derived
    /// from it: `max` over children `c` of `ǫ'·2^{level(c)+1} + reach(c)`,
    /// zero when childless. A pure function of the edges and levels, so it
    /// is never serialized: [`ReferenceNet::structural_bounds`] rebuilds it
    /// without a single distance call.
    reach: f64,
    /// The one-hop version, covering the direct list only: `max` over
    /// children `c` of `ǫ'·2^{level(c)+1}`.
    list: f64,
}

/// What the insert descent in flight knows about a node.
#[derive(Clone, Copy)]
enum Mark {
    /// Its exact distance to the new item.
    Exact(f64),
    /// It lies farther from the new item than this radius.
    Beyond(f64),
    /// Queued for evaluation in the gather step under way.
    Pending,
}

/// One slot per node for the descent in flight: a node is evaluated at most
/// once per insert, however many parents and levels lead to it. Slots and
/// list memberships are stamped, so starting a descent or a gather step
/// invalidates the previous one's without touching the arrays.
#[derive(Clone, Default)]
struct Marks {
    tick: u64,
    /// Stamp of the descent under way, and of its current gather step.
    descent: u64,
    step: u64,
    slots: Vec<(u64, Mark)>,
    /// Per node, the step in which it entered the next candidate list.
    listed: Vec<u64>,
}

impl Marks {
    /// Starts a descent over `nodes` nodes: nothing is known.
    fn begin(&mut self, nodes: usize) {
        self.slots.resize(nodes, (0, Mark::Pending));
        self.listed.resize(nodes, 0);
        self.tick += 1;
        self.descent = self.tick;
    }

    /// Starts a gather step: nothing is listed.
    fn next_step(&mut self) {
        self.tick += 1;
        self.step = self.tick;
    }

    fn get(&self, n: usize) -> Option<Mark> {
        let (stamp, mark) = self.slots[n];
        (stamp == self.descent).then_some(mark)
    }

    fn set(&mut self, n: usize, mark: Mark) {
        self.slots[n] = (self.descent, mark);
    }

    /// Lists `n` for this step; `false` when it already was.
    fn list(&mut self, n: usize) -> bool {
        std::mem::replace(&mut self.listed[n], self.step) != self.step
    }
}

/// The Reference Net metric index.
#[derive(Clone)]
pub struct ReferenceNet<T, M> {
    config: ReferenceNetConfig,
    metric: M,
    items: Vec<T>,
    nodes: Vec<Node>,
    by_level: BTreeMap<i32, Vec<usize>>,
    root: Option<usize>,
    live_count: usize,
    build_threads: usize,
    /// Scratch of the insert descents; holds nothing between them.
    marks: Marks,
}

/// Minimum number of pending child-distance evaluations in one [`gather`]
/// step before the work is fanned out to scoped threads: below this, thread
/// spawn overhead exceeds the distance work for typical window metrics.
///
/// [`gather`]: ReferenceNet::gather
const PARALLEL_GATHER_THRESHOLD: usize = 64;

impl<T: Send + Sync, M: Metric<T>> ReferenceNet<T, M> {
    /// Creates an empty Reference Net with the default configuration
    /// (`ǫ' = 1`, unconstrained parents).
    pub fn new(metric: M) -> Self {
        Self::with_config(metric, ReferenceNetConfig::default())
    }

    /// Creates an empty Reference Net with an explicit configuration.
    pub fn with_config(metric: M, config: ReferenceNetConfig) -> Self {
        assert!(
            config.epsilon_prime > 0.0 && config.epsilon_prime.is_finite(),
            "epsilon_prime must be positive and finite"
        );
        if let Some(p) = config.max_parents {
            assert!(p >= 1, "max_parents must be at least 1");
        }
        ReferenceNet {
            config,
            metric,
            items: Vec::new(),
            nodes: Vec::new(),
            by_level: BTreeMap::new(),
            root: None,
            live_count: 0,
            build_threads: 1,
            marks: Marks::default(),
        }
    }

    /// Sets the number of worker threads insertions may use to evaluate
    /// child distances during the top-down descent (see [`Self::extend`]).
    ///
    /// The descent itself stays sequential — the net's shape depends on
    /// insertion order by design — but each level's candidate-children
    /// distances are pure functions of the items, so they can be evaluated
    /// concurrently and replayed into the exact sequential decision
    /// procedure: the resulting structure **and the number of metric
    /// evaluations** are identical at every thread count — an insert
    /// evaluates each distinct node it reaches once, on whichever thread.
    /// Worthwhile for expensive metrics or wide nets; small fan-outs stay
    /// sequential regardless.
    pub fn with_build_threads(mut self, threads: usize) -> Self {
        self.build_threads = threads.max(1);
        self
    }

    /// The configuration this net was built with.
    pub fn config(&self) -> ReferenceNetConfig {
        self.config
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

    /// Deletes the item with the given id (Algorithm 2 of the Appendix).
    ///
    /// The item's node is removed from its parents' lists; any children left
    /// without a parent are re-attached — preferably to the deleted node's
    /// former parents, otherwise to the closest eligible reference found by a
    /// fresh descent, and as a last resort they are promoted towards the root.
    /// Returns `false` if the id is unknown or the item was already deleted.
    pub fn delete(&mut self, id: ItemId) -> bool {
        let idx = id.0;
        if idx >= self.nodes.len() || !self.nodes[idx].alive {
            return false;
        }
        self.nodes[idx].alive = false;
        self.live_count -= 1;
        self.remove_from_level_map(idx);

        let old_parents = std::mem::take(&mut self.nodes[idx].parents);
        let children = std::mem::take(&mut self.nodes[idx].children);
        for &p in &old_parents {
            self.nodes[p].children.retain(|&c| c != idx);
        }
        for &c in &children {
            self.nodes[c].parents.retain(|&p| p != idx);
        }

        if self.root == Some(idx) {
            if self.live_count == 0 {
                self.root = None;
                return true;
            }
            // Promote the highest-level former child to be the new root.
            let new_root = children
                .iter()
                .copied()
                .filter(|&c| self.nodes[c].alive)
                .max_by_key(|&c| self.nodes[c].level)
                .expect("a live root always has at least one live child");
            let old_level = self.nodes[idx].level;
            // The new root keeps no parents.
            let remaining_parents = std::mem::take(&mut self.nodes[new_root].parents);
            for p in remaining_parents {
                self.nodes[p].children.retain(|&c| c != new_root);
            }
            self.set_level(new_root, old_level.max(self.nodes[new_root].level));
            self.root = Some(new_root);
        }

        // Re-attach orphans.
        let orphans: Vec<usize> = children
            .into_iter()
            .filter(|&c| self.nodes[c].alive && self.nodes[c].parents.is_empty())
            .filter(|&c| self.root != Some(c))
            .collect();
        for orphan in orphans {
            self.reattach(orphan, &old_parents);
        }
        // Removing edges (and re-levelling a promoted root or orphan) can
        // only be answered by looking at what is left.
        self.recompute_bounds();
        true
    }

    /// Structural invariants, used by tests and debug assertions: those
    /// both trees keep (edges descend a level within `ǫ'·2^{child_level+1}`
    /// and are listed at both ends, every live node is reachable from the
    /// root, every stored `reach` is the bottom-up pass's and bounds all
    /// that derives from its node), every stored `list` the bottom-up
    /// pass's, and no node with more parents than `nummax`.
    pub fn check_invariants(&self) -> Result<(), String> {
        let cap = self.config.max_parents.unwrap_or(usize::MAX);
        if let Some(n) = self.nodes.iter().position(|n| n.parents.len() > cap) {
            return Err(format!("node {n} has more parents than the cap {cap}"));
        }
        let lists = self.structural_bounds().into_iter().map(|(_, list)| list);
        if let Some(n) = self.nodes.iter().zip(lists).position(|(n, l)| n.list != l) {
            return Err(format!(
                "node {n} stores another list bound than the bottom-up pass"
            ));
        }
        self.check_levels(|a, b| self.metric.dist(a, b))
    }

    /// Average number of parents (reference lists containing it) per live
    /// non-root item.
    pub fn avg_parents(&self) -> f64 {
        let live_non_root = self.live_count.saturating_sub(1);
        if live_non_root == 0 {
            return 0.0;
        }
        let edges: usize = self
            .nodes
            .iter()
            .filter(|n| n.alive)
            .map(|n| n.parents.len())
            .sum();
        edges as f64 / live_non_root as f64
    }

    // -- internal helpers ---------------------------------------------------

    fn set_level(&mut self, idx: usize, level: i32) {
        self.remove_from_level_map(idx);
        self.nodes[idx].level = level;
        self.by_level.entry(level).or_default().push(idx);
    }

    fn remove_from_level_map(&mut self, idx: usize) {
        let level = self.nodes[idx].level;
        if let Some(ids) = self.by_level.get_mut(&level) {
            ids.retain(|&n| n != idx);
            if ids.is_empty() {
                self.by_level.remove(&level);
            }
        }
    }

    /// Finds the candidate parents for placing `item` at some level: the
    /// members of level `target_level + 1` (or above) within
    /// `ǫ'·2^{target_level + 1}` that a top-down descent discovers.
    fn find_parent_candidates(
        &self,
        item: &T,
        target_level: i32,
        marks: &mut Marks,
    ) -> Vec<(usize, f64)> {
        let root = match self.root {
            Some(r) => r,
            None => return Vec::new(),
        };
        let d_root = self.metric.dist(item, &self.items[root]);
        marks.begin(self.nodes.len());
        marks.set(root, Mark::Exact(d_root));
        let mut level = self.nodes[root].level;
        let mut cands = vec![(root, d_root)];
        while level > target_level + 1 {
            let next = self.gather(item, level - 1, &cands, marks);
            if next.is_empty() {
                break;
            }
            cands = next;
            level -= 1;
        }
        let bound = self.radius(target_level + 1);
        cands
            .into_iter()
            .filter(|&(n, d)| self.nodes[n].level > target_level && d <= bound)
            .collect()
    }

    /// Members of level `level` (i.e. nodes whose own level is `>= level`)
    /// within `ǫ'·2^level` of `item`, discovered from the previous candidate
    /// set and its children.
    ///
    /// A node is evaluated at most once per descent: `marks` keeps the exact
    /// distance of every node found within the radius it was asked at, and
    /// the radius of every node found beyond it — radii only shrink on the
    /// way down, so a child rejected under one parent, or one level up, is
    /// rejected again without a call, and a candidate reached again as a
    /// child of an earlier one is not re-evaluated. The children nothing is
    /// known about are evaluated first, each once — concurrently when
    /// [`Self::with_build_threads`] enabled parallelism and there are enough
    /// of them — and the decision loop then replays over the marks alone, so
    /// every thread count produces the same candidates with the same calls.
    fn gather(
        &self,
        item: &T,
        level: i32,
        cands: &[(usize, f64)],
        marks: &mut Marks,
    ) -> Vec<(usize, f64)> {
        let radius = self.radius(level);
        let children = |n: usize| {
            let eligible = move |&c: &usize| self.nodes[c].alive && self.nodes[c].level >= level;
            self.nodes[n].children.iter().copied().filter(eligible)
        };
        let mut pending: Vec<usize> = Vec::new();
        for &(n, _) in cands {
            for c in children(n) {
                let unknown = match marks.get(c) {
                    None => true,
                    Some(Mark::Beyond(beyond)) => beyond < radius,
                    Some(Mark::Exact(_) | Mark::Pending) => false,
                };
                if unknown {
                    marks.set(c, Mark::Pending);
                    pending.push(c);
                }
            }
        }
        // Only children within `radius` are kept, so the kernel may abandon
        // as soon as it knows a child is farther. Below the threshold the
        // spawn overhead exceeds the distance work: stay on this thread.
        let threads = if pending.len() < PARALLEL_GATHER_THRESHOLD {
            1
        } else {
            self.build_threads
        };
        let within = crate::par::fanout_map(threads, pending.len(), |i| {
            self.metric
                .dist_within(item, &self.items[pending[i]], radius)
        });
        for (&c, within) in pending.iter().zip(within) {
            marks.set(c, within.map_or(Mark::Beyond(radius), Mark::Exact));
        }

        marks.next_step();
        let mut next: Vec<(usize, f64)> = Vec::new();
        for &(n, d) in cands {
            if d <= radius && marks.list(n) {
                next.push((n, d));
            }
            for c in children(n) {
                if let Some(Mark::Exact(dc)) = marks.get(c) {
                    if dc <= radius && marks.list(c) {
                        next.push((c, dc));
                    }
                }
            }
        }
        next
    }

    /// Attaches node `idx` (already levelled) to up to `nummax` of the given
    /// eligible parents, nearest first.
    fn attach(&mut self, idx: usize, mut eligible: Vec<(usize, f64)>) {
        eligible.sort_by(|a, b| a.1.total_cmp(&b.1));
        eligible.dedup_by_key(|e| e.0);
        let cap = self.config.max_parents.unwrap_or(usize::MAX).max(1);
        let edge = self.radius(self.nodes[idx].level + 1);
        let through = edge + self.nodes[idx].reach;
        for (p, _) in eligible.into_iter().take(cap) {
            if !self.nodes[idx].parents.contains(&p) {
                self.nodes[idx].parents.push(p);
                self.nodes[p].children.push(idx);
                self.nodes[p].list = self.nodes[p].list.max(edge);
                self.raise_reach(p, through);
            }
        }
    }

    /// Raises `reach(n)` to at least `through` and carries any growth up
    /// through every ancestor. A new edge can only grow bounds, so this
    /// leaves exactly the values [`Self::structural_bounds`] computes;
    /// parents sit strictly above their children, so the walk ends.
    fn raise_reach(&mut self, n: usize, through: f64) {
        let mut stack = vec![(n, through)];
        while let Some((n, through)) = stack.pop() {
            if through > self.nodes[n].reach {
                self.nodes[n].reach = through;
                let node = &self.nodes[n];
                // The edge to a parent is only priced where there is one.
                let above = |&p| (p, self.radius(node.level + 1) + through);
                stack.extend(node.parents.iter().map(above));
            }
        }
    }

    /// Places a freshly inserted node at `level` under the given candidates.
    fn place(&mut self, idx: usize, level: i32, parent_cands: &[(usize, f64)]) {
        self.set_level(idx, level);
        let bound = self.radius(level + 1);
        let eligible: Vec<(usize, f64)> = parent_cands
            .iter()
            .copied()
            .filter(|&(p, d)| self.nodes[p].alive && self.nodes[p].level > level && d <= bound)
            .collect();
        self.attach(idx, eligible);
        debug_assert!(
            !self.nodes[idx].parents.is_empty(),
            "placed node {idx} at level {level} without a parent"
        );
    }

    /// Re-attaches an orphaned node after a deletion.
    fn reattach(&mut self, orphan: usize, preferred: &[usize]) {
        let level = self.nodes[orphan].level;
        let bound = self.radius(level + 1);
        // 1. Try the deleted node's former parents (the paper's rule).
        let mut eligible: Vec<(usize, f64)> = preferred
            .iter()
            .copied()
            .filter(|&p| self.nodes[p].alive && self.nodes[p].level > level)
            .map(|p| (p, self.metric.dist(&self.items[p], &self.items[orphan])))
            .filter(|&(_, d)| d <= bound)
            .collect();
        // 2. Otherwise search the net for eligible references.
        if eligible.is_empty() {
            let mut marks = std::mem::take(&mut self.marks);
            eligible = self
                .find_parent_candidates(&self.items[orphan], level, &mut marks)
                .into_iter()
                .filter(|&(p, _)| p != orphan)
                .collect();
            self.marks = marks;
        }
        if !eligible.is_empty() {
            self.attach(orphan, eligible);
            return;
        }
        // 3. Last resort: promote the orphan until the root can cover it.
        let root = self.root.expect("reattach requires a root");
        let d_root = self.metric.dist(&self.items[root], &self.items[orphan]);
        let mut new_level = level;
        while self.radius(new_level + 1) < d_root {
            new_level += 1;
        }
        if self.nodes[root].level <= new_level {
            let root_level = new_level + 1;
            self.set_level(root, root_level);
        }
        self.set_level(orphan, new_level);
        self.attach(orphan, vec![(root, d_root)]);
    }
}

impl<T, M> ReferenceNet<T, M> {
    fn recompute_bounds(&mut self) {
        let bounds = self.structural_bounds();
        for (node, (reach, list)) in self.nodes.iter_mut().zip(bounds) {
            node.reach = reach;
            node.list = list;
        }
    }

    /// Stored items in id order, dead nodes included (the id of `items()[i]`
    /// is `ItemId(i)`). Snapshot loading uses this to validate decoded item
    /// handles before any of them is resolved.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Number of references in `id`'s list, its children (0 for a
    /// childless, deleted or unknown id).
    pub fn list_len(&self, id: ItemId) -> usize {
        self.nodes.get(id.0).map_or(0, |n| n.children.len())
    }
}

impl<T, M> Levelled<T> for ReferenceNet<T, M> {
    fn root(&self) -> Option<usize> {
        self.root
    }

    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn node(&self, n: usize) -> hierarchy::Node<'_, T> {
        let node = &self.nodes[n];
        hierarchy::Node {
            item: &self.items[n],
            level: node.level,
            children: &node.children,
            parents: &node.parents,
            reach: node.reach,
            list: node.list,
        }
    }

    fn alive(&self, n: usize) -> bool {
        self.nodes[n].alive
    }

    fn by_level(&self) -> &BTreeMap<i32, Vec<usize>> {
        &self.by_level
    }

    fn radius(&self, level: i32) -> f64 {
        self.config.epsilon_prime * f64::powi(2.0, level)
    }
}

impl<T: Send + Sync, M: Metric<T>> RangeIndex<T> for ReferenceNet<T, M> {
    type Metric = M;

    fn metric(&self) -> &M {
        &self.metric
    }

    fn insert(&mut self, item: T) -> ItemId {
        let idx = self.items.len();
        self.items.push(item);
        self.nodes.push(Node {
            level: 0,
            parents: Vec::new(),
            children: Vec::new(),
            alive: true,
            reach: 0.0,
            list: 0.0,
        });
        self.live_count += 1;

        let root = match self.root {
            Some(r) => r,
            None => {
                self.root = Some(idx);
                self.set_level(idx, 0);
                return ItemId(idx);
            }
        };

        let d_root = self.metric.dist(&self.items[idx], &self.items[root]);
        assert!(
            d_root.is_finite(),
            "metric returned a non-finite distance; only finite metrics can be indexed"
        );
        // Raise the root until it covers the new item and sits above level 0.
        let mut root_level = self.nodes[root].level;
        while d_root > self.radius(root_level) || root_level < 1 {
            root_level += 1;
        }
        if root_level != self.nodes[root].level {
            self.set_level(root, root_level);
        }

        let mut marks = std::mem::take(&mut self.marks);
        marks.begin(self.nodes.len());
        marks.set(root, Mark::Exact(d_root));
        let mut level = root_level;
        let mut cands = vec![(root, d_root)];
        // Descend while the level below has a member within its radius; the
        // item is placed one level under the last candidates that had one.
        let placement = loop {
            let next = self.gather(&self.items[idx], level - 1, &cands, &mut marks);
            if next.is_empty() || level - 1 == 0 {
                break level - 1;
            }
            cands = next;
            level -= 1;
        };
        self.marks = marks;
        self.place(idx, placement, &cands);
        ItemId(idx)
    }

    fn len(&self) -> usize {
        self.live_count
    }

    fn item(&self, id: ItemId) -> Option<&T> {
        let idx = id.0;
        if idx < self.nodes.len() && self.nodes[idx].alive {
            Some(&self.items[idx])
        } else {
            None
        }
    }

    /// Algorithm 3 for every lane at once, as a frontier walk from the root
    /// (the `hierarchy` module): a reference is probed once for all the lanes
    /// that have not decided it, and each of those lanes takes its own
    /// decisions from its own distance. Per Lemma 4, a reference farther
    /// than `radius + reach` excludes everything derived from it, so the
    /// probe is cut off there and the `∞` it reports prunes the lot; a
    /// childless reference (reach 0) is probed at the query radius itself.
    fn family_query<P>(&self, lanes: usize, radius: f64, probe: P, scratch: &mut FamilyScratch)
    where
        P: FnMut(&T, f64, &mut [f64]),
    {
        self.family_walk(lanes, radius, probe, scratch);
    }

    fn space_stats(&self) -> SpaceStats {
        let entries: usize = self
            .nodes
            .iter()
            .filter(|n| n.alive)
            .map(|n| n.parents.len())
            .sum();
        // Per live node: level tag + alive flag + the two Vec headers + the
        // reach / list bounds; per edge: one parent slot and one child slot.
        let estimated_bytes = self.live_count
            * (4 + 1 + 2 * std::mem::size_of::<Vec<usize>>() + 2 * std::mem::size_of::<f64>())
            + entries * 16;
        SpaceStats {
            items: self.live_count,
            entries,
            levels: self.by_level.len(),
            avg_parents: self.avg_parents(),
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
        self.parents.encode(w);
        self.children.encode(w);
        w.put_bool(self.alive);
    }
}

impl Decode for Node {
    fn decode(r: &mut ssr_storage::Reader<'_>) -> Result<Self, StorageError> {
        Ok(Node {
            level: r.take_i32()?,
            parents: Vec::<usize>::decode(r)?,
            children: Vec::<usize>::decode(r)?,
            alive: r.take_bool()?,
            // Derived from the edges once the whole net is decoded.
            reach: 0.0,
            list: 0.0,
        })
    }
}

impl<T, M> ReferenceNet<T, M> {
    /// Encodes the hierarchy bookkeeping — everything except the items and
    /// the metric. The `by_level` buckets are stored verbatim (not rebuilt
    /// from the nodes), so a loaded net encodes to the very same bytes.
    fn encode_structure(&self, w: &mut ssr_storage::Writer) {
        w.put_f64(self.config.epsilon_prime);
        self.config.max_parents.encode(w);
        self.nodes.encode(w);
        let levels: Vec<(i32, Vec<usize>)> = self
            .by_level
            .iter()
            .map(|(&level, ids)| (level, ids.clone()))
            .collect();
        levels.encode(w);
        self.root.encode(w);
        w.put_usize(self.live_count);
    }

    /// Exact byte size of [`Self::encode_structure`]'s output.
    fn structure_encoded_len(&self) -> usize {
        ssr_storage::Writer::measure(|w| self.encode_structure(w))
    }

    /// Stable backend name for telemetry labels.
    pub fn backend_name(&self) -> &'static str {
        "reference_net"
    }
}

impl<T: Encode, M> Encode for ReferenceNet<T, M> {
    fn encode(&self, w: &mut ssr_storage::Writer) {
        self.items.encode(w);
        self.encode_structure(w);
    }
}

impl<T: Decode + Send + Sync, M: Metric<T>> DecodeWith<M> for ReferenceNet<T, M> {
    fn decode_with(r: &mut ssr_storage::Reader<'_>, metric: M) -> Result<Self, StorageError> {
        let items = Vec::<T>::decode(r)?;
        let epsilon_prime = r.take_f64()?;
        if !(epsilon_prime > 0.0 && epsilon_prime.is_finite()) {
            return Err(StorageError::Malformed(
                "reference net epsilon_prime must be positive and finite".into(),
            ));
        }
        let max_parents = Option::<usize>::decode(r)?;
        if max_parents == Some(0) {
            return Err(StorageError::Malformed(
                "reference net max_parents must be at least 1".into(),
            ));
        }
        let nodes = Vec::<Node>::decode(r)?;
        if nodes.len() != items.len() {
            return Err(StorageError::Malformed(format!(
                "reference net has {} nodes for {} items",
                nodes.len(),
                items.len()
            )));
        }
        let by_level = hierarchy::decode_levels(r, nodes.len())?;
        let root = Option::<usize>::decode(r)?;
        let live_count = r.take_usize()?;
        if live_count != nodes.iter().filter(|n| n.alive).count() {
            return Err(StorageError::Malformed(
                "reference net live count disagrees with node liveness".into(),
            ));
        }
        let mut net = ReferenceNet {
            config: ReferenceNetConfig {
                epsilon_prime,
                max_parents,
            },
            metric,
            items,
            nodes,
            by_level,
            root,
            live_count,
            build_threads: 1,
            marks: Marks::default(),
        };
        net.check_decoded()?;
        net.recompute_bounds();
        Ok(net)
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

    fn build(values: &[f64]) -> ReferenceNet<f64, FnMetric<fn(&f64, &f64) -> f64>> {
        let mut net = ReferenceNet::new(scalar_metric());
        for &v in values {
            net.insert(v);
        }
        net
    }

    fn brute_force(values: &[f64], q: f64, r: f64) -> Vec<usize> {
        values
            .iter()
            .enumerate()
            .filter(|(_, &v)| (v - q).abs() <= r)
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn empty_net_answers_empty_queries() {
        let net = build(&[]);
        assert!(net.is_empty());
        assert!(net.range_query(&1.0, 100.0).is_empty());
        assert_eq!(net.space_stats().items, 0);
    }

    #[test]
    fn single_item_net() {
        let net = build(&[5.0]);
        assert_eq!(net.len(), 1);
        assert_eq!(net.range_query(&5.2, 0.5), vec![ItemId(0)]);
        assert!(net.range_query(&9.0, 0.5).is_empty());
        net.check_invariants().unwrap();
    }

    #[test]
    fn range_queries_match_brute_force_on_scalars() {
        let values: Vec<f64> = (0..200).map(|i| ((i * 37) % 199) as f64 * 0.75).collect();
        let net = build(&values);
        net.check_invariants().unwrap();
        for &(q, r) in &[
            (10.0, 5.0),
            (75.0, 0.4),
            (0.0, 150.0),
            (149.0, 12.3),
            (50.0, 0.0),
        ] {
            let mut got: Vec<usize> = net.range_query(&q, r).into_iter().map(|i| i.0).collect();
            got.sort_unstable();
            assert_eq!(got, brute_force(&values, q, r), "q={q} r={r}");
        }
    }

    #[test]
    fn duplicates_are_all_retrievable() {
        let values = vec![3.0, 3.0, 3.0, 8.0, 3.0];
        let net = build(&values);
        net.check_invariants().unwrap();
        let mut got: Vec<usize> = net
            .range_query(&3.0, 0.1)
            .into_iter()
            .map(|i| i.0)
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 4]);
    }

    #[test]
    fn invariants_hold_after_many_inserts() {
        let values: Vec<f64> = (0..500)
            .map(|i| (((i * 7919) % 1000) as f64) / 3.0)
            .collect();
        let net = build(&values);
        net.check_invariants().unwrap();
        let stats = net.space_stats();
        assert_eq!(stats.items, 500);
        assert!(stats.entries >= 499, "every non-root node has a parent");
        assert!(stats.levels >= 2);
        assert!(stats.avg_parents >= 1.0);
    }

    #[test]
    fn an_insert_evaluates_each_node_once_at_any_thread_count() {
        use std::sync::{Arc, Mutex};
        type Word = [u8; 8];
        // Random words sit far apart under the Hamming distance, so the
        // root's list is wide enough (>= 64 pending children) for the
        // parallel gather to engage.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut words: Vec<Word> = Vec::new();
        while words.len() < 300 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let word = (state >> 8).to_le_bytes().map(|b| b % 6);
            if !words.contains(&word) {
                words.push(word);
            }
        }
        let build = |threads: usize| {
            let main = std::thread::current().id();
            // Per metric call: the stored word it read, and whether it ran
            // on a worker thread.
            let calls = Arc::new(Mutex::new(Vec::<(Word, bool)>::new()));
            let log = Arc::clone(&calls);
            let metric = FnMetric(move |a: &Word, b: &Word| {
                let off_main = std::thread::current().id() != main;
                log.lock().unwrap().push((*b, off_main));
                a.iter().zip(b).filter(|(x, y)| x != y).count() as f64
            });
            let mut net = ReferenceNet::new(metric).with_build_threads(threads);
            let (mut total, mut off_main) = (0, false);
            for word in &words {
                net.insert(*word);
                let mut evaluated = std::mem::take(&mut *calls.lock().unwrap());
                total += evaluated.len();
                off_main |= evaluated.iter().any(|call| call.1);
                evaluated.sort_unstable();
                let distinct = evaluated.windows(2).all(|w| w[0].0 != w[1].0);
                assert!(distinct, "an insert evaluated a node twice");
            }
            let edges: Vec<_> = (net.nodes.iter())
                .map(|n| (n.level, n.parents.clone(), n.children.clone()))
                .collect();
            (edges, net.by_level.clone(), total, off_main)
        };
        let (edges, levels, calls, off_main) = build(1);
        assert!(!off_main && calls > 0);
        let threaded = build(4);
        assert!(threaded.3, "the parallel gather never engaged");
        assert_eq!((edges, levels, calls), (threaded.0, threaded.1, threaded.2));
    }

    #[test]
    fn max_parents_cap_is_respected() {
        let metric = scalar_metric();
        let config = ReferenceNetConfig::with_epsilon_prime(1.0).with_max_parents(2);
        let mut net = ReferenceNet::with_config(metric, config);
        for i in 0..300 {
            net.insert(((i * 31) % 97) as f64 / 7.0);
        }
        net.check_invariants().unwrap();
        assert!(net.avg_parents() <= 2.0 + 1e-9);
    }

    #[test]
    fn deletion_keeps_structure_consistent_and_queries_correct() {
        let values: Vec<f64> = (0..120).map(|i| ((i * 53) % 113) as f64 * 0.5).collect();
        let mut net = build(&values);
        // Delete every third item, including (eventually) internal references.
        let mut alive: Vec<bool> = vec![true; values.len()];
        for i in (0..values.len()).step_by(3) {
            assert!(net.delete(ItemId(i)));
            alive[i] = false;
            net.check_invariants().unwrap();
        }
        assert!(!net.delete(ItemId(0)), "double delete reports false");
        for &(q, r) in &[(10.0, 4.0), (30.0, 1.0), (0.0, 100.0)] {
            let mut got: Vec<usize> = net.range_query(&q, r).into_iter().map(|i| i.0).collect();
            got.sort_unstable();
            let expected: Vec<usize> = values
                .iter()
                .enumerate()
                .filter(|&(i, &v)| alive[i] && (v - q).abs() <= r)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(got, expected, "q={q} r={r}");
        }
    }

    #[test]
    fn deleting_the_root_promotes_a_child() {
        let mut net = build(&[10.0, 11.0, 50.0, 51.0, 90.0]);
        net.check_invariants().unwrap();
        // Item 0 is the first inserted and therefore the root.
        assert!(net.delete(ItemId(0)));
        net.check_invariants().unwrap();
        assert_eq!(net.len(), 4);
        let mut got: Vec<usize> = net
            .range_query(&50.0, 2.0)
            .into_iter()
            .map(|i| i.0)
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![2, 3]);
    }

    #[test]
    fn delete_everything_then_reinsert() {
        let mut net = build(&[1.0, 2.0, 3.0]);
        for i in 0..3 {
            assert!(net.delete(ItemId(i)));
        }
        assert!(net.is_empty());
        assert!(net.range_query(&2.0, 10.0).is_empty());
        let id = net.insert(7.0);
        assert_eq!(net.range_query(&7.0, 0.1), vec![id]);
        net.check_invariants().unwrap();
    }

    #[test]
    fn query_uses_fewer_distance_computations_than_linear_scan() {
        use crate::metric::CountingMetric;
        use ssr_distance::CallCounter;

        let counter = CallCounter::new();
        let metric = CountingMetric::new(scalar_metric(), counter.clone());
        let mut net = ReferenceNet::new(metric);
        let values: Vec<f64> = (0..2000).map(|i| ((i * 37) % 1999) as f64 * 0.1).collect();
        for &v in &values {
            net.insert(v);
        }
        counter.reset();
        let result = net.range_query(&50.0, 1.0);
        let calls = counter.get();
        assert!(!result.is_empty());
        assert!(
            calls < values.len() as u64 / 2,
            "expected substantial pruning, used {calls} of {} distances",
            values.len()
        );
    }

    /// Family query (lane `l` asks for `queries[l]`) through a recording
    /// probe: no node is visited twice, and every visit's threshold is
    /// checked against the node it was issued for. Returns each lane's
    /// result ids and how many childless references were visited.
    fn audited_family<T: Send + Sync, M: Metric<T>>(
        net: &ReferenceNet<T, M>,
        queries: &[T],
        radius: f64,
    ) -> (Vec<Vec<usize>>, usize) {
        let mut probed = vec![false; net.nodes.len()];
        let mut childless = 0;
        let mut scratch = FamilyScratch::default();
        net.family_query(
            queries.len(),
            radius,
            |item, tau, out| {
                let n = net
                    .items
                    .iter()
                    .position(|x| std::ptr::eq(x, item))
                    .expect("probed items live in the net");
                assert!(!std::mem::replace(&mut probed[n], true), "{n} probed twice");
                let node = &net.nodes[n];
                if node.children.is_empty() {
                    childless += 1;
                    assert_eq!(tau, radius, "childless node {n}");
                }
                assert!(
                    radius <= tau && tau <= radius + net.radius(node.level + 1),
                    "node {n} at level {} probed at {tau} for radius {radius}",
                    node.level
                );
                assert_eq!(out.len(), queries.len());
                for (slot, q) in out.iter_mut().zip(queries) {
                    *slot = net
                        .metric
                        .dist_within(q, item, tau)
                        .unwrap_or(f64::INFINITY);
                }
            },
            &mut scratch,
        );
        let mut ids = vec![Vec::new(); queries.len()];
        for &(lane, id) in scratch.hits() {
            ids[lane].push(id.0);
        }
        assert!(ids.iter().all(|lane| lane.is_sorted()), "hits come by id");
        (ids, childless)
    }

    #[test]
    fn thresholds_are_the_nodes_own_reach_on_scalars() {
        let values: Vec<f64> = (0..400).map(|i| ((i * 37) % 397) as f64 * 0.3).collect();
        for (epsilon_prime, cap) in [(0.5, None), (1.0, Some(2)), (3.0, None)] {
            let mut config = ReferenceNetConfig::with_epsilon_prime(epsilon_prime);
            if let Some(cap) = cap {
                config = config.with_max_parents(cap);
            }
            let mut net = ReferenceNet::with_config(scalar_metric(), config);
            net.extend(values.iter().copied());
            for i in (0..values.len()).step_by(7) {
                net.delete(ItemId(i));
            }
            net.check_invariants().unwrap();
            let mut childless = 0;
            for &(q, r) in &[(10.0, 5.0), (75.0, 0.4), (0.0, 150.0), (60.0, 0.0)] {
                // Near, nearer and far lanes: some decide a subtree the
                // others still have to walk.
                let family = [q, q + 0.3, q - 7.0, q + 45.0];
                let (got, leaves) = audited_family(&net, &family, r);
                for (lane, &q) in family.iter().enumerate() {
                    let expected: Vec<usize> = brute_force(&values, q, r)
                        .into_iter()
                        .filter(|i| i % 7 != 0)
                        .collect();
                    assert_eq!(got[lane], expected, "q={q} r={r} eps'={epsilon_prime}");
                }
                childless += leaves;
            }
            assert!(childless > 0, "the audit never saw a childless reference");
        }
    }

    #[test]
    fn thresholds_are_the_nodes_own_reach_on_levenshtein_windows() {
        use crate::metric::SequenceMetricAdapter;
        use ssr_distance::Levenshtein;
        use ssr_sequence::Symbol;

        // A small alphabet keeps neighbouring windows close enough for a
        // hierarchy several levels deep.
        let mut state = 0x9E37_79B9u32;
        let mut symbols = |len: usize| -> Vec<Symbol> {
            (0..len)
                .map(|_| {
                    state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    Symbol::from_char(b"ACGT"[(state >> 24) as usize % 4] as char)
                })
                .collect()
        };
        let windows: Vec<Vec<Symbol>> = (0..300).map(|_| symbols(8)).collect();
        let metric = SequenceMetricAdapter::new(Levenshtein::new());
        let mut net = ReferenceNet::new(metric.clone());
        net.extend(windows.iter().cloned());
        net.check_invariants().unwrap();
        for radius in [0.0, 1.0, 2.0, 4.0, 8.0] {
            // The framework's shape: the lanes are prefixes of one another.
            let longest = symbols(10);
            let family: Vec<Vec<Symbol>> = (6..=10).map(|len| longest[..len].to_vec()).collect();
            let (got, _) = audited_family(&net, &family, radius);
            for (lane, query) in family.iter().enumerate() {
                let expected: Vec<usize> = (0..windows.len())
                    .filter(|&i| metric.dist(query, &windows[i]) <= radius)
                    .collect();
                assert_eq!(got[lane], expected, "radius={radius} lane={lane}");
            }
        }
    }

    #[test]
    fn bulk_decisions_do_not_rewalk_shared_descendants() {
        // A ladder of diamonds: every rung has two nodes, each a parent of
        // both nodes of the rung below, so the root reaches the bottom along
        // 2^rungs paths. One bulk decision must still touch each node once.
        let rungs = 40;
        let mut net = build(&[0.0]);
        net.set_level(0, rungs + 1);
        for rung in (1..=rungs).rev() {
            for _ in 0..2 {
                let idx = net.items.len();
                net.items.push(0.0);
                net.nodes.push(Node {
                    level: 0,
                    parents: Vec::new(),
                    children: Vec::new(),
                    alive: true,
                    reach: 0.0,
                    list: 0.0,
                });
                net.live_count += 1;
                net.set_level(idx, rung);
                let above: Vec<(usize, f64)> = net.by_level[&(rung + 1)]
                    .iter()
                    .map(|&p| (p, 0.0))
                    .collect();
                net.attach(idx, above);
            }
        }
        net.check_invariants().unwrap();
        let everything = 2 * rungs as usize + 1;
        // Far inside the ball, far outside it, and a family with a lane of
        // each: the root's one visit decides the whole net for every lane.
        for (family, radius, sizes) in [
            (vec![0.0], 1e15, vec![everything]),
            (vec![1e15], 1.0, vec![0]),
            (vec![0.0, 1e15, 0.0], 1e13, vec![everything, 0, everything]),
        ] {
            let mut visits = 0;
            let mut scratch = FamilyScratch::default();
            net.family_query(
                family.len(),
                radius,
                |item, tau, out| {
                    visits += 1;
                    for (slot, q) in out.iter_mut().zip(&family) {
                        *slot = net
                            .metric
                            .dist_within(q, item, tau)
                            .unwrap_or(f64::INFINITY);
                    }
                },
                &mut scratch,
            );
            assert_eq!(visits, 1);
            let found: Vec<usize> = (0..family.len())
                .map(|lane| scratch.hits().iter().filter(|hit| hit.0 == lane).count())
                .collect();
            assert_eq!(found, sizes);
        }
    }

    #[test]
    #[should_panic(expected = "epsilon_prime must be positive")]
    fn invalid_epsilon_prime_is_rejected() {
        let _ = ReferenceNet::with_config(
            scalar_metric(),
            ReferenceNetConfig {
                epsilon_prime: 0.0,
                max_parents: None,
            },
        );
    }

    #[test]
    fn item_lookup_respects_liveness() {
        let mut net = build(&[4.0, 5.0]);
        assert_eq!(net.item(ItemId(1)), Some(&5.0));
        net.delete(ItemId(1));
        assert_eq!(net.item(ItemId(1)), None);
        assert_eq!(net.item(ItemId(7)), None);
    }
}
