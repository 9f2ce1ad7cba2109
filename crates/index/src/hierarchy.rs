//! What the two levelled metric trees, [`crate::ReferenceNet`] and
//! [`crate::CoverTree`], share — level `i` has radius `ǫ'·2^i`, edges
//! descend, each node keeps the bound its edges add up to — and the code
//! that needs only that: the family walk, the bounds and the checks.
//!
//! A family query is a frontier walk from the root. A node is visited once
//! every node listing it has pushed to it (Kahn order), so all decisions
//! from above have arrived. Its slot, stamped with the walk so nothing is
//! cleared between walks, holds that count and two lane masks of
//! ⌈lanes/64⌉ words: `decided` (the first decision stands; an accepting one
//! has already made a hit) and `swept` (everything derived is decided).
//!
//! A visited node with an undecided lane is probed once at `radius + reach`
//! and each such lane takes the Lemma 4 decisions: the node, then all it
//! derives (`reach`) or its list (`list`), accepted or excluded. A
//! reach-accept enumerates the derived nodes as hits; a reach-exclude only
//! sweeps. The node then pushes its swept lanes and list decisions to each
//! child — unless it is swept for every lane: then each child it holds back
//! is decided for every lane and would not be probed. So no excluded subtree
//! is touched and a probe costs what it visits, yet the probe set is a
//! level-by-level sweep's: a node is probed iff some lane has not decided it
//! once its ancestors are visited. Two decisions on one node can only
//! disagree by rounding (each is a triangle-inequality certificate); the one
//! that reaches it first stands.

use std::collections::BTreeMap;

use ssr_storage::{Decode, StorageError};

use crate::traits::{FamilyScratch, ItemId};

/// What the shared code reads of one node.
pub(crate) struct Node<'a, T> {
    pub(crate) item: &'a T,
    pub(crate) level: i32,
    pub(crate) children: &'a [usize],
    /// The nodes whose lists hold this one.
    pub(crate) parents: &'a [usize],
    /// Upper bounds on the distance from this node to anything derived from
    /// it, and to the members of its direct list, as the walk decides on
    /// them.
    pub(crate) reach: f64,
    pub(crate) list: f64,
}

/// A levelled hierarchy as its tree presents it. Node ids are item ids;
/// dead nodes (deleted items) keep their id and have no edges.
pub(crate) trait Levelled<T> {
    fn root(&self) -> Option<usize>;
    /// Number of nodes, dead ones included.
    fn node_count(&self) -> usize;
    fn node(&self, n: usize) -> Node<'_, T>;
    fn alive(&self, n: usize) -> bool;
    fn by_level(&self) -> &BTreeMap<i32, Vec<usize>>;
    /// Radius `ǫ'·2^level` associated with a level.
    fn radius(&self, level: i32) -> f64;

    /// The `(reach, list)` bound of every node from the edges and levels
    /// alone — no distance call: `list` is the longest edge to a child,
    /// `ǫ'·2^{level(c)+1}`, and `reach` the longest such edge plus the
    /// child's reach; zero for a childless node. Walking the level buckets
    /// upwards finalises every child before a parent reads it.
    fn structural_bounds(&self) -> Vec<(f64, f64)> {
        let mut bounds = vec![(0.0f64, 0.0f64); self.node_count()];
        for &n in self.by_level().values().flatten() {
            let (mut reach, mut list) = (0.0f64, 0.0f64);
            for &c in self.node(n).children {
                let edge = self.radius(self.node(c).level + 1);
                list = list.max(edge);
                reach = reach.max(edge + bounds[c].0);
            }
            bounds[n] = (reach, list);
        }
        bounds
    }

    /// Whether a family walk visits every live node and no dead one: every
    /// live node is reachable from the root, and each reachable node is
    /// listed by reachable nodes exactly as often as it counts parents, so
    /// it becomes ready once they have all pushed.
    fn walkable(&self) -> bool {
        let mut pushes = vec![0usize; self.node_count()];
        let mut seen = vec![false; self.node_count()];
        let mut stack: Vec<usize> = self.root().into_iter().collect();
        while let Some(n) = stack.pop() {
            if !std::mem::replace(&mut seen[n], true) {
                for &c in self.node(n).children {
                    pushes[c] += 1;
                    stack.push(c);
                }
            }
        }
        (0..self.node_count()).all(|n| {
            seen[n] == self.alive(n) && (!seen[n] || pushes[n] == self.node(n).parents.len())
        })
    }

    /// The checks a decoded hierarchy must pass before anything follows its
    /// edges. Family walks and bulk decisions go down child lists and bound
    /// maintenance goes up parent lists; strictly descending levels are what
    /// make those walks end, and [`Self::walkable`] what makes a family walk
    /// see every live node.
    fn check_decoded(&self) -> Result<(), StorageError> {
        let len = self.node_count();
        let malformed = |what: &str| Err(StorageError::Malformed(what.to_string()));
        let in_range = |n| {
            let node = self.node(n);
            node.parents.iter().chain(node.children).all(|&e| e < len)
        };
        if !(0..len).all(in_range) {
            return malformed("hierarchy edge index out of range");
        }
        let descends = |n| {
            let node = self.node(n);
            node.parents
                .iter()
                .all(|&p| self.node(p).level > node.level)
                && node
                    .children
                    .iter()
                    .all(|&c| self.node(c).level < node.level)
        };
        if !(0..len).all(descends) {
            return malformed("hierarchy edge does not descend a level");
        }
        if self.root().is_some_and(|root| root >= len) {
            return malformed("hierarchy root out of range");
        }
        if !self.walkable() {
            return malformed("hierarchy walk misses a live node or reaches a dead one");
        }
        Ok(())
    }

    /// The invariants both trees keep, for tests and debug assertions: every
    /// edge of a live node comes from a strictly higher level, spans at most
    /// `ǫ'·2^{child_level + 1}` and is listed at both ends; a family walk
    /// visits every live node and no dead one ([`Self::walkable`]); every
    /// stored `reach` is the bottom-up pass's, and nothing derived from a
    /// node lies farther from it than its `reach`.
    fn check_levels(&self, dist: impl Fn(&T, &T) -> f64) -> Result<(), String> {
        if !self.walkable() {
            return Err("the walk from the root misses a live node or reaches a dead one".into());
        }
        let bounds = self.structural_bounds();
        for n in (0..self.node_count()).filter(|&n| self.alive(n)) {
            let node = self.node(n);
            for &p in node.parents {
                let parent = self.node(p);
                let (d, bound) = (dist(parent.item, node.item), self.radius(node.level + 1));
                if parent.level <= node.level || d > bound + 1e-9 || !parent.children.contains(&n) {
                    return Err(format!(
                        "edge {p} -> {n} spans {d} of {bound}, or is one-sided"
                    ));
                }
            }
            let reach = bounds[n].0;
            if node.reach != reach {
                return Err(format!(
                    "node {n} stores reach {}, the bottom-up pass gives {reach}",
                    node.reach
                ));
            }
            let mut seen = vec![false; self.node_count()];
            let mut stack = node.children.to_vec();
            while let Some(x) = stack.pop() {
                if std::mem::replace(&mut seen[x], true) {
                    continue;
                }
                let d = dist(node.item, self.node(x).item);
                if d > reach + 1e-9 {
                    return Err(format!(
                        "node {x} derives from {n} at distance {d}, beyond its reach {reach}"
                    ));
                }
                stack.extend(self.node(x).children);
            }
        }
        Ok(())
    }

    /// Answers a family query of `lanes` lanes (see the module doc); the
    /// hits are left in `scratch`.
    fn family_walk(
        &self,
        lanes: usize,
        radius: f64,
        mut probe: impl FnMut(&T, f64, &mut [f64]),
        scratch: &mut FamilyScratch,
    ) {
        scratch.begin(lanes);
        let FamilyScratch {
            dists,
            hits,
            stack,
            touched,
            slots,
        } = scratch;
        let words = slots.start(self.node_count(), lanes);
        // The lanes of mask word `w`.
        let full = |w: usize| match lanes - 64 * w {
            rest @ 1..64 => (1 << rest) - 1,
            _ => u64::MAX,
        };
        let Some(root) = self.root() else { return };
        slots.open(root, touched);
        // Breadth-first: the ready nodes are visited in the order they got
        // ready, which keeps the probes close to level order and to the
        // store's; a depth-first stack reads the items in a scattered order
        // and costs a dense walk ~7 % of its time.
        slots.ready.clear();
        slots.ready.push(root);
        let mut next = 0;
        while let Some(&n) = slots.ready.get(next) {
            next += 1;
            let here = self.node(n);
            let at = slots.offset(n);
            let (decided, swept) = (at + DECIDED, at + DECIDED + words);
            if (0..words).any(|w| full(w) & !slots.words[decided + w] != 0) {
                probe(here.item, radius + here.reach, dists);
            }
            // Each lane still undecided takes its decisions; the list ones
            // wait in `list` for the children.
            let mut carries = false;
            for w in 0..words {
                let mut open = full(w) & !slots.words[decided + w];
                let (mut sweep, mut accept, mut exclude) = (0, 0, 0);
                while open != 0 {
                    let lane = 64 * w + open.trailing_zeros() as usize;
                    let (bit, d) = (open & open.wrapping_neg(), dists[lane]);
                    open &= open - 1;
                    if d <= radius {
                        hits.push((lane, ItemId(n)));
                    }
                    if d + here.reach <= radius {
                        sweep |= bit;
                        self.accept_derived(n, lane, slots, stack, hits, touched);
                    } else if d + here.list <= radius {
                        accept |= bit;
                    }
                    if d - here.reach > radius {
                        sweep |= bit;
                    } else if d - here.list > radius {
                        exclude |= bit;
                    }
                }
                slots.words[decided + w] |= full(w);
                slots.words[swept + w] |= sweep;
                (slots.list[w], slots.list[words + w]) = (accept, exclude);
                carries |= slots.words[swept + w] | accept | exclude != 0;
            }
            if (0..words).all(|w| full(w) & !slots.words[swept + w] == 0) {
                continue;
            }
            for &c in here.children {
                let to = slots.open(c, touched);
                if carries {
                    for w in 0..words {
                        let from = slots.words[swept + w];
                        let (accept, exclude) = (slots.list[w], slots.list[words + w]);
                        let fresh = (from | accept | exclude) & !slots.words[to + DECIDED + w];
                        slots.words[to + DECIDED + w] |= fresh;
                        slots.words[to + DECIDED + words + w] |= from;
                        let mut accepted = fresh & accept;
                        while accepted != 0 {
                            hits.push((64 * w + accepted.trailing_zeros() as usize, ItemId(c)));
                            accepted &= accepted - 1;
                        }
                    }
                }
                slots.words[to + PUSHES] += 1;
                if slots.words[to + PUSHES] == self.node(c).parents.len() as u64 {
                    slots.ready.push(c);
                }
            }
        }
        scratch.finish();
    }

    /// A reach-accept of `lane` at `start`: everything derived from it that
    /// the lane has not decided joins the lane's hits, and the lane is swept
    /// below it. A node already swept for the lane is not entered again, so
    /// a lane's enumerations together walk each edge at most once and cost
    /// what they output.
    fn accept_derived(
        &self,
        start: usize,
        lane: usize,
        slots: &mut Slots,
        stack: &mut Vec<usize>,
        hits: &mut Vec<(usize, ItemId)>,
        touched: &mut usize,
    ) {
        let (w, bit) = (lane / 64, 1 << (lane % 64));
        let swept = DECIDED + slots.lane_words;
        stack.push(start);
        while let Some(n) = stack.pop() {
            let at = slots.open(n, touched);
            if slots.words[at + swept + w] & bit != 0 {
                continue;
            }
            slots.words[at + swept + w] |= bit;
            for &c in self.node(n).children {
                let to = slots.open(c, touched);
                if slots.words[to + DECIDED + w] & bit == 0 {
                    slots.words[to + DECIDED + w] |= bit;
                    hits.push((lane, ItemId(c)));
                }
                stack.push(c);
            }
        }
    }
}

/// Decodes the level buckets of a hierarchy of `nodes` nodes: each level
/// once, naming only nodes that exist.
pub(crate) fn decode_levels(
    r: &mut ssr_storage::Reader<'_>,
    nodes: usize,
) -> Result<BTreeMap<i32, Vec<usize>>, StorageError> {
    let mut by_level = BTreeMap::new();
    for (level, ids) in Vec::<(i32, Vec<usize>)>::decode(r)? {
        if ids.iter().any(|&n| n >= nodes) || by_level.insert(level, ids).is_some() {
            return Err(StorageError::Malformed(format!(
                "hierarchy level {level} repeats or names an unknown node"
            )));
        }
    }
    Ok(by_level)
}

/// The per-node slots of the family walks (see the module doc).
#[derive(Clone, Debug, Default)]
pub(crate) struct Slots {
    walk: u64,
    /// Words in one lane mask.
    lane_words: usize,
    /// Per node, `2 + 2·lane_words` words: the walk that last wrote the
    /// slot, how many of the node's parents have pushed to it in that walk,
    /// then its `decided` and its `swept` mask.
    words: Vec<u64>,
    /// The visited node's list decisions: accepted lanes, excluded lanes.
    list: Vec<u64>,
    /// The nodes all of whose parents have pushed, in that order.
    ready: Vec<usize>,
}

const PUSHES: usize = 1;
const DECIDED: usize = 2;

impl Slots {
    /// Starts a walk of `lanes` lanes over `nodes` nodes, and returns the
    /// words in one lane mask. Every slot an earlier walk wrote is stale
    /// from here on; a walk of another mask width clears them all first,
    /// since its slots fall elsewhere.
    fn start(&mut self, nodes: usize, lanes: usize) -> usize {
        let lane_words = lanes.div_ceil(64);
        if lane_words != self.lane_words {
            self.words.clear();
            self.lane_words = lane_words;
        }
        self.walk += 1;
        let len = (2 + 2 * lane_words) * nodes;
        if self.words.len() < len {
            self.words.resize(len, 0);
        }
        self.list.resize(2 * lane_words, 0);
        lane_words
    }

    /// The offset of `n`'s slot.
    fn offset(&self, n: usize) -> usize {
        (2 + 2 * self.lane_words) * n
    }

    /// The offset of `n`'s slot; a stale slot is cleared and counted as
    /// touched first.
    fn open(&mut self, n: usize, touched: &mut usize) -> usize {
        let at = self.offset(n);
        if self.words[at] != self.walk {
            self.words[at] = self.walk;
            // A loop, not `fill`: a slot is a few words, and a call out to
            // `memset` per node costs more than the walk's own work.
            for word in at + 1..at + 2 + 2 * self.lane_words {
                self.words[word] = 0;
            }
            *touched += 1;
        }
        at
    }
}
