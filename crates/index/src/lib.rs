//! # ssr-index
//!
//! Metric index structures for range similarity queries, as used by step 4 of
//! the subsequence-retrieval framework (Zhu, Kollios, Athitsos — VLDB 2012):
//!
//! * [`ReferenceNet`] — the paper's contribution (Section 6 and Appendix A): a
//!   hierarchical, linear-space structure whose references at level `i` have
//!   radius `ǫ'·2^i`, where every node may have multiple parents (optionally
//!   capped at `nummax`), and whose range queries accept or prune whole
//!   reference lists and whole "derived" subtrees using the triangle
//!   inequality (Lemma 4).
//! * [`CoverTree`] — the tree baseline (Beygelzimer, Kakade, Langford): same
//!   levelled structure but exactly one parent per node.
//! * [`MvReferenceIndex`] — reference-based indexing with Maximum-Variance
//!   pivot selection (Venkateswaran et al.), the "MV-k" baseline of
//!   Figures 8–11: a `k × n` pivot table pruned with the triangle inequality.
//! * [`LinearScan`] — the naive baseline every figure normalises against.
//!
//! All indexes are generic over the item type `T` and a [`Metric`]; distance
//! evaluations can be counted by wrapping the metric in a [`CountingMetric`],
//! which is how the pruning ratios of Figures 8–11 are measured.
//!
//! Items are whatever the metric can compare — owned vectors in tests and
//! experiments, but the framework stores **id handles**: `WindowId`s that a
//! [`WindowSliceMetric`] resolves to borrowed slices of a shared element
//! arena, so the index owns one machine word per window instead of a cloned
//! element vector. [`RangeIndex::family_query`] is the one range-query loop of
//! each structure: it answers a whole family of probes — of any
//! representation, e.g. the raw `&[E]` query segments that start at one query
//! offset — visiting each node once for all of them;
//! [`RangeIndex::range_query`] over a stored item is its one-lane case.

pub mod cover_tree;
mod hierarchy;
pub mod linear_scan;
pub mod metric;
pub mod mv_reference;
mod par;
pub mod reference_net;
pub mod traits;

pub use cover_tree::CoverTree;
pub use linear_scan::LinearScan;
pub use metric::{CountingMetric, FnMetric, Metric, SequenceMetricAdapter, WindowSliceMetric};
pub use mv_reference::MvReferenceIndex;
pub use reference_net::{ReferenceNet, ReferenceNetConfig};
pub use traits::{FamilyScratch, ItemId, RangeIndex, SpaceStats};
