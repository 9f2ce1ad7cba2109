//! # ssr-distance
//!
//! Sequence distance functions for the subsequence-retrieval framework of
//! Zhu, Kollios and Athitsos (VLDB 2012), together with the two properties the
//! framework cares about:
//!
//! * **metricity** — symmetry and the triangle inequality, which enable
//!   triangle-inequality pruning and metric indexing (Section 3.3);
//! * **consistency** — for every subsequence `SX` of `X` there is a
//!   subsequence `SQ` of `Q` with `δ(SQ, SX) ≤ δ(Q, X)` (Definition 1), which
//!   is what makes window-based filtering complete (Lemmas 1–3).
//!
//! | Distance | Metric | Consistent |
//! |----------------------|--------|------------|
//! | [`Euclidean`]        | yes    | yes        |
//! | [`Hamming`]          | yes    | yes        |
//! | [`Levenshtein`]      | yes    | yes        |
//! | [`Erp`]              | yes    | yes        |
//! | [`DiscreteFrechet`]  | yes    | yes        |
//! | [`Dtw`]              | **no** | yes        |
//!
//! All distances are generic over the element type through
//! [`ssr_sequence::Element`], whose `ground_distance` supplies the per-coupling
//! cost.
//!
//! ## Threshold-aware evaluation
//!
//! Every measure implements [`SequenceDistance::distance_within`], an exact
//! threshold kernel that returns `Some(d)` precisely when `d ≤ τ`: a cheap
//! lower bound first ([`lower_bounds`]), then a Ukkonen-style banded dynamic
//! program (Levenshtein, and ERP under integral gap costs) with row-minimum
//! early abandoning (all DP measures), or a running-sum abandon (Euclidean,
//! Hamming). [`SequenceDistance::end_table`] runs the same program once over
//! two inputs and keeps the distance of every wanted pair of their prefixes —
//! what verification needs from one pair of start points, and
//! [`SequenceDistance::free_start_column`] runs it once over a whole text
//! with a free start, bounding the distance of every substring to a pattern
//! (Levenshtein, ERP). Scratch rows live
//! in a per-thread [`DistanceWorkspace`], so the hot loop performs no
//! allocation. The work is observable through deterministic per-thread
//! tallies ([`dp_cells_thread_total`], [`lower_bound_prunes_thread_total`]).
//! The ablation is a measure of its own: [`Unpruned`] runs the wrapped
//! kernel's full program and thresholds the finished value, so it answers
//! exactly as the kernel does at the unpruned cost.

pub mod counting;
pub mod dtw;
pub mod end_table;
pub mod erp;
pub mod euclidean;
pub mod frechet;
pub mod hamming;
pub mod levenshtein;
pub mod lower_bounds;
pub mod traits;
mod unpruned;
pub mod workspace;

pub use counting::{
    dp_cells_thread_total, lower_bound_prunes_thread_total, record_dp_cells,
    record_lower_bound_prune, CallCounter, CellCounter,
};
pub use dtw::Dtw;
pub use end_table::EndSpec;
pub use erp::Erp;
pub use euclidean::Euclidean;
pub use frechet::DiscreteFrechet;
pub use hamming::Hamming;
pub use levenshtein::Levenshtein;
pub use lower_bounds::{
    erp_gap_sum, erp_lower_bound, erp_lower_bound_from_sums, length_difference_lower_bound,
    scan_gap_costs, scan_gap_costs_with, GapCostScan, EXACT_INT_SUM_LIMIT,
};
pub use traits::{DistanceProperties, SequenceDistance};
pub use unpruned::Unpruned;
pub use workspace::DistanceWorkspace;
