//! # ssr-bench
//!
//! The crate behind the two binaries: `figures`, which regenerates every
//! figure of the paper's evaluation (Section 8), and `ssr`, the command-line
//! tool that builds, inspects, mutates, serves and queries snapshots. The
//! library holds what they share: the figure harness and datasets, table
//! printing, JSON rendering and the Prometheus exposition check.
//!
//! `figures` is driven entirely by synthetic stand-ins for the paper's
//! PROTEINS / SONGS / TRAJ datasets (generated by `ssr-datagen`); absolute
//! numbers therefore differ from the paper, but the quantities reported —
//! index node counts, parents per window, estimated megabytes, and the
//! percentage of distance computations relative to a naive linear scan — are
//! machine-independent and directly comparable in *shape*.

pub mod datasets;
pub mod harness;
pub mod json;
pub mod promcheck;
pub mod report;

pub use datasets::{protein_windows, song_windows, traj_windows, Scale};
pub use harness::{
    build_index, distance_histogram, pruning_ratio, IndexChoice, IndexHandle, QuerySet,
};
pub use report::{format_row, print_header, print_table, Table};
