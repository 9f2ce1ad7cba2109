//! # ssr-sequence
//!
//! Sequence substrate for the subsequence-retrieval framework of
//! Zhu, Kollios and Athitsos (VLDB 2012).
//!
//! The paper treats two families of "sequences":
//!
//! * **strings** over a finite alphabet `Σ` (DNA with `|Σ| = 4`, proteins with
//!   `|Σ| = 20`, …), and
//! * **time series** whose elements live in a (possibly infinite,
//!   multi-dimensional) space, e.g. pitch values in `0..=11` or 2-D trajectory
//!   points.
//!
//! This crate provides:
//!
//! * the [`Element`] trait — the minimal contract an element type must satisfy
//!   so that the distance functions in `ssr-distance` can be generic over it
//!   (a ground distance and a gap element for ERP-style distances);
//! * concrete element types: [`Symbol`] for strings, [`Pitch`] for bounded
//!   integer time series, [`Point2D`] / [`Point3D`] for trajectories, and a
//!   blanket implementation for `f64` scalars;
//! * [`Sequence`] and [`SequenceDataset`] containers with stable identifiers;
//! * a flat [`ElementArena`] ([`arena`]) owning every dataset element in one
//!   contiguous buffer — the single resident copy that windows and index
//!   items resolve against;
//! * fixed-length window partitioning ([`window`]) used for the database side
//!   of the framework (step 1 of Section 7 of the paper); windows are
//!   `(sequence, start, len)` views into the arena, not owned vectors;
//! * query segment families ([`segment`]) used for the query side
//!   (step 3 of Section 7): borrowed, one per query offset;
//! * alphabet helpers ([`alphabet`]) for DNA, protein and pitch data.

pub mod alphabet;
pub mod arena;
pub mod element;
pub mod segment;
pub mod sequence;
pub mod storage;
pub mod window;

pub use alphabet::{Alphabet, DNA_ALPHABET, PITCH_ALPHABET, PROTEIN_ALPHABET};
pub use arena::ElementArena;
pub use element::{Element, Pitch, Point2D, Point3D, Symbol};
pub use segment::{segment_count, segment_families, SegmentFamily, SegmentSpec};
pub use sequence::{Sequence, SequenceDataset, SequenceId, SequenceView};
pub use window::{partition_windows, partition_windows_dataset, Window, WindowId, WindowStore};
