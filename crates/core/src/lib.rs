//! # ssr-core
//!
//! The subsequence-matching framework of Zhu, Kollios and Athitsos
//! (VLDB 2012), built on the substrates in `ssr-sequence`, `ssr-distance` and
//! `ssr-index`.
//!
//! The framework runs in five steps (Section 7 of the paper):
//!
//! 1. **Dataset segmentation** — every database sequence is partitioned into
//!    fixed windows of length `l = λ/2` ([`ssr_sequence::partition_windows`]).
//! 2. **Index construction** — the windows are inserted into a metric index
//!    (by default the Reference Net; Cover Tree, MV reference-based indexing
//!    and a linear scan are available for comparison).
//! 3. **Query segmentation** — all query segments with lengths in
//!    `[λ/2 − λ0, λ/2 + λ0]` are extracted.
//! 4. **Range query** — each segment is matched against the indexed windows
//!    within radius `ε`.
//! 5. **Candidate generation and retrieval** — matched (segment, window) pairs
//!    are chained, expanded into candidate subsequence pairs and verified with
//!    the actual distance, answering one of three query types:
//!    *Type I* (all similar pairs), *Type II* (longest similar subsequence) and
//!    *Type III* (nearest pair).
//!
//! The distance plugged in must be **consistent** for the filtering to be
//! complete (Lemma 3) and **metric** for the index to be usable; the builder
//! enforces the latter and warns about the former via
//! [`FrameworkConfig::validate_distance`].

pub mod batch;
pub mod brute;
pub mod candidates;
pub mod client;
pub mod config;
pub mod database;
pub mod expand;
pub mod live;
pub mod parallel;
pub mod query;
pub mod serve;
pub mod storage;
pub mod wire;

pub use batch::{BatchOutcome, QueryEngine};
pub use brute::{all_similar_pairs, longest_similar_pair, nearest_pair, BruteConstraints};
pub use candidates::{build_regions, Region, SegmentMatch};
pub use client::{backoff_delay, ClientConfig, ClientError, WireClient};
pub use config::{FrameworkConfig, FrameworkError, IndexBackend};
pub use database::{DatabaseBuilder, SegmentScan, SubsequenceDatabase};
pub use expand::{Expansion, Pair};
pub use live::{load_with_wal, wal_path_for, LiveDatabase, WalOp};
pub use parallel::{parallel_map, resolve_threads, ShardStats, ShardedMemo};
pub use query::{QueryOutcome, QueryStats, StageTimings, SubsequenceMatch};
pub use serve::{Client, ServeConfig, Server};
pub use storage::SnapshotManifest;
pub use wire::{
    QuerySpec, Request, Response, ServerStatsSnapshot, WireError, WireOutcome, WIRE_VERSION,
};
