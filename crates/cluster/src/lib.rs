//! `ssr-cluster`: health-checked multi-node routing over `ssr serve`
//! replicas.
//!
//! One [`ClusterClient`] fronts N servers that each hold the same snapshot.
//! It routes every request by seeded power-of-two-choices over the healthy
//! nodes, quarantines a misbehaving node behind a per-node circuit
//! [`Breaker`], fails idempotent requests over to the next healthy node
//! under the per-op deadline, and — when configured — hedges a slow request
//! with a second copy to a different node, taking whichever typed success
//! lands first.
//!
//! Everything chance-shaped is a pure function of a seed: the candidate
//! draws ([`ssr_fault::mix64`] of a monotonic ticket), the breaker-cooldown
//! jitter (mix of the trip ordinal), and therefore — under the seeded
//! node-kill replay in this crate's `tests/cluster.rs`, which kills and
//! revives nodes at fixed request indices via [`ssr_fault::kill_node`] — the
//! exact failover, hedge and breaker-trip counts of a whole run. Replaying a
//! seed replays the incident.
//!
//! The layer is purely client-side: servers do not know they are in a
//! cluster, and nothing here touches the retrieval pipeline. Consistency is
//! the operator's bargain — all nodes serve the same immutable snapshot —
//! so any node's answer is *the* answer, which is what makes failover and
//! hedging safe for idempotent requests in the first place.
//!
//! Progress over the global `ssr_cluster_*` metric families is mirrored
//! into [`ssr_obs::global`], so a `/metrics` scrape of the *client* process
//! shows `ssr_cluster_requests_total`, `ssr_cluster_failovers_total`,
//! `ssr_cluster_hedges_total`, `ssr_cluster_breaker_trips_total{node=...}`
//! and friends next to everything else.

pub mod breaker;
pub mod client;

pub use breaker::{Breaker, BreakerConfig, BreakerState};
pub use client::{ClusterClient, ClusterConfig, ClusterCounters, ClusterError, NodeHealth};
