//! Batched, parallel query execution.
//!
//! The five-step pipeline is embarrassingly parallel across queries: every
//! query independently segments itself (step 3), filters against the shared
//! window index (step 4) and chains + verifies candidates (step 5). The
//! [`QueryEngine`] exploits that by fanning a batch of queries out over a
//! scoped worker pool ([`crate::parallel`]); the workers share nothing but
//! the read-only database.
//!
//! Determinism is a hard guarantee: each query is executed by exactly one
//! worker with the same per-query code path as the sequential API, and index
//! distance calls are attributed through a thread-local tally
//! ([`ssr_distance::CallCounter::thread_total`]), so a
//! batch produces **bit-identical results and statistics at every thread
//! count** — `threads = 1` simply runs the fan-out loop inline. Exact
//! duplicate queries (common under multi-user traffic) are detected up
//! front, executed once and replicated into their original batch positions.

use std::time::Instant;

use ssr_distance::SequenceDistance;
use ssr_sequence::{Element, Sequence};

use crate::database::SubsequenceDatabase;
use crate::parallel::{parallel_map, resolve_threads};
use crate::query::{ExecCtx, QueryOutcome, QueryStats, StageTimings, SubsequenceMatch};

/// The result of a batch together with its execution accounting.
#[derive(Clone, Debug)]
pub struct BatchOutcome<R> {
    /// One outcome per input query, in input order. Duplicate queries share
    /// the outcome of their first occurrence.
    pub outcomes: Vec<QueryOutcome<R>>,
    /// Per-stage wall-clock summed over all executed queries (CPU time, not
    /// elapsed time — with `threads > 1` this exceeds [`Self::wall_ns`]).
    pub timings: StageTimings,
    /// End-to-end wall-clock of the batch, including fan-out overhead.
    pub wall_ns: u64,
    /// Resolved number of worker threads used.
    pub threads: usize,
    /// Number of distinct queries actually executed after deduplication.
    pub unique_queries: usize,
    /// Always `0`: the engine caches nothing between verifications. Kept
    /// only because `benchmark/src/layers.rs` reads it.
    pub memo_entries: usize,
}

impl<R> BatchOutcome<R> {
    /// Sums the per-query statistics into whole-batch totals. Deduplicated
    /// queries are counted once per input occurrence, mirroring `outcomes`.
    pub fn total_stats(&self) -> QueryStats {
        let mut total = QueryStats::default();
        for outcome in &self.outcomes {
            total.merge(&outcome.stats);
        }
        total
    }
}

/// A parallel, batched front-end to a [`SubsequenceDatabase`].
///
/// The engine borrows the database immutably, so any number of engines (and
/// plain [`SubsequenceDatabase::query_type1`]-style calls) can coexist.
///
/// ```
/// use ssr_core::{FrameworkConfig, QueryEngine, SubsequenceDatabase};
/// use ssr_distance::Levenshtein;
/// use ssr_sequence::{Sequence, Symbol};
///
/// fn seq(text: &str) -> Sequence<Symbol> {
///     Sequence::new(text.chars().map(Symbol::from_char).collect())
/// }
///
/// let config = FrameworkConfig::new(8).with_max_shift(1);
/// let db = SubsequenceDatabase::builder(config, Levenshtein::new())
///     .add_sequence(seq("MMMMMMMMACDEFGHIKLMNPQRSTVWYMMMMMMMM"))
///     .build()
///     .unwrap();
/// let queries = vec![
///     seq("YYYYACDEFGHIKLMNPQRSTVWYYYYY"),
///     seq("QQQQQQQQQQQQQQQQQQQQ"),
/// ];
/// let batch = QueryEngine::new(&db).with_threads(2).batch_type2(&queries, 3.0);
/// assert_eq!(batch.outcomes.len(), 2);
/// assert!(batch.outcomes[0].result.is_some());
/// assert!(batch.outcomes[1].result.is_none());
/// ```
pub struct QueryEngine<'db, E: Element, D: SequenceDistance<E>> {
    db: &'db SubsequenceDatabase<E, D>,
    threads: usize,
    slow_query_ns: Option<u64>,
}

impl<'db, E: Element + Send + Sync, D: SequenceDistance<E>> QueryEngine<'db, E, D> {
    /// Creates an engine over `db`, initially sequential (`threads = 1`).
    pub fn new(db: &'db SubsequenceDatabase<E, D>) -> Self {
        QueryEngine {
            db,
            threads: 1,
            slow_query_ns: None,
        }
    }

    /// Sets the worker-thread count: `0` means one worker per available
    /// hardware thread, `1` runs the batch inline on the caller. Results are
    /// bit-identical at every setting.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables the slow-query log: every executed query is span-traced, its
    /// spans flushed into the global [`ssr_obs::trace_ring`], and a query
    /// slower than `threshold_ms` dumps its span tree and statistics to
    /// stderr. Tracing records deterministic trace ids (the query's slot in
    /// its batch) and never changes results or counters — only wall-clock
    /// observations ride along. `None` (the default) skips all of it.
    pub fn with_slow_query_log(mut self, threshold_ms: Option<u64>) -> Self {
        self.slow_query_ns = threshold_ms.map(|ms| ms.saturating_mul(1_000_000));
        self
    }

    /// The database the engine queries.
    pub fn database(&self) -> &'db SubsequenceDatabase<E, D> {
        self.db
    }

    /// The resolved worker-thread count batches will use.
    pub fn threads(&self) -> usize {
        resolve_threads(self.threads)
    }

    /// **Type I batch** — range query over every query in the batch (see
    /// [`SubsequenceDatabase::query_type1`]).
    pub fn batch_type1(
        &self,
        queries: &[Sequence<E>],
        epsilon: f64,
    ) -> BatchOutcome<Vec<SubsequenceMatch>> {
        self.run(queries, |query, ctx| {
            self.db.query_type1_ctx(query, epsilon, ctx)
        })
    }

    /// **Type II batch** — longest similar subsequence per query (see
    /// [`SubsequenceDatabase::query_type2`]).
    pub fn batch_type2(
        &self,
        queries: &[Sequence<E>],
        epsilon: f64,
    ) -> BatchOutcome<Option<SubsequenceMatch>> {
        self.run(queries, |query, ctx| {
            self.db.query_type2_ctx(query, epsilon, ctx)
        })
    }

    /// **Type III batch** — nearest pair per query (see
    /// [`SubsequenceDatabase::query_type3`]).
    pub fn batch_type3(
        &self,
        queries: &[Sequence<E>],
        epsilon_max: f64,
        epsilon_increment: f64,
    ) -> BatchOutcome<Option<SubsequenceMatch>> {
        self.run(queries, |query, ctx| {
            self.db
                .query_type3_ctx(query, epsilon_max, epsilon_increment, ctx)
        })
    }

    /// Shared batch driver: dedup exact-duplicate queries, fan the distinct
    /// ones out over the worker pool, merge timings and replicate outcomes
    /// back into input order.
    fn run<R, F>(&self, queries: &[Sequence<E>], run_one: F) -> BatchOutcome<R>
    where
        R: Send + Clone,
        F: Fn(&Sequence<E>, &mut ExecCtx) -> QueryOutcome<R> + Sync,
    {
        let threads = self.threads();
        let started = Instant::now();

        // Exact-duplicate detection by element comparison (elements are not
        // hashable in general — trajectory points are floats). Quadratic in
        // the number of *distinct* queries, which is fine for realistic
        // batches; the length pre-check makes misses cheap.
        let mut unique: Vec<usize> = Vec::new();
        let mut assignment: Vec<usize> = Vec::with_capacity(queries.len());
        for query in queries {
            let slot = unique.iter().position(|&u| {
                queries[u].len() == query.len() && queries[u].elements() == query.elements()
            });
            match slot {
                Some(s) => assignment.push(s),
                None => {
                    // This query claims the next slot; `unique[slot]` records
                    // the index of the slot's first occurrence.
                    assignment.push(unique.len());
                    unique.push(assignment.len() - 1);
                }
            }
        }

        let slow_query_ns = self.slow_query_ns;
        let executed = parallel_map(threads, &unique, |slot, &query_index| {
            let mut ctx = ExecCtx::default();
            if slow_query_ns.is_some() {
                // Deterministic trace id: the query's dedup slot.
                ctx = ctx.with_trace(slot as u64);
            }
            let query_started = Instant::now();
            let outcome = run_one(&queries[query_index], &mut ctx);
            if let (Some(threshold), Some(trace)) = (slow_query_ns, ctx.trace.as_ref()) {
                trace.flush_to(ssr_obs::trace_ring());
                let elapsed_ns = query_started.elapsed().as_nanos() as u64;
                if elapsed_ns >= threshold {
                    eprintln!(
                        "[ssr] slow query #{slot} ({:.3}ms >= {:.3}ms): {:?}\n{}",
                        elapsed_ns as f64 / 1e6,
                        threshold as f64 / 1e6,
                        outcome.stats,
                        trace.render_tree(),
                    );
                }
            }
            (outcome, ctx.timings)
        });

        let mut timings = StageTimings::default();
        for (_, t) in &executed {
            timings.merge(t);
        }
        let outcomes = assignment
            .iter()
            .map(|&slot| executed[slot].0.clone())
            .collect();
        BatchOutcome {
            outcomes,
            timings,
            wall_ns: started.elapsed().as_nanos() as u64,
            threads,
            unique_queries: unique.len(),
            memo_entries: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FrameworkConfig;
    use ssr_distance::Levenshtein;
    use ssr_sequence::Symbol;

    fn seq(text: &str) -> Sequence<Symbol> {
        Sequence::new(text.chars().map(Symbol::from_char).collect())
    }

    fn planted_db() -> SubsequenceDatabase<Symbol, Levenshtein> {
        let config = FrameworkConfig::new(8).with_max_shift(1);
        SubsequenceDatabase::builder(config, Levenshtein::new())
            .add_sequence(seq("MMMMMMMMACDEFGHIKLMNPQRSTVWYMMMMMMMM"))
            .add_sequence(seq("WWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWW"))
            .build()
            .unwrap()
    }

    fn queries() -> Vec<Sequence<Symbol>> {
        vec![
            seq("YYYYACDEFGHIKLMNPQRSTVWYYYYY"),
            seq("QQQQQQQQQQQQQQQQQQQQ"),
            seq("MMMMMMMMACDEFGHIKLMNPQRSTVWY"),
            // Exact duplicate of the first query: executed once.
            seq("YYYYACDEFGHIKLMNPQRSTVWYYYYY"),
        ]
    }

    #[test]
    fn a_traced_verify_stage_splits_into_table_and_scan_time() {
        let db = planted_db();
        let query = &queries()[0];
        let mut ctx = ExecCtx::default().with_trace(7);
        let traced = db.query_type2_ctx(query, 3.0, &mut ctx);
        let events = ctx.trace.as_ref().expect("tracing is on").events();
        let at = events
            .iter()
            .position(|e| e.name == "verify")
            .expect("a verify span");
        let (verify, children) = (&events[at], &events[at + 1..at + 3]);
        let names: Vec<_> = children.iter().map(|e| e.name).collect();
        assert_eq!(names, ["verify_tables", "verify_scan"]);
        assert!(children.iter().all(|e| e.depth == verify.depth + 1));
        assert!(children[0].dur_ns > 0, "a planted query computes tables");
        let split: u64 = children.iter().map(|e| e.dur_ns).sum();
        assert!(split <= verify.dur_ns && split >= verify.dur_ns / 2);
        assert_eq!(split, ctx.timings.verify_ns);
        // Observation only: the untraced path (no clock per table) agrees.
        assert_eq!(traced, db.query_type2(query, 3.0));
    }

    #[test]
    fn batch_type2_matches_sequential_queries() {
        let db = planted_db();
        let engine = QueryEngine::new(&db).with_threads(4);
        let batch = engine.batch_type2(&queries(), 3.0);
        assert_eq!(batch.outcomes.len(), 4);
        assert_eq!(batch.unique_queries, 3);
        assert_eq!(batch.threads, 4);
        for (query, outcome) in queries().iter().zip(&batch.outcomes) {
            let direct = db.query_type2(query, 3.0);
            assert_eq!(outcome.result, direct.result);
            assert_eq!(outcome.stats, direct.stats);
        }
    }

    #[test]
    fn thread_counts_give_identical_outcomes() {
        let db = planted_db();
        let qs = queries();
        let sequential = QueryEngine::new(&db).batch_type1(&qs, 3.0);
        for threads in [2, 4, 0] {
            let parallel = QueryEngine::new(&db)
                .with_threads(threads)
                .batch_type1(&qs, 3.0);
            for (a, b) in sequential.outcomes.iter().zip(&parallel.outcomes) {
                assert_eq!(a.result, b.result);
                assert_eq!(a.stats, b.stats);
            }
            assert_eq!(sequential.unique_queries, parallel.unique_queries);
        }
    }

    #[test]
    fn duplicate_queries_share_one_execution() {
        let db = planted_db();
        let engine = QueryEngine::new(&db);
        let q = seq("YYYYACDEFGHIKLMNPQRSTVWYYYYY");
        let batch = engine.batch_type2(&[q.clone(), q.clone(), q], 3.0);
        assert_eq!(batch.unique_queries, 1);
        assert_eq!(batch.outcomes.len(), 3);
        assert_eq!(batch.outcomes[0], batch.outcomes[1]);
        assert_eq!(batch.outcomes[0], batch.outcomes[2]);
        // Totals replicate the shared execution per input occurrence.
        let total = batch.total_stats();
        assert_eq!(
            total.verification_calls,
            3 * batch.outcomes[0].stats.verification_calls
        );
    }

    #[test]
    fn batch_type3_equals_query_type3_at_every_thread_count() {
        let db = planted_db();
        let qs = queries();
        for threads in [1, 2, 4] {
            let batch = QueryEngine::new(&db)
                .with_threads(threads)
                .batch_type3(&qs, 10.0, 1.0);
            for (query, outcome) in qs.iter().zip(&batch.outcomes) {
                assert_eq!(*outcome, db.query_type3(query, 10.0, 1.0));
            }
        }
    }

    #[test]
    fn batch_reports_timings_and_wall_clock() {
        let db = planted_db();
        let batch = QueryEngine::new(&db)
            .with_threads(2)
            .batch_type2(&queries(), 3.0);
        assert!(batch.wall_ns > 0);
        assert!(batch.timings.total_ns() > 0);
        assert!(batch.timings.filter_ns > 0);
        assert!(batch.timings.verify_ns > 0);
        let total = batch.total_stats();
        assert!(total.segments > 0);
        assert!(total.verification_calls > 0);
    }

    #[test]
    fn empty_batch_is_fine() {
        let db = planted_db();
        let batch = QueryEngine::new(&db).with_threads(4).batch_type1(&[], 1.0);
        assert!(batch.outcomes.is_empty());
        assert_eq!(batch.unique_queries, 0);
    }
}
