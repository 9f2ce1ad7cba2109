//! Parallel-vs-sequential parity: for random databases and query batches,
//! a [`QueryEngine`] with `threads = N` must produce **exactly** the same
//! outcomes — same matches, same order after the result sort, same work
//! statistics — as `threads = 1`. This is the property that makes the
//! `--threads` axis of the bench harness trustworthy: any divergence is an
//! engine bug, never "parallel nondeterminism".

use proptest::prelude::*;

use ssr_core::{FrameworkConfig, QueryEngine, SubsequenceDatabase};
use ssr_distance::Levenshtein;
use ssr_sequence::{Sequence, Symbol};

fn sym_seq(max_len: usize) -> impl Strategy<Value = Vec<Symbol>> {
    prop::collection::vec(
        (0u8..4).prop_map(|i| Symbol::from_char(b"ACGT"[i as usize] as char)),
        16..max_len,
    )
}

fn db(texts: &[Vec<Symbol>]) -> Option<SubsequenceDatabase<Symbol, Levenshtein>> {
    let config = FrameworkConfig::new(8).with_max_shift(1);
    let mut builder = SubsequenceDatabase::builder(config, Levenshtein::new());
    for t in texts {
        builder = builder.add_sequence(Sequence::new(t.clone()));
    }
    builder.build().ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn type1_batches_are_identical_across_thread_counts(
        texts in prop::collection::vec(sym_seq(60), 1..4),
        queries in prop::collection::vec(sym_seq(40), 1..5),
        epsilon in 0.0f64..4.0,
    ) {
        let Some(database) = db(&texts) else { return Ok(()); };
        let queries: Vec<Sequence<Symbol>> =
            queries.into_iter().map(Sequence::new).collect();
        let sequential = QueryEngine::new(&database).batch_type1(&queries, epsilon);
        for threads in [2usize, 4] {
            let parallel = QueryEngine::new(&database)
                .with_threads(threads)
                .batch_type1(&queries, epsilon);
            prop_assert_eq!(sequential.outcomes.len(), parallel.outcomes.len());
            for (i, (a, b)) in sequential.outcomes.iter().zip(&parallel.outcomes).enumerate() {
                // Same candidates, same order after the result sort, and
                // bit-identical statistics (thread-local call attribution).
                prop_assert_eq!(&a.result, &b.result, "query {} threads {}", i, threads);
                prop_assert_eq!(&a.stats, &b.stats, "query {} threads {}", i, threads);
            }
        }
        // The sequential engine path must also agree with the plain API.
        for (query, outcome) in queries.iter().zip(&sequential.outcomes) {
            let direct = database.query_type1(query, epsilon);
            prop_assert_eq!(&direct.result, &outcome.result);
            prop_assert_eq!(&direct.stats, &outcome.stats);
        }
    }

    #[test]
    fn type2_and_type3_batches_are_identical_across_thread_counts(
        texts in prop::collection::vec(sym_seq(60), 1..4),
        queries in prop::collection::vec(sym_seq(40), 1..4),
    ) {
        let Some(database) = db(&texts) else { return Ok(()); };
        let queries: Vec<Sequence<Symbol>> =
            queries.into_iter().map(Sequence::new).collect();
        let seq2 = QueryEngine::new(&database).batch_type2(&queries, 2.0);
        let seq3 = QueryEngine::new(&database).batch_type3(&queries, 4.0, 1.0);
        // Telemetry is observation only: with the `ssr_obs` kill switch
        // thrown the outcomes — results and stats — are bit-identical.
        ssr_obs::set_enabled(false);
        let silent2 = QueryEngine::new(&database).batch_type2(&queries, 2.0);
        ssr_obs::set_enabled(true);
        prop_assert_eq!(&seq2.outcomes, &silent2.outcomes);
        for threads in [2usize, 4] {
            let engine = QueryEngine::new(&database).with_threads(threads);
            let par2 = engine.batch_type2(&queries, 2.0);
            let par3 = engine.batch_type3(&queries, 4.0, 1.0);
            for (a, b) in seq2.outcomes.iter().zip(&par2.outcomes) {
                prop_assert_eq!(&a.result, &b.result);
                prop_assert_eq!(&a.stats, &b.stats);
            }
            for (a, b) in seq3.outcomes.iter().zip(&par3.outcomes) {
                prop_assert_eq!(&a.result, &b.result);
                prop_assert_eq!(&a.stats, &b.stats);
            }
        }
        // One Type III code path: the engine answers what the plain API does.
        for (query, outcome) in queries.iter().zip(&seq3.outcomes) {
            prop_assert_eq!(&database.query_type3(query, 4.0, 1.0), outcome);
        }
    }
}
