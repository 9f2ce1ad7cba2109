//! What the single-scan Type III rests on, and what it must deliver.
//!
//! * **Monotone range search** — on every backend, built and mutated,
//!   `matching_segments(q, r1)` is `matching_segments(q, r2)` filtered to
//!   `distance ≤ r1` for `r1 < r2`. That is why a Type III sweep may probe
//!   the index once, at `epsilon_max`, and read every smaller radius off the
//!   result — and the sweep's index work is exactly that one scan's.
//! * **Against the definition** — the Type III answer is a valid pair, never
//!   nearer than the brute-force nearest pair, and within one sweep step of
//!   it when the verification budget held.
//!
//! Levenshtein on symbols and ERP on pitches: both take integral values
//! here, so no radius sits on a float rounding boundary.

use proptest::prelude::*;

use ssr_core::{
    nearest_pair, BruteConstraints, FrameworkConfig, IndexBackend, SegmentMatch,
    SubsequenceDatabase,
};
use ssr_distance::{Erp, Levenshtein, SequenceDistance};
use ssr_sequence::{Element, Pitch, Sequence, SequenceId, Symbol};

const BACKENDS: [IndexBackend; 4] = [
    IndexBackend::ReferenceNet,
    IndexBackend::CoverTree,
    IndexBackend::MvReference { references: 4 },
    IndexBackend::LinearScan,
];

/// `count` values below `modulus` from a fixed linear congruential stream.
fn stream(seed: u64, count: usize, modulus: u64) -> Vec<u64> {
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
    (0..count)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % modulus
        })
        .collect()
}

fn symbols(seed: u64, count: usize) -> Sequence<Symbol> {
    let text = stream(seed, count, 4)
        .into_iter()
        .map(|v| Symbol::from_char(b"ACGT"[v as usize] as char))
        .collect();
    Sequence::new(text)
}

fn pitches(seed: u64, count: usize) -> Sequence<Pitch> {
    Sequence::new(
        stream(seed, count, 12)
            .into_iter()
            .map(|v| Pitch(v as i16))
            .collect(),
    )
}

fn canonical(mut matches: Vec<SegmentMatch>) -> Vec<SegmentMatch> {
    matches.sort_by_key(|m| (m.window.0, m.query_start, m.query_len));
    matches
}

/// Both invariants on one database state.
fn assert_single_scan_invariants<E, D>(
    db: &SubsequenceDatabase<E, D>,
    queries: &[Sequence<E>],
    radii: &[f64],
    step: f64,
    state: &str,
) where
    E: Element + Send + Sync,
    D: SequenceDistance<E>,
{
    let backend = db.config().backend;
    // Not vacuous: some query matches a window even at the smallest radius.
    assert!(
        queries
            .iter()
            .any(|q| !db.matching_segments(q, radii[0]).matches.is_empty()),
        "{backend} {state}: nothing matches at radius {}",
        radii[0]
    );
    for query in queries {
        for (i, &r1) in radii.iter().enumerate() {
            for &r2 in &radii[i + 1..] {
                let narrow = canonical(db.matching_segments(query, r1).matches);
                let mut wide = canonical(db.matching_segments(query, r2).matches);
                wide.retain(|m| m.distance <= r1);
                assert_eq!(narrow, wide, "{backend} {state}: radii {r1} < {r2}");
            }
        }
        let epsilon_max = *radii.last().unwrap();
        let sweep = db.query_type3(query, epsilon_max, step);
        assert_eq!(
            sweep.stats.index_distance_calls,
            db.matching_segments(query, epsilon_max).distance_calls,
            "{backend} {state}: a Type III sweep is one scan at epsilon_max"
        );
    }
}

/// Built, then after an append and a tombstoned remove.
fn assert_on_every_backend<E, D>(
    distance: impl Fn() -> D,
    sequences: [Sequence<E>; 3],
    queries: &[Sequence<E>],
    radii: &[f64],
    step: f64,
) where
    E: Element + Send + Sync,
    D: SequenceDistance<E>,
{
    let [first, second, appended] = sequences;
    for backend in BACKENDS {
        let config = FrameworkConfig::new(8)
            .with_max_shift(1)
            .with_backend(backend);
        let mut db = SubsequenceDatabase::builder(config, distance())
            .add_sequence(first.clone())
            .add_sequence(second.clone())
            .build()
            .expect("database builds");
        assert_single_scan_invariants(&db, queries, radii, step, "built");
        db.append_sequence(appended.clone());
        assert!(db.remove_sequence(SequenceId(0)));
        assert_single_scan_invariants(&db, queries, radii, step, "mutated");
    }
}

#[test]
fn smaller_radii_are_a_filter_of_the_widest_scan_levenshtein() {
    let sequences = [symbols(1, 90), symbols(2, 70), symbols(3, 60)];
    // Each query shares a stretch with one sequence, so small radii match.
    let queries: Vec<Sequence<Symbol>> = [(0, 10, 4), (2, 20, 5)]
        .into_iter()
        .map(|(source, start, seed): (usize, usize, u64)| {
            let mut elements = symbols(seed, 6).elements().to_vec();
            elements.extend_from_slice(&sequences[source].elements()[start..start + 20]);
            Sequence::new(elements)
        })
        .collect();
    assert_on_every_backend(
        Levenshtein::new,
        sequences,
        &queries,
        &[0.0, 1.0, 2.0, 3.0],
        1.0,
    );
}

#[test]
fn smaller_radii_are_a_filter_of_the_widest_scan_erp() {
    let sequences = [pitches(11, 90), pitches(12, 70), pitches(13, 60)];
    let queries: Vec<Sequence<Pitch>> = [(1, 8, 14), (2, 30, 15)]
        .into_iter()
        .map(|(source, start, seed): (usize, usize, u64)| {
            let mut elements = pitches(seed, 6).elements().to_vec();
            elements.extend_from_slice(&sequences[source].elements()[start..start + 20]);
            Sequence::new(elements)
        })
        .collect();
    assert_on_every_backend(Erp::new, sequences, &queries, &[0.0, 3.0, 6.0, 10.0], 2.0);
}

fn acgt() -> impl Strategy<Value = Symbol> {
    (0u8..4).prop_map(|i| Symbol::from_char(b"ACGT"[i as usize] as char))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn type3_is_within_one_step_of_the_brute_force_nearest_pair(
        base in prop::collection::vec(acgt(), 24..70),
        prefix in prop::collection::vec(acgt(), 0..8),
        start_frac in 0.0f64..1.0,
        substitutions in prop::collection::vec((0usize..16, acgt()), 0..3),
    ) {
        let config = FrameworkConfig::new(8).with_max_shift(1);
        let (epsilon_max, step) = (6.0, 1.0);
        // The query: noise, then 16 elements copied from the database with
        // up to two substitutions — the nearest pair is at distance ≤ 2.
        let start = ((base.len() - 16) as f64 * start_frac) as usize;
        let mut planted = base[start..start + 16].to_vec();
        for (at, symbol) in substitutions {
            planted[at] = symbol;
        }
        let query = Sequence::new(prefix.into_iter().chain(planted).collect());
        let db = SubsequenceDatabase::builder(config.clone(), Levenshtein::new())
            .add_sequence(Sequence::new(base))
            .build()
            .expect("database builds");

        let constraints = BruteConstraints { lambda: config.lambda, max_shift: config.max_shift };
        let (_, _, _, nearest) = nearest_pair(&query, &db.to_dataset(), db.distance(), constraints)
            .expect("the query is long enough to have a pair");
        prop_assert!(nearest <= 2.0);

        let outcome = db.query_type3(&query, epsilon_max, step);
        let found = outcome.result.expect("a pair within epsilon_max exists");
        prop_assert!(found.query_len() >= config.lambda && found.db_len() >= config.lambda);
        prop_assert!(found.query_len().abs_diff(found.db_len()) <= config.max_shift);
        let recomputed = db.distance().distance(
            &query.elements()[found.query_range.clone()],
            &db.sequence(found.sequence).unwrap().elements()[found.db_range.clone()],
        );
        prop_assert_eq!(recomputed, found.distance);
        prop_assert!(found.distance >= nearest, "{} beats brute force {}", found.distance, nearest);
        if !outcome.stats.budget_exhausted {
            prop_assert!(
                found.distance <= nearest + step,
                "{} is more than a step above {}", found.distance, nearest
            );
        }
    }
}
