//! Brute-force reference implementations.
//!
//! These evaluate all `O(|Q|²·|X|²)` subsequence pairs and are therefore only
//! usable on small inputs; they exist as ground truth for tests (and for users
//! who want to sanity-check the framework on their own data), mirroring the
//! "brute force search" the paper's complexity analysis compares against.

use std::ops::Range;

use ssr_distance::SequenceDistance;
use ssr_sequence::{Element, Sequence, SequenceDataset, SequenceId};

use crate::query::SubsequenceMatch;

/// Constraints shared by all brute-force searches: minimum length `λ` and
/// maximum length difference `λ0`.
#[derive(Clone, Copy, Debug)]
pub struct BruteConstraints {
    /// Minimum subsequence length `λ`.
    pub lambda: usize,
    /// Maximum length difference `λ0`.
    pub max_shift: usize,
}

/// Borrows the two element slices of one pair `(SQ, SX)` as views into their
/// owning sequences; nothing is copied.
fn pair_slices<'a, E: Element>(
    query: &'a Sequence<E>,
    db_seq: &'a Sequence<E>,
    q_range: &Range<usize>,
    x_range: &Range<usize>,
) -> (&'a [E], &'a [E]) {
    (
        &query.elements()[q_range.clone()],
        &db_seq.elements()[x_range.clone()],
    )
}

fn pairs<'a, E: Element>(
    query: &'a Sequence<E>,
    db_seq: &'a Sequence<E>,
    constraints: BruteConstraints,
) -> impl Iterator<Item = (Range<usize>, Range<usize>)> + 'a {
    let lambda = constraints.lambda;
    let shift = constraints.max_shift as i64;
    let q_len = query.len();
    let x_len = db_seq.len();
    (0..q_len).flat_map(move |qs| {
        ((qs + lambda)..=q_len).flat_map(move |qe| {
            (0..x_len).flat_map(move |xs| {
                ((xs + lambda)..=x_len).filter_map(move |xe| {
                    let diff = (qe - qs) as i64 - (xe - xs) as i64;
                    (diff.abs() <= shift).then_some((qs..qe, xs..xe))
                })
            })
        })
    })
}

/// All similar subsequence pairs between `query` and every sequence of
/// `dataset` (Type I ground truth).
pub fn all_similar_pairs<E: Element, D: SequenceDistance<E>>(
    query: &Sequence<E>,
    dataset: &SequenceDataset<E>,
    distance: &D,
    constraints: BruteConstraints,
    epsilon: f64,
) -> Vec<SubsequenceMatch> {
    let mut results = Vec::new();
    for (id, db_seq) in dataset.iter() {
        for (q_range, x_range) in pairs(query, db_seq, constraints) {
            let (sq, sx) = pair_slices(query, db_seq, &q_range, &x_range);
            let d = distance.distance(sq, sx);
            if d <= epsilon {
                results.push(SubsequenceMatch {
                    sequence: id,
                    db_range: x_range,
                    query_range: q_range,
                    distance: d,
                });
            }
        }
    }
    results
}

/// The longest similar query subsequence (Type II ground truth): maximises
/// `|SQ|`, breaking ties by smaller distance.
pub fn longest_similar_pair<E: Element, D: SequenceDistance<E>>(
    query: &Sequence<E>,
    dataset: &SequenceDataset<E>,
    distance: &D,
    constraints: BruteConstraints,
    epsilon: f64,
) -> Option<SubsequenceMatch> {
    all_similar_pairs(query, dataset, distance, constraints, epsilon)
        .into_iter()
        .max_by(|a, b| {
            a.query_len()
                .cmp(&b.query_len())
                .then(b.distance.total_cmp(&a.distance))
        })
}

/// The nearest subsequence pair (Type III ground truth): minimises the
/// distance subject to the length constraints.
pub fn nearest_pair<E: Element, D: SequenceDistance<E>>(
    query: &Sequence<E>,
    dataset: &SequenceDataset<E>,
    distance: &D,
    constraints: BruteConstraints,
) -> Option<(SequenceId, Range<usize>, Range<usize>, f64)> {
    let mut best: Option<(SequenceId, Range<usize>, Range<usize>, f64)> = None;
    for (id, db_seq) in dataset.iter() {
        for (q_range, x_range) in pairs(query, db_seq, constraints) {
            let (sq, sx) = pair_slices(query, db_seq, &q_range, &x_range);
            let d = distance.distance(sq, sx);
            if best.as_ref().is_none_or(|(_, _, _, bd)| d < *bd) {
                best = Some((id, q_range, x_range, d));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_distance::Levenshtein;
    use ssr_sequence::Symbol;

    fn seq(text: &str) -> Sequence<Symbol> {
        Sequence::new(text.chars().map(Symbol::from_char).collect())
    }

    fn dataset(texts: &[&str]) -> SequenceDataset<Symbol> {
        texts.iter().map(|t| seq(t)).collect()
    }

    #[test]
    fn all_pairs_respect_constraints() {
        let ds = dataset(&["ACGTACGT"]);
        let q = seq("ACGTAC");
        let constraints = BruteConstraints {
            lambda: 4,
            max_shift: 1,
        };
        let results = all_similar_pairs(&q, &ds, &Levenshtein::new(), constraints, 1.0);
        assert!(!results.is_empty());
        for m in &results {
            assert!(m.query_len() >= 4);
            assert!(m.db_len() >= 4);
            assert!((m.query_len() as i64 - m.db_len() as i64).abs() <= 1);
            assert!(m.distance <= 1.0);
        }
    }

    #[test]
    fn longest_pair_is_the_full_overlap() {
        let ds = dataset(&["TTTTACGTACGTTTTT"]);
        let q = seq("ACGTACGT");
        let constraints = BruteConstraints {
            lambda: 4,
            max_shift: 0,
        };
        let best = longest_similar_pair(&q, &ds, &Levenshtein::new(), constraints, 0.0).unwrap();
        assert_eq!(best.query_len(), 8);
        assert_eq!(best.db_range, 4..12);
        assert_eq!(best.distance, 0.0);
    }

    #[test]
    fn nearest_pair_has_zero_distance_for_exact_repeats() {
        let ds = dataset(&["GGGGACGTGGGG", "CCCCCCCC"]);
        let q = seq("AAACGTAA");
        let constraints = BruteConstraints {
            lambda: 4,
            max_shift: 1,
        };
        let (id, _, x_range, d) = nearest_pair(&q, &ds, &Levenshtein::new(), constraints).unwrap();
        assert_eq!(id, SequenceId(0));
        assert!(d <= 1.0);
        assert!(x_range.start >= 2 && x_range.end <= 10);
    }

    #[test]
    fn empty_result_when_nothing_similar() {
        let ds = dataset(&["GGGGGGGG"]);
        let q = seq("AAAAAAAA");
        let constraints = BruteConstraints {
            lambda: 4,
            max_shift: 0,
        };
        assert!(all_similar_pairs(&q, &ds, &Levenshtein::new(), constraints, 0.5).is_empty());
        assert!(longest_similar_pair(&q, &ds, &Levenshtein::new(), constraints, 0.5).is_none());
    }
}
