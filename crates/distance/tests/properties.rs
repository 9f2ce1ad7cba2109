//! Property-based tests for the distance library.
//!
//! These check, on randomly generated inputs, the two properties the paper's
//! framework relies on: metricity (Section 3.3) and consistency
//! (Definition 1), the latter by its definition, exhaustively.

use proptest::prelude::*;

use ssr_distance::{
    erp_lower_bound, length_difference_lower_bound, DiscreteFrechet, Dtw, Erp, Euclidean, Hamming,
    Levenshtein, SequenceDistance,
};
use ssr_sequence::{Element, Pitch, Point2D, Symbol};

const TOL: f64 = 1e-9;

fn symbol_seq(max_len: usize) -> impl Strategy<Value = Vec<Symbol>> {
    prop::collection::vec(
        (0u8..4).prop_map(|i| Symbol::from_char(b"ACGT"[i as usize] as char)),
        0..max_len,
    )
}

fn pitch_seq(max_len: usize) -> impl Strategy<Value = Vec<Pitch>> {
    prop::collection::vec((0i16..=11).prop_map(Pitch), 0..max_len)
}

fn point_seq(max_len: usize) -> impl Strategy<Value = Vec<Point2D>> {
    prop::collection::vec(
        (-10.0f64..10.0, -10.0f64..10.0).prop_map(|(x, y)| Point2D::new(x, y)),
        0..max_len,
    )
}

/// Checks the metric axioms on a triple of sequences.
fn assert_metric_axioms<E, D>(d: &D, x: &[E], y: &[E], z: &[E])
where
    E: ssr_sequence::Element,
    D: SequenceDistance<E>,
{
    let dxy = d.distance(x, y);
    let dyx = d.distance(y, x);
    let dxz = d.distance(x, z);
    let dyz = d.distance(y, z);
    // Non-negativity and identity of indiscernibles (same input).
    assert!(dxy >= 0.0);
    assert_eq!(d.distance(x, x), 0.0);
    // Symmetry.
    if dxy.is_finite() || dyx.is_finite() {
        assert!(
            (dxy - dyx).abs() <= TOL,
            "symmetry violated: {dxy} vs {dyx}"
        );
    }
    // Triangle inequality (skip when any leg is infinite, e.g. unequal-length
    // inputs under Euclidean / Hamming).
    if dxy.is_finite() && dyz.is_finite() && dxz.is_finite() {
        assert!(
            dxz <= dxy + dyz + TOL,
            "triangle violated: d(x,z)={dxz} > d(x,y)+d(y,z)={}",
            dxy + dyz
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn levenshtein_is_a_metric(x in symbol_seq(12), y in symbol_seq(12), z in symbol_seq(12)) {
        assert_metric_axioms(&Levenshtein::new(), &x, &y, &z);
    }

    #[test]
    fn erp_is_a_metric_on_pitches(x in pitch_seq(10), y in pitch_seq(10), z in pitch_seq(10)) {
        assert_metric_axioms(&Erp::new(), &x, &y, &z);
    }

    #[test]
    fn erp_is_a_metric_on_trajectories(x in point_seq(8), y in point_seq(8), z in point_seq(8)) {
        assert_metric_axioms(&Erp::new(), &x, &y, &z);
    }

    #[test]
    fn frechet_is_a_metric_on_pitches(x in pitch_seq(10), y in pitch_seq(10), z in pitch_seq(10)) {
        assert_metric_axioms(&DiscreteFrechet::new(), &x, &y, &z);
    }

    #[test]
    fn frechet_is_a_metric_on_trajectories(x in point_seq(8), y in point_seq(8), z in point_seq(8)) {
        assert_metric_axioms(&DiscreteFrechet::new(), &x, &y, &z);
    }

    #[test]
    fn hamming_and_euclidean_are_metrics(x in pitch_seq(8), y in pitch_seq(8), z in pitch_seq(8)) {
        assert_metric_axioms(&Hamming::new(), &x, &y, &z);
        assert_metric_axioms(&Euclidean::new(), &x, &y, &z);
    }

    #[test]
    fn levenshtein_identity_of_indiscernibles(x in symbol_seq(12), y in symbol_seq(12)) {
        let d = Levenshtein::new();
        if d.distance(&x, &y) == 0.0 {
            prop_assert_eq!(x, y);
        }
    }

    #[test]
    fn consistency_on_symbols(x in symbol_seq(11), y in symbol_seq(11)) {
        assert_consistent_all(&x, &y);
    }

    #[test]
    fn consistency_on_pitches(x in pitch_seq(11), y in pitch_seq(11)) {
        assert_consistent_all(&x, &y);
    }

    #[test]
    fn consistency_on_points(x in point_seq(11), y in point_seq(11)) {
        assert_consistent_all(&x, &y);
    }

    #[test]
    fn lower_bounds_never_exceed_true_distances(x in pitch_seq(10), y in pitch_seq(10)) {
        let lev = Levenshtein::new();
        let erp = Erp::new();
        prop_assert!(length_difference_lower_bound(x.len(), y.len()) <= lev.distance(&x, &y) + TOL);
        prop_assert!(erp_lower_bound(&x, &y) <= erp.distance(&x, &y) + TOL);
    }

    #[test]
    fn max_distance_bounds_hold(x in symbol_seq(12), y in symbol_seq(12)) {
        let lev = Levenshtein::new();
        let len = x.len().max(y.len());
        if let Some(bound) = SequenceDistance::<Symbol>::max_distance(&lev, len) {
            prop_assert!(lev.distance(&x, &y) <= bound + TOL);
        }
        let dfd = DiscreteFrechet::new();
        if !x.is_empty() && !y.is_empty() {
            if let Some(bound) = SequenceDistance::<Symbol>::max_distance(&dfd, len) {
                prop_assert!(dfd.distance(&x, &y) <= bound + TOL);
            }
        }
    }
}

/// Definition 1, checked by its definition: for every contiguous `y' ⊆ y`
/// some contiguous `x' ⊆ x`, the empty one included, has
/// `δ(x', y') ≤ δ(x, y)`. Every `x'` is tried until one is found, so no
/// alignment or traceback is trusted. Each DP kernel's module runs the same
/// check on one fixed pair of 12–14-element inputs.
fn assert_consistent<E: Element, D: SequenceDistance<E>>(d: &D, x: &[E], y: &[E]) {
    let full = d.distance(x, y);
    for (ys, ye) in ranges(y.len()) {
        let witness = std::iter::once((0, 0))
            .chain(ranges(x.len()))
            .any(|(xs, xe)| d.distance(&x[xs..xe], &y[ys..ye]) <= full + TOL);
        assert!(
            witness,
            "{}: no subsequence of {x:?} within {full} of {y:?}[{ys}..{ye}]",
            d.name()
        );
    }
}

/// Every non-empty contiguous range of a sequence of length `len`.
fn ranges(len: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..len).flat_map(move |start| (start + 1..=len).map(move |end| (start, end)))
}

fn assert_consistent_all<E: Element>(x: &[E], y: &[E]) {
    assert_consistent(&Levenshtein::new(), x, y);
    assert_consistent(&Erp::new(), x, y);
    assert_consistent(&Dtw::new(), x, y);
    assert_consistent(&DiscreteFrechet::new(), x, y);
    assert_consistent(&Euclidean::new(), x, y);
    assert_consistent(&Hamming::new(), x, y);
}
