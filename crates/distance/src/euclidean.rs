//! Euclidean (L2) distance between equal-length sequences.

use ssr_sequence::Element;

use crate::counting::{record_dp_cells, record_lower_bound_prune};
use crate::end_table::{EndSink, EndSpec};
use crate::traits::{DistanceProperties, SequenceDistance};

/// The Euclidean distance `δE(Q, X) = (Σ_m ground(q_m, x_m)²)^(1/2)`.
///
/// Defined only for sequences of equal length; pairs of different lengths are
/// reported as `f64::INFINITY` so they can never satisfy a similarity
/// threshold. For scalar elements this is the familiar L2 norm of the
/// difference vector; for symbolic elements the ground distance is 0/1 and the
/// Euclidean distance becomes the square root of the Hamming distance.
///
/// Euclidean distance is metric and consistent (Section 4): the distance of
/// corresponding subsequences sums a subset of the terms of the full distance.
/// It does not tolerate any temporal misalignment, which is why the framework
/// prefers ERP / discrete Fréchet / Levenshtein for retrieval (Section 5).
#[derive(Clone, Copy, Debug, Default)]
pub struct Euclidean;

impl Euclidean {
    /// Creates the Euclidean distance.
    pub fn new() -> Self {
        Euclidean
    }
}

impl<E: Element> SequenceDistance<E> for Euclidean {
    fn distance(&self, a: &[E], b: &[E]) -> f64 {
        self.distance_within(a, b, f64::INFINITY)
            .expect("every distance is within an infinite threshold")
    }

    /// Running-sum early abandoning: the partial sum of squares only grows
    /// (IEEE addition of non-negative terms is monotone), and `sqrt` is
    /// monotone too, so `√partial > τ` already proves `distance > τ`. The
    /// cheap squared comparison `partial > τ²` only *gates* the exact `sqrt`
    /// check — it never abandons on its own, so boundary rounding of `τ²`
    /// cannot misclassify a pair.
    fn distance_within(&self, a: &[E], b: &[E], tau: f64) -> Option<f64> {
        if a.len() != b.len() {
            let d = f64::INFINITY;
            if d <= tau {
                return Some(d);
            }
            record_lower_bound_prune();
            return None;
        }
        let tau_sq = tau * tau;
        let mut sum_sq = 0.0f64;
        let mut cells = 0u64;
        for (x, y) in a.iter().zip(b.iter()) {
            let g = x.ground_distance(y);
            sum_sq += g * g;
            cells += 1;
            if sum_sq > tau_sq && crate::counting::exceeds(sum_sq.sqrt(), tau) {
                record_dp_cells(cells);
                return None;
            }
        }
        record_dp_cells(cells);
        let d = sum_sq.sqrt();
        if d <= tau {
            Some(d)
        } else {
            None
        }
    }

    /// One pass along the diagonal: only prefixes of equal length are at a
    /// finite distance, and the running sum after `i` terms is the one
    /// [`Self::distance_within`] reaches on `(a[..i], b[..i])`. The abandon
    /// ends the table, as the sum only grows.
    fn end_table(&self, a: &[E], b: &[E], ends: EndSpec, tau: f64, out: &mut [f64]) {
        let mut sink = EndSink::new(out, ends, a.len(), b.len(), tau);
        sink.row(0, 0..=0, |_| 0.0);
        let tau_sq = tau * tau;
        let mut sum_sq = 0.0f64;
        let mut cells = 0u64;
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            let g = x.ground_distance(y);
            sum_sq += g * g;
            cells += 1;
            if sum_sq > tau_sq && crate::counting::exceeds(sum_sq.sqrt(), tau) {
                break;
            }
            sink.row(i + 1, i + 1..=i + 1, |_| sum_sq.sqrt());
        }
        record_dp_cells(cells);
    }

    fn length_lower_bound(&self, a_len: usize, b_len: usize) -> f64 {
        if a_len != b_len {
            f64::INFINITY
        } else {
            0.0
        }
    }

    fn name(&self) -> &'static str {
        "Euclidean"
    }

    fn properties(&self) -> DistanceProperties {
        DistanceProperties {
            metric: true,
            consistent: true,
            allows_time_shift: false,
            requires_equal_lengths: true,
        }
    }

    fn max_distance(&self, len: usize) -> Option<f64> {
        E::max_ground_distance().map(|g| g * (len as f64).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_sequence::{Pitch, Point2D, Symbol};

    #[test]
    fn scalar_euclidean_matches_hand_computation() {
        let a = [0.0, 3.0, 1.0];
        let b = [4.0, 3.0, 4.0];
        let d = Euclidean::new();
        assert!((SequenceDistance::<f64>::distance(&d, &a, &b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn unequal_lengths_are_infinitely_far() {
        let d = Euclidean::new();
        let a = [1.0, 2.0];
        let b = [1.0];
        assert!(SequenceDistance::<f64>::distance(&d, &a, &b).is_infinite());
    }

    #[test]
    fn identical_sequences_have_zero_distance() {
        let d = Euclidean::new();
        let a: Vec<Pitch> = [1, 5, 9, 2].iter().map(|&p| Pitch(p)).collect();
        assert_eq!(d.distance(&a, &a), 0.0);
    }

    #[test]
    fn symbolic_euclidean_is_sqrt_of_hamming() {
        let d = Euclidean::new();
        let a: Vec<Symbol> = "ACGT".chars().map(Symbol::from_char).collect();
        let b: Vec<Symbol> = "AGGA".chars().map(Symbol::from_char).collect();
        assert!((d.distance(&a, &b) - (2.0_f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn point_sequences_use_ground_euclidean() {
        let d = Euclidean::new();
        let a = [Point2D::new(0.0, 0.0), Point2D::new(1.0, 1.0)];
        let b = [Point2D::new(3.0, 4.0), Point2D::new(1.0, 1.0)];
        assert!((d.distance(&a, &b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn consistency_holds_for_corresponding_subsequences() {
        // delta(SQ, SX) <= delta(Q, X) when SQ, SX are the same index range.
        let d = Euclidean::new();
        let a = [1.0, 2.0, 5.0, -3.0, 0.5];
        let b = [0.0, 2.5, 5.0, -1.0, 4.5];
        let full = SequenceDistance::<f64>::distance(&d, &a, &b);
        for start in 0..a.len() {
            for end in (start + 1)..=a.len() {
                let sub = SequenceDistance::<f64>::distance(&d, &a[start..end], &b[start..end]);
                assert!(sub <= full + 1e-12);
            }
        }
    }

    #[test]
    fn max_distance_bound_is_respected() {
        let d = Euclidean::new();
        let bound = SequenceDistance::<Symbol>::max_distance(&d, 4).unwrap();
        let a: Vec<Symbol> = "AAAA".chars().map(Symbol::from_char).collect();
        let b: Vec<Symbol> = "CCCC".chars().map(Symbol::from_char).collect();
        assert!(d.distance(&a, &b) <= bound + 1e-12);
    }
}
