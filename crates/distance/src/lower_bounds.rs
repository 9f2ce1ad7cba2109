//! Cheap lower bounds for expensive distances.
//!
//! Lower bounds allow a caller to discard a candidate pair without running the
//! full `O(n·m)` dynamic program: if the bound already exceeds the similarity
//! threshold `ε`, the true distance must too. The kernels try them before
//! their programs, and the framework's filter step (step 4) tries them in
//! front of each index probe.

use ssr_sequence::Element;

/// Lower bound for the Levenshtein distance: the absolute difference of the
/// two lengths (every missing element needs at least one insertion).
pub fn length_difference_lower_bound(a_len: usize, b_len: usize) -> f64 {
    a_len.abs_diff(b_len) as f64
}

/// Largest magnitude up to which every `f64` addition of integer-valued terms
/// is exact (2⁵³). This is the shared exactness rule for pruning on gap sums:
/// a float comparison against a sum may only discard a pair when every term
/// was integral (`fract() == 0`) **and** the total stays below this limit —
/// otherwise rounding could flip a borderline comparison. Both the ERP kernel
/// and the filter step's prefix tables apply the same rule.
pub const EXACT_INT_SUM_LIMIT: f64 = 9_007_199_254_740_992.0;

/// Total ground distance of a sequence's elements to the gap element — the
/// quantity the ERP lower bound compares. Hot paths avoid re-scanning both
/// inputs per pair: the ERP kernel folds a single scan into its lower-bound /
/// band decisions, and the filter step's probe cascade reads per-sequence
/// prefix sums ([`scan_gap_costs_with`]), `O(1)` per range.
pub fn erp_gap_sum<E: Element>(xs: &[E]) -> f64 {
    let gap = E::gap();
    xs.iter().map(|x| x.ground_distance(&gap)).sum()
}

/// [`erp_lower_bound`] given precomputed gap sums (see [`erp_gap_sum`]).
pub fn erp_lower_bound_from_sums(sum_a: f64, sum_b: f64) -> f64 {
    (sum_a - sum_b).abs()
}

/// Result of [`scan_gap_costs`]: the gap-cost total, whether pruning on it
/// is exact (every term integral and the total below
/// [`EXACT_INT_SUM_LIMIT`]), and the smallest per-element gap cost (which
/// bounds the cost of leaving the DP diagonal, i.e. the Ukkonen band width).
#[derive(Clone, Copy, Debug)]
pub struct GapCostScan {
    /// Total ground distance to the gap element ([`erp_gap_sum`]).
    pub sum: f64,
    /// Whether comparisons against the sum (and any of its prefixes) are
    /// exact, so a lower bound may prune on them.
    pub integral: bool,
    /// Minimum per-element gap cost (`∞` for an empty input).
    pub min_cost: f64,
}

/// Scans a sequence's gap costs once, invoking `visit` with the running sum
/// after each element (so callers can build prefix tables from the same
/// accumulation the exactness verdict describes). This is the **single**
/// implementation of the exactness rule — the ERP kernel and the filter
/// step's prefix tables both use it, so they can never disagree on which
/// pairs are prunable.
pub fn scan_gap_costs_with<E: Element>(xs: &[E], mut visit: impl FnMut(f64)) -> GapCostScan {
    let gap = E::gap();
    let mut scan = GapCostScan {
        sum: 0.0,
        integral: true,
        min_cost: f64::INFINITY,
    };
    for x in xs {
        let cost = x.ground_distance(&gap);
        scan.integral &= cost.fract() == 0.0;
        scan.sum += cost;
        scan.min_cost = scan.min_cost.min(cost);
        visit(scan.sum);
    }
    scan.integral &= scan.sum.abs() < EXACT_INT_SUM_LIMIT;
    scan
}

/// [`scan_gap_costs_with`] without a prefix consumer.
pub fn scan_gap_costs<E: Element>(xs: &[E]) -> GapCostScan {
    scan_gap_costs_with(xs, |_| {})
}

/// Lower bound for the ERP distance (Chen & Ng): the absolute difference of
/// the sequences' total ground distances to the gap element.
///
/// `ERP(a, b) ≥ |Σ_i g(a_i, gap) − Σ_j g(b_j, gap)|` follows from the triangle
/// inequality applied to each coupling of the optimal ERP alignment.
pub fn erp_lower_bound<E: Element>(a: &[E], b: &[E]) -> f64 {
    erp_lower_bound_from_sums(erp_gap_sum(a), erp_gap_sum(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Erp, Levenshtein, SequenceDistance};
    use ssr_sequence::{Pitch, Symbol};

    fn sym(text: &str) -> Vec<Symbol> {
        text.chars().map(Symbol::from_char).collect()
    }

    fn pitches(values: &[i16]) -> Vec<Pitch> {
        values.iter().map(|&v| Pitch(v)).collect()
    }

    #[test]
    fn length_difference_bounds_levenshtein() {
        let d = Levenshtein::new();
        let cases = [("ACGTACGT", "ACG"), ("A", "TTTTTTTT"), ("", "ACGT")];
        for (x, y) in cases {
            let a = sym(x);
            let b = sym(y);
            assert!(length_difference_lower_bound(a.len(), b.len()) <= d.distance(&a, &b));
        }
    }

    #[test]
    fn erp_lower_bound_is_a_true_lower_bound() {
        let d = Erp::new();
        let cases = [
            (pitches(&[0, 5, 11, 3]), pitches(&[1, 5, 10])),
            (pitches(&[7, 7, 7]), pitches(&[0])),
            (pitches(&[]), pitches(&[4, 4])),
            (pitches(&[2, 9, 1, 6, 8]), pitches(&[2, 9, 1, 6, 8])),
        ];
        for (a, b) in cases {
            let lb = erp_lower_bound(&a, &b);
            let full = d.distance(&a, &b);
            assert!(lb <= full + 1e-12, "lb {lb} > erp {full} for {a:?} {b:?}");
        }
    }

    #[test]
    fn erp_lower_bound_is_zero_for_identical_sums() {
        let a = pitches(&[3, 3]);
        let b = pitches(&[6]);
        assert_eq!(erp_lower_bound(&a, &b), 0.0);
    }

    #[test]
    fn length_difference_is_symmetric() {
        assert_eq!(
            length_difference_lower_bound(3, 10),
            length_difference_lower_bound(10, 3)
        );
        assert_eq!(length_difference_lower_bound(5, 5), 0.0);
    }
}
