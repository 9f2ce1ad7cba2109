//! ERP — Edit distance with Real Penalty (Chen & Ng, VLDB 2004).

use ssr_sequence::Element;

use crate::counting::{record_dp_cells, record_lower_bound_prune};
use crate::end_table::{EndSink, EndSpec};
use crate::lower_bounds::{erp_lower_bound_from_sums, scan_gap_costs};
use crate::traits::{DistanceProperties, SequenceDistance};
use crate::workspace::DistanceWorkspace;

/// ERP: an edit-style distance whose substitution cost is the ground distance
/// between the coupled elements, and whose gap cost is the ground distance of
/// the gapped element to a fixed gap element `g` ([`Element::gap`]).
///
/// ERP "marries" Lp-norms and edit distance: unlike DTW it satisfies the
/// triangle inequality (it is a metric), and unlike the Euclidean distance it
/// tolerates local time shifting and gaps. Together with the discrete Fréchet
/// distance it is the time-series distance used throughout the paper's
/// evaluation (Figures 4, 6, 7, 9 and 10).
///
/// [`SequenceDistance::distance_within`] prunes in three exact stages: the
/// gap-sum lower bound `ERP(a, b) ≥ |Σ g(aᵢ, gap) − Σ g(bⱼ, gap)|` (applied
/// only when both sums are exact integers, so the comparison cannot
/// misclassify a borderline pair), a Ukkonen-style band (a path that strays
/// `w` cells off the diagonal performs at least `w` gap operations, each
/// costing at least the smallest per-element gap cost — again only under
/// integral costs, where banded and full DP agree bit-for-bit), and
/// row-minimum early abandoning (exact for any ground distance: IEEE addition
/// of non-negative costs is monotone, so path values never decrease).
#[derive(Clone, Copy, Debug, Default)]
pub struct Erp;

impl Erp {
    /// Creates the ERP distance with the element type's default gap element.
    pub fn new() -> Self {
        Erp
    }
}

impl<E: Element> SequenceDistance<E> for Erp {
    fn distance(&self, a: &[E], b: &[E]) -> f64 {
        self.distance_within(a, b, f64::INFINITY)
            .expect("every distance is within an infinite threshold")
    }

    fn distance_within(&self, a: &[E], b: &[E], tau: f64) -> Option<f64> {
        let gap = E::gap();
        let n = a.len();
        let m = b.len();
        if n == 0 && m == 0 {
            return if 0.0 <= tau { Some(0.0) } else { None };
        }
        // The lower bound and the band both come from one gap-cost scan of
        // each input; against an infinite threshold neither can ever
        // trigger, so the scan is skipped there.
        let mut k = n.max(m);
        if tau.is_finite() {
            let scan_a = scan_gap_costs(a);
            let scan_b = scan_gap_costs(b);
            let exact_sums = scan_a.integral && scan_b.integral;
            if exact_sums
                && crate::counting::exceeds(erp_lower_bound_from_sums(scan_a.sum, scan_b.sum), tau)
            {
                record_lower_bound_prune();
                return None;
            }
            // Band half-width: a path at diagonal offset w has made at least
            // w gap operations, each costing at least `min_gap`, so cells
            // with |i − j| > τ / min_gap cannot lie on a path of cost ≤ τ.
            // Only sound to *restrict* the DP when the arithmetic is exact
            // (integral costs).
            let min_gap = scan_a.min_cost.min(scan_b.min_cost);
            if exact_sums && min_gap > 0.0 && tau >= 0.0 && tau.is_finite() {
                k = ((tau / min_gap).floor() as usize).min(k);
            }
        }
        DistanceWorkspace::with(|ws| {
            let (prev, curr) = ws.f64_rows(m + 1, f64::INFINITY);
            // Row 0: prefix gap sums of `b`, restricted to the band.
            prev[0] = 0.0;
            let mut acc = 0.0f64;
            for j in 1..=m.min(k) {
                acc += b[j - 1].ground_distance(&gap);
                prev[j] = acc;
            }
            let mut a_prefix = 0.0f64;
            let mut cells = 0u64;
            for (i, ai) in a.iter().enumerate() {
                let i = i + 1;
                a_prefix += ai.ground_distance(&gap);
                let lo = i.saturating_sub(k).max(1);
                let hi = m.min(i + k);
                curr[lo - 1] = if lo == 1 && i <= k {
                    a_prefix
                } else {
                    f64::INFINITY
                };
                let mut row_min = curr[lo - 1];
                for j in lo..=hi {
                    let bj = &b[j - 1];
                    let match_cost = prev[j - 1] + ai.ground_distance(bj);
                    let gap_a = prev[j] + ai.ground_distance(&gap);
                    let gap_b = curr[j - 1] + bj.ground_distance(&gap);
                    let value = match_cost.min(gap_a).min(gap_b);
                    curr[j] = value;
                    row_min = row_min.min(value);
                }
                cells += (hi + 1 - lo) as u64;
                if hi < m {
                    curr[hi + 1] = f64::INFINITY;
                }
                if crate::counting::exceeds(row_min, tau) {
                    record_dp_cells(cells);
                    return None;
                }
                std::mem::swap(prev, curr);
            }
            record_dp_cells(cells);
            let d = prev[m];
            if d <= tau {
                Some(d)
            } else {
                None
            }
        })
    }

    /// The program of [`Self::distance_within`] over all of `a` and `b`,
    /// every row handed to the sink. The band comes from the smallest gap
    /// cost of the whole inputs, which is no larger than that of any prefix
    /// pair, so it contains each pair's own band; it is taken, as there,
    /// only when every cost is integral and the arithmetic therefore exact.
    fn end_table(&self, a: &[E], b: &[E], ends: EndSpec, tau: f64, out: &mut [f64]) {
        let gap = E::gap();
        let n = a.len();
        let m = b.len();
        let mut sink = EndSink::new(out, ends, n, m, tau);
        let mut k = n.max(m);
        if tau >= 0.0 && tau.is_finite() {
            let scan_a = scan_gap_costs(a);
            let scan_b = scan_gap_costs(b);
            let min_gap = scan_a.min_cost.min(scan_b.min_cost);
            if scan_a.integral && scan_b.integral && min_gap > 0.0 {
                k = ((tau / min_gap).floor() as usize).min(k);
            }
        }
        DistanceWorkspace::with(|ws| {
            let (prev, curr) = ws.f64_rows(m + 1, f64::INFINITY);
            prev[0] = 0.0;
            let mut acc = 0.0f64;
            for j in 1..=m.min(k) {
                acc += b[j - 1].ground_distance(&gap);
                prev[j] = acc;
            }
            sink.row(0, 0..=m.min(k), |j| prev[j]);
            let mut a_prefix = 0.0f64;
            let mut cells = 0u64;
            for (i, ai) in a.iter().enumerate() {
                let i = i + 1;
                a_prefix += ai.ground_distance(&gap);
                let lo = i.saturating_sub(k).max(1);
                let hi = m.min(i + k);
                let edge_in_band = lo == 1 && i <= k;
                curr[lo - 1] = if edge_in_band {
                    a_prefix
                } else {
                    f64::INFINITY
                };
                let mut row_min = curr[lo - 1];
                for j in lo..=hi {
                    let bj = &b[j - 1];
                    let match_cost = prev[j - 1] + ai.ground_distance(bj);
                    let gap_a = prev[j] + ai.ground_distance(&gap);
                    let gap_b = curr[j - 1] + bj.ground_distance(&gap);
                    let value = match_cost.min(gap_a).min(gap_b);
                    curr[j] = value;
                    row_min = row_min.min(value);
                }
                cells += (hi + 1 - lo) as u64;
                if hi < m {
                    curr[hi + 1] = f64::INFINITY;
                }
                if crate::counting::exceeds(row_min, tau) {
                    break;
                }
                let first = if edge_in_band { 0 } else { lo };
                sink.row(i, first..=hi, |j| curr[j]);
                std::mem::swap(prev, curr);
            }
            record_dp_cells(cells);
        })
    }

    /// The program of [`Self::distance`] with `D[i][0] = 0` on every row, so
    /// that an alignment may start after any element of `text` at no cost:
    /// `|text|·|pattern|` cells, no band (a free start has no diagonal).
    ///
    /// Each cell of either program is the minimum, over the monotone paths
    /// into it, of the path's costs summed in path order, rounding included:
    /// `fl(min(x, y) + c) = min(fl(x + c), fl(y + c))` because rounding is
    /// monotone. A path of the anchored program over `text[o..e]` either
    /// leaves column 0 at once, and is then a path of this one from `(o, 0)`
    /// with the same sums, or first gaps some elements of `text` down
    /// column 0; its sum is then at least that of its remainder started at
    /// zero, again by monotone rounding, and the remainder is a path of this
    /// one. So `out[e] ≤ min_o distance(&text[o..e], pattern)` for any
    /// ground distance, and the two are equal where every cost is integral
    /// and the sums therefore exact.
    fn free_start_column(&self, text: &[E], pattern: &[E], out: &mut [f64]) -> bool {
        assert_eq!(out.len(), text.len() + 1, "free-start column size");
        let gap = E::gap();
        let m = pattern.len();
        DistanceWorkspace::with(|ws| {
            let (prev, curr) = ws.f64_rows(m + 1, 0.0);
            let mut acc = 0.0f64;
            for j in 1..=m {
                acc += pattern[j - 1].ground_distance(&gap);
                prev[j] = acc;
            }
            out[0] = prev[m];
            for (ai, slot) in text.iter().zip(&mut out[1..]) {
                let gap_a = ai.ground_distance(&gap);
                for j in 1..=m {
                    let bj = &pattern[j - 1];
                    let match_cost = prev[j - 1] + ai.ground_distance(bj);
                    let value = match_cost
                        .min(prev[j] + gap_a)
                        .min(curr[j - 1] + bj.ground_distance(&gap));
                    curr[j] = value;
                }
                *slot = curr[m];
                std::mem::swap(prev, curr);
            }
        });
        record_dp_cells((text.len() * m) as u64);
        true
    }

    fn uses_gap_sums(&self) -> bool {
        true
    }

    fn gap_sum_lower_bound(&self, sum_a: f64, sum_b: f64) -> f64 {
        erp_lower_bound_from_sums(sum_a, sum_b)
    }

    fn name(&self) -> &'static str {
        "ERP"
    }

    fn properties(&self) -> DistanceProperties {
        DistanceProperties {
            metric: true,
            consistent: true,
            allows_time_shift: true,
            requires_equal_lengths: false,
        }
    }

    fn max_distance(&self, len: usize) -> Option<f64> {
        // Aligning everything against the gap element costs at most
        // 2 * len * max ground distance; the optimum can only be smaller.
        E::max_ground_distance().map(|g| g * 2.0 * len as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_sequence::{Pitch, Point2D, Symbol};

    fn pitches(values: &[i16]) -> Vec<Pitch> {
        values.iter().map(|&v| Pitch(v)).collect()
    }

    #[test]
    fn equal_sequences_have_zero_distance() {
        let d = Erp::new();
        let a = pitches(&[3, 7, 2, 9]);
        assert_eq!(d.distance(&a, &a), 0.0);
    }

    #[test]
    fn scalar_hand_computed_case() {
        let d = Erp::new();
        // a = [1, 2], b = [1, 2, 3]: best is to match 1-1, 2-2 and gap 3
        // with cost |3 - 0| = 3.
        let a = [1.0, 2.0];
        let b = [1.0, 2.0, 3.0];
        assert_eq!(SequenceDistance::<f64>::distance(&d, &a, &b), 3.0);
    }

    #[test]
    fn empty_sequence_costs_sum_of_gap_distances() {
        let d = Erp::new();
        let a: Vec<f64> = vec![];
        let b = [2.0, -3.0, 1.0];
        assert_eq!(d.distance(&a, &b), 6.0);
        assert_eq!(d.distance(&b, &a), 6.0);
        assert_eq!(d.distance(&a, &a), 0.0);
    }

    #[test]
    fn symmetry_on_random_like_inputs() {
        let d = Erp::new();
        let a = pitches(&[0, 5, 11, 2, 8, 4]);
        let b = pitches(&[1, 5, 10, 2, 3]);
        assert_eq!(d.distance(&a, &b), d.distance(&b, &a));
    }

    #[test]
    fn triangle_inequality_spot_checks() {
        let d = Erp::new();
        let seqs = [
            pitches(&[0, 1, 2]),
            pitches(&[5, 5]),
            pitches(&[11, 0, 11, 0]),
            pitches(&[3]),
            pitches(&[]),
        ];
        for x in &seqs {
            for y in &seqs {
                for z in &seqs {
                    assert!(
                        d.distance(x, z) <= d.distance(x, y) + d.distance(y, z) + 1e-9,
                        "triangle violated for {x:?} {y:?} {z:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn erp_on_strings_uses_unit_gap_costs() {
        let d = Erp::new();
        let a: Vec<Symbol> = "ACGT".chars().map(Symbol::from_char).collect();
        let b: Vec<Symbol> = "AGT".chars().map(Symbol::from_char).collect();
        // Dropping 'C' costs ground(C, gap) = 1.
        assert_eq!(d.distance(&a, &b), 1.0);
    }

    #[test]
    fn erp_on_trajectories() {
        let d = Erp::new();
        let a = [Point2D::new(0.0, 0.0), Point2D::new(1.0, 0.0)];
        let b = [
            Point2D::new(0.0, 0.0),
            Point2D::new(1.0, 0.0),
            Point2D::new(1.0, 1.0),
        ];
        // Gap of (1,1) costs its norm sqrt(2).
        assert!((d.distance(&a, &b) - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn max_distance_bound_is_respected_for_pitches() {
        let d = Erp::new();
        let bound = SequenceDistance::<Pitch>::max_distance(&d, 4).unwrap();
        let a = pitches(&[11, 11, 11, 11]);
        let b = pitches(&[0, 0, 0, 0]);
        assert!(d.distance(&a, &b) <= bound);
    }

    #[test]
    fn consistency_holds_empirically_for_every_subsequence_of_b() {
        crate::traits::assert_consistent(
            &Erp::new(),
            &pitches(&[0, 2, 4, 5, 7, 9, 11, 9, 7, 5, 4, 2]),
            &pitches(&[0, 1, 4, 6, 7, 9, 10, 9, 8, 5, 3, 2, 0]),
        );
    }
}
