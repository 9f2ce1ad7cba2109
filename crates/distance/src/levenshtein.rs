//! Levenshtein (edit) distance with unit costs.

use ssr_sequence::Element;

use crate::counting::{record_dp_cells, record_lower_bound_prune};
use crate::end_table::{EndSink, EndSpec};
use crate::lower_bounds::length_difference_lower_bound;
use crate::traits::{DistanceProperties, SequenceDistance};
use crate::workspace::DistanceWorkspace;

/// Sentinel for DP cells outside the Ukkonen band. Half of `u32::MAX` so that
/// `BAND_INF + 1` can never wrap.
const BAND_INF: u32 = u32::MAX / 2;

/// The Levenshtein distance: the minimum number of single-element insertions,
/// deletions and substitutions needed to transform one sequence into another.
///
/// This is the distance the paper uses for the PROTEINS experiments
/// (Figures 4, 5, 8 and 12). It is metric and consistent, and tolerates gaps,
/// which makes it suitable for the framework on string data (Section 5).
///
/// [`SequenceDistance::distance_within`] is the threshold-aware kernel: a
/// length-difference lower bound, then a Ukkonen-style banded dynamic program
/// (cells with `|i − j| > ⌊τ⌋` cost more than `τ` because every off-diagonal
/// step is an indel) with row-minimum early abandoning. All values are exact
/// integers, so the banded result equals the full DP bit-for-bit whenever the
/// distance is within the threshold. [`SequenceDistance::distance`] is the
/// same kernel with `τ = ∞` (full band, no abandoning).
#[derive(Clone, Copy, Debug, Default)]
pub struct Levenshtein;

impl Levenshtein {
    /// Creates the unit-cost Levenshtein distance.
    pub fn new() -> Self {
        Levenshtein
    }
}

impl<E: Element> SequenceDistance<E> for Levenshtein {
    fn distance(&self, a: &[E], b: &[E]) -> f64 {
        self.distance_within(a, b, f64::INFINITY)
            .expect("every distance is within an infinite threshold")
    }

    fn distance_within(&self, a: &[E], b: &[E], tau: f64) -> Option<f64> {
        let n = a.len();
        let m = b.len();
        if n == 0 || m == 0 {
            let d = n.max(m) as f64;
            return if d <= tau { Some(d) } else { None };
        }
        // Lower bound: every length difference needs at least one indel.
        if crate::counting::exceeds(length_difference_lower_bound(n, m), tau) {
            record_lower_bound_prune();
            return None;
        }
        // Ukkonen band half-width: any cell with |i − j| > k has value > τ,
        // so an optimal path of cost ≤ τ never leaves the band. k ≥ |n − m|
        // holds because the lower bound above passed.
        let k = if tau >= 0.0 && tau.is_finite() {
            (tau.floor() as usize).min(n.max(m))
        } else {
            n.max(m)
        };
        DistanceWorkspace::with(|ws| {
            let (prev, curr) = ws.u32_rows(m + 1, BAND_INF);
            // Row 0 of the (n+1) × (m+1) matrix, restricted to the band.
            for (j, cell) in prev.iter_mut().enumerate().take(m.min(k) + 1) {
                *cell = j as u32;
            }
            let mut cells = 0u64;
            for (i, ai) in a.iter().enumerate() {
                let i = i + 1;
                let lo = i.saturating_sub(k).max(1);
                let hi = m.min(i + k);
                curr[lo - 1] = if lo == 1 && i <= k {
                    i as u32
                } else {
                    BAND_INF
                };
                let mut row_min = BAND_INF;
                for j in lo..=hi {
                    let sub_cost = if *ai == b[j - 1] { 0 } else { 1 };
                    let value = (prev[j - 1] + sub_cost)
                        .min(prev[j] + 1)
                        .min(curr[j - 1] + 1);
                    curr[j] = value;
                    row_min = row_min.min(value);
                }
                cells += (hi + 1 - lo) as u64;
                if hi < m {
                    curr[hi + 1] = BAND_INF;
                }
                // Every alignment path crosses row i, and values only grow
                // along a path, so the final value is at least the row min.
                if crate::counting::exceeds(f64::from(row_min), tau) {
                    record_dp_cells(cells);
                    return None;
                }
                std::mem::swap(prev, curr);
            }
            record_dp_cells(cells);
            let d = f64::from(prev[m]);
            if d <= tau {
                Some(d)
            } else {
                None
            }
        })
    }

    /// The banded program of [`Self::distance_within`] over all of `a` and
    /// `b`, every row handed to the sink. A cell inside the band holds its
    /// prefix pair's exact distance whenever that is `≤ τ` (a path of cost
    /// `≤ τ` never leaves the band), and a value above `τ` otherwise.
    fn end_table(&self, a: &[E], b: &[E], ends: EndSpec, tau: f64, out: &mut [f64]) {
        let n = a.len();
        let m = b.len();
        let mut sink = EndSink::new(out, ends, n, m, tau);
        let k = if tau >= 0.0 && tau.is_finite() {
            (tau.floor() as usize).min(n.max(m))
        } else {
            n.max(m)
        };
        DistanceWorkspace::with(|ws| {
            let (prev, curr) = ws.u32_rows(m + 1, BAND_INF);
            for (j, cell) in prev.iter_mut().enumerate().take(m.min(k) + 1) {
                *cell = j as u32;
            }
            sink.row(0, 0..=m.min(k), |j| f64::from(prev[j]));
            let mut cells = 0u64;
            for (i, ai) in a.iter().enumerate() {
                let i = i + 1;
                let lo = i.saturating_sub(k).max(1);
                let hi = m.min(i + k);
                let edge_in_band = lo == 1 && i <= k;
                curr[lo - 1] = if edge_in_band { i as u32 } else { BAND_INF };
                // Column 0 counts towards the minimum here: it is an end
                // point of its own when `b`'s empty prefix is wanted.
                let mut row_min = curr[lo - 1];
                for j in lo..=hi {
                    let sub_cost = if *ai == b[j - 1] { 0 } else { 1 };
                    let value = (prev[j - 1] + sub_cost)
                        .min(prev[j] + 1)
                        .min(curr[j - 1] + 1);
                    curr[j] = value;
                    row_min = row_min.min(value);
                }
                cells += (hi + 1 - lo) as u64;
                if hi < m {
                    curr[hi + 1] = BAND_INF;
                }
                if crate::counting::exceeds(f64::from(row_min), tau) {
                    break;
                }
                let first = if edge_in_band { 0 } else { lo };
                sink.row(i, first..=hi, |j| f64::from(curr[j]));
                std::mem::swap(prev, curr);
            }
            record_dp_cells(cells);
        })
    }

    fn length_lower_bound(&self, a_len: usize, b_len: usize) -> f64 {
        length_difference_lower_bound(a_len, b_len)
    }

    fn name(&self) -> &'static str {
        "Levenshtein"
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
        // At most max(|a|, |b|) edits are ever needed.
        Some(len as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_sequence::Symbol;

    fn sym(text: &str) -> Vec<Symbol> {
        text.chars().map(Symbol::from_char).collect()
    }

    fn lev(a: &str, b: &str) -> f64 {
        Levenshtein::new().distance(&sym(a), &sym(b))
    }

    #[test]
    fn classic_examples() {
        assert_eq!(lev("KITTEN", "SITTING"), 3.0);
        assert_eq!(lev("FLAW", "LAWN"), 2.0);
        assert_eq!(lev("GATTACA", "GATTACA"), 0.0);
        assert_eq!(lev("", "ACGT"), 4.0);
        assert_eq!(lev("ACGT", ""), 4.0);
        assert_eq!(lev("", ""), 0.0);
    }

    #[test]
    fn symmetry() {
        assert_eq!(lev("ACGGT", "AGT"), lev("AGT", "ACGGT"));
    }

    #[test]
    fn single_edits() {
        assert_eq!(lev("ACGT", "ACCT"), 1.0); // substitution
        assert_eq!(lev("ACGT", "ACGTT"), 1.0); // insertion
        assert_eq!(lev("ACGT", "AGT"), 1.0); // deletion
    }

    #[test]
    fn bounded_by_max_length() {
        let d = Levenshtein::new();
        let a = sym("AAAAAAAAAA");
        let b = sym("CCCCC");
        assert!(d.distance(&a, &b) <= 10.0);
        assert_eq!(d.distance(&a, &b), 10.0); // 5 subs + 5 deletions
    }

    #[test]
    fn triangle_inequality_spot_checks() {
        let d = Levenshtein::new();
        let seqs = [sym("ACGT"), sym("AGT"), sym("TTTT"), sym(""), sym("ACG")];
        for x in &seqs {
            for y in &seqs {
                for z in &seqs {
                    assert!(d.distance(x, z) <= d.distance(x, y) + d.distance(y, z));
                }
            }
        }
    }

    #[test]
    fn consistency_every_b_subrange_has_a_cheap_a_subrange() {
        crate::traits::assert_consistent(
            &Levenshtein::new(),
            &sym("ACGTTGCAACGGT"),
            &sym("TACGTTCCAAGGTT"),
        );
    }
}
