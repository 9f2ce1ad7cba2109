//! Levenshtein (edit) distance with unit costs.

use ssr_sequence::Element;

use crate::alignment::{Alignment, Coupling};
use crate::counting::{pruning_enabled, record_dp_cells, record_lower_bound_prune};
use crate::end_table::{EndSink, EndSpec};
use crate::lower_bounds::length_difference_lower_bound;
use crate::traits::{AlignmentDistance, DistanceProperties, SequenceDistance};
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
/// same kernel with `τ = ∞` (full band, no abandoning);
/// [`AlignmentDistance::alignment`] keeps a full matrix with traceback.
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
        let prune = pruning_enabled();
        // Lower bound: every length difference needs at least one indel.
        if prune && crate::counting::exceeds(length_difference_lower_bound(n, m), tau) {
            record_lower_bound_prune();
            return None;
        }
        // Ukkonen band half-width: any cell with |i − j| > k has value > τ,
        // so an optimal path of cost ≤ τ never leaves the band. k ≥ |n − m|
        // holds because the lower bound above passed.
        let k = if prune && tau >= 0.0 && tau.is_finite() {
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
                if prune && crate::counting::exceeds(f64::from(row_min), tau) {
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
        let prune = pruning_enabled();
        let k = if prune && tau >= 0.0 && tau.is_finite() {
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
                if prune && crate::counting::exceeds(f64::from(row_min), tau) {
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

impl<E: Element> AlignmentDistance<E> for Levenshtein {
    fn alignment(&self, a: &[E], b: &[E]) -> Alignment {
        if a.is_empty() || b.is_empty() {
            return Alignment::new(Vec::new(), a.len().max(b.len()) as f64);
        }
        let n = a.len();
        let m = b.len();
        let mut dp = vec![0u32; (n + 1) * (m + 1)];
        let idx = |i: usize, j: usize| i * (m + 1) + j;
        for i in 0..=n {
            dp[idx(i, 0)] = i as u32;
        }
        for j in 0..=m {
            dp[idx(0, j)] = j as u32;
        }
        for i in 1..=n {
            for j in 1..=m {
                let sub_cost = if a[i - 1] == b[j - 1] { 0 } else { 1 };
                dp[idx(i, j)] = (dp[idx(i - 1, j - 1)] + sub_cost)
                    .min(dp[idx(i - 1, j)] + 1)
                    .min(dp[idx(i, j - 1)] + 1);
            }
        }
        // Traceback into a coupling sequence following the paper's model:
        // insertions / deletions repeat an element of the other sequence.
        let mut couplings = Vec::with_capacity(n + m);
        let mut i = n;
        let mut j = m;
        while i > 0 || j > 0 {
            if i > 0 && j > 0 {
                let sub_cost = if a[i - 1] == b[j - 1] { 0 } else { 1 };
                if dp[idx(i, j)] == dp[idx(i - 1, j - 1)] + sub_cost {
                    couplings.push(Coupling {
                        a_index: i - 1,
                        b_index: j - 1,
                    });
                    i -= 1;
                    j -= 1;
                    continue;
                }
            }
            if i > 0 && dp[idx(i, j)] == dp[idx(i - 1, j)] + 1 {
                couplings.push(Coupling {
                    a_index: i - 1,
                    b_index: j.saturating_sub(1),
                });
                i -= 1;
            } else {
                couplings.push(Coupling {
                    a_index: i.saturating_sub(1),
                    b_index: j - 1,
                });
                j -= 1;
            }
        }
        couplings.reverse();
        Alignment::new(couplings, f64::from(dp[idx(n, m)]))
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
    fn alignment_cost_equals_distance() {
        let d = Levenshtein::new();
        let cases = [
            ("KITTEN", "SITTING"),
            ("ACGT", "TGCA"),
            ("AAAA", "AA"),
            ("A", "TTTTTT"),
        ];
        for (x, y) in cases {
            let a = sym(x);
            let b = sym(y);
            let al = d.alignment(&a, &b);
            assert_eq!(al.cost, d.distance(&a, &b), "{x} vs {y}");
            assert!(
                al.is_valid(a.len(), b.len()),
                "invalid alignment {x} vs {y}"
            );
        }
    }

    #[test]
    fn alignment_of_empty_inputs() {
        let d = Levenshtein::new();
        let empty: Vec<Symbol> = vec![];
        let al = d.alignment(&empty, &sym("ABC"));
        assert_eq!(al.cost, 3.0);
        assert!(al.couplings.is_empty());
    }

    #[test]
    fn consistency_every_b_subrange_has_a_cheap_a_subrange() {
        // Empirical check of Definition 1 using the optimal alignment's
        // projection, mirroring the proof of Section 4.
        let d = Levenshtein::new();
        let a = sym("ACGTTGCAACGGT");
        let b = sym("TACGTTCCAAGGTT");
        let full = d.distance(&a, &b);
        let al = d.alignment(&a, &b);
        for start in 0..b.len() {
            for end in (start + 1)..=b.len() {
                let a_range = al
                    .a_range_for_b_range(start..end)
                    .expect("every element of b is coupled");
                let sub = d.distance(&a[a_range], &b[start..end]);
                assert!(
                    sub <= full + 1e-9,
                    "consistency violated for b[{start}..{end}]: {sub} > {full}"
                );
            }
        }
    }
}
