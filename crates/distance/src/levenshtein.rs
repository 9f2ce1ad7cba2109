//! Levenshtein (edit) distance with unit costs.
//!
//! Two exact programs compute it; a call runs one of them, chosen by `b`
//! alone:
//!
//! * **Bit-vector** (Myers, JACM 1999, in Hyyrö's global-distance form),
//!   whenever `b` has 1 to 64 elements and they carry an
//!   [`Element::small_code`]. `b` is the pattern: bit `j − 1` of a word
//!   stands for its prefix of length `j`, and each element of `a` is one
//!   word step. After step `i` two words `VP` / `VN` hold the `+1` / `−1`
//!   vertical deltas of the column `D[i][0..=m]`, so every cell of it reads
//!   `D[i][j] = i + popcount(VP & low(j)) − popcount(VN & low(j))`.
//!   `distance_within` tracks `D[i][m]` at the top bit; `end_table` reads
//!   the wanted slots of each row straight from the words. Abandoning is
//!   exact: a step ends the program when no cell of its column within the
//!   Ukkonen band is `≤ τ` (looked for only once the diagonal cell exceeds
//!   `τ`, as the minimum is at most that cell), and `distance_within` also
//!   when `D[i][m] − (n − i) > τ`, as the last column moves by at most one a
//!   step.
//! * **Banded** (Ukkonen), for everything else — patterns over 64 elements,
//!   and element types without a code: cells with `|i − j| > ⌊τ⌋` cost more
//!   than `τ` because every off-diagonal step is an indel, and a row whose
//!   minimum exceeds `τ` ends the program.
//!
//! Both give the exact integer distance, so they agree bit for bit on every
//! input either can take. The bit-vector program also runs in Myers' search
//! mode, row 0 held at zero, for [`SequenceDistance::free_start_column`].

use ssr_sequence::Element;

use crate::counting::{record_dp_cells, record_lower_bound_prune};
use crate::end_table::{EndSink, EndSpec};
use crate::lower_bounds::length_difference_lower_bound;
use crate::traits::{DistanceProperties, SequenceDistance};
use crate::workspace::DistanceWorkspace;

/// Sentinel for DP cells outside the Ukkonen band. Half of `u32::MAX` so that
/// `BAND_INF + 1` can never wrap.
const BAND_INF: u32 = u32::MAX / 2;

/// The longest pattern the bit-vector program takes: one bit per element.
const WORD_BITS: usize = u64::BITS as usize;

/// The row-0 shift-in of [`Column::step`] in the global program: `D[i][0] =
/// i`, so row 0 grows by one a step.
const ANCHORED: u64 = 1;

/// The row-0 shift-in of Myers' search mode: `D[i][0] = 0`, an alignment
/// may start after any element of `a` at no cost.
const FREE_START: u64 = 0;

/// The Levenshtein distance: the minimum number of single-element insertions,
/// deletions and substitutions needed to transform one sequence into another.
///
/// This is the distance the paper uses for the PROTEINS experiments
/// (Figures 4, 5, 8 and 12). It is metric and consistent, and tolerates gaps,
/// which makes it suitable for the framework on string data (Section 5).
///
/// [`SequenceDistance::distance_within`] is the threshold-aware kernel: a
/// length-difference lower bound, then one of the two exact programs of the
/// [module](self) — the bit-vector one for patterns of up to 64 coded
/// elements, the banded one otherwise — each with its own exact abandon.
/// [`SequenceDistance::distance`] is the same kernel with `τ = ∞` (no
/// abandoning).
#[derive(Clone, Copy, Debug, Default)]
pub struct Levenshtein;

impl Levenshtein {
    /// Creates the unit-cost Levenshtein distance.
    pub fn new() -> Self {
        Levenshtein
    }
}

/// Ukkonen band half-width for threshold `tau`: any cell with `|i − j| > k`
/// has value `> τ`, so an optimal path of cost `≤ τ` never leaves the band.
fn band(tau: f64, n: usize, m: usize) -> usize {
    if tau >= 0.0 && tau.is_finite() {
        (tau.floor() as usize).min(n.max(m))
    } else {
        n.max(m)
    }
}

/// The largest integer distance within `tau`; `−1` when there is none (a
/// negative or NaN threshold). `∞` saturates to `i64::MAX`.
fn limit(tau: f64) -> i64 {
    if tau >= 0.0 {
        tau.floor() as i64
    } else {
        -1
    }
}

/// `low(j)`: the bits standing for the pattern prefixes of lengths `1..=j`.
#[inline]
fn low(j: usize) -> u64 {
    if j == 0 {
        0
    } else {
        u64::MAX >> (WORD_BITS - j)
    }
}

/// Runs `program` with the match masks of pattern `b` — bit `j` of
/// `masks[c]` set when `b[j]` has code `c` — taken from the thread's
/// workspace and cleared afterwards. `None`, and no program run, when `b`
/// is not a pattern the bit-vector program takes.
#[inline]
fn with_masks<E: Element, R>(b: &[E], program: impl FnOnce(&[u64; 256]) -> R) -> Option<R> {
    if b.is_empty() || b.len() > WORD_BITS {
        return None;
    }
    DistanceWorkspace::with(|ws| {
        let masks = ws.masks();
        for (j, element) in b.iter().enumerate() {
            let Some(code) = element.small_code() else {
                clear(masks, &b[..j]);
                return None;
            };
            masks[usize::from(code)] |= 1 << j;
        }
        let result = program(masks);
        clear(masks, b);
        Some(result)
    })
}

/// Zeroes the masks of the codes of `elements`.
#[inline]
fn clear<E: Element>(masks: &mut [u64; 256], elements: &[E]) {
    for element in elements {
        if let Some(code) = element.small_code() {
            masks[usize::from(code)] = 0;
        }
    }
}

/// The match mask of a text element: the pattern positions it equals. A
/// type codes every value or none, so a pattern with codes means a text
/// with codes.
#[inline]
fn mask_of<E: Element>(masks: &[u64; 256], element: &E) -> u64 {
    element
        .small_code()
        .map_or(0, |code| masks[usize::from(code)])
}

/// The column `D[i][0..=m]` of the edit-distance table as the bit-vector
/// program keeps it: bit `j − 1` of `vp` / `vn` is set when
/// `D[i][j] − D[i][j − 1]` is `+1` / `−1`. Bits at and above `m` hold
/// garbage that never reaches the bits below (carries and shifts only move
/// up), and no read looks at them.
struct Column {
    vp: u64,
    vn: u64,
    i: usize,
}

impl Column {
    /// Row 0: `D[0][j] = j`, every delta `+1`.
    fn first() -> Self {
        Column {
            vp: u64::MAX,
            vn: 0,
            i: 0,
        }
    }

    /// One word step: the column after one more element of `a`, whose match
    /// mask is `eq`, with `row0` ([`ANCHORED`] or [`FREE_START`]) the change
    /// of `D[·][0]`. Returns the change of `D[·][top + 1]`.
    #[inline]
    fn step(&mut self, eq: u64, top: usize, row0: u64) -> i64 {
        let xv = eq | self.vn;
        let xh = ((eq & self.vp).wrapping_add(self.vp) ^ self.vp) | eq;
        let ph = self.vn | !(xh | self.vp);
        let mh = self.vp & xh;
        let delta = ((ph >> top) & 1) as i64 - ((mh >> top) & 1) as i64;
        let ph = (ph << 1) | row0;
        let mh = mh << 1;
        self.vp = mh | !(xv | ph);
        self.vn = ph & xv;
        self.i += 1;
        delta
    }

    /// `D[i][j]`, in the anchored program.
    #[inline]
    fn cell(&self, j: usize) -> i64 {
        let mask = low(j);
        self.i as i64 + i64::from((self.vp & mask).count_ones())
            - i64::from((self.vn & mask).count_ones())
    }

    /// Whether no cell of this column is `≤ limit`, over a pattern of `m`
    /// elements with band half-width `k`. Every path to the last row crosses
    /// this column, and values only grow along a path, so then none ends
    /// within `limit` either. Only the band `|i − j| ≤ k` is read: a cell
    /// outside it is above the limit already.
    #[inline]
    fn abandons(&self, m: usize, k: usize, limit: i64) -> bool {
        if self.cell(self.i.min(m)) <= limit {
            return false;
        }
        let (lo, hi) = (self.i.saturating_sub(k), m.min(self.i + k));
        if lo > hi {
            return true;
        }
        let mut value = self.cell(lo);
        for j in lo..hi {
            if value <= limit {
                return false;
            }
            value += ((self.vp >> j) & 1) as i64 - ((self.vn >> j) & 1) as i64;
        }
        value > limit
    }
}

/// The bit-vector [`SequenceDistance::distance_within`] over a pattern of
/// `m` elements whose masks are `masks`.
fn bit_vector_within<E: Element>(
    masks: &[u64; 256],
    a: &[E],
    m: usize,
    k: usize,
    limit: i64,
) -> Option<f64> {
    let n = a.len();
    let mut column = Column::first();
    let mut score = m as i64;
    for element in a {
        score += column.step(mask_of(masks, element), m - 1, ANCHORED);
        // The last cell moves by at most one a step, so `score − (n − i)`
        // bounds the distance from below.
        if score - ((n - column.i) as i64) > limit || column.abandons(m, k, limit) {
            record_dp_cells((column.i * m) as u64);
            return None;
        }
    }
    record_dp_cells((n * m) as u64);
    (score <= limit).then_some(score as f64)
}

/// The bit-vector [`SequenceDistance::end_table`]: every row up to the
/// abandon handed to the sink, its wanted cells read from the words.
fn bit_vector_end_table<E: Element>(
    masks: &[u64; 256],
    a: &[E],
    m: usize,
    k: usize,
    limit: i64,
    sink: &mut EndSink<'_>,
) {
    let mut column = Column::first();
    sink.row(0, 0..=m, |j| j as f64);
    for element in a {
        column.step(mask_of(masks, element), m - 1, ANCHORED);
        if column.abandons(m, k, limit) {
            break;
        }
        sink.row(column.i, 0..=m, |j| column.cell(j) as f64);
    }
    record_dp_cells((column.i * m) as u64);
}

/// The bit-vector [`SequenceDistance::free_start_column`]: `D[i][m]` of
/// the search-mode program after each element of `text`.
fn bit_vector_free_start<E: Element>(masks: &[u64; 256], text: &[E], m: usize, out: &mut [f64]) {
    let mut column = Column::first();
    let mut score = m as i64;
    out[0] = score as f64;
    for (element, slot) in text.iter().zip(&mut out[1..]) {
        score += column.step(mask_of(masks, element), m - 1, FREE_START);
        *slot = score as f64;
    }
    record_dp_cells((text.len() * m) as u64);
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
        // k ≥ |n − m| holds because the lower bound above passed.
        let k = band(tau, n, m);
        if let Some(within) = with_masks(b, |masks| bit_vector_within(masks, a, m, k, limit(tau))) {
            return within;
        }
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

    /// The program of [`Self::distance_within`] over all of `a` and `b`,
    /// every row up to its abandon handed to the sink. In the banded
    /// program a cell inside the band holds its prefix pair's exact distance
    /// whenever that is `≤ τ` (a path of cost `≤ τ` never leaves the band),
    /// and a value above `τ` otherwise; the bit-vector program reads every
    /// cell exactly.
    fn end_table(&self, a: &[E], b: &[E], ends: EndSpec, tau: f64, out: &mut [f64]) {
        let n = a.len();
        let m = b.len();
        let mut sink = EndSink::new(out, ends, n, m, tau);
        let k = band(tau, n, m);
        if with_masks(b, |masks| {
            bit_vector_end_table(masks, a, m, k, limit(tau), &mut sink)
        })
        .is_some()
        {
            return;
        }
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

    /// Myers' search mode (JACM 1999): the bit-vector program with a row-0
    /// shift-in of `0`, one word step per element of `text`, every value
    /// exact. Patterns of over 64 elements, and elements without a code,
    /// get no column (`false`); the empty pattern's is all zeros.
    fn free_start_column(&self, text: &[E], pattern: &[E], out: &mut [f64]) -> bool {
        assert_eq!(out.len(), text.len() + 1, "free-start column size");
        if pattern.is_empty() {
            out.fill(0.0);
            return true;
        }
        with_masks(pattern, |masks| {
            bit_vector_free_start(masks, text, pattern.len(), out)
        })
        .is_some()
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
