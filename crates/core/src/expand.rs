//! Expansion of a region into concrete subsequence pairs.
//!
//! Section 7 of the paper bounds where the endpoints of a similar pair can
//! lie relative to a matched (segment, window) pair: the query subsequence
//! may start up to `λ/2 + λ0` before the matched segment and end up to
//! `λ/2 + λ0` after it, the database subsequence may extend by up to `λ/2` on
//! each side of the matched windows. An [`Expansion`] holds that for a whole
//! [`Region`]: its **start pairs** are the union of its matches' start
//! rectangles, painted into one table so that each exists once, and its ends
//! run as far as `λ/2 (+ λ0)` past the last match of the chains from there.

use crate::candidates::Region;
use crate::config::FrameworkConfig;

/// What [`Expansion::for_each_pair`] visits: the subsequence pair
/// `(qs..qs + q_len, xs..xs + x_len)`, and the largest end offsets of the
/// pairs that start where it does.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Pair {
    pub qs: usize,
    pub xs: usize,
    pub q_len: usize,
    pub x_len: usize,
    pub query_last: usize,
    pub db_last: usize,
}

/// State of a start pair nobody has asked about yet. A visitor overwrites it
/// with whatever lets it find the start pair's answers again (any smaller
/// value), or with [`DEAD`].
pub const FRESH: u32 = u32::MAX - 2;
/// State of a start pair with no similar pair: it is not visited again.
pub const DEAD: u32 = u32::MAX - 1;
/// Inside a row's extent, but in no match's start rectangle.
const UNPAINTED: u32 = u32::MAX;

/// The start pairs of one query start: database starts `lo..=hi` (empty when
/// `lo > hi`), their states from `offset` on in [`Expansion::cells`], and the
/// farthest ends of the matches that painted the row.
#[derive(Clone, Copy, Default)]
struct Row {
    lo: usize,
    hi: usize,
    offset: usize,
    query_last: usize,
    db_last: usize,
}

/// The start pairs and end limits of one region, clamped to the query and to
/// the region's database sequence. Repainted from region to region, which
/// keeps the allocations.
#[derive(Default)]
pub struct Expansion {
    lambda: usize,
    max_shift: usize,
    /// Query start of `rows[0]`.
    first_row: usize,
    rows: Vec<Row>,
    /// One state per start pair of every row's extent.
    cells: Vec<u32>,
    /// Longest `|SQ|` of any pair, exactly; `0` when there is no pair.
    longest: usize,
}

impl Expansion {
    /// Makes this the expansion of `region`, given the lengths of the query
    /// and of the region's database sequence; every start pair [`FRESH`].
    ///
    /// The start pairs are `qs ∈ [q_m − λ/2 − λ0, q_m]`,
    /// `xs ∈ [x_m − λ/2, x_m]` for each match `m` — the union, not the
    /// bounding box, which is quadratic in the run length — less those with
    /// no room for `λ` elements. Their farthest ends are `λ/2 + λ0` (query)
    /// and `λ/2` (database) past the reach of the matches that painted their
    /// row, cut at the ends of the sequences.
    pub fn paint(
        &mut self,
        region: &Region,
        config: &FrameworkConfig,
        (query_len, db_seq_len): (usize, usize),
    ) {
        let (l, lambda) = (config.window_len(), config.lambda.max(1));
        let before = l + config.max_shift;
        (self.lambda, self.max_shift) = (lambda, config.max_shift);
        self.longest = 0;
        let first = region.anchors.iter().map(|a| a.query_start).min();
        self.first_row = first.unwrap_or(0).saturating_sub(before);
        self.rows.clear();
        self.cells.clear();
        // The clamped start rectangles: rows, columns, farthest ends.
        let rects = || {
            region.anchors.iter().filter_map(move |a| {
                let query_last = (a.query_reach + before).min(query_len);
                let db_last = (a.db_reach + l).min(db_seq_len);
                let rows = a.query_start.saturating_sub(before)
                    ..=a.query_start.min(query_last.checked_sub(lambda)?);
                let columns =
                    a.db_start.saturating_sub(l)..=a.db_start.min(db_last.checked_sub(lambda)?);
                (!columns.is_empty()).then_some((rows, columns, query_last, db_last))
            })
        };
        let empty = Row {
            lo: usize::MAX,
            ..Row::default()
        };
        for (rows, columns, query_last, db_last) in rects() {
            for qs in rows {
                if qs - self.first_row >= self.rows.len() {
                    self.rows.resize(qs - self.first_row + 1, empty);
                }
                let row = &mut self.rows[qs - self.first_row];
                row.lo = row.lo.min(*columns.start());
                row.hi = row.hi.max(*columns.end());
                row.query_last = row.query_last.max(query_last);
                row.db_last = row.db_last.max(db_last);
            }
        }
        let mut cells = 0;
        for (qs, row) in (self.first_row..).zip(&mut self.rows) {
            if row.lo <= row.hi {
                row.offset = cells;
                cells += row.hi + 1 - row.lo;
                let longest = (row.query_last - qs).min(row.db_last - row.lo + self.max_shift);
                self.longest = self.longest.max(longest);
            }
        }
        self.cells.resize(cells, UNPAINTED);
        for (rows, columns, ..) in rects() {
            for qs in rows {
                let row = self.rows[qs - self.first_row];
                let (first, last) = (columns.start() - row.lo, columns.end() - row.lo);
                self.cells[row.offset + first..=row.offset + last].fill(FRESH);
            }
        }
    }

    /// The longest `|SQ|` of any pair of the region, exactly; `0` when the
    /// sequences leave room for none.
    pub fn longest(&self) -> usize {
        self.longest
    }

    /// Visits the region's pairs, lazily: by decreasing query-subsequence
    /// length, then decreasing database-subsequence length, then increasing
    /// query start, then increasing database start. Nothing is built or
    /// sorted, so a visitor that returns `true` — Type I at its result cap,
    /// any query at its budget — stops the enumeration.
    ///
    /// Only pairs with `|SQ| ≥ λ`, `|SX| ≥ λ` and `||SQ| − |SX|| ≤ λ0` are
    /// produced, from a painted start pair to ends within its limits, each
    /// **once** — a pair is a start pair and two lengths. The visitor may
    /// change the start pair's state; [`DEAD`] start pairs are passed over.
    pub fn for_each_pair(&mut self, mut visit: impl FnMut(&mut u32, Pair) -> bool) {
        for q_len in (self.lambda..=self.longest).rev() {
            if self.pairs_of_length(q_len, &mut visit) {
                return;
            }
        }
    }

    /// [`Self::for_each_pair`] over the pairs of one `|SQ|`; `true` when the
    /// visitor stopped it. Type II walks every region one length at a time,
    /// longest first, so no region is asked about a length below the answer.
    pub fn pairs_of_length(
        &mut self,
        q_len: usize,
        mut visit: impl FnMut(&mut u32, Pair) -> bool,
    ) -> bool {
        let (lambda, shift) = (self.lambda, self.max_shift);
        if q_len > self.longest {
            return false;
        }
        for x_len in (lambda.max(q_len.saturating_sub(shift))..=q_len + shift).rev() {
            for (qs, row) in (self.first_row..).zip(&self.rows) {
                if qs + q_len > row.query_last || x_len > row.db_last {
                    continue;
                }
                let (query_last, db_last) = (row.query_last, row.db_last);
                for xs in row.lo..=row.hi.min(db_last - x_len) {
                    let state = &mut self.cells[row.offset + xs - row.lo];
                    if *state < DEAD {
                        let pair = Pair {
                            qs,
                            xs,
                            q_len,
                            x_len,
                            query_last,
                            db_last,
                        };
                        if visit(state, pair) {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{build_regions, SegmentMatch};
    use ssr_sequence::{SequenceId, WindowId};
    use std::collections::{BTreeMap, BTreeSet};

    /// `(|SQ|, |SX|, qs, xs)` of every visited pair, in visiting order.
    type Pairs = Vec<(usize, usize, usize, usize)>;

    /// Regions of matches `(window index, query start, segment length)` of
    /// one sequence.
    fn regions(matches: &[(usize, usize, usize)], cfg: &FrameworkConfig) -> Vec<Region> {
        let segment = |&(w, query_start, query_len): &(usize, usize, usize)| SegmentMatch {
            window: WindowId(w),
            sequence: SequenceId(0),
            window_index: w,
            db_start: w * cfg.window_len(),
            query_start,
            query_len,
            distance: 1.0,
        };
        let matches: Vec<SegmentMatch> = matches.iter().map(segment).collect();
        build_regions(&matches, cfg.window_len(), cfg.max_shift)
    }

    fn pairs(region: &Region, cfg: &FrameworkConfig, lens: (usize, usize)) -> Pairs {
        let mut expansion = Expansion::default();
        expansion.paint(region, cfg, lens);
        let mut pairs = Pairs::new();
        expansion.for_each_pair(|_, p| {
            assert!(p.qs + p.q_len <= p.query_last && p.query_last <= lens.0);
            assert!(p.xs + p.x_len <= p.db_last && p.db_last <= lens.1);
            pairs.push((p.q_len, p.x_len, p.qs, p.xs));
            false
        });
        // `longest` is exact: the first pair has it, and no pair means none.
        let longest = Some(expansion.longest()).filter(|&l| l >= cfg.lambda);
        assert_eq!(pairs.first().map(|p| p.0), longest);
        pairs
    }

    /// The pairs of a run over windows 1 and 2, under `λ` and `λ0`.
    fn run_pairs(lambda: usize, shift: usize, lens: (usize, usize)) -> Pairs {
        let cfg = FrameworkConfig::new(lambda).with_max_shift(shift);
        let l = cfg.window_len();
        let run = regions(&[(1, 3, l), (2, 3 + l, l)], &cfg);
        pairs(&run[0], &cfg, lens)
    }

    /// The enumeration as its definition reads — every start pair of every
    /// match's rectangle, once; ends as far as the farthest-reaching match
    /// of the start pair's row; the three constraints — then sorted.
    fn eager_pairs(region: &Region, cfg: &FrameworkConfig, lens: (usize, usize)) -> Pairs {
        let (l, shift, lambda) = (cfg.window_len(), cfg.max_shift, cfg.lambda);
        let mut starts = BTreeSet::new();
        let mut limits: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
        for a in &region.anchors {
            let query_last = (a.query_reach + l + shift).min(lens.0);
            let db_last = (a.db_reach + l).min(lens.1);
            for qs in a.query_start.saturating_sub(l + shift)..=a.query_start {
                for xs in a.db_start.saturating_sub(l)..=a.db_start {
                    if qs + lambda <= query_last && xs + lambda <= db_last {
                        starts.insert((qs, xs));
                        let row = limits.entry(qs).or_default();
                        *row = (row.0.max(query_last), row.1.max(db_last));
                    }
                }
            }
        }
        let mut pairs = Pairs::new();
        for (qs, xs) in starts {
            for q_len in lambda..=limits[&qs].0 - qs {
                for x_len in lambda..=limits[&qs].1 - xs {
                    if q_len.abs_diff(x_len) <= shift {
                        pairs.push((q_len, x_len, qs, xs));
                    }
                }
            }
        }
        pairs.sort_by_key(|&(q, x, qs, xs)| (std::cmp::Reverse((q, x)), qs, xs));
        pairs
    }

    #[test]
    fn lazy_enumeration_equals_the_eager_sorted_list() {
        // Runs, side-by-side runs, scattered matches and blobs of them, in
        // mid-sequence and clamped at either edge of the query and of the
        // database sequence, sequences too short for any pair, and no length
        // difference allowed at all. Every pair once — within a region and
        // across the regions of the sequence.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize % bound
        };
        let mut compared = 0usize;
        for round in 0..400 {
            let lambda = 2 * (1 + next(5));
            let shift = if round % 5 == 0 { 0 } else { next(3) };
            let cfg = FrameworkConfig::new(lambda).with_max_shift(shift);
            let (l, windows) = (cfg.window_len(), 1 + next(6));
            // Every fourth case may be too short for any pair at all.
            let floor = if round % 4 == 0 { 1 } else { lambda };
            let lens = (floor + next(5 * lambda), windows * l + next(lambda));
            // Matches in twos — a segment and its successor on the next
            // window — mostly continuing a diagonal, sometimes jumping.
            let (mut matches, mut q) = (Vec::new(), next(lens.0));
            for _ in 0..1 + next(8) {
                let jump = [next(lens.0), l + next(shift + 1)][next(3).min(1)];
                q = (q + jump) % lens.0;
                let (w, len) = (next(windows), (l + next(shift + 1)).min(lens.0 - q));
                matches.extend([(w, q, len), ((w + 1) % windows, q + len, l - l.min(shift))]);
            }
            let mut seen = BTreeSet::new();
            for region in regions(&matches, &cfg) {
                let lazy = pairs(&region, &cfg, lens);
                assert_eq!(lazy, eager_pairs(&region, &cfg, lens), "{region:?}");
                assert!(lazy.iter().all(|&p| seen.insert(p)), "twice: {matches:?}");
                compared += lazy.len();
            }
        }
        assert!(compared > 100_000, "only {compared} pairs compared");
    }

    #[test]
    fn limits_are_clamped_to_sequence_bounds() {
        // A match at the very beginning of both sequences and one at the very
        // end: starts stop at 0, ends at the sequences' lengths.
        let cfg = FrameworkConfig::new(8).with_max_shift(1);
        for (matched, first, last) in [((0, 0, 4), (0, 0), (9, 8)), ((2, 6, 4), (1, 4), (10, 12))] {
            let all = pairs(&regions(&[matched], &cfg)[0], &cfg, (10, 12));
            assert_eq!(all.iter().map(|p| (p.2, p.3)).min(), Some(first));
            assert_eq!(all.iter().map(|p| (p.2 + p.0, p.3 + p.1)).max(), Some(last));
        }
    }

    #[test]
    fn pairs_respect_length_constraints() {
        let all = run_pairs(8, 1, (20, 30));
        assert!(!all.is_empty());
        for (q_len, x_len, qs, xs) in all {
            assert!(q_len >= 8 && x_len >= 8 && q_len.abs_diff(x_len) <= 1);
            assert!(qs + q_len <= 20 && xs + x_len <= 30);
        }
    }

    #[test]
    fn pairs_are_sorted_by_decreasing_query_length() {
        let all = run_pairs(8, 2, (25, 40));
        assert!(all.windows(2).all(|w| w[0].0 >= w[1].0));
    }

    #[test]
    fn short_sequences_yield_no_pairs_below_lambda() {
        // The query is only 10 long: no subsequence of length >= 16 exists.
        assert!(run_pairs(16, 1, (10, 100)).is_empty());
    }

    #[test]
    fn expansion_covers_the_planted_region() {
        // A run over db 8..24 and query 3..19 reaches a pair extending a few
        // elements on either side — and the pair of its second window alone.
        let all = run_pairs(16, 2, (40, 60));
        assert!(all.contains(&(20, 20, 1, 6)) && all.contains(&(16, 16, 9, 14)));
    }
}
