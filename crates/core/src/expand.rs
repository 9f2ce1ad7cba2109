//! Expansion of chained candidates into concrete subsequence pairs.
//!
//! Section 7 of the paper bounds where the endpoints of a verified similar
//! subsequence pair can lie relative to a matched (segment, window) pair: the
//! query subsequence may start up to `λ/2 + λ0` before the matched segment and
//! end up to `λ/2 + λ0` after it, and the database subsequence may extend by
//! up to `λ/2` on each side of the matched windows. [`enumerate_pairs`]
//! yields the resulting `(query range, database range)` combinations one at
//! a time in decreasing order of query-subsequence length, so that a Type II
//! search stops at the first verified pair — and stops the enumeration there.

use std::ops::Range;

use crate::candidates::Candidate;
use crate::config::FrameworkConfig;

/// Clamped expansion limits of a candidate within its query and database
/// sequences.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ExpansionLimits {
    /// Allowed query start offsets (inclusive range of half-open range starts).
    pub query_start: Range<usize>,
    /// Allowed query end offsets.
    pub query_end: Range<usize>,
    /// Allowed database start offsets.
    pub db_start: Range<usize>,
    /// Allowed database end offsets.
    pub db_end: Range<usize>,
}

impl ExpansionLimits {
    /// Computes the expansion limits for `candidate` under `config`, given the
    /// lengths of the query and of the candidate's database sequence.
    pub fn new(
        candidate: &Candidate,
        config: &FrameworkConfig,
        query_len: usize,
        db_seq_len: usize,
    ) -> Self {
        let l = config.window_len();
        let shift = config.max_shift;
        let q = &candidate.query_range;
        let x = &candidate.db_range;
        let query_start = q.start.saturating_sub(l + shift)..q.start + 1;
        let query_end = q.end..(q.end + l + shift + 1).min(query_len + 1);
        let db_start = x.start.saturating_sub(l)..x.start + 1;
        let db_end = x.end..(x.end + l + 1).min(db_seq_len + 1);
        ExpansionLimits {
            query_start,
            query_end,
            db_start,
            db_end,
        }
    }
}

/// Enumerates the `(query range, database range)` pairs of a candidate for
/// verification, lazily: by decreasing query-subsequence length, then
/// decreasing database-subsequence length, then increasing query start, then
/// increasing database start. Nothing is built or sorted, so a caller that
/// stops verifying — Type II at the first length it cannot beat, any query
/// at its budget — stops the enumeration with it.
///
/// Only pairs satisfying the framework's constraints are produced:
/// `|SQ| ≥ λ`, `|SX| ≥ λ` and `||SQ| − |SX|| ≤ λ0`, with start and end
/// points inside the candidate's [`ExpansionLimits`].
pub fn enumerate_pairs(
    candidate: &Candidate,
    config: &FrameworkConfig,
    query_len: usize,
    db_seq_len: usize,
) -> impl Iterator<Item = (Range<usize>, Range<usize>)> {
    pairs_within(
        ExpansionLimits::new(candidate, config, query_len, db_seq_len),
        config.lambda,
        config.max_shift,
    )
}

/// [`enumerate_pairs`] over limits already computed.
pub(crate) fn pairs_within(
    limits: ExpansionLimits,
    lambda: usize,
    max_shift: usize,
) -> impl Iterator<Item = (Range<usize>, Range<usize>)> {
    let ExpansionLimits {
        query_start,
        query_end,
        db_start,
        db_end,
    } = limits;
    let min_len = lambda.max(1);
    // Upper bounds only: `starts_of_length` keeps the pairs inside the limits.
    let longest_q = (query_end.end - 1).saturating_sub(query_start.start);
    let longest_x = (db_end.end - 1).saturating_sub(db_start.start);
    (min_len..=longest_q).rev().flat_map(move |q_len| {
        let starts_q = starts_of_length(&query_start, &query_end, q_len);
        let (db_start, db_end) = (db_start.clone(), db_end.clone());
        let longest = longest_x.min(q_len.saturating_add(max_shift));
        let shortest = min_len.max(q_len.saturating_sub(max_shift));
        (shortest..=longest).rev().flat_map(move |x_len| {
            let starts_x = starts_of_length(&db_start, &db_end, x_len);
            starts_q.clone().flat_map(move |qs| {
                starts_x
                    .clone()
                    .map(move |xs| (qs..qs + q_len, xs..xs + x_len))
            })
        })
    })
}

/// The start offsets within `starts` whose range of length `len` ends within
/// `ends`.
fn starts_of_length(starts: &Range<usize>, ends: &Range<usize>, len: usize) -> Range<usize> {
    let first = starts.start.max(ends.start.saturating_sub(len));
    let last = starts.end.min(ends.end.saturating_sub(len));
    first..last.max(first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_sequence::SequenceId;

    fn candidate(db_range: Range<usize>, query_range: Range<usize>, chain_len: usize) -> Candidate {
        Candidate {
            sequence: SequenceId(0),
            window_range: (0, chain_len - 1),
            db_range,
            query_range,
            chain_len,
            total_distance: 0.0,
        }
    }

    fn config(lambda: usize, shift: usize) -> FrameworkConfig {
        FrameworkConfig::new(lambda).with_max_shift(shift)
    }

    type Pairs = Vec<(Range<usize>, Range<usize>)>;

    fn pairs(cand: &Candidate, cfg: &FrameworkConfig, query_len: usize, db_len: usize) -> Pairs {
        enumerate_pairs(cand, cfg, query_len, db_len).collect()
    }

    /// The enumeration as it was before it became lazy — every combination
    /// of the limits in nested-loop order, filtered, then stably sorted —
    /// kept here as the definition of the order.
    fn eager_pairs(
        cand: &Candidate,
        cfg: &FrameworkConfig,
        query_len: usize,
        db_len: usize,
    ) -> Pairs {
        let limits = ExpansionLimits::new(cand, cfg, query_len, db_len);
        let mut pairs = Pairs::new();
        for qs in limits.query_start.clone() {
            for qe in limits.query_end.clone() {
                for xs in limits.db_start.clone() {
                    for xe in limits.db_end.clone() {
                        if qe <= qs || qe > query_len || xe <= xs || xe > db_len {
                            continue;
                        }
                        let (q_len, x_len) = (qe - qs, xe - xs);
                        if q_len >= cfg.lambda
                            && x_len >= cfg.lambda
                            && q_len.abs_diff(x_len) <= cfg.max_shift
                        {
                            pairs.push((qs..qe, xs..xe));
                        }
                    }
                }
            }
        }
        pairs.sort_by(|a, b| (b.0.len().cmp(&a.0.len())).then_with(|| b.1.len().cmp(&a.1.len())));
        pairs
    }

    #[test]
    fn lazy_enumeration_equals_the_eager_sorted_list() {
        // Mid-sequence, clamped at either edge of the query and of the
        // database sequence, sequences too short for any pair, unequal chain
        // extents, and no length difference allowed at all.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize % bound
        };
        let mut compared = 0usize;
        for round in 0..1000 {
            let lambda = 2 * (1 + next(6));
            let shift = if round % 5 == 0 { 0 } else { next(4) };
            let cfg = config(lambda, shift);
            // Every fourth case may be too short for any pair at all.
            let floor = if round % 4 == 0 { 1 } else { lambda };
            let query_len = floor + next(4 * lambda);
            let db_len = floor + next(5 * lambda);
            let q_start = next(query_len);
            let x_start = next(db_len);
            let q_end = (q_start + 1 + next(2 * lambda)).min(query_len);
            let x_end = (x_start + 1 + next(2 * lambda)).min(db_len);
            let cand = candidate(x_start..x_end, q_start..q_end, 1 + next(3));
            let lazy = pairs(&cand, &cfg, query_len, db_len);
            assert_eq!(
                lazy,
                eager_pairs(&cand, &cfg, query_len, db_len),
                "lambda {lambda} shift {shift} query {query_len} db {db_len} {cand:?}"
            );
            compared += lazy.len();
        }
        assert!(compared > 10_000, "only {compared} pairs compared");
    }

    #[test]
    fn limits_are_clamped_to_sequence_bounds() {
        let cfg = config(8, 1);
        let cand = candidate(0..8, 0..4, 2);
        let limits = ExpansionLimits::new(&cand, &cfg, 10, 12);
        assert_eq!(limits.query_start, 0..1);
        assert!(limits.query_end.end <= 11);
        assert_eq!(limits.db_start, 0..1);
        assert!(limits.db_end.end <= 13);
    }

    #[test]
    fn pairs_respect_length_constraints() {
        let cfg = config(8, 1);
        let cand = candidate(4..12, 3..11, 2);
        let pairs = pairs(&cand, &cfg, 20, 30);
        assert!(!pairs.is_empty());
        for (q, x) in &pairs {
            assert!(q.end - q.start >= 8);
            assert!(x.end - x.start >= 8);
            let diff = (q.end - q.start) as i64 - (x.end - x.start) as i64;
            assert!(diff.abs() <= 1);
            assert!(q.end <= 20);
            assert!(x.end <= 30);
        }
    }

    #[test]
    fn pairs_are_sorted_by_decreasing_query_length() {
        let cfg = config(8, 2);
        let cand = candidate(4..12, 3..11, 2);
        let pairs = pairs(&cand, &cfg, 25, 40);
        let lengths: Vec<usize> = pairs.iter().map(|(q, _)| q.end - q.start).collect();
        for w in lengths.windows(2) {
            assert!(w[0] >= w[1], "not sorted: {lengths:?}");
        }
    }

    #[test]
    fn short_sequences_yield_no_pairs_below_lambda() {
        let cfg = config(16, 1);
        let cand = candidate(0..8, 0..8, 1);
        // The query is only 10 long: no subsequence of length >= 16 exists.
        let pairs = pairs(&cand, &cfg, 10, 100);
        assert!(pairs.is_empty());
    }

    #[test]
    fn expansion_covers_the_planted_region() {
        // A chain covering db 10..30 and query 5..25 must allow recovering a
        // pair extending a few elements on either side.
        let cfg = config(16, 2);
        let cand = candidate(10..30, 5..25, 2);
        let pairs = pairs(&cand, &cfg, 40, 60);
        assert!(
            pairs.iter().any(|(q, x)| *q == (3..27) && *x == (8..32)),
            "expected expanded pair to be enumerated"
        );
    }
}
