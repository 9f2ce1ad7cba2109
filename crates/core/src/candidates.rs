//! Candidate generation: from (query segment, database window) matches to
//! chained candidate regions.
//!
//! Step 4 of the framework yields pairs coupling a query segment with a
//! database window within distance `ε`. Step 5 first *chains* such pairs:
//! if `⟨x_i, q_j⟩` and `⟨x_{i+1}, q_{j+1}⟩` are both in the result — i.e. two
//! consecutive database windows matched query segments that are themselves
//! consecutive (up to the temporal shift `λ0`) — they can be concatenated.
//! A maximal chain of `k` windows indicates a candidate similar-subsequence
//! region whose verified matches can be at most `(k + 2)·λ/2` long, and the
//! paper's Type II / III queries verify candidates longest-chain-first.

use std::collections::HashMap;
use std::ops::Range;

use ssr_sequence::{SequenceId, WindowId};

/// A single (query segment, database window) match produced by step 4.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SegmentMatch {
    /// The matched database window.
    pub window: WindowId,
    /// The sequence the window belongs to.
    pub sequence: SequenceId,
    /// Index of the window within its sequence.
    pub window_index: usize,
    /// Offset of the window within its sequence.
    pub db_start: usize,
    /// Offset of the matched query segment within the query.
    pub query_start: usize,
    /// Length of the matched query segment.
    pub query_len: usize,
    /// Distance between the segment and the window (`≤ ε`).
    pub distance: f64,
}

impl SegmentMatch {
    /// End offset (exclusive) of the query segment.
    pub fn query_end(&self) -> usize {
        self.query_start + self.query_len
    }
}

/// A chained candidate region: consecutive matched windows of one database
/// sequence together with the query span their matched segments cover.
#[derive(Clone, PartialEq, Debug)]
pub struct Candidate {
    /// The database sequence.
    pub sequence: SequenceId,
    /// Inclusive range of consecutive matched window indices.
    pub window_range: (usize, usize),
    /// Half-open element range of the database sequence covered by the
    /// chained windows.
    pub db_range: Range<usize>,
    /// Half-open element range of the query covered by the chained segments.
    pub query_range: Range<usize>,
    /// Number of windows in the chain (`k`).
    pub chain_len: usize,
    /// Sum of the segment–window distances along the chain (used to order
    /// equally long chains: tighter chains are verified first).
    pub total_distance: f64,
}

/// Builds chained candidates from segment matches.
///
/// Two matches are chainable when they are on the same sequence, their window
/// indices are consecutive, and the second query segment starts within `λ0`
/// of where the first one ends. Because segments come in lengths
/// `λ/2 − λ0 ..= λ/2 + λ0`, a purely per-step tolerance lets the query span
/// drift arbitrarily far from the database span over a long chain — such a
/// chain can never satisfy the framework's `||SX| − |SQ|| ≤ λ0` constraint, so
/// chaining additionally enforces the *cumulative* drift bound: at every chain
/// prefix, the covered query span and database span differ by at most `λ0`.
///
/// The function returns, for every match, the best (longest, then
/// least-drifted, then tightest) chain *ending* at that match, plus the
/// match's own single-window candidate
/// when the best chain is longer. The singles matter for completeness: the
/// best chain ending at a match may have been extended backwards through
/// coincidental matches in noise, shifting the candidate region so far that
/// expansion (step 5b) can no longer reach the true pair — the paper's
/// Lemma 3 guarantee is anchored on a *single* matched window, so each one is
/// kept as a candidate in its own right. Duplicates are merged and the result
/// is sorted by decreasing chain length and increasing total distance.
pub fn build_candidates(
    matches: &[SegmentMatch],
    window_len: usize,
    max_shift: usize,
) -> Vec<Candidate> {
    assert!(window_len > 0, "window length must be positive");
    if matches.is_empty() {
        return Vec::new();
    }
    // Group matches per sequence and sort by (window_index, query_start).
    let mut per_sequence: HashMap<SequenceId, Vec<usize>> = HashMap::new();
    for (i, m) in matches.iter().enumerate() {
        per_sequence.entry(m.sequence).or_default().push(i);
    }

    let mut candidates = Vec::new();
    for (_, mut idxs) in per_sequence {
        idxs.sort_by_key(|&i| (matches[i].window_index, matches[i].query_start));
        // Longest-chain DP over the matches of this sequence.
        let n = idxs.len();
        let mut chain_len = vec![1usize; n];
        let mut chain_dist = vec![0.0f64; n];
        // Position in idxs where the chain starts.
        let mut chain_start = vec![0usize; n];
        // Query span covered by the whole chain ending at each position —
        // running min/max over *all* chain members, since with a large λ0 an
        // intermediate segment can extend past both endpoints' segments.
        let mut chain_q_min = vec![0usize; n];
        let mut chain_q_max = vec![0usize; n];
        // |query span − db span| of the kept chain. Ties on length prefer the
        // smaller drift: the DP keeps one state per match, and a tightly
        // aligned chain stays extendable under the cumulative drift bound
        // where an equally long but more drifted one would not.
        let mut chain_drift = vec![0i64; n];
        for (pos, &mi) in idxs.iter().enumerate() {
            let m = &matches[mi];
            chain_dist[pos] = m.distance;
            chain_start[pos] = pos;
            chain_q_min[pos] = m.query_start;
            chain_q_max[pos] = m.query_end();
            chain_drift[pos] = (m.query_len as i64 - window_len as i64).abs();
            for (prev_pos, &pi) in idxs.iter().enumerate().take(pos) {
                let p = &matches[pi];
                if p.window_index + 1 != m.window_index {
                    continue;
                }
                let expected = p.query_end();
                let lo = expected.saturating_sub(max_shift);
                let hi = expected + max_shift;
                if m.query_start < lo || m.query_start > hi {
                    continue;
                }
                // Cumulative drift: the chain's query span may differ from its
                // database span by at most the temporal shift λ0.
                let q_min = chain_q_min[prev_pos].min(m.query_start);
                let q_max = chain_q_max[prev_pos].max(m.query_end());
                let start = &matches[idxs[chain_start[prev_pos]]];
                let query_span = (q_max - q_min) as i64;
                let db_span = (m.db_start + window_len - start.db_start) as i64;
                let drift = (query_span - db_span).abs();
                if drift > max_shift as i64 {
                    continue;
                }
                let cand_len = chain_len[prev_pos] + 1;
                let cand_dist = chain_dist[prev_pos] + m.distance;
                let better = match cand_len.cmp(&chain_len[pos]) {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Equal => {
                        drift < chain_drift[pos]
                            || (drift == chain_drift[pos] && cand_dist < chain_dist[pos])
                    }
                    std::cmp::Ordering::Less => false,
                };
                if better {
                    chain_len[pos] = cand_len;
                    chain_dist[pos] = cand_dist;
                    chain_start[pos] = chain_start[prev_pos];
                    chain_q_min[pos] = q_min;
                    chain_q_max[pos] = q_max;
                    chain_drift[pos] = drift;
                }
            }
        }
        for pos in 0..n {
            let mi = idxs[pos];
            let m = &matches[mi];
            let start_match = &matches[idxs[chain_start[pos]]];
            candidates.push(Candidate {
                sequence: m.sequence,
                window_range: (start_match.window_index, m.window_index),
                db_range: start_match.db_start..m.db_start + window_len,
                query_range: chain_q_min[pos]..chain_q_max[pos],
                chain_len: chain_len[pos],
                total_distance: chain_dist[pos],
            });
            if chain_len[pos] > 1 {
                // The match's own single-window candidate (see above).
                candidates.push(Candidate {
                    sequence: m.sequence,
                    window_range: (m.window_index, m.window_index),
                    db_range: m.db_start..m.db_start + window_len,
                    query_range: m.query_start..m.query_end(),
                    chain_len: 1,
                    total_distance: m.distance,
                });
            }
        }
    }
    // Merge duplicates (keep the tightest), then order for verification.
    candidates.sort_by(|a, b| {
        (
            a.sequence.0,
            a.window_range,
            a.query_range.start,
            a.query_range.end,
        )
            .cmp(&(
                b.sequence.0,
                b.window_range,
                b.query_range.start,
                b.query_range.end,
            ))
            .then(a.total_distance.total_cmp(&b.total_distance))
    });
    candidates.dedup_by(|next, kept| {
        kept.sequence == next.sequence
            && kept.window_range == next.window_range
            && kept.query_range == next.query_range
    });
    candidates.sort_by(|a, b| {
        b.chain_len
            .cmp(&a.chain_len)
            .then(a.total_distance.total_cmp(&b.total_distance))
            .then(a.sequence.0.cmp(&b.sequence.0))
            .then(a.window_range.0.cmp(&b.window_range.0))
    });
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(
        window: usize,
        sequence: usize,
        window_index: usize,
        query_start: usize,
        query_len: usize,
        distance: f64,
    ) -> SegmentMatch {
        SegmentMatch {
            window: WindowId(window),
            sequence: SequenceId(sequence),
            window_index,
            db_start: window_index * 10,
            query_start,
            query_len,
            distance,
        }
    }

    #[test]
    fn empty_matches_give_no_candidates() {
        assert!(build_candidates(&[], 10, 2).is_empty());
    }

    #[test]
    fn single_match_becomes_single_window_candidate() {
        let matches = [m(0, 0, 3, 7, 10, 1.0)];
        let cands = build_candidates(&matches, 10, 2);
        assert_eq!(cands.len(), 1);
        let c = &cands[0];
        assert_eq!(c.chain_len, 1);
        assert_eq!(c.window_range, (3, 3));
        assert_eq!(c.db_range, 30..40);
        assert_eq!(c.query_range, 7..17);
    }

    #[test]
    fn consecutive_matches_chain() {
        // Windows 2 and 3 of sequence 0 matched query segments at 0..10 and
        // 10..20 — they chain into a length-2 candidate.
        let matches = [m(2, 0, 2, 0, 10, 1.0), m(3, 0, 3, 10, 10, 2.0)];
        let cands = build_candidates(&matches, 10, 2);
        assert_eq!(cands[0].chain_len, 2);
        assert_eq!(cands[0].window_range, (2, 3));
        assert_eq!(cands[0].db_range, 20..40);
        assert_eq!(cands[0].query_range, 0..20);
        assert!((cands[0].total_distance - 3.0).abs() < 1e-12);
    }

    #[test]
    fn shift_tolerance_respects_lambda0() {
        // Second segment starts 3 positions late; only allowed if max_shift >= 3.
        let matches = [m(0, 0, 0, 0, 10, 0.5), m(1, 0, 1, 13, 10, 0.5)];
        let strict = build_candidates(&matches, 10, 2);
        assert!(strict.iter().all(|c| c.chain_len == 1));
        let lenient = build_candidates(&matches, 10, 3);
        assert_eq!(lenient[0].chain_len, 2);
    }

    #[test]
    fn non_consecutive_windows_do_not_chain() {
        let matches = [m(0, 0, 0, 0, 10, 0.5), m(2, 0, 2, 10, 10, 0.5)];
        let cands = build_candidates(&matches, 10, 2);
        assert!(cands.iter().all(|c| c.chain_len == 1));
        assert_eq!(cands.len(), 2);
    }

    #[test]
    fn chains_do_not_cross_sequences() {
        let matches = [m(0, 0, 0, 0, 10, 0.5), m(5, 1, 1, 10, 10, 0.5)];
        let cands = build_candidates(&matches, 10, 2);
        assert!(cands.iter().all(|c| c.chain_len == 1));
    }

    #[test]
    fn long_chains_come_first_and_singles_are_preserved() {
        let matches = [
            m(0, 0, 0, 0, 10, 1.0),
            m(1, 0, 1, 10, 10, 1.0),
            m(2, 0, 2, 20, 10, 1.0),
            m(9, 1, 4, 0, 10, 0.1),
        ];
        let cands = build_candidates(&matches, 10, 2);
        assert_eq!(cands[0].chain_len, 3);
        assert_eq!(cands[0].sequence, SequenceId(0));
        assert_eq!(cands[0].db_range, 0..30);
        // Every chained match also yields its own single-window candidate
        // (completeness anchor of Lemma 3), alongside the chain ends of
        // length 2 and 3 and the unrelated sequence-1 match.
        for window in 0..3 {
            assert!(
                cands.iter().any(|c| c.chain_len == 1
                    && c.sequence == SequenceId(0)
                    && c.window_range == (window, window)),
                "missing single-window candidate for window {window}"
            );
        }
        assert!(cands
            .iter()
            .any(|c| c.sequence == SequenceId(1) && c.chain_len == 1));
    }

    #[test]
    fn ties_are_broken_by_total_distance() {
        let matches = [m(0, 0, 0, 0, 10, 5.0), m(1, 1, 0, 0, 10, 1.0)];
        let cands = build_candidates(&matches, 10, 2);
        assert_eq!(cands[0].sequence, SequenceId(1));
        assert_eq!(cands[1].sequence, SequenceId(0));
    }
}
