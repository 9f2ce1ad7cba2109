//! Candidate generation: from (query segment, database window) matches to
//! regions.
//!
//! Step 4 yields pairs coupling a query segment with a database window within
//! distance `ε`. Step 5 first *chains* them: two consecutive database windows
//! that matched query segments which are themselves consecutive (up to the
//! temporal shift `λ0`) can be concatenated. A maximal set of chained and
//! side-by-side matches is a [`Region`], the unit step 5b expands and
//! verifies; a chain of `k` windows holds pairs up to `(k + 2)·λ/2` long.

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

/// One start-rectangle corner of a [`Region`]: where a match begins, and how
/// far the chains that begin with it run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Anchor {
    /// Offset of the matched query segment within the query.
    pub query_start: usize,
    /// Offset of the matched window within its sequence.
    pub db_start: usize,
    /// Largest end offset of a query segment on a chain from this match.
    pub query_reach: usize,
    /// End offset of the last window on a chain from this match.
    pub db_reach: usize,
}

/// A candidate region: a maximal set of connected matches on consecutive
/// windows of one database sequence.
#[derive(Clone, PartialEq, Debug)]
pub struct Region {
    /// The database sequence.
    pub sequence: SequenceId,
    /// Inclusive range of the matched window indices; all of them matched.
    pub window_range: (usize, usize),
    /// The region's matches, each `(query_start, db_start)` once, by window
    /// then query offset: the corners its start pairs are painted from
    /// ([`Expansion`](crate::expand::Expansion)).
    pub anchors: Vec<Anchor>,
    /// Number of windows in the longest chain of the region (`k`).
    pub chain_len: usize,
}

/// Groups segment matches into regions.
///
/// Two matches of one sequence **chain** when their window indices are
/// consecutive and the second query segment starts within `λ0` of where the
/// first one ends. They are *connected* when they chain or their **start
/// rectangles overlap**: same or consecutive windows, segments starting
/// within `λ/2 + λ0` of each other. A region is a connected component, so a
/// start pair belongs to one region only and no two regions expand into the
/// same pair; the runs that a segment's `2λ0 + 1` lengths and neighbouring
/// offsets produce side by side are one region, not many.
///
/// Every match records how far the chains that begin with it run — as far as
/// a pair starting around it can extend, since every window inside a similar
/// pair is matched, by consecutive segments. No drift bound applies along a
/// chain: step 5b enumerates every `(start, end)` within reach that satisfies
/// `||SQ| − |SX|| ≤ λ0`, so every sub-chain's pairs are there whether or not
/// the whole chain drifts apart.
///
/// Regions come longest chain first, then by sequence, window and query
/// offset — the order they are verified in.
pub fn build_regions(matches: &[SegmentMatch], window_len: usize, max_shift: usize) -> Vec<Region> {
    assert!(window_len > 0, "window length must be positive");
    let mut order: Vec<&SegmentMatch> = matches.iter().collect();
    order.sort_by_key(|m| (m.sequence.0, m.window_index, m.query_start, m.query_len));

    // Union–find over positions in `order`; a root is its component's
    // smallest position, so roots come in `order` too.
    let mut root: Vec<usize> = (0..order.len()).collect();
    fn find(root: &mut [usize], mut i: usize) -> usize {
        while root[i] != i {
            root[i] = root[root[i]];
            i = root[i];
        }
        i
    }
    // Per match, over the chains that begin with it: their reach, and the
    // windows in the longest. Successors come later in `order`: walk it back.
    let corner = |m: &&SegmentMatch| Anchor {
        query_start: m.query_start,
        db_start: m.db_start,
        query_reach: m.query_end(),
        db_reach: m.db_start + window_len,
    };
    let mut chains: Vec<(Anchor, usize)> = order.iter().map(|m| (corner(m), 1)).collect();
    // One past the last match on the same sequence at most one window on.
    let mut ahead = order.len();
    for (pos, m) in order.iter().enumerate().rev() {
        while (order[ahead - 1].sequence, order[ahead - 1].window_index)
            > (m.sequence, m.window_index + 1)
        {
            ahead -= 1;
        }
        for next in pos + 1..ahead {
            let n = order[next];
            let chained = m.window_index + 1 == n.window_index
                && n.query_start.abs_diff(m.query_end()) <= max_shift;
            if chained {
                let (reach, len) = chains[next];
                let (own, own_len) = &mut chains[pos];
                own.query_reach = own.query_reach.max(reach.query_reach);
                own.db_reach = own.db_reach.max(reach.db_reach);
                *own_len = (*own_len).max(len + 1);
            }
            if chained || n.query_start.abs_diff(m.query_start) <= window_len + max_shift {
                let (a, b) = (find(&mut root, pos), find(&mut root, next));
                root[a.max(b)] = a.min(b);
            }
        }
    }

    let mut regions: Vec<Region> = Vec::new();
    let mut region_of = vec![usize::MAX; order.len()];
    for (pos, m) in order.iter().enumerate() {
        let r = find(&mut root, pos);
        if region_of[r] == usize::MAX {
            region_of[r] = regions.len();
            regions.push(Region {
                sequence: m.sequence,
                window_range: (m.window_index, m.window_index),
                anchors: Vec::new(),
                chain_len: 0,
            });
        }
        let region = &mut regions[region_of[r]];
        region.window_range.1 = m.window_index;
        let (reach, chain_len) = chains[pos];
        region.chain_len = region.chain_len.max(chain_len);
        match region.anchors.last_mut() {
            // The same corner from another segment length.
            Some(a) if (a.query_start, a.db_start) == (m.query_start, m.db_start) => {
                a.query_reach = a.query_reach.max(reach.query_reach);
                a.db_reach = a.db_reach.max(reach.db_reach);
            }
            _ => region.anchors.push(reach),
        }
    }
    // Stable: equally long chains stay by sequence, window and query offset.
    regions.sort_by_key(|region| std::cmp::Reverse(region.chain_len));
    regions
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A match of window `w` (10 elements long) of sequence `s`.
    fn m(s: usize, w: usize, query_start: usize, query_len: usize, distance: f64) -> SegmentMatch {
        SegmentMatch {
            window: WindowId(100 * s + w),
            sequence: SequenceId(s),
            window_index: w,
            db_start: w * 10,
            query_start,
            query_len,
            distance,
        }
    }

    fn chain_lens(matches: &[SegmentMatch], max_shift: usize) -> Vec<usize> {
        let regions = build_regions(matches, 10, max_shift);
        regions.iter().map(|r| r.chain_len).collect()
    }

    /// `(query_start, db_start, query_reach, db_reach)` of a region's anchors.
    fn corners(region: &Region) -> Vec<[usize; 4]> {
        let corner = |a: &Anchor| [a.query_start, a.db_start, a.query_reach, a.db_reach];
        region.anchors.iter().map(corner).collect()
    }

    #[test]
    fn empty_matches_give_no_candidates() {
        assert!(build_regions(&[], 10, 2).is_empty());
    }

    #[test]
    fn single_match_becomes_single_window_candidate() {
        let regions = build_regions(&[m(0, 3, 7, 10, 1.0)], 10, 2);
        assert_eq!(regions.len(), 1);
        let r = &regions[0];
        assert_eq!((r.chain_len, r.window_range), (1, (3, 3)));
        assert_eq!(corners(r), [[7, 30, 17, 40]]);
    }

    #[test]
    fn consecutive_matches_chain() {
        // Windows 2 and 3 matched query segments at 0..10 and 10..20 (the
        // second at two lengths): one region, one chain of two windows, and
        // the first match reaches as far as the second does.
        let matches = [
            m(0, 3, 10, 10, 2.0),
            m(0, 2, 0, 10, 1.0),
            m(0, 3, 10, 11, 2.5),
        ];
        let regions = build_regions(&matches, 10, 2);
        assert_eq!(regions.len(), 1);
        let r = &regions[0];
        assert_eq!((r.chain_len, r.window_range), (2, (2, 3)));
        assert_eq!(corners(r), [[0, 20, 21, 40], [10, 30, 21, 40]]);
    }

    #[test]
    fn shift_tolerance_respects_lambda0() {
        // The second segment starts 3 positions late: a chain only if λ0 ≥ 3,
        // and with λ0 = 2 too far for the start rectangles to touch either.
        let matches = [m(0, 0, 0, 10, 0.5), m(0, 1, 13, 10, 0.5)];
        assert_eq!(chain_lens(&matches, 2), [1, 1]);
        assert_eq!(chain_lens(&matches, 3), [2]);
    }

    #[test]
    fn non_consecutive_windows_do_not_chain() {
        assert_eq!(
            chain_lens(&[m(0, 0, 0, 10, 0.5), m(0, 2, 10, 10, 0.5)], 2),
            [1, 1]
        );
    }

    #[test]
    fn chains_do_not_cross_sequences() {
        assert_eq!(
            chain_lens(&[m(0, 0, 0, 10, 0.5), m(1, 1, 10, 10, 0.5)], 2),
            [1, 1]
        );
    }

    #[test]
    fn long_chains_come_first_and_every_match_is_an_anchor() {
        let matches = [
            m(1, 4, 0, 10, 0.1),
            m(0, 0, 0, 10, 1.0),
            m(0, 1, 10, 10, 1.0),
            m(0, 2, 20, 10, 1.0),
        ];
        let regions = build_regions(&matches, 10, 2);
        assert_eq!((regions[0].chain_len, regions[1].chain_len), (3, 1));
        assert_eq!(regions[0].sequence, SequenceId(0));
        // Every window of the run is a corner to start from (Lemma 3 is
        // anchored on a single matched window), and each knows the run's end:
        // the sub-chains 1..2 and 2..2 are inside the region.
        let all = [[0, 0, 30, 30], [10, 10, 30, 30], [20, 20, 30, 30]];
        assert_eq!(corners(&regions[0]), all);
    }
}
