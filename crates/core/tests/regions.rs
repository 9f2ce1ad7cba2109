//! Step 5's unit through the public API: regions ([`build_regions`]) and
//! their expansion ([`Expansion`]). The enumeration order, the clamping and
//! the three constraints are held to an eager definition in `expand.rs`'s own
//! tests; these are the two properties that deleted `Verifier::seen` — no
//! pair comes twice, whatever the runs look like — and the dead-start rule.

use std::collections::BTreeSet;

use ssr_core::expand::{Expansion, DEAD, FRESH};
use ssr_core::{build_regions, FrameworkConfig, Region, SegmentMatch};
use ssr_sequence::{SequenceId, WindowId};

/// A run over windows `first..first + windows` of sequence 0, one match per
/// window, the segments consecutive from query offset `q` on.
fn run(config: &FrameworkConfig, first: usize, windows: usize, q: usize) -> Vec<SegmentMatch> {
    let l = config.window_len();
    let matched = |k: usize| SegmentMatch {
        window: WindowId(first + k),
        sequence: SequenceId(0),
        window_index: first + k,
        db_start: (first + k) * l,
        query_start: q + k * l,
        query_len: l,
        distance: 1.0,
    };
    (0..windows).map(matched).collect()
}

/// Every pair of every region, as `(qs, |SQ|, xs, |SX|)`, asserting that
/// none comes twice.
fn all_pairs(regions: &[Region], config: &FrameworkConfig, lens: (usize, usize)) -> usize {
    let mut seen = BTreeSet::new();
    let mut expansion = Expansion::default();
    for region in regions {
        expansion.paint(region, config, lens);
        expansion.for_each_pair(|_, p| {
            assert!(
                seen.insert((p.qs, p.q_len, p.xs, p.x_len)),
                "{p:?} comes twice"
            );
            false
        });
    }
    seen.len()
}

#[test]
fn two_non_chaining_runs_over_the_same_windows_share_no_pair() {
    let config = FrameworkConfig::new(20).with_max_shift(2);
    let (l, lens) = (config.window_len(), (120, 90));
    // Side by side (4 apart: no match of one chains with one of the other,
    // but their start rectangles overlap — one region), a window's length
    // apart (the second run's first segment is where the first run's second
    // is: still one region), and far apart (two regions, over the same
    // windows, whose boxes would have overlapped on the database side).
    for (offset, expected_regions) in [(4, 1), (l, 1), (5 * l, 2)] {
        let mut matches = run(&config, 1, 3, 10);
        matches.extend(run(&config, 1, 3, 10 + offset));
        let regions = build_regions(&matches, l, config.max_shift);
        assert_eq!(regions.len(), expected_regions, "offset {offset}");
        let pairs = all_pairs(&regions, &config, lens);
        // Not fewer than either run alone: nothing is lost to the merge.
        let alone = build_regions(&run(&config, 1, 3, 10), l, config.max_shift);
        assert!(pairs > all_pairs(&alone, &config, lens), "offset {offset}");
    }
}

#[test]
fn a_run_is_the_union_of_its_start_rectangles_not_their_bounding_box() {
    // Three 20-element windows (ISSUE 21's example): the bounding box of the
    // start points is ≈ 63 × 61 ≈ 3,700 start pairs and quadratic in the run
    // length; the union is three rectangles of 23 × 21, less their overlaps.
    let config = FrameworkConfig::new(40).with_max_shift(2);
    let regions = build_regions(&run(&config, 2, 3, 30), 20, 2);
    let mut expansion = Expansion::default();
    expansion.paint(&regions[0], &config, (200, 200));
    let mut starts = BTreeSet::new();
    expansion.for_each_pair(|_, p| {
        starts.insert((p.qs, p.xs));
        false
    });
    assert!(starts.len() <= 3 * 23 * 21 && starts.len() > 2 * 23 * 21);
}

#[test]
fn dead_start_pairs_are_passed_over() {
    let config = FrameworkConfig::new(8).with_max_shift(1);
    let regions = build_regions(&run(&config, 1, 2, 3), 4, 1);
    let mut expansion = Expansion::default();
    expansion.paint(&regions[0], &config, (20, 30));
    let mut visits = std::collections::BTreeMap::new();
    expansion.for_each_pair(|state, p| {
        let seen_before = visits.contains_key(&(p.qs, p.xs));
        assert_eq!(*state, if seen_before { 7 } else { FRESH });
        *visits.entry((p.qs, p.xs)).or_insert(0) += 1;
        *state = if (p.qs + p.xs) % 2 == 0 { DEAD } else { 7 };
        false
    });
    // An even start pair was marked dead at its first visit and never came
    // back; the odd ones kept their state and came back for every length.
    assert!(visits
        .iter()
        .all(|(&(qs, xs), &n)| (qs + xs) % 2 != 0 || n == 1));
    assert!(visits.values().any(|&n| n > 1));
}
