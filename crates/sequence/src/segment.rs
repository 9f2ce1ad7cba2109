//! Query segment extraction.
//!
//! Step 3 of the framework (Section 7) extracts from the query `Q` every
//! segment whose length lies in `[λ/2 − λ0, λ/2 + λ0]`, where `λ0` bounds the
//! temporal shift allowed between similar subsequences. This produces at most
//! `(2·λ0 + 1) · |Q|` segments, the quantity the paper's complexity analysis
//! (Equation 5) relies on.

/// Specification of the segment lengths to extract from a query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SegmentSpec {
    /// Window length `l = λ/2` used on the database side.
    pub window_len: usize,
    /// Maximal temporal shift `λ0` between similar subsequences.
    pub max_shift: usize,
}

impl SegmentSpec {
    /// Creates a specification for database window length `window_len` and
    /// maximal shift `max_shift`.
    ///
    /// # Panics
    ///
    /// Panics if `window_len == 0`.
    pub fn new(window_len: usize, max_shift: usize) -> Self {
        assert!(window_len > 0, "window length must be positive");
        SegmentSpec {
            window_len,
            max_shift,
        }
    }

    /// Smallest segment length to extract (`max(1, l − λ0)`).
    pub fn min_len(&self) -> usize {
        self.window_len.saturating_sub(self.max_shift).max(1)
    }

    /// Largest segment length to extract (`l + λ0`).
    pub fn max_len(&self) -> usize {
        self.window_len + self.max_shift
    }

    /// Number of distinct lengths extracted.
    pub fn length_count(&self) -> usize {
        self.max_len() - self.min_len() + 1
    }
}

/// The query segments that start at one offset. They are prefixes of one
/// another, so the family is held as its longest member, borrowed from the
/// query: lane `k` is the segment `longest[..min_len + k]`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SegmentFamily<'q, E> {
    /// 0-based offset of every segment of the family within the query.
    pub start: usize,
    /// Length of the shortest segment (`spec.min_len()`).
    pub min_len: usize,
    /// The longest segment at this offset: `spec.max_len()` elements, fewer
    /// where the query ends first.
    pub longest: &'q [E],
}

impl<'q, E> SegmentFamily<'q, E> {
    /// Number of segments in the family (never zero).
    pub fn lanes(&self) -> usize {
        self.longest.len() + 1 - self.min_len
    }

    /// The segment of lane `lane` (`0` is the shortest).
    pub fn segment(&self, lane: usize) -> &'q [E] {
        &self.longest[..self.min_len + lane]
    }
}

/// The segment families of `query` under `spec`, by increasing offset:
/// between them they hold every segment whose length lies within `spec`'s
/// bounds exactly once, and nothing is copied.
pub fn segment_families<E>(
    query: &[E],
    spec: SegmentSpec,
) -> impl Iterator<Item = SegmentFamily<'_, E>> {
    let (min_len, max_len) = (spec.min_len(), spec.max_len());
    let offsets = (query.len() + 1).saturating_sub(min_len);
    (0..offsets).map(move |start| SegmentFamily {
        start,
        min_len,
        longest: &query[start..query.len().min(start + max_len)],
    })
}

/// Number of segments the [`segment_families`] of a query of length
/// `query_len` hold between them under `spec`.
pub fn segment_count(query_len: usize, spec: SegmentSpec) -> usize {
    let mut count = 0;
    for len in spec.min_len()..=spec.max_len() {
        if len > query_len {
            break;
        }
        count += query_len - len + 1;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Symbol;

    fn seq(text: &str) -> Vec<Symbol> {
        text.chars().map(Symbol::from_char).collect()
    }

    /// Every `(start, length)` the families hold, in family order.
    fn segments(query: &[Symbol], spec: SegmentSpec) -> Vec<(usize, usize)> {
        segment_families(query, spec)
            .flat_map(|f| (0..f.lanes()).map(move |lane| (f.start, f.segment(lane).len())))
            .collect()
    }

    #[test]
    fn spec_length_bounds() {
        let spec = SegmentSpec::new(10, 2);
        assert_eq!(spec.min_len(), 8);
        assert_eq!(spec.max_len(), 12);
        assert_eq!(spec.length_count(), 5);
    }

    #[test]
    fn spec_min_len_never_drops_below_one() {
        let spec = SegmentSpec::new(3, 10);
        assert_eq!(spec.min_len(), 1);
        assert_eq!(spec.max_len(), 13);
    }

    #[test]
    fn zero_shift_extracts_sliding_windows_only() {
        let spec = SegmentSpec::new(3, 0);
        let q = seq("ABCDEF");
        let families: Vec<_> = segment_families(&q, spec).collect();
        assert_eq!(families.len(), 4);
        assert!(families
            .iter()
            .all(|f| f.lanes() == 1 && f.longest.len() == 3));
        let starts: Vec<usize> = families.iter().map(|f| f.start).collect();
        assert_eq!(starts, vec![0, 1, 2, 3]);
    }

    #[test]
    fn shift_widens_length_range() {
        let spec = SegmentSpec::new(3, 1);
        let q = seq("ABCDE");
        // lengths 2,3,4 -> (5-2+1)+(5-3+1)+(5-4+1) = 4+3+2 = 9
        assert_eq!(segments(&q, spec).len(), 9);
        assert_eq!(segment_count(5, spec), 9);
        // The families at the tail are cut where the query ends.
        let lanes: Vec<usize> = segment_families(&q, spec).map(|f| f.lanes()).collect();
        assert_eq!(lanes, vec![3, 3, 2, 1]);
    }

    #[test]
    fn segment_count_matches_extraction_for_various_inputs() {
        for window_len in 1..6 {
            for max_shift in 0..4 {
                for n in 0..12 {
                    let spec = SegmentSpec::new(window_len, max_shift);
                    let q = vec![Symbol::from_char('A'); n];
                    let mut held = segments(&q, spec);
                    assert_eq!(
                        held.len(),
                        segment_count(n, spec),
                        "window_len={window_len} max_shift={max_shift} n={n}"
                    );
                    // Each (start, length) within bounds exactly once.
                    held.sort_unstable();
                    held.dedup();
                    assert_eq!(held.len(), segment_count(n, spec));
                    assert!(held.iter().all(|&(start, len)| {
                        (spec.min_len()..=spec.max_len()).contains(&len) && start + len <= n
                    }));
                }
            }
        }
    }

    #[test]
    fn segment_count_upper_bound_from_paper() {
        // The paper bounds the number of segments by (2*lambda0 + 1) * |Q|.
        for max_shift in 0..5 {
            for n in 1..30 {
                let spec = SegmentSpec::new(10, max_shift);
                assert!(segment_count(n, spec) <= (2 * max_shift + 1) * n);
            }
        }
    }

    #[test]
    fn query_shorter_than_min_len_yields_nothing() {
        let spec = SegmentSpec::new(10, 2);
        assert_eq!(segment_families(&seq("ABC"), spec).count(), 0);
        assert_eq!(segment_count(3, spec), 0);
    }

    #[test]
    fn segments_carry_correct_provenance() {
        let spec = SegmentSpec::new(2, 1);
        let q = seq("WXYZ");
        for family in segment_families(&q, spec) {
            for lane in 0..family.lanes() {
                let segment = family.segment(lane);
                assert_eq!(segment.len(), family.min_len + lane);
                assert_eq!(&q[family.start..family.start + segment.len()], segment);
            }
        }
    }

    #[test]
    #[should_panic(expected = "window length must be positive")]
    fn zero_window_spec_panics() {
        let _ = SegmentSpec::new(0, 1);
    }
}
