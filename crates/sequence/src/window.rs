//! Fixed-length window partitioning of database sequences.
//!
//! Step 1 of the framework (Section 7 of the paper) partitions every database
//! sequence `X` into disjoint windows of length `l = λ/2`. Lemma 2 shows that
//! if `l ≤ λ/2` then every similar subsequence `SX` (of length ≥ λ) fully
//! contains at least one window, so matching query segments against windows
//! only — instead of against all `O(|X|²)` subsequences — cannot miss a match.
//!
//! A trailing remainder shorter than `l` is not indexed (the paper produces
//! `⌊|X|/l⌋` windows per sequence); the completeness argument still holds
//! because a subsequence of length ≥ λ = 2l always covers a *full* window.
//!
//! Windows are **views**: a [`Window`] is `(sequence, start, len)` provenance
//! only, and a [`WindowStore`] resolves it to a `&[E]` slice of the shared
//! [`ElementArena`]. No window owns its elements — the arena is the single
//! resident copy — which is what keeps the index layout flat and the
//! per-window footprint at a few machine words.

use std::fmt;

use crate::arena::ElementArena;
use crate::element::Element;
use crate::sequence::{SequenceDataset, SequenceId};

/// Identifier of a window inside a [`WindowStore`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct WindowId(pub usize);

impl fmt::Display for WindowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "win#{}", self.0)
    }
}

/// A fixed-length window cut from a database sequence: pure provenance,
/// resolved to elements through the store's [`ElementArena`].
///
/// Deliberately two machine words. The window length is the store's (all
/// windows share it) and the within-sequence index is `start / window_len`,
/// so carrying either here would double the view table — which is part of
/// the CI-gated resident footprint — to store derivable state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Window {
    /// The sequence this window was cut from.
    pub sequence: SequenceId,
    /// 0-based offset of the first element within the source sequence.
    pub start: usize,
}

impl Window {
    /// 0-based index of the window within its sequence (`w_1` is index 0),
    /// under the store's partition length.
    pub fn window_index(&self, window_len: usize) -> usize {
        self.start / window_len
    }

    /// Half-open element range this window covers within its source
    /// sequence, under the store's partition length.
    pub fn range(&self, window_len: usize) -> std::ops::Range<usize> {
        self.start..self.start + window_len
    }
}

/// Partitions one sequence of length `seq_len` into disjoint window views of
/// length `window_len`.
///
/// Returns an empty vector when the sequence is shorter than `window_len`.
/// The views are provenance only — no elements are copied.
///
/// # Panics
///
/// Panics if `window_len == 0`.
pub fn partition_windows(
    sequence_id: SequenceId,
    seq_len: usize,
    window_len: usize,
) -> Vec<Window> {
    assert!(window_len > 0, "window length must be positive");
    window_views(sequence_id, seq_len, window_len).collect()
}

fn window_views(
    sequence: SequenceId,
    seq_len: usize,
    window_len: usize,
) -> impl Iterator<Item = Window> {
    (0..seq_len / window_len).map(move |i| Window {
        sequence,
        start: i * window_len,
    })
}

/// Builds an [`ElementArena`] over `dataset` and partitions every sequence,
/// collecting the window views in a [`WindowStore`].
pub fn partition_windows_dataset<E: Element>(
    dataset: &SequenceDataset<E>,
    window_len: usize,
) -> WindowStore<E> {
    WindowStore::partition(ElementArena::from_dataset(dataset), window_len)
}

/// All windows of a database, addressable by [`WindowId`], resolving to
/// slices of the [`ElementArena`] the store owns.
///
/// The store is what gets inserted into the metric index (step 2 of the
/// framework); window ids double as the index's item ids so that candidate
/// pairs can be mapped back to `(sequence, offset)` provenance.
///
/// Like its arena the store is **append-only**: [`Self::push_sequence`] adds
/// elements and window views strictly after the existing ones, so every
/// outstanding [`WindowId`] keeps resolving to the same elements.
//
// Historical note: earlier versions also precomputed and serialized a
// per-window gap-distance sum here. No consumer ever read it — the filter
// step's pruning lives inside the threshold-aware kernels, and the
// verification cascade uses the per-sequence `GapPrefix` tables, which
// recover any window's gap sum in `O(1)` as `prefix[start + len] -
// prefix[start]`. The field and its snapshot section were deleted with the
// arena refactor rather than carried as dead weight.
#[derive(Clone, Debug)]
pub struct WindowStore<E> {
    window_len: usize,
    windows: Vec<Window>,
    arena: ElementArena<E>,
}

impl<E: Element> WindowStore<E> {
    /// Partitions every sequence covered by `arena` into windows of length
    /// `window_len` (the canonical constructor: the window set is fully
    /// determined by the arena's sequence boundaries and the window length,
    /// which is also what makes the on-disk format free of per-window data).
    ///
    /// # Panics
    ///
    /// Panics if `window_len == 0`.
    pub fn partition(arena: ElementArena<E>, window_len: usize) -> Self {
        assert!(window_len > 0, "window length must be positive");
        let mut store = WindowStore {
            window_len,
            windows: Vec::new(),
            arena,
        };
        for s in 0..store.arena.sequence_count() {
            store.cut_windows(SequenceId(s));
        }
        store
    }

    /// Appends one sequence: its elements go to the tail of the arena and
    /// its `⌊len / window_len⌋` window views to the tail of the table, under
    /// the ids `old len()..len()`. The result equals [`Self::partition`] of
    /// the grown arena, at the cost of the new sequence alone.
    pub fn push_sequence(&mut self, elements: &[E], label: Option<String>) -> SequenceId {
        let id = self.arena.push_sequence(elements, label);
        self.cut_windows(id);
        id
    }

    fn cut_windows(&mut self, id: SequenceId) {
        let seq_len = self.arena.sequence_len(id).expect("sequence ids are dense");
        self.windows
            .extend(window_views(id, seq_len, self.window_len));
    }

    /// The fixed window length `l = λ/2`.
    pub fn window_len(&self) -> usize {
        self.window_len
    }

    /// Number of windows in the store.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Looks up a window view by id.
    pub fn get(&self, id: WindowId) -> Option<Window> {
        self.windows.get(id.0).copied()
    }

    /// Resolves a window to its elements: a borrowed slice of the arena.
    pub fn slice(&self, id: WindowId) -> Option<&[E]> {
        let w = self.windows.get(id.0)?;
        self.arena.slice(w.sequence, w.start, self.window_len)
    }

    /// Resolves any window view against this store's arena.
    pub fn resolve(&self, window: &Window) -> Option<&[E]> {
        self.arena
            .slice(window.sequence, window.start, self.window_len)
    }

    /// The element arena backing every window.
    pub fn arena(&self) -> &ElementArena<E> {
        &self.arena
    }

    /// Iterates over `(id, window)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (WindowId, Window)> + '_ {
        self.windows
            .iter()
            .enumerate()
            .map(|(i, w)| (WindowId(i), *w))
    }

    /// All window views as a slice (index position == `WindowId.0`).
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    /// Finds the id of the window with the given provenance, if present.
    pub fn find(&self, sequence: SequenceId, window_index: usize) -> Option<WindowId> {
        // Windows of a sequence are contiguous and ordered by window_index, so a
        // linear scan is acceptable for tests and tooling; hot paths keep ids.
        self.windows
            .iter()
            .position(|w| w.sequence == sequence && w.start == window_index * self.window_len)
            .map(WindowId)
    }

    /// Deterministic resident footprint of the view table in bytes (the
    /// arena's own bytes are reported by [`ElementArena::resident_bytes`]).
    pub fn view_bytes(&self) -> usize {
        self.windows.len() * std::mem::size_of::<Window>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Symbol;
    use crate::sequence::Sequence;

    fn seq(text: &str) -> Sequence<Symbol> {
        Sequence::new(text.chars().map(Symbol::from_char).collect())
    }

    fn dataset(texts: &[&str]) -> SequenceDataset<Symbol> {
        texts.iter().map(|t| seq(t)).collect()
    }

    #[test]
    fn partition_produces_floor_len_over_l_windows() {
        let windows = partition_windows(SequenceId(0), 10, 3);
        assert_eq!(windows.len(), 3); // 10 / 3 = 3, remainder dropped
        assert_eq!(windows[0].start, 0);
        assert_eq!(windows[1].start, 3);
        assert_eq!(windows[2].start, 6);
        for w in &windows {
            assert_eq!(w.range(3).len(), 3);
        }
    }

    #[test]
    fn partition_short_sequence_yields_nothing() {
        assert!(partition_windows(SequenceId(0), 2, 3).is_empty());
    }

    #[test]
    fn partition_exact_multiple_covers_everything() {
        let windows = partition_windows(SequenceId(4), 6, 2);
        assert_eq!(windows.len(), 3);
        let covered: usize = windows.iter().map(|w| w.range(2).len()).sum();
        assert_eq!(covered, 6);
        assert!(windows.iter().all(|w| w.sequence == SequenceId(4)));
    }

    #[test]
    fn window_views_resolve_to_the_source_elements() {
        let store = partition_windows_dataset(&dataset(&["ABCDEFGH"]), 4);
        let w = store.get(WindowId(1)).unwrap();
        assert_eq!(w.range(store.window_len()), 4..8);
        assert_eq!(w.window_index(store.window_len()), 1);
        assert_eq!(store.slice(WindowId(1)).unwrap(), seq("EFGH").elements());
        assert_eq!(store.resolve(&w).unwrap(), seq("EFGH").elements());
    }

    #[test]
    #[should_panic(expected = "window length must be positive")]
    fn zero_window_length_panics() {
        let _ = partition_windows(SequenceId(0), 3, 0);
    }

    #[test]
    fn dataset_partitioning_assigns_global_ids() {
        let store = partition_windows_dataset(&dataset(&["AAAABBBB", "CCCC", "DD"]), 4);
        assert_eq!(store.len(), 3); // 2 + 1 + 0
        assert_eq!(store.window_len(), 4);
        assert_eq!(store.get(WindowId(0)).unwrap().sequence, SequenceId(0));
        assert_eq!(store.get(WindowId(2)).unwrap().sequence, SequenceId(1));
        assert!(store.get(WindowId(3)).is_none());
        assert!(store.slice(WindowId(3)).is_none());
    }

    #[test]
    fn every_window_slice_equals_the_direct_subsequence() {
        // The arena-vs-direct parity property: resolving a view through the
        // arena is bit-identical to slicing the owning sequence.
        let texts = ["ABCDEFGHIJ", "KLMNOP", "QRS", ""];
        let ds = dataset(&texts);
        for window_len in 1..5 {
            let store = partition_windows_dataset(&ds, window_len);
            for (id, w) in store.iter() {
                let direct = &ds.get(w.sequence).unwrap().elements()[w.range(window_len)];
                assert_eq!(store.slice(id).unwrap(), direct);
            }
        }
    }

    #[test]
    fn push_sequence_appends_the_new_tail_only() {
        let mut store = partition_windows_dataset(&dataset(&["AAAABBBB", "CC"]), 4);
        let before: Vec<Window> = store.windows().to_vec();
        let id = store.push_sequence(seq("DDDDEEEEF").elements(), None);
        assert_eq!(id, SequenceId(2));
        assert_eq!(&store.windows()[..before.len()], &before[..]);
        assert_eq!(store.len(), before.len() + 2);
        assert_eq!(store.slice(WindowId(3)).unwrap(), seq("EEEE").elements());
        // Too short for a window: stored, but the table does not grow.
        store.push_sequence(seq("GG").elements(), None);
        assert_eq!(store.len(), before.len() + 2);
        assert_eq!(store.arena().sequence_count(), 4);
    }

    #[test]
    fn window_store_find_locates_provenance() {
        let store = partition_windows_dataset(&dataset(&["AAAABBBB", "CCCCDDDD"]), 4);
        assert_eq!(store.find(SequenceId(1), 1), Some(WindowId(3)));
        assert_eq!(store.find(SequenceId(1), 2), None);
    }

    #[test]
    fn view_bytes_are_a_few_words_per_window() {
        let store = partition_windows_dataset(&dataset(&["AAAABBBBCCCC"]), 4);
        assert_eq!(store.view_bytes(), 3 * std::mem::size_of::<Window>());
    }

    #[test]
    fn lemma2_every_long_subsequence_contains_a_window() {
        // For any subsequence of length >= lambda = 2*l there is a fully
        // contained window: check exhaustively on a small sequence.
        let l = 3;
        let lambda = 2 * l;
        let n = 16;
        let windows = partition_windows(SequenceId(0), n, l);
        for start in 0..n {
            for end in (start + lambda)..=n {
                let contains_full_window = windows
                    .iter()
                    .any(|w| w.start >= start && w.start + l <= end);
                assert!(
                    contains_full_window,
                    "subsequence {start}..{end} does not contain a full window"
                );
            }
        }
    }
}
