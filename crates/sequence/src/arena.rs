//! Flat, contiguous storage of all dataset elements.
//!
//! The framework touches window elements on every index distance evaluation,
//! so their layout dominates the hot-path memory behaviour. Storing each
//! window as an owned `Vec<E>` (and cloning it again into the index) gives a
//! cache-hostile Vec-of-Vec layout with two resident copies of every window.
//! The [`ElementArena`] fixes the layout at the source: **one** flat buffer
//! owns every element of every database sequence, windows and index items
//! address it by `(sequence, start, len)` and resolve to plain `&[E]` slices.
//! This mirrors how the modular subsequence-matching literature indexes
//! lightweight references into shared sequence storage instead of
//! materialized subsequences.
//!
//! The arena also serializes as a single contiguous snapshot section, so a
//! cold start reconstructs the whole element store with one bulk pass — no
//! per-window allocation — and the section stays amenable to a future
//! mmap-backed loader.

use crate::element::Element;
use crate::sequence::{Sequence, SequenceDataset, SequenceId, SequenceView};

/// Contiguous storage of every element of a [`SequenceDataset`], in dataset
/// order, with per-sequence boundaries and labels.
///
/// The arena is **append-only**: windows are *views* into it, so mutating or
/// reordering stored elements would silently change what every view resolves
/// to. [`Self::push_sequence`] is the one permitted mutation — it only adds
/// elements *after* every existing boundary, so the `(sequence, start, len)`
/// coordinates of every outstanding view keep resolving to exactly the
/// elements they resolved to before the append.
#[derive(Clone, PartialEq, Debug)]
pub struct ElementArena<E> {
    /// All elements, sequence after sequence.
    elements: Vec<E>,
    /// `bounds[i]..bounds[i + 1]` is sequence `i`'s range; `bounds[0] == 0`
    /// and `bounds.last() == elements.len()`, so there are `n + 1` entries
    /// for `n` sequences.
    bounds: Vec<usize>,
    /// One entry per sequence. Not part of [`Self::resident_bytes`]: the
    /// gated footprint counts what a distance evaluation can touch.
    labels: Vec<Option<String>>,
}

impl<E> Default for ElementArena<E> {
    fn default() -> Self {
        ElementArena {
            elements: Vec::new(),
            bounds: vec![0],
            labels: Vec::new(),
        }
    }
}

impl<E: Element> ElementArena<E> {
    /// Concatenates every sequence of `dataset` into one flat buffer.
    pub fn from_dataset(dataset: &SequenceDataset<E>) -> Self {
        let mut arena = ElementArena::default();
        arena.elements.reserve_exact(dataset.total_elements());
        for (_, sequence) in dataset.iter() {
            arena.push_sequence(sequence.elements(), sequence.label().map(str::to_string));
        }
        arena
    }

    /// An owned copy of every sequence, labels included, in id order — for
    /// callers that need a [`SequenceDataset`] (brute-force oracles, query
    /// planting); nothing in the framework keeps one resident.
    pub fn to_dataset(&self) -> SequenceDataset<E> {
        (0..self.sequence_count())
            .map(|i| {
                let view = self
                    .sequence(SequenceId(i))
                    .expect("sequence ids are dense");
                let mut sequence = Sequence::new(view.elements().to_vec());
                if let Some(label) = view.label() {
                    sequence.set_label(label);
                }
                sequence
            })
            .collect()
    }

    /// Rebuilds an unlabelled arena from its raw parts (the snapshot decode
    /// path; labels are stored apart and attached with [`Self::set_label`]).
    ///
    /// Returns `None` when the bounds are not a monotone cover of
    /// `elements` starting at 0 — structurally impossible for an arena this
    /// type produced.
    pub fn from_parts(elements: Vec<E>, bounds: Vec<usize>) -> Option<Self> {
        if bounds.first() != Some(&0) || bounds.last() != Some(&elements.len()) {
            return None;
        }
        if bounds.windows(2).any(|w| w[0] > w[1]) {
            return None;
        }
        let labels = vec![None; bounds.len() - 1];
        Some(ElementArena {
            elements,
            bounds,
            labels,
        })
    }

    /// Appends one sequence's elements at the tail of the arena and returns
    /// the [`SequenceId`] it now answers to (the next dense id).
    ///
    /// Existing sequence ranges are untouched — the new elements live
    /// strictly after every previous boundary — so outstanding window views
    /// into earlier sequences resolve to exactly the same elements after the
    /// append as before it. This is the live-ingestion primitive: appending
    /// never invalidates an id and never shifts a slice.
    pub fn push_sequence(&mut self, elements: &[E], label: Option<String>) -> SequenceId {
        let id = SequenceId(self.sequence_count());
        self.elements.extend_from_slice(elements);
        self.bounds.push(self.elements.len());
        self.labels.push(label);
        id
    }

    /// Sets or replaces one sequence's label; `false` when the id is unknown.
    pub fn set_label(&mut self, id: SequenceId, label: String) -> bool {
        match self.labels.get_mut(id.0) {
            Some(slot) => {
                *slot = Some(label);
                true
            }
            None => false,
        }
    }

    /// Number of sequences the arena covers.
    pub fn sequence_count(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total number of elements across all sequences.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the arena holds no element.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The whole flat buffer.
    pub fn elements(&self) -> &[E] {
        &self.elements
    }

    /// Per-sequence boundaries (`n + 1` entries for `n` sequences).
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// Length of one sequence.
    pub fn sequence_len(&self, id: SequenceId) -> Option<usize> {
        let start = *self.bounds.get(id.0)?;
        let end = *self.bounds.get(id.0 + 1)?;
        Some(end - start)
    }

    /// All elements of one sequence.
    pub fn sequence_slice(&self, id: SequenceId) -> Option<&[E]> {
        let start = *self.bounds.get(id.0)?;
        let end = *self.bounds.get(id.0 + 1)?;
        Some(&self.elements[start..end])
    }

    /// One stored sequence — its elements and label — borrowed in place.
    pub fn sequence(&self, id: SequenceId) -> Option<SequenceView<'_, E>> {
        let elements = self.sequence_slice(id)?;
        Some(SequenceView::new(elements, self.labels[id.0].as_deref()))
    }

    /// A half-open element range within one sequence (the window-resolution
    /// primitive). `None` when the sequence id or the range is out of bounds.
    pub fn slice(&self, id: SequenceId, start: usize, len: usize) -> Option<&[E]> {
        let base = *self.bounds.get(id.0)?;
        let end = *self.bounds.get(id.0 + 1)?;
        let from = base.checked_add(start)?;
        let to = from.checked_add(len)?;
        if to > end {
            return None;
        }
        Some(&self.elements[from..to])
    }

    /// Deterministic resident footprint of the arena in bytes: the flat
    /// element buffer plus the boundary table (labels excluded). Computed
    /// from lengths, not allocator capacities, so it is identical on every
    /// machine and safe to gate in CI.
    pub fn resident_bytes(&self) -> usize {
        self.elements.len() * std::mem::size_of::<E>()
            + self.bounds.len() * std::mem::size_of::<usize>()
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

    fn arena(texts: &[&str]) -> ElementArena<Symbol> {
        let ds: SequenceDataset<Symbol> = texts.iter().map(|t| seq(t)).collect();
        ElementArena::from_dataset(&ds)
    }

    #[test]
    fn concatenates_sequences_in_order() {
        let a = arena(&["ABCD", "EF", "", "GHI"]);
        assert_eq!(a.sequence_count(), 4);
        assert_eq!(a.len(), 9);
        assert_eq!(a.bounds(), &[0, 4, 6, 6, 9]);
        assert_eq!(a.sequence_len(SequenceId(1)), Some(2));
        assert_eq!(a.sequence_len(SequenceId(2)), Some(0));
        assert_eq!(a.sequence_len(SequenceId(4)), None);
        assert_eq!(
            a.sequence_slice(SequenceId(3)).unwrap(),
            seq("GHI").elements()
        );
    }

    #[test]
    fn slices_resolve_against_their_own_sequence_only() {
        let a = arena(&["ABCD", "EFGH"]);
        assert_eq!(a.slice(SequenceId(0), 1, 2).unwrap(), seq("BC").elements());
        assert_eq!(
            a.slice(SequenceId(1), 0, 4).unwrap(),
            seq("EFGH").elements()
        );
        // A window may not run past its sequence into the next one.
        assert!(a.slice(SequenceId(0), 2, 3).is_none());
        assert!(a.slice(SequenceId(2), 0, 1).is_none());
        assert!(a.slice(SequenceId(0), 0, 0).is_some());
    }

    #[test]
    fn from_parts_validates_bounds() {
        let elements: Vec<Symbol> = seq("ABCD").elements().to_vec();
        assert!(ElementArena::from_parts(elements.clone(), vec![0, 2, 4]).is_some());
        assert!(ElementArena::from_parts(elements.clone(), vec![0, 5]).is_none());
        assert!(ElementArena::from_parts(elements.clone(), vec![1, 4]).is_none());
        assert!(ElementArena::from_parts(elements.clone(), vec![0, 3, 2, 4]).is_none());
        assert!(ElementArena::from_parts(elements, vec![]).is_none());
        assert!(ElementArena::<Symbol>::from_parts(vec![], vec![0]).is_some());
    }

    #[test]
    fn push_sequence_extends_without_disturbing_existing_ranges() {
        let mut a = arena(&["ABCD", "EF"]);
        let before: Vec<Vec<Symbol>> = (0..a.sequence_count())
            .map(|i| a.sequence_slice(SequenceId(i)).unwrap().to_vec())
            .collect();
        let id = a.push_sequence(seq("GHIJK").elements(), Some("tail".into()));
        assert_eq!(id, SequenceId(2));
        assert_eq!(a.sequence_count(), 3);
        assert_eq!(a.bounds(), &[0, 4, 6, 11]);
        assert_eq!(a.sequence_slice(id).unwrap(), seq("GHIJK").elements());
        assert_eq!(a.sequence(id).unwrap().label(), Some("tail"));
        assert_eq!(a.sequence(SequenceId(0)).unwrap().label(), None);
        for (i, expected) in before.iter().enumerate() {
            assert_eq!(a.sequence_slice(SequenceId(i)).unwrap(), &expected[..]);
        }
        // Appending an empty sequence is allowed and keeps the cover valid.
        let id = a.push_sequence(&[], None);
        assert_eq!(a.sequence_len(id), Some(0));
        assert_eq!(a.bounds().last(), Some(&a.len()));
    }

    #[test]
    fn to_dataset_inverts_from_dataset_labels_included() {
        let mut ds: SequenceDataset<Symbol> = ["ABCD", "", "EF"].iter().map(|t| seq(t)).collect();
        ds.push(Sequence::with_label(seq("GHI").into_elements(), "P01234"));
        let a = ElementArena::from_dataset(&ds);
        assert_eq!(a.to_dataset(), ds);
        let mut unlabelled = ElementArena::from_parts(a.elements().to_vec(), a.bounds().to_vec())
            .expect("valid parts");
        assert_ne!(unlabelled, a);
        assert!(unlabelled.set_label(SequenceId(3), "P01234".into()));
        assert!(!unlabelled.set_label(SequenceId(4), "nobody".into()));
        assert_eq!(unlabelled, a);
    }

    #[test]
    fn empty_dataset_yields_an_empty_arena() {
        let a = arena(&[]);
        assert_eq!(a, ElementArena::default());
        assert!(a.is_empty());
        assert_eq!(a.sequence_count(), 0);
        assert_eq!(a.resident_bytes(), std::mem::size_of::<usize>());
    }

    #[test]
    fn resident_bytes_counts_elements_and_bounds() {
        let a = arena(&["ABCD", "EF"]);
        assert_eq!(
            a.resident_bytes(),
            6 * std::mem::size_of::<Symbol>() + 3 * std::mem::size_of::<usize>()
        );
    }
}
