//! Sequences and datasets of sequences.

use std::fmt;
use std::ops::Range;

use crate::element::Element;

/// Identifier of a sequence within a [`SequenceDataset`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct SequenceId(pub usize);

impl fmt::Display for SequenceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seq#{}", self.0)
    }
}

/// An owned sequence of elements with an optional label.
///
/// Positions are 0-based; the paper's `SX_{a,b}` (1-based, inclusive) maps to
/// the half-open range `a-1..b` here. [`Sequence::subsequence`] takes a
/// half-open range directly.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Sequence<E> {
    elements: Vec<E>,
    label: Option<String>,
}

impl<E: Element> Sequence<E> {
    /// Creates a sequence from its elements.
    pub fn new(elements: Vec<E>) -> Self {
        Sequence {
            elements,
            label: None,
        }
    }

    /// Creates a labelled sequence (e.g. a protein accession or a song id).
    pub fn with_label(elements: Vec<E>, label: impl Into<String>) -> Self {
        Sequence {
            elements,
            label: Some(label.into()),
        }
    }

    /// The sequence label, if any.
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// Sets or replaces the label.
    pub fn set_label(&mut self, label: impl Into<String>) {
        self.label = Some(label.into());
    }

    /// Number of elements (`|X|` in the paper).
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Borrow the elements as a slice.
    pub fn elements(&self) -> &[E] {
        &self.elements
    }

    /// Consumes the sequence and returns its elements.
    pub fn into_elements(self) -> Vec<E> {
        self.elements
    }

    /// Returns the continuous subsequence covering the half-open `range`,
    /// or `None` if the range is out of bounds or empty.
    pub fn subsequence(&self, range: Range<usize>) -> Option<&[E]> {
        subrange(&self.elements, range)
    }

    /// Iterator over the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, E> {
        self.elements.iter()
    }
}

fn subrange<E>(elements: &[E], range: Range<usize>) -> Option<&[E]> {
    if range.start >= range.end || range.end > elements.len() {
        return None;
    }
    Some(&elements[range])
}

/// A stored sequence borrowed in place: a slice of the element arena plus
/// the sequence's label. What a database hands out instead of an owned
/// [`Sequence`] — it keeps no second copy of its elements to lend.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SequenceView<'a, E> {
    elements: &'a [E],
    label: Option<&'a str>,
}

impl<'a, E> SequenceView<'a, E> {
    pub(crate) fn new(elements: &'a [E], label: Option<&'a str>) -> Self {
        SequenceView { elements, label }
    }

    /// The sequence label, if any.
    pub fn label(&self) -> Option<&'a str> {
        self.label
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The elements, borrowed from the arena.
    pub fn elements(&self) -> &'a [E] {
        self.elements
    }

    /// The continuous subsequence covering the half-open `range`, or `None`
    /// if the range is out of bounds or empty (as [`Sequence::subsequence`]).
    pub fn subsequence(&self, range: Range<usize>) -> Option<&'a [E]> {
        subrange(self.elements, range)
    }
}

impl<E: Element> From<Vec<E>> for Sequence<E> {
    fn from(elements: Vec<E>) -> Self {
        Sequence::new(elements)
    }
}

impl<E: Element> std::ops::Index<usize> for Sequence<E> {
    type Output = E;

    fn index(&self, index: usize) -> &E {
        &self.elements[index]
    }
}

/// A collection of sequences with stable [`SequenceId`]s.
///
/// This is the "database" side of the framework; the total database length
/// `Σ|X|` drives the number of windows stored in the metric index.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SequenceDataset<E> {
    sequences: Vec<Sequence<E>>,
}

impl<E: Element> SequenceDataset<E> {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        SequenceDataset {
            sequences: Vec::new(),
        }
    }

    /// Creates a dataset from existing sequences.
    pub fn from_sequences(sequences: Vec<Sequence<E>>) -> Self {
        SequenceDataset { sequences }
    }

    /// Adds a sequence and returns its id.
    pub fn push(&mut self, sequence: Sequence<E>) -> SequenceId {
        let id = SequenceId(self.sequences.len());
        self.sequences.push(sequence);
        id
    }

    /// Number of sequences in the dataset.
    pub fn len(&self) -> usize {
        self.sequences.len()
    }

    /// Whether the dataset holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.sequences.is_empty()
    }

    /// Total number of elements over all sequences (`Σ|X|`).
    pub fn total_elements(&self) -> usize {
        self.sequences.iter().map(Sequence::len).sum()
    }

    /// Looks up a sequence by id.
    pub fn get(&self, id: SequenceId) -> Option<&Sequence<E>> {
        self.sequences.get(id.0)
    }

    /// Iterates over `(id, sequence)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SequenceId, &Sequence<E>)> {
        self.sequences
            .iter()
            .enumerate()
            .map(|(i, s)| (SequenceId(i), s))
    }

    /// Borrow all sequences.
    pub fn sequences(&self) -> &[Sequence<E>] {
        &self.sequences
    }
}

impl<E: Element> FromIterator<Sequence<E>> for SequenceDataset<E> {
    fn from_iter<T: IntoIterator<Item = Sequence<E>>>(iter: T) -> Self {
        SequenceDataset {
            sequences: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Symbol;

    fn seq(text: &str) -> Sequence<Symbol> {
        Sequence::new(text.chars().map(Symbol::from_char).collect())
    }

    #[test]
    fn sequence_basics() {
        let s = seq("GATTACA");
        assert_eq!(s.len(), 7);
        assert!(!s.is_empty());
        assert_eq!(s[0], Symbol::from_char('G'));
        assert_eq!(s.iter().count(), 7);
        assert_eq!(s.label(), None);
    }

    #[test]
    fn sequence_labels() {
        let mut s = Sequence::with_label(vec![Symbol::from_char('A')], "P01234");
        assert_eq!(s.label(), Some("P01234"));
        s.set_label("Q99999");
        assert_eq!(s.label(), Some("Q99999"));
    }

    #[test]
    fn subsequence_extracts_half_open_ranges() {
        let s = seq("GATTACA");
        let sub = s.subsequence(1..4).unwrap();
        assert_eq!(
            sub,
            &[
                Symbol::from_char('A'),
                Symbol::from_char('T'),
                Symbol::from_char('T')
            ]
        );
    }

    #[test]
    fn subsequence_rejects_invalid_ranges() {
        let s = seq("GATTACA");
        assert!(s.subsequence(3..3).is_none());
        #[allow(clippy::reversed_empty_ranges)]
        {
            assert!(s.subsequence(4..2).is_none());
        }
        assert!(s.subsequence(0..8).is_none());
        assert!(s.subsequence(0..7).is_some());
    }

    #[test]
    fn empty_sequence_behaviour() {
        let s: Sequence<Symbol> = Sequence::new(vec![]);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.subsequence(0..0).is_none());
    }

    #[test]
    fn dataset_assigns_sequential_ids() {
        let mut ds = SequenceDataset::new();
        let a = ds.push(seq("ACGT"));
        let b = ds.push(seq("GGG"));
        assert_eq!(a, SequenceId(0));
        assert_eq!(b, SequenceId(1));
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.total_elements(), 7);
        assert_eq!(ds.get(b).unwrap().len(), 3);
        assert!(ds.get(SequenceId(2)).is_none());
    }

    #[test]
    fn dataset_iteration_preserves_order() {
        let ds: SequenceDataset<Symbol> =
            vec![seq("A"), seq("CC"), seq("GGG")].into_iter().collect();
        let lens: Vec<usize> = ds.iter().map(|(_, s)| s.len()).collect();
        assert_eq!(lens, vec![1, 2, 3]);
        let ids: Vec<usize> = ds.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn sequence_id_display() {
        assert_eq!(SequenceId(7).to_string(), "seq#7");
    }
}
