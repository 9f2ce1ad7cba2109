//! Hamming distance between equal-length sequences.

use ssr_sequence::Element;

use crate::counting::{record_dp_cells, record_lower_bound_prune};
use crate::end_table::{EndSink, EndSpec};
use crate::traits::{DistanceProperties, SequenceDistance};

/// The Hamming distance: the number of positions at which two equal-length
/// sequences differ.
///
/// Pairs of different lengths are reported as `f64::INFINITY`. Hamming
/// distance is metric and consistent but, like the Euclidean distance, cannot
/// tolerate shifts or gaps (Section 5 of the paper).
///
/// [`SequenceDistance::distance_within`] abandons the scan as soon as the
/// running mismatch count exceeds `τ` — exact, since the count only grows.
#[derive(Clone, Copy, Debug, Default)]
pub struct Hamming;

impl Hamming {
    /// Creates the Hamming distance.
    pub fn new() -> Self {
        Hamming
    }
}

impl<E: Element> SequenceDistance<E> for Hamming {
    fn distance(&self, a: &[E], b: &[E]) -> f64 {
        self.distance_within(a, b, f64::INFINITY)
            .expect("every distance is within an infinite threshold")
    }

    fn distance_within(&self, a: &[E], b: &[E], tau: f64) -> Option<f64> {
        if a.len() != b.len() {
            let d = f64::INFINITY;
            if d <= tau {
                return Some(d);
            }
            record_lower_bound_prune();
            return None;
        }
        let mut mismatches = 0u64;
        let mut cells = 0u64;
        for (x, y) in a.iter().zip(b.iter()) {
            mismatches += u64::from(x != y);
            cells += 1;
            if crate::counting::exceeds(mismatches as f64, tau) {
                record_dp_cells(cells);
                return None;
            }
        }
        record_dp_cells(cells);
        let d = mismatches as f64;
        if d <= tau {
            Some(d)
        } else {
            None
        }
    }

    /// One pass along the diagonal: only prefixes of equal length are at a
    /// finite distance, and the mismatch count after `i` positions is that of
    /// `(a[..i], b[..i])`. The abandon ends the table, as the count only
    /// grows.
    fn end_table(&self, a: &[E], b: &[E], ends: EndSpec, tau: f64, out: &mut [f64]) {
        let mut sink = EndSink::new(out, ends, a.len(), b.len(), tau);
        sink.row(0, 0..=0, |_| 0.0);
        let mut mismatches = 0u64;
        let mut cells = 0u64;
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            mismatches += u64::from(x != y);
            cells += 1;
            if crate::counting::exceeds(mismatches as f64, tau) {
                break;
            }
            sink.row(i + 1, i + 1..=i + 1, |_| mismatches as f64);
        }
        record_dp_cells(cells);
    }

    fn length_lower_bound(&self, a_len: usize, b_len: usize) -> f64 {
        if a_len != b_len {
            f64::INFINITY
        } else {
            0.0
        }
    }

    fn name(&self) -> &'static str {
        "Hamming"
    }

    fn properties(&self) -> DistanceProperties {
        DistanceProperties {
            metric: true,
            consistent: true,
            allows_time_shift: false,
            requires_equal_lengths: true,
        }
    }

    fn max_distance(&self, len: usize) -> Option<f64> {
        Some(len as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_sequence::{Pitch, Symbol};

    fn sym(text: &str) -> Vec<Symbol> {
        text.chars().map(Symbol::from_char).collect()
    }

    #[test]
    fn counts_mismatching_positions() {
        let d = Hamming::new();
        assert_eq!(d.distance(&sym("GATTACA"), &sym("GACTATA")), 2.0);
        assert_eq!(d.distance(&sym("AAAA"), &sym("CCCC")), 4.0);
        assert_eq!(d.distance(&sym("ACGT"), &sym("ACGT")), 0.0);
    }

    #[test]
    fn unequal_lengths_are_infinitely_far() {
        let d = Hamming::new();
        assert!(d.distance(&sym("AC"), &sym("ACG")).is_infinite());
    }

    #[test]
    fn empty_sequences_are_identical() {
        let d = Hamming::new();
        let empty: Vec<Symbol> = vec![];
        assert_eq!(d.distance(&empty, &empty), 0.0);
    }

    #[test]
    fn works_for_numeric_elements_via_equality() {
        let d = Hamming::new();
        let a = [Pitch(0), Pitch(5), Pitch(11)];
        let b = [Pitch(0), Pitch(6), Pitch(11)];
        assert_eq!(d.distance(&a, &b), 1.0);
    }

    #[test]
    fn triangle_inequality_spot_check() {
        let d = Hamming::new();
        let a = sym("ACGTAC");
        let b = sym("ACCTAC");
        let c = sym("TCCTAG");
        assert!(d.distance(&a, &c) <= d.distance(&a, &b) + d.distance(&b, &c));
    }

    #[test]
    fn max_distance_equals_length() {
        let d = Hamming::new();
        assert_eq!(SequenceDistance::<Symbol>::max_distance(&d, 20), Some(20.0));
    }

    #[test]
    fn consistency_for_corresponding_subranges() {
        let d = Hamming::new();
        let a = sym("ACGTACGTAC");
        let b = sym("ACGAACGTTT");
        let full = d.distance(&a, &b);
        for start in 0..a.len() {
            for end in (start + 1)..=a.len() {
                assert!(d.distance(&a[start..end], &b[start..end]) <= full);
            }
        }
    }
}
