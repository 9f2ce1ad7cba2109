//! Core distance traits.

use ssr_sequence::Element;

use crate::end_table::EndSpec;

/// Static properties of a distance measure relevant to the framework.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DistanceProperties {
    /// Whether the distance is symmetric and satisfies the triangle
    /// inequality. Metric distances can be indexed by the Reference Net,
    /// Cover Tree and reference-based indexes (Section 3.3 and 6).
    pub metric: bool,
    /// Whether the distance satisfies the consistency property
    /// (Definition 1): for every subsequence of `X` there is a subsequence of
    /// `Q` at distance no larger than `δ(Q, X)`. Section 4 of the paper
    /// proves it by restricting an optimal alignment; this crate's tests
    /// check the definition itself, exhaustively over every pair of
    /// contiguous subsequences of small inputs (`tests/properties.rs` and a
    /// fixed case in each kernel's module).
    pub consistent: bool,
    /// Whether the distance tolerates temporal misalignment / gaps. The paper
    /// points out that Euclidean and Hamming are metric and consistent but
    /// cannot tolerate even a single-element shift, which limits their use for
    /// subsequence matching (end of Section 5).
    pub allows_time_shift: bool,
    /// Whether the two inputs must have equal lengths.
    pub requires_equal_lengths: bool,
}

/// A dissimilarity measure between two element slices.
///
/// Implementations must be deterministic and non-negative; metric
/// implementations must additionally be symmetric and satisfy the triangle
/// inequality (verified by property tests in this crate).
pub trait SequenceDistance<E: Element>: Send + Sync {
    /// The distance between `a` and `b`.
    ///
    /// Distances that require equal lengths return `f64::INFINITY` when the
    /// lengths differ, so that such pairs are never reported as similar.
    fn distance(&self, a: &[E], b: &[E]) -> f64;

    /// Threshold-aware evaluation: returns `Some(d)` with
    /// `d == self.distance(a, b)` **exactly** when `distance(a, b) ≤ tau`,
    /// and `None` exactly when `distance(a, b) > tau`. Never approximate.
    ///
    /// Every caller in the framework already knows a threshold — the index
    /// range radius, or the verification `ε` — and a kernel that knows `tau`
    /// can skip most of its `O(n·m)` dynamic program: a cheap lower bound may
    /// already exceed `tau` ([`crate::lower_bounds`]), the DP can be
    /// restricted to a Ukkonen-style band around the diagonal, and a row
    /// whose minimum exceeds `tau` proves the final value will too (every
    /// monotone alignment path crosses every row, and path costs only grow).
    /// The default implementation runs the full distance and applies the
    /// threshold afterwards, so the method is always safe to call.
    ///
    /// The work performed is observable through
    /// [`crate::counting::dp_cells_thread_total`] and
    /// [`crate::counting::lower_bound_prunes_thread_total`];
    /// [`crate::Unpruned`] wraps a measure so that it answers the same at the
    /// cost of its full program, for ablations.
    fn distance_within(&self, a: &[E], b: &[E], tau: f64) -> Option<f64> {
        let d = self.distance(a, b);
        if d <= tau {
            Some(d)
        } else {
            None
        }
    }

    /// The distances of **every** wanted pair of prefixes at once: fills
    /// `out[ends.slot(b.len(), i, j)]` with
    /// `distance_within(&a[..i], &b[..j], tau)` — bit-identical when that is
    /// `Some`, `∞` when it is `None` — for each slot of `ends` with
    /// `|i − j| ≤ ends.max_len_diff`, and with `∞` for the others.
    ///
    /// Every built-in measure is a prefix dynamic program — cell `(i, j)` of
    /// the run over `(a, b)` *is* `distance(&a[..i], &b[..j])` — so one run
    /// answers all the end points that verification tries from one pair of
    /// start points; the built-ins capture their rows as they are produced.
    /// Band and abandon are those of [`Self::distance_within`], taken over
    /// the whole of `a` and `b`: a band derived from the longest inputs
    /// contains the band of every prefix pair, and a row whose minimum
    /// exceeds `tau` bounds every later cell from below, so the abandon ends
    /// the whole table. No lower bound is tried (and none tallied): the
    /// caller knows each pair's lengths and sums and bounds it first. This
    /// default asks [`Self::distance_within`] slot by slot, so a measure
    /// that only defines [`Self::distance`] is still answered correctly.
    ///
    /// # Panics
    /// When `out.len() != ends.slots(a.len(), b.len())`.
    fn end_table(&self, a: &[E], b: &[E], ends: EndSpec, tau: f64, out: &mut [f64]) {
        assert_eq!(out.len(), ends.slots(a.len(), b.len()), "end table size");
        for i in ends.min_a..=a.len() {
            for j in ends.min_b..=b.len() {
                out[ends.slot(b.len(), i, j)] = if i.abs_diff(j) <= ends.max_len_diff {
                    self.distance_within(&a[..i], &b[..j], tau)
                        .unwrap_or(f64::INFINITY)
                } else {
                    f64::INFINITY
                };
            }
        }
    }

    /// The search-mode ("free-start") column of `pattern` over `text`: fills
    /// `out[e]` with a lower bound on `min_o distance(&text[o..e], pattern)`
    /// for every end `e ∈ 0..=text.len()` and returns `true`, or returns
    /// `false`, with `out` unspecified, when the measure offers no such
    /// column for these inputs.
    ///
    /// It is the measure's prefix program over `(text, pattern)` with the
    /// cost of skipping a text element before the alignment starts held at
    /// zero, so one pass of `pattern` over `text` bounds the distance of
    /// every substring of `text` to `pattern` at once: every substring that
    /// ends at `e` is farther from `pattern` than any threshold below
    /// `out[e]`. Built-ins that answer fill it with the exact minimum where
    /// their arithmetic is exact (see each one's method). The default
    /// offers none.
    ///
    /// # Panics
    /// The built-ins that answer panic when `out.len() != text.len() + 1`.
    fn free_start_column(&self, text: &[E], pattern: &[E], out: &mut [f64]) -> bool {
        let _ = (text, pattern, out);
        false
    }

    /// An **exact** lower bound on `distance(a, b)` computable from the input
    /// lengths alone; `0.0` when the measure admits none. Used by the filter
    /// step's probe cascade to discard a window before touching its elements.
    fn length_lower_bound(&self, a_len: usize, b_len: usize) -> f64 {
        let _ = (a_len, b_len);
        0.0
    }

    /// Whether [`Self::gap_sum_lower_bound`] can prune for this measure
    /// (ERP-style measures whose gap costs bound the distance from below).
    fn uses_gap_sums(&self) -> bool {
        false
    }

    /// A lower bound on `distance(a, b)` given the total ground distances of
    /// `a` and `b` to the gap element. Only meaningful when
    /// [`Self::uses_gap_sums`] returns `true`; callers must ensure the sums
    /// are exact (e.g. integral ground distances accumulated in `f64`) before
    /// pruning on the bound.
    fn gap_sum_lower_bound(&self, sum_a: f64, sum_b: f64) -> f64 {
        let _ = (sum_a, sum_b);
        0.0
    }

    /// A short human-readable name ("Levenshtein", "ERP", …).
    fn name(&self) -> &'static str;

    /// Static properties of the measure.
    fn properties(&self) -> DistanceProperties;

    /// Whether the measure is a metric.
    fn is_metric(&self) -> bool {
        self.properties().metric
    }

    /// Whether the measure satisfies the consistency property.
    fn is_consistent(&self) -> bool {
        self.properties().consistent
    }

    /// An upper bound on `distance(a, b)` for inputs of length at most `len`,
    /// if the measure admits one (used to express query ranges as a fraction
    /// of the maximum distance, as in Figures 8 and 12).
    fn max_distance(&self, len: usize) -> Option<f64> {
        let _ = len;
        None
    }
}

macro_rules! forward_sequence_distance {
    ($wrapper:ty) => {
        impl<E: Element, D: SequenceDistance<E> + ?Sized> SequenceDistance<E> for $wrapper {
            fn distance(&self, a: &[E], b: &[E]) -> f64 {
                (**self).distance(a, b)
            }

            fn distance_within(&self, a: &[E], b: &[E], tau: f64) -> Option<f64> {
                (**self).distance_within(a, b, tau)
            }

            fn end_table(&self, a: &[E], b: &[E], ends: EndSpec, tau: f64, out: &mut [f64]) {
                (**self).end_table(a, b, ends, tau, out)
            }

            fn free_start_column(&self, text: &[E], pattern: &[E], out: &mut [f64]) -> bool {
                (**self).free_start_column(text, pattern, out)
            }

            fn length_lower_bound(&self, a_len: usize, b_len: usize) -> f64 {
                (**self).length_lower_bound(a_len, b_len)
            }

            fn uses_gap_sums(&self) -> bool {
                (**self).uses_gap_sums()
            }

            fn gap_sum_lower_bound(&self, sum_a: f64, sum_b: f64) -> f64 {
                (**self).gap_sum_lower_bound(sum_a, sum_b)
            }

            fn name(&self) -> &'static str {
                (**self).name()
            }

            fn properties(&self) -> DistanceProperties {
                (**self).properties()
            }

            fn max_distance(&self, len: usize) -> Option<f64> {
                (**self).max_distance(len)
            }
        }
    };
}

forward_sequence_distance!(std::sync::Arc<D>);
forward_sequence_distance!(Box<D>);
forward_sequence_distance!(&D);

#[cfg(test)]
/// Definition 1, checked by its definition on one fixed pair: for every
/// contiguous `y' ⊆ y` some contiguous `x' ⊆ x`, the empty one included, has
/// `δ(x', y') ≤ δ(x, y)`. Every `x'` is tried until one is found, so no
/// alignment is trusted. `tests/properties.rs` runs the same check on random
/// inputs.
pub(crate) fn assert_consistent<E: Element, D: SequenceDistance<E>>(d: &D, x: &[E], y: &[E]) {
    let full = d.distance(x, y);
    for ys in 0..y.len() {
        for ye in ys + 1..=y.len() {
            let witness = (0..=x.len())
                .flat_map(|xs| (xs..=x.len()).map(move |xe| (xs, xe)))
                .any(|(xs, xe)| d.distance(&x[xs..xe], &y[ys..ye]) <= full + 1e-9);
            assert!(
                witness,
                "{}: no subsequence of {x:?} within {full} of {y:?}[{ys}..{ye}]",
                d.name()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiscreteFrechet, Dtw, Erp, Euclidean, Hamming, Levenshtein};
    use ssr_sequence::Symbol;

    fn sym(text: &str) -> Vec<Symbol> {
        text.chars().map(Symbol::from_char).collect()
    }

    #[test]
    fn property_table_matches_the_paper() {
        // Table implied by Sections 3.3-5 of the paper.
        fn props<D: SequenceDistance<Symbol>>(d: &D) -> DistanceProperties {
            d.properties()
        }
        let lev = props(&Levenshtein::new());
        assert!(lev.metric && lev.consistent);
        let erp = props(&Erp::new());
        assert!(erp.metric && erp.consistent);
        let dfd = props(&DiscreteFrechet::new());
        assert!(dfd.metric && dfd.consistent);
        let dtw = props(&Dtw::new());
        assert!(!dtw.metric && dtw.consistent);
        let euc = props(&Euclidean::new());
        assert!(euc.metric && euc.consistent);
        assert!(euc.requires_equal_lengths);
        let ham = props(&Hamming::new());
        assert!(ham.metric && ham.consistent);
        assert!(!ham.allows_time_shift);
    }

    #[test]
    fn distance_objects_are_usable_behind_dyn_references() {
        let distances: Vec<Box<dyn SequenceDistance<Symbol>>> = vec![
            Box::new(Levenshtein::new()),
            Box::new(Hamming::new()),
            Box::new(Erp::new()),
            Box::new(DiscreteFrechet::new()),
            Box::new(Dtw::new()),
        ];
        let a = sym("ACGT");
        let b = sym("AGGT");
        for d in &distances {
            let v = d.distance(&a, &b);
            assert!(v.is_finite());
            assert!(v >= 0.0, "{} returned negative distance", d.name());
            assert_eq!(d.distance(&a, &a), 0.0, "{} not reflexive", d.name());
        }
    }
}
