//! The end-table contract, shared by `threshold.rs` (pruning on) and
//! `ablation.rs` (pruning off): every slot of
//! [`SequenceDistance::end_table`] equals
//! `distance_within(&a[..i], &b[..j], τ)` bit for bit, `∞` standing for
//! `None` and for the slots beyond the length-difference bound.

use ssr_distance::{
    DiscreteFrechet, DistanceProperties, Dtw, EndSpec, Erp, Euclidean, Hamming, Levenshtein,
    SequenceDistance,
};
use ssr_sequence::Element;

/// A measure that defines nothing but `distance`, as a foreign one may: its
/// end table is the trait's default, built on the default `distance_within`.
struct OnlyDistance<D>(D);

impl<E: Element, D: SequenceDistance<E>> SequenceDistance<E> for OnlyDistance<D> {
    fn distance(&self, a: &[E], b: &[E]) -> f64 {
        self.0.distance(a, b)
    }

    fn name(&self) -> &'static str {
        "only-distance"
    }

    fn properties(&self) -> DistanceProperties {
        self.0.properties()
    }
}

/// Thresholds for a table over inputs at distance `full`: zero, small, at
/// and beside the band boundary `|len(a) − len(b)|`, at and beside `full`,
/// and the degenerate ones.
fn table_taus(full: f64, len_diff: usize) -> Vec<f64> {
    let edge = len_diff as f64;
    let mut taus = vec![
        0.0,
        1.0,
        2.5,
        edge - 1e-9,
        edge,
        edge + 1.0,
        f64::INFINITY,
        f64::NAN,
        -1.0,
    ];
    if full.is_finite() {
        taus.extend([full / 2.0, full - 1e-9, full, full + 0.5]);
    }
    taus
}

fn assert_end_table<E: Element, D: SequenceDistance<E>>(dist: &D, a: &[E], b: &[E], ends: EndSpec) {
    let mut out = vec![f64::NAN; ends.slots(a.len(), b.len())];
    for tau in table_taus(dist.distance(a, b), a.len().abs_diff(b.len())) {
        dist.end_table(a, b, ends, tau, &mut out);
        for i in ends.min_a..=a.len() {
            for j in ends.min_b..=b.len() {
                let expected = if i.abs_diff(j) <= ends.max_len_diff {
                    dist.distance_within(&a[..i], &b[..j], tau)
                        .unwrap_or(f64::INFINITY)
                } else {
                    f64::INFINITY
                };
                let got = out[ends.slot(b.len(), i, j)];
                assert_eq!(
                    got.to_bits(),
                    expected.to_bits(),
                    "{}: slot ({i}, {j}) of {ends:?} at tau {tau} holds {got}, the kernel says {expected}",
                    dist.name()
                );
            }
        }
    }
}

/// Checks the tables of all six measures, and the default one, over
/// `(a, b)` for the given end ranges.
pub fn check_end_tables<E: Element>(a: &[E], b: &[E], ends: EndSpec) {
    assert_end_table(&Levenshtein::new(), a, b, ends);
    assert_end_table(&Erp::new(), a, b, ends);
    assert_end_table(&Dtw::new(), a, b, ends);
    assert_end_table(&DiscreteFrechet::new(), a, b, ends);
    assert_end_table(&Euclidean::new(), a, b, ends);
    assert_end_table(&Hamming::new(), a, b, ends);
    assert_end_table(&OnlyDistance(Erp::new()), a, b, ends);
}
