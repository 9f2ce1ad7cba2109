//! The pruning ablation as a measure of its own.

use ssr_sequence::Element;

use crate::counting::exceeds;
use crate::end_table::EndSpec;
use crate::traits::{DistanceProperties, SequenceDistance};

/// `D` with its threshold-aware pruning taken away: every call runs the
/// wrapped kernel at `τ = ∞` — no lower bound can fire, no band narrows and
/// no row abandons — and applies the threshold to the finished value.
///
/// Answers are those of `D`, bit for bit (the kernels' thresholded values are
/// exact); only the work differs, as [`crate::dp_cells_thread_total`] and
/// [`crate::lower_bound_prunes_thread_total`] show. The trait's default
/// length and gap-sum bounds and free-start column (none) are kept, so a
/// caller's own bound cascade in front of the kernel never fires either. A database built on
/// `Unpruned<D>` beside one built on `D` is the end-to-end ablation.
#[derive(Clone, Copy, Debug)]
pub struct Unpruned<D>(pub D);

impl<E: Element, D: SequenceDistance<E>> SequenceDistance<E> for Unpruned<D> {
    fn distance(&self, a: &[E], b: &[E]) -> f64 {
        self.0.distance(a, b)
    }

    fn distance_within(&self, a: &[E], b: &[E], tau: f64) -> Option<f64> {
        self.0
            .distance_within(a, b, f64::INFINITY)
            .filter(|&d| !exceeds(d, tau))
    }

    /// The wrapped table at `τ = ∞`, then `∞` in every slot above `tau`.
    fn end_table(&self, a: &[E], b: &[E], ends: EndSpec, tau: f64, out: &mut [f64]) {
        self.0.end_table(a, b, ends, f64::INFINITY, out);
        for slot in out.iter_mut().filter(|slot| exceeds(**slot, tau)) {
            *slot = f64::INFINITY;
        }
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn properties(&self) -> DistanceProperties {
        self.0.properties()
    }

    fn max_distance(&self, len: usize) -> Option<f64> {
        self.0.max_distance(len)
    }
}
