//! Discrete Fréchet distance (Eiter & Mannila, 1994).

use ssr_sequence::Element;

use crate::counting::record_dp_cells;
use crate::end_table::{EndSink, EndSpec};
use crate::traits::{DistanceProperties, SequenceDistance};
use crate::workspace::DistanceWorkspace;

/// The discrete Fréchet distance: the minimum, over all couplings (warping
/// paths), of the **maximum** ground distance of any coupled pair.
///
/// Intuitively the "dog-leash" distance restricted to the vertices of two
/// polygonal curves. It is a metric, it is consistent (the maximum over a
/// subset of couplings cannot exceed the maximum over all of them), and it
/// tolerates temporal misalignment — which is why the paper pairs it with ERP
/// for the SONGS and TRAJ experiments.
///
/// [`SequenceDistance::distance_within`] adds reachability early abandoning:
/// reach values aggregate by `max`, so they never decrease along a coupling,
/// every coupling crosses every row, and a row whose minimum reach exceeds
/// `τ` proves the final bottleneck cost does too. The check is exact for any
/// ground distance (`max` involves no rounding at all).
#[derive(Clone, Copy, Debug, Default)]
pub struct DiscreteFrechet;

impl DiscreteFrechet {
    /// Creates the discrete Fréchet distance.
    pub fn new() -> Self {
        DiscreteFrechet
    }
}

impl<E: Element> SequenceDistance<E> for DiscreteFrechet {
    fn distance(&self, a: &[E], b: &[E]) -> f64 {
        self.distance_within(a, b, f64::INFINITY)
            .expect("every distance is within an infinite threshold")
    }

    fn distance_within(&self, a: &[E], b: &[E], tau: f64) -> Option<f64> {
        if a.is_empty() && b.is_empty() {
            return if 0.0 <= tau { Some(0.0) } else { None };
        }
        if a.is_empty() || b.is_empty() {
            let d = f64::INFINITY;
            return if d <= tau { Some(d) } else { None };
        }
        let m = b.len();
        DistanceWorkspace::with(|ws| {
            let (prev, curr) = ws.f64_rows(m, f64::INFINITY);
            let mut cells = 0u64;
            for (i, ai) in a.iter().enumerate() {
                let mut row_min = f64::INFINITY;
                for (j, bj) in b.iter().enumerate() {
                    let cost = ai.ground_distance(bj);
                    let reach = if i == 0 && j == 0 {
                        cost
                    } else {
                        let mut best = f64::INFINITY;
                        if i > 0 {
                            best = best.min(prev[j]);
                        }
                        if j > 0 {
                            best = best.min(curr[j - 1]);
                        }
                        if i > 0 && j > 0 {
                            best = best.min(prev[j - 1]);
                        }
                        best.max(cost)
                    };
                    curr[j] = reach;
                    row_min = row_min.min(reach);
                }
                cells += m as u64;
                if crate::counting::exceeds(row_min, tau) {
                    record_dp_cells(cells);
                    return None;
                }
                std::mem::swap(prev, curr);
            }
            record_dp_cells(cells);
            let d = prev[m - 1];
            if d <= tau {
                Some(d)
            } else {
                None
            }
        })
    }

    /// The program of [`Self::distance_within`] over all of `a` and `b`,
    /// every row handed to the sink. An empty prefix is at distance `∞` from
    /// a non-empty one, so besides `(0, 0)` only rows and columns from 1 on
    /// can hold a finite value.
    fn end_table(&self, a: &[E], b: &[E], ends: EndSpec, tau: f64, out: &mut [f64]) {
        let m = b.len();
        let mut sink = EndSink::new(out, ends, a.len(), m, tau);
        sink.row(0, 0..=0, |_| 0.0);
        DistanceWorkspace::with(|ws| {
            let (prev, curr) = ws.f64_rows(m, f64::INFINITY);
            let mut cells = 0u64;
            for (i, ai) in a.iter().enumerate() {
                let mut row_min = f64::INFINITY;
                for (j, bj) in b.iter().enumerate() {
                    let cost = ai.ground_distance(bj);
                    let reach = if i == 0 && j == 0 {
                        cost
                    } else {
                        let mut best = f64::INFINITY;
                        if i > 0 {
                            best = best.min(prev[j]);
                        }
                        if j > 0 {
                            best = best.min(curr[j - 1]);
                        }
                        if i > 0 && j > 0 {
                            best = best.min(prev[j - 1]);
                        }
                        best.max(cost)
                    };
                    curr[j] = reach;
                    row_min = row_min.min(reach);
                }
                cells += m as u64;
                if crate::counting::exceeds(row_min, tau) {
                    break;
                }
                sink.row(i + 1, 1..=m, |j| curr[j - 1]);
                std::mem::swap(prev, curr);
            }
            record_dp_cells(cells);
        })
    }

    fn name(&self) -> &'static str {
        "DiscreteFrechet"
    }

    fn properties(&self) -> DistanceProperties {
        DistanceProperties {
            metric: true,
            consistent: true,
            allows_time_shift: true,
            requires_equal_lengths: false,
        }
    }

    fn max_distance(&self, _len: usize) -> Option<f64> {
        // The maximum coupling cost is bounded by the ground-distance bound
        // irrespective of sequence length.
        E::max_ground_distance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_sequence::{Pitch, Point2D};

    fn pitches(values: &[i16]) -> Vec<Pitch> {
        values.iter().map(|&v| Pitch(v)).collect()
    }

    #[test]
    fn identical_sequences_have_zero_distance() {
        let d = DiscreteFrechet::new();
        let a = pitches(&[0, 4, 7, 11]);
        assert_eq!(d.distance(&a, &a), 0.0);
    }

    #[test]
    fn repeated_elements_do_not_increase_distance() {
        let d = DiscreteFrechet::new();
        let long = pitches(&[1, 1, 1, 2, 2, 2, 3, 3, 3]);
        let short = pitches(&[1, 2, 3]);
        assert_eq!(d.distance(&long, &short), 0.0);
    }

    #[test]
    fn distance_is_the_bottleneck_coupling_cost() {
        let d = DiscreteFrechet::new();
        // b's middle element (5.0) must couple with something; the closest
        // element of a is 2.0, so the bottleneck cost is 3.0.
        let a = [0.0, 1.0, 2.0];
        let b = [0.0, 5.0, 2.0];
        assert_eq!(SequenceDistance::<f64>::distance(&d, &a, &b), 3.0);
    }

    #[test]
    fn trajectory_example() {
        let d = DiscreteFrechet::new();
        let a = [
            Point2D::new(0.0, 0.0),
            Point2D::new(1.0, 0.0),
            Point2D::new(2.0, 0.0),
        ];
        let b = [
            Point2D::new(0.0, 1.0),
            Point2D::new(1.0, 1.0),
            Point2D::new(2.0, 1.0),
        ];
        assert!((d.distance(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_handling() {
        let d = DiscreteFrechet::new();
        let empty: Vec<f64> = vec![];
        assert_eq!(d.distance(&empty, &empty), 0.0);
        assert!(d.distance(&empty, &[1.0]).is_infinite());
    }

    #[test]
    fn symmetry_and_triangle_inequality_spot_checks() {
        let d = DiscreteFrechet::new();
        let seqs = [
            pitches(&[0, 2, 4]),
            pitches(&[1, 1, 1, 1]),
            pitches(&[11, 0]),
            pitches(&[5]),
        ];
        for x in &seqs {
            for y in &seqs {
                assert_eq!(d.distance(x, y), d.distance(y, x));
                for z in &seqs {
                    assert!(d.distance(x, z) <= d.distance(x, y) + d.distance(y, z) + 1e-12);
                }
            }
        }
    }

    #[test]
    fn bounded_by_max_ground_distance() {
        let d = DiscreteFrechet::new();
        let a = pitches(&[0, 0, 0]);
        let b = pitches(&[11, 11]);
        assert_eq!(d.distance(&a, &b), 11.0);
        assert_eq!(SequenceDistance::<Pitch>::max_distance(&d, 100), Some(11.0));
    }

    /// Checks Definition 1 itself: the projection of an optimal alignment is
    /// one witness among the subsequences searched.
    #[test]
    fn consistency_holds_empirically_via_alignment_projection() {
        crate::traits::assert_consistent(
            &DiscreteFrechet::new(),
            &pitches(&[0, 2, 4, 5, 7, 9, 11, 9, 7, 5, 4, 2]),
            &pitches(&[0, 1, 4, 6, 7, 9, 10, 9, 8, 5, 3, 2, 0]),
        );
    }
}
