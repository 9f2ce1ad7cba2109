//! Dynamic Time Warping (DTW).

use ssr_sequence::Element;

use crate::counting::record_dp_cells;
use crate::end_table::{EndSink, EndSpec};
use crate::traits::{DistanceProperties, SequenceDistance};
use crate::workspace::DistanceWorkspace;

/// Dynamic Time Warping: the minimum, over all warping paths, of the sum of
/// ground distances of coupled elements.
///
/// DTW tolerates arbitrary temporal misalignment and is **consistent**
/// (Section 4 of the paper) but it is **not a metric**: it violates the
/// triangle inequality, so it cannot be used with the Reference Net or any
/// other metric index. The framework's filtering step (which requires only
/// consistency) still applies to DTW when paired with a linear scan; this
/// implementation exists both for that configuration and as a reference point
/// in the distance benchmarks.
///
/// [`SequenceDistance::distance_within`] adds row-minimum early abandoning:
/// every warping path crosses every row of the DP matrix, and accumulated
/// costs never decrease along a path (IEEE addition of non-negative costs is
/// monotone), so a row whose minimum exceeds `τ` proves the final value does
/// too. There is no band — constraining the warping path would change DTW's
/// semantics — and no cheap lower bound from lengths, since DTW can couple
/// sequences of very different lengths at zero cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct Dtw;

impl Dtw {
    /// Creates the DTW distance.
    pub fn new() -> Self {
        Dtw
    }
}

impl<E: Element> SequenceDistance<E> for Dtw {
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
            let (prev, curr) = ws.f64_rows(m + 1, f64::INFINITY);
            prev[0] = 0.0;
            let mut cells = 0u64;
            for ai in a.iter() {
                curr[0] = f64::INFINITY;
                let mut row_min = f64::INFINITY;
                for (j, bj) in b.iter().enumerate() {
                    let cost = ai.ground_distance(bj);
                    let best_prev = prev[j].min(prev[j + 1]).min(curr[j]);
                    let value = cost + best_prev;
                    curr[j + 1] = value;
                    row_min = row_min.min(value);
                }
                cells += m as u64;
                if crate::counting::exceeds(row_min, tau) {
                    record_dp_cells(cells);
                    return None;
                }
                std::mem::swap(prev, curr);
            }
            record_dp_cells(cells);
            let d = prev[m];
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
            let (prev, curr) = ws.f64_rows(m + 1, f64::INFINITY);
            prev[0] = 0.0;
            let mut cells = 0u64;
            for (i, ai) in a.iter().enumerate() {
                curr[0] = f64::INFINITY;
                let mut row_min = f64::INFINITY;
                for (j, bj) in b.iter().enumerate() {
                    let cost = ai.ground_distance(bj);
                    let best_prev = prev[j].min(prev[j + 1]).min(curr[j]);
                    let value = cost + best_prev;
                    curr[j + 1] = value;
                    row_min = row_min.min(value);
                }
                cells += m as u64;
                if crate::counting::exceeds(row_min, tau) {
                    break;
                }
                sink.row(i + 1, 1..=m, |j| curr[j]);
                std::mem::swap(prev, curr);
            }
            record_dp_cells(cells);
        })
    }

    fn name(&self) -> &'static str {
        "DTW"
    }

    fn properties(&self) -> DistanceProperties {
        DistanceProperties {
            metric: false,
            consistent: true,
            allows_time_shift: true,
            requires_equal_lengths: false,
        }
    }

    fn max_distance(&self, len: usize) -> Option<f64> {
        // A warping path between sequences of length <= len has at most
        // 2*len - 1 couplings, each costing at most the ground bound.
        E::max_ground_distance().map(|g| g * (2 * len).saturating_sub(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_sequence::Pitch;

    fn pitches(values: &[i16]) -> Vec<Pitch> {
        values.iter().map(|&v| Pitch(v)).collect()
    }

    #[test]
    fn paper_example_repeated_values_have_zero_distance() {
        // "sequence 111222333 according to DTW has a distance of 0 to 123"
        let d = Dtw::new();
        let long = pitches(&[1, 1, 1, 2, 2, 2, 3, 3, 3]);
        let short = pitches(&[1, 2, 3]);
        assert_eq!(d.distance(&long, &short), 0.0);
    }

    #[test]
    fn simple_scalar_case() {
        let d = Dtw::new();
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 2.0, 4.0];
        assert_eq!(SequenceDistance::<f64>::distance(&d, &a, &b), 1.0);
    }

    #[test]
    fn identical_sequences_have_zero_distance() {
        let d = Dtw::new();
        let a = pitches(&[0, 4, 7, 4, 0]);
        assert_eq!(d.distance(&a, &a), 0.0);
    }

    #[test]
    fn empty_handling() {
        let d = Dtw::new();
        let empty: Vec<f64> = vec![];
        assert_eq!(d.distance(&empty, &empty), 0.0);
        assert!(d.distance(&empty, &[1.0]).is_infinite());
    }

    #[test]
    fn dtw_is_not_a_metric_triangle_violation_exists() {
        // Known counterexample: DTW violates the triangle inequality because a
        // short "bridge" sequence can warp cheaply onto both extremes.
        let d = Dtw::new();
        let a = [0.0, 0.0, 0.0, 0.0];
        let b = [0.0, 2.0];
        let c = [2.0, 2.0, 2.0, 2.0];
        let dab = SequenceDistance::<f64>::distance(&d, &a, &b);
        let dbc = SequenceDistance::<f64>::distance(&d, &b, &c);
        let dac = SequenceDistance::<f64>::distance(&d, &a, &c);
        assert!(
            dac > dab + dbc,
            "expected violation, got d(a,c)={dac} <= {dab}+{dbc}"
        );
        assert!(!SequenceDistance::<f64>::is_metric(&d));
    }

    /// Checks Definition 1 itself: the projection of an optimal alignment is
    /// one witness among the subsequences searched.
    #[test]
    fn consistency_holds_empirically_via_alignment_projection() {
        crate::traits::assert_consistent(
            &Dtw::new(),
            &pitches(&[0, 2, 4, 5, 7, 9, 11, 9, 7, 5, 4, 2]),
            &pitches(&[0, 1, 4, 6, 7, 9, 10, 9, 8, 5, 3, 2, 0]),
        );
    }
}
