//! Steps 3–4 against brute force. `matching_segments` asks the index once
//! per query offset for the whole family of segments that start there, and
//! answers every segment from one end table per visited window. These tests
//! hold the result to the definition: on every backend and for every kind of
//! built-in program, the scan equals — as an ordered list, distances to the
//! bit — a loop that runs `distance_within` on every (segment, live window)
//! pair, on a built database and again after an append and a tombstoned
//! remove, with one lane, with truncated tail families, with no family at
//! all, at radius zero, and on the same database built on the measure's
//! [`Unpruned`] ablation.

use ssr_core::{FrameworkConfig, IndexBackend, SegmentScan, SubsequenceDatabase};
use ssr_distance::{
    DiscreteFrechet, Dtw, Erp, Euclidean, Hamming, Levenshtein, SequenceDistance, Unpruned,
};
use ssr_sequence::{
    segment_families, Element, Pitch, Point2D, Sequence, SequenceId, Symbol, WindowId,
};

const METRIC_BACKENDS: [IndexBackend; 4] = [
    IndexBackend::ReferenceNet,
    IndexBackend::CoverTree,
    IndexBackend::MvReference { references: 3 },
    IndexBackend::LinearScan,
];

/// Deterministic values in `0..bound`; the inputs only need variety.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize % bound
    }
}

fn symbol(rng: &mut Lcg) -> Symbol {
    Symbol::from_char(b"ACGT"[rng.next(4)] as char)
}

fn pitch(rng: &mut Lcg) -> Pitch {
    Pitch(rng.next(12) as i16)
}

/// Non-integral, so no gap sum of these is exact.
fn scalar(rng: &mut Lcg) -> f64 {
    rng.next(400) as f64 / 37.0 + 0.013
}

fn point(rng: &mut Lcg) -> Point2D {
    Point2D::new(rng.next(60) as f64 / 7.0, rng.next(60) as f64 / 7.0)
}

/// One match, in the terms the oracle can produce: segment length, segment
/// start, window id, distance bits.
type Row = (usize, usize, usize, u64);

fn rows(scan: &SegmentScan) -> Vec<Row> {
    scan.matches
        .iter()
        .map(|m| (m.query_len, m.query_start, m.window.0, m.distance.to_bits()))
        .collect()
}

/// Step 3–4 by definition: every segment, by length and then by start,
/// against every window of a live sequence, by id.
fn oracle<E: Element + Send + Sync, D: SequenceDistance<E>>(
    db: &SubsequenceDatabase<E, D>,
    query: &[E],
    epsilon: f64,
) -> Vec<Row> {
    let spec = db.config().segment_spec();
    let mut rows = Vec::new();
    for len in spec.min_len()..=spec.max_len().min(query.len()) {
        for start in 0..=query.len() - len {
            let segment = &query[start..start + len];
            for (id, window) in db.windows().iter() {
                if !db.is_live(window.sequence) {
                    continue;
                }
                let slice = db.windows().slice(id).expect("a stored window");
                if let Some(d) = db.distance().distance_within(segment, slice, epsilon) {
                    rows.push((len, start, id.0, d.to_bits()));
                }
            }
        }
    }
    rows
}

/// The scan of `query` equals the oracle's; returns it for further checks.
fn agrees<E: Element + Send + Sync, D: SequenceDistance<E>>(
    db: &SubsequenceDatabase<E, D>,
    query: &[E],
    epsilon: f64,
    what: &str,
) -> SegmentScan {
    let scan = db.matching_segments(&Sequence::new(query.to_vec()), epsilon);
    assert_eq!(
        rows(&scan),
        oracle(db, query, epsilon),
        "{} on {} at radius {epsilon}, {what}",
        db.distance().name(),
        db.config().backend
    );
    scan
}

fn build<E: Element + Send + Sync, D: SequenceDistance<E>>(
    config: FrameworkConfig,
    distance: D,
    sequences: &[Vec<E>],
) -> SubsequenceDatabase<E, D> {
    let mut builder = SubsequenceDatabase::builder(config, distance);
    for sequence in sequences {
        builder = builder.add_sequence(Sequence::new(sequence.clone()));
    }
    builder.build().expect("database builds")
}

/// Every scenario of the module doc for one measure on one backend, with
/// windows of 6 elements and lanes of `6 ± max_shift`, at the radii `loose`
/// (plenty of matches), `tight` and zero. Returns the lower-bound prunes the
/// scans of the built database tallied.
fn check<E: Element + Send + Sync, D: SequenceDistance<E> + Clone>(
    backend: IndexBackend,
    distance: D,
    mut draw: impl FnMut(&mut Lcg) -> E,
    (loose, tight): (f64, f64),
    max_shift: usize,
) -> u64 {
    let mut rng = Lcg(0x5EED ^ loose.to_bits());
    let mut sequence = |len: usize| -> Vec<E> { (0..len).map(|_| draw(&mut rng)).collect() };
    let stored = [sequence(61), sequence(47), sequence(58)];
    // A query that shares a stretch with the database, so that radius zero
    // has something to find, between unrelated elements.
    let mut query = sequence(5);
    query.extend_from_slice(&stored[0][12..30]);
    query.extend(sequence(6));
    let appended = sequence(40);

    let config = FrameworkConfig::new(12)
        .with_max_shift(max_shift)
        .with_backend(backend);
    let spec = config.segment_spec();
    let mut db = build(config.clone(), distance.clone(), &stored);
    let mut prunes = 0;
    for epsilon in [loose, tight, 0.0] {
        let scan = agrees(&db, &query, epsilon, "built");
        prunes += scan.pruned_by_lower_bound;
        let families = segment_families(&query, spec).count() as u64;
        if backend == IndexBackend::LinearScan {
            assert_eq!(
                scan.distance_calls,
                families * db.window_count() as u64,
                "a scan spends one call per (offset, window)"
            );
        }
    }
    assert!(
        !agrees(&db, &query, 0.0, "built").is_empty(),
        "{}: the shared stretch matched nothing",
        db.distance().name()
    );
    // Shorter than the longest lane: every family is cut at the query's
    // end. Shorter than the shortest: there is no family.
    let shared = &query[5..];
    agrees(
        &db,
        &shared[..spec.max_len() - 1],
        loose,
        "truncated families",
    );
    agrees(&db, &shared[..spec.min_len()], loose, "one one-lane family");
    assert!(agrees(&db, &shared[..spec.min_len() - 1], loose, "no family").is_empty());
    assert!(agrees(&db, &[], loose, "empty query").is_empty());

    db.append_sequence(Sequence::new(appended.clone()));
    assert!(db.remove_sequence(SequenceId(1)));
    for epsilon in [loose, tight, 0.0] {
        let scan = agrees(&db, &query, epsilon, "after append and remove");
        assert!(scan.matches.iter().all(|m| m.sequence != SequenceId(1)));
    }
    let last = WindowId(db.window_count() - 1);
    assert_eq!(
        db.windows().get(last).expect("a stored window").sequence,
        SequenceId(3),
        "the appended sequence is indexed"
    );

    let mut full = build(config, Unpruned(distance), &stored);
    full.append_sequence(Sequence::new(appended));
    assert!(full.remove_sequence(SequenceId(1)));
    let unpruned = agrees(&full, &query, loose, "unpruned");
    assert_eq!(unpruned.pruned_by_lower_bound, 0);
    assert_eq!(rows(&unpruned), rows(&agrees(&db, &query, loose, "pruned")));

    prunes
}

#[test]
fn levenshtein_on_symbols() {
    for backend in METRIC_BACKENDS {
        check(backend, Levenshtein::new(), symbol, (3.0, 1.0), 2);
        // One lane per family.
        check(backend, Levenshtein::new(), symbol, (3.0, 1.0), 0);
    }
}

#[test]
fn erp_on_pitches_keeps_its_gap_sum_bound() {
    for backend in METRIC_BACKENDS {
        let prunes = check(backend, Erp::new(), pitch, (14.0, 4.0), 2);
        assert!(prunes > 0, "{backend}: the gap-sum bound never fired");
    }
}

#[test]
fn erp_on_inexact_sums_never_prunes_on_them() {
    for backend in METRIC_BACKENDS {
        let prunes = check(backend, Erp::new(), scalar, (9.0, 2.5), 2);
        assert_eq!(prunes, 0, "{backend}: pruned on a sum that is not exact");
    }
}

#[test]
fn discrete_frechet_on_points() {
    for backend in METRIC_BACKENDS {
        check(backend, DiscreteFrechet::new(), point, (4.5, 2.0), 1);
    }
}

#[test]
fn lockstep_measures_have_one_lane() {
    for backend in METRIC_BACKENDS {
        check(backend, Euclidean::new(), scalar, (9.0, 4.0), 0);
        check(backend, Hamming::new(), symbol, (3.0, 1.0), 0);
    }
}

#[test]
fn dtw_on_a_linear_scan() {
    check(IndexBackend::LinearScan, Dtw::new(), pitch, (12.0, 4.0), 2);
}
