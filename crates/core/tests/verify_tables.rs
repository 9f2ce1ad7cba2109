//! Step 5b reads every pair's distance from the end table of its start pair
//! instead of running the kernel on the pair. These tests hold that to the
//! definition: every reported distance is bit-equal to `D.distance(SQ, SX)`
//! on the reported ranges, for each kind of built-in program (bit-vector,
//! banded integer, banded float, sum, bottleneck, lockstep); a Type I answer
//! is the brute-force answer on inputs small enough to enumerate; and the
//! verification budget is charged per pair asked about — a start pair with
//! nothing within the radius once, whatever number of pairs it stands for.
//!
//! "Bit-equal" is against `D.distance` of the same build. On points the
//! ground distance is `√(dx² + dy²)` (`hypot` only where the sum of squares
//! is not a normal number), so the bits pinned are that rule's, not
//! `hypot`'s: every reported trajectory distance's low bits moved once when
//! it replaced `hypot`.

use std::collections::BTreeSet;

use ssr_core::expand::{Expansion, DEAD, FRESH};
use ssr_core::{
    all_similar_pairs, build_regions, BruteConstraints, FrameworkConfig, IndexBackend,
    SubsequenceDatabase, SubsequenceMatch,
};
use ssr_distance::{DiscreteFrechet, Dtw, Erp, Euclidean, Levenshtein, SequenceDistance};
use ssr_sequence::{Element, Pitch, Point2D, Sequence, Symbol};

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

/// Two database sequences of `len` elements and a query that holds a copy of
/// `first[at..at + copy]` with every `redraw`-th element redrawn, inside a
/// few unrelated elements on either side.
fn planted<E: Element>(
    seed: u64,
    len: usize,
    (at, copy, redraw): (usize, usize, usize),
    mut draw: impl FnMut(&mut Lcg) -> E,
) -> (Vec<Sequence<E>>, Sequence<E>) {
    let mut rng = Lcg(seed);
    let first: Vec<E> = (0..len).map(|_| draw(&mut rng)).collect();
    let second: Vec<E> = (0..len).map(|_| draw(&mut rng)).collect();
    let mut query: Vec<E> = (0..3).map(|_| draw(&mut rng)).collect();
    for (i, element) in first[at..at + copy].iter().enumerate() {
        query.push(if i % redraw == redraw - 1 {
            draw(&mut rng)
        } else {
            element.clone()
        });
    }
    query.extend((0..4).map(|_| draw(&mut rng)));
    (
        vec![Sequence::new(first), Sequence::new(second)],
        Sequence::new(query),
    )
}

fn symbol(rng: &mut Lcg) -> Symbol {
    Symbol::from_char(b"ACDEFGHIKL"[rng.next(10)] as char)
}

fn pitch(rng: &mut Lcg) -> Pitch {
    Pitch(rng.next(12) as i16)
}

fn scalar(rng: &mut Lcg) -> f64 {
    rng.next(400) as f64 / 37.0
}

fn point(rng: &mut Lcg) -> Point2D {
    Point2D::new(rng.next(900) as f64 / 91.0, rng.next(900) as f64 / 91.0)
}

fn build<E: Element + Send + Sync, D: SequenceDistance<E>>(
    config: FrameworkConfig,
    distance: D,
    sequences: &[Sequence<E>],
) -> SubsequenceDatabase<E, D> {
    let mut builder = SubsequenceDatabase::builder(config, distance);
    for sequence in sequences {
        builder = builder.add_sequence(sequence.clone());
    }
    builder.build().expect("database builds")
}

fn assert_exact<E: Element + Send + Sync, D: SequenceDistance<E>>(
    db: &SubsequenceDatabase<E, D>,
    query: &Sequence<E>,
    m: &SubsequenceMatch,
    what: &str,
) {
    let stored = db.sequence(m.sequence).expect("match names a sequence");
    let exact = db.distance().distance(
        &query.elements()[m.query_range.clone()],
        &stored.elements()[m.db_range.clone()],
    );
    assert_eq!(
        m.distance.to_bits(),
        exact.to_bits(),
        "{} {what}: {m:?} reports {} but the distance is {exact}",
        db.distance().name(),
        m.distance
    );
}

/// All three query types on one database: every reported distance is the
/// distance, to the bit, and there is something reported to check.
fn reported_distances_are_exact<E: Element + Send + Sync, D: SequenceDistance<E>>(
    db: &SubsequenceDatabase<E, D>,
    query: &Sequence<E>,
    epsilon: f64,
) {
    let type1 = db.query_type1(query, epsilon).result;
    assert!(
        type1.len() > 1,
        "{}: the planted region gave {} Type I pairs at radius {epsilon}",
        db.distance().name(),
        type1.len()
    );
    for m in &type1 {
        assert_exact(db, query, m, "Type I");
    }
    let type2 = db.query_type2(query, epsilon).result;
    assert_exact(
        db,
        query,
        &type2.expect("Type II finds the plant"),
        "Type II",
    );
    let type3 = db.query_type3(query, epsilon, epsilon / 4.0).result;
    assert_exact(
        db,
        query,
        &type3.expect("Type III finds the plant"),
        "Type III",
    );
}

#[test]
fn every_reported_distance_is_the_kernels_to_the_bit() {
    let config = FrameworkConfig::new(8).with_max_shift(2);
    for seed in [3, 17, 91] {
        let (sequences, query) = planted(seed, 60, (13, 23, 6), symbol);
        let db = build(config.clone(), Levenshtein::new(), &sequences);
        reported_distances_are_exact(&db, &query, 4.0);

        let (sequences, query) = planted(seed, 60, (22, 21, 6), pitch);
        let db = build(config.clone(), Erp::new(), &sequences);
        reported_distances_are_exact(&db, &query, 14.0);

        // Non-integral gap costs: ERP runs unbanded, sums in floating point.
        let (sequences, query) = planted(seed, 60, (9, 22, 6), scalar);
        let db = build(config.clone(), Erp::new(), &sequences);
        reported_distances_are_exact(&db, &query, 16.0);

        let (sequences, query) = planted(seed, 60, (30, 24, 6), point);
        let db = build(config.clone(), DiscreteFrechet::new(), &sequences);
        reported_distances_are_exact(&db, &query, 5.0);

        // DTW is not a metric: only the linear scan may carry it.
        let (sequences, query) = planted(seed, 60, (5, 22, 6), scalar);
        let scan = config.clone().with_backend(IndexBackend::LinearScan);
        let db = build(scan, Dtw::new(), &sequences);
        reported_distances_are_exact(&db, &query, 12.0);

        let (sequences, query) = planted(seed, 60, (17, 23, 6), scalar);
        let lockstep = config.clone().with_max_shift(0);
        let db = build(lockstep, Euclidean::new(), &sequences);
        reported_distances_are_exact(&db, &query, 9.0);
    }
}

type PairKey = (usize, usize, usize, usize, usize, u64);

fn keys(matches: &[SubsequenceMatch]) -> BTreeSet<PairKey> {
    matches
        .iter()
        .map(|m| {
            (
                m.sequence.0,
                m.query_range.start,
                m.query_range.end,
                m.db_range.start,
                m.db_range.end,
                m.distance.to_bits(),
            )
        })
        .collect()
}

/// A configuration whose caps cannot bind on these inputs.
fn uncapped(lambda: usize, max_shift: usize) -> FrameworkConfig {
    let mut config = FrameworkConfig::new(lambda).with_max_shift(max_shift);
    config.max_results = usize::MAX;
    config.max_verifications = usize::MAX;
    config
}

/// The framework reaches a similar pair through a region one of whose start
/// rectangles holds its start points and whose chains from there reach within
/// `λ/2 (+ λ0)` of its end points (§7 of the paper). A region holds the pairs
/// of every sub-chain of its runs, so on plants several windows long — five
/// and a half here — at radii a few redrawn elements wide, every similar pair
/// is within that reach and Type I must return exactly the brute-force set:
/// no pair lost to a table or a dead start pair, none invented, none twice,
/// each distance to the bit.
#[test]
fn type1_is_the_brute_force_answer_on_small_inputs() {
    fn check<E: Element + Send + Sync, D: SequenceDistance<E> + Clone>(
        distance: D,
        sequences: &[Sequence<E>],
        query: &Sequence<E>,
        epsilon: f64,
    ) {
        let config = uncapped(8, 1);
        let db = build(config.clone(), distance.clone(), sequences);
        let constraints = BruteConstraints {
            lambda: config.lambda,
            max_shift: config.max_shift,
        };
        let brute = all_similar_pairs(query, &db.to_dataset(), &distance, constraints, epsilon);
        assert!(
            brute.len() > 100,
            "{}: brute force found {} pairs",
            distance.name(),
            brute.len()
        );
        let found = db.query_type1(query, epsilon).result;
        let (found_keys, brute_keys) = (keys(&found), keys(&brute));
        assert_eq!(
            found_keys,
            brute_keys,
            "{}: only found {:?}, only brute force {:?}",
            distance.name(),
            found_keys.difference(&brute_keys).collect::<Vec<_>>(),
            brute_keys.difference(&found_keys).collect::<Vec<_>>()
        );
        assert_eq!(found.len(), brute.len(), "a pair was reported twice");
    }
    for seed in [5, 29, 47] {
        let (sequences, query) = planted(seed, 44, (6, 23, 6), symbol);
        check(Levenshtein::new(), &sequences, &query, 2.0);
        let (sequences, query) = planted(seed, 44, (9, 22, usize::MAX), pitch);
        check(Erp::new(), &sequences, &query, 1.0);
        let (sequences, query) = planted(seed, 44, (4, 21, usize::MAX), point);
        check(DiscreteFrechet::new(), &sequences, &query, 1.5);
    }
}

/// What `verification_calls` must read by the budget rule, from the public
/// enumeration and the kernel alone: one per pair asked about — the pair
/// that opens a start pair and, when any pair from that start is within
/// `epsilon`, every later pair of it; a dead start pair is never asked again.
fn calls_by_the_rule<E: Element + Send + Sync, D: SequenceDistance<E>>(
    db: &SubsequenceDatabase<E, D>,
    query: &Sequence<E>,
    epsilon: f64,
) -> u64 {
    let config = db.config();
    let scan = db.matching_segments(query, epsilon);
    let mut expansion = Expansion::default();
    let mut calls = 0;
    for region in build_regions(&scan.matches, config.window_len(), config.max_shift) {
        let stored = db.sequence(region.sequence).expect("a stored sequence");
        expansion.paint(&region, config, (query.len(), stored.len()));
        expansion.for_each_pair(|state, p| {
            calls += 1;
            if *state == FRESH {
                let within = |i: usize, j: usize| {
                    let sq = &query.elements()[p.qs..p.qs + i];
                    db.distance()
                        .distance(sq, &stored.elements()[p.xs..p.xs + j])
                        <= epsilon
                };
                let live = (config.lambda..=p.query_last - p.qs).any(|i| {
                    (config.lambda..=p.db_last - p.xs)
                        .any(|j| i.abs_diff(j) <= config.max_shift && within(i, j))
                });
                *state = if live { 0 } else { DEAD };
            }
            false
        });
    }
    calls
}

#[test]
fn the_budget_is_charged_per_pair_asked_about() {
    let (sequences, query) = planted(41, 40, (9, 21, 6), point);
    let free = build(uncapped(8, 2), DiscreteFrechet::new(), &sequences);
    let epsilon = 5.0;
    let unbudgeted = free.query_type1(&query, epsilon);
    let wanted = unbudgeted.stats.verification_calls;
    assert!(!unbudgeted.stats.budget_exhausted);
    assert!(wanted > 500, "only {wanted} pairs asked about");
    assert_eq!(wanted, calls_by_the_rule(&free, &query, epsilon));
    let all = keys(&unbudgeted.result);

    // The same on a banded integer program.
    let (symbols, symbol_query) = planted(41, 40, (9, 21, 6), symbol);
    let strings = build(uncapped(8, 2), Levenshtein::new(), &symbols);
    assert_eq!(
        strings
            .query_type1(&symbol_query, 3.0)
            .stats
            .verification_calls,
        calls_by_the_rule(&strings, &symbol_query, 3.0)
    );

    for budget in [1u64, 7, 500, wanted, wanted + 1] {
        let mut config = uncapped(8, 2);
        config.max_verifications = budget as usize;
        let db = build(config, DiscreteFrechet::new(), &sequences);
        let outcome = db.query_type1(&query, epsilon);
        // Exhausted exactly when a pair was asked about and refused: the
        // unbudgeted run says how many there are to ask about.
        assert_eq!(outcome.stats.verification_calls, budget.min(wanted));
        assert_eq!(outcome.stats.budget_exhausted, budget < wanted);
        assert!(keys(&outcome.result).is_subset(&all), "budget {budget}");
        if budget >= wanted {
            assert_eq!(outcome.result, unbudgeted.result);
        }
        for m in &outcome.result {
            assert_exact(&db, &query, m, "budgeted Type I");
        }
        assert!(db.query_type2(&query, epsilon).stats.verification_calls <= budget);
    }
}

/// A region's table arena holds at most one row per unit of the budget.
/// Past that a live table is not kept and its start pair is opened again at
/// every pair — more cells, the same answers, the same budget spent.
#[test]
fn a_full_table_arena_costs_cells_not_answers() {
    // A long exact copy: a dozen reachable lengths' worth of rows per table,
    // and Type I stops at its result cap long before the budget.
    let (sequences, query) = planted(7, 120, (10, 90, usize::MAX), symbol);
    let outcome = |budget: usize| {
        let mut config = FrameworkConfig::new(8).with_max_shift(2);
        (config.max_results, config.max_verifications) = (60, budget);
        let db = build(config, Levenshtein::new(), &sequences);
        let outcome = db.query_type1(&query, 2.0);
        for m in &outcome.result {
            assert_exact(&db, &query, m, "Type I");
        }
        outcome
    };
    let roomy = outcome(usize::MAX);
    // Just enough budget for the pairs asked about: room for that many rows,
    // a few tables' worth, where the start pairs that answer need dozens.
    let tight = outcome(roomy.stats.verification_calls as usize);
    assert_eq!(roomy.result.len(), 60);
    assert_eq!(roomy.result, tight.result);
    assert!(!tight.stats.budget_exhausted);
    assert_eq!(
        roomy.stats.verification_calls,
        tight.stats.verification_calls
    );
    assert!(roomy.stats.dp_cells_evaluated < tight.stats.dp_cells_evaluated);
}
