//! The deterministic work counters of one seeded workload, held exactly.
//!
//! Section 8 of the paper argues in machine-independent counts: distance
//! computations against a linear scan, not seconds. This test builds the
//! seeded protein database of 410 windows (λ = 40, λ0 = 2), plants twelve
//! queries in it, appends a duplicate of the first, and runs the thirteen as
//! one Type II batch at ε = 8. Every counter below is a pure function of the
//! seeds and the code: distance calls, shortlist sizes, DP cells and the
//! arena's byte counts are computed from lengths, never from clocks or
//! allocator capacities, so they read the same on every machine. A change
//! that moves one of them changes this file's constant, and says why.
//! Wall time is the business of `benchmark/`.
//!
//! The second side runs the same batch on `Unpruned<Levenshtein>`, whose
//! kernels fill their full programs: its cell count is the figure the
//! pruning saving is quoted against (`pruning_ablation.rs` holds that the
//! two sides agree on everything else). The sides are two databases, so
//! they run at once, on two threads.
//!
//! On proteins the Reference Net bulk-decides almost nothing, so a third
//! case pins the counts where it does: seeded trajectories under the
//! discrete Fréchet distance, where the net makes a small share of a
//! scan's distance calls and most windows are accepted or excluded a whole
//! reference list or subtree at a time.

use ssr_core::{FrameworkConfig, IndexBackend, QueryEngine, QueryStats, SubsequenceDatabase};
use ssr_datagen::{
    generate_proteins, generate_trajectories, plant_query, PointMutator, ProteinConfig,
    QueryConfig, SymbolMutator, TrajConfig,
};
use ssr_distance::{DiscreteFrechet, Levenshtein, SequenceDistance, Unpruned};
use ssr_sequence::{Element, Point2D, Sequence, SequenceDataset, Symbol};

const EPSILON: f64 = 8.0;

/// The seeded proteins (410 windows of λ/2 = 20) and thirteen queries: twelve
/// planted copies, 5 % perturbed, in 20 symbols of context each side, and a
/// duplicate of the first.
fn workload() -> (SequenceDataset<Symbol>, Vec<Sequence<Symbol>>) {
    let proteins = generate_proteins(&ProteinConfig::sized_for_windows(400, 20, 42));
    let mut queries: Vec<Sequence<Symbol>> = (0..12)
        .map(|i| {
            plant_query(
                &proteins,
                &SymbolMutator,
                &QueryConfig {
                    planted_len: 60,
                    context_len: 20,
                    perturbation_rate: 0.05,
                    seed: 1000 + i,
                },
            )
            .expect("the proteins are large enough to plant queries")
            .query
        })
        .collect();
    queries.push(queries[0].clone());
    (proteins, queries)
}

fn build<D: SequenceDistance<Symbol>>(
    proteins: &SequenceDataset<Symbol>,
    distance: D,
) -> SubsequenceDatabase<Symbol, D> {
    SubsequenceDatabase::builder(FrameworkConfig::new(40).with_max_shift(2), distance)
        .add_dataset(proteins)
        .build()
        .expect("the counter workload builds")
}

/// The batch's summed work, how many distinct queries it ran and how many
/// of them found a match.
fn run<E: Element + Send + Sync, D: SequenceDistance<E>>(
    db: &SubsequenceDatabase<E, D>,
    queries: &[Sequence<E>],
    epsilon: f64,
) -> (QueryStats, usize, usize) {
    let batch = QueryEngine::new(db).batch_type2(queries, epsilon);
    let matched = batch.outcomes.iter().filter(|o| o.result.is_some()).count();
    (batch.total_stats(), batch.unique_queries, matched)
}

#[test]
fn the_seeded_type2_batch_spends_exactly_these_counts() {
    let (proteins, queries) = workload();
    let (db, stats, unique, matched, full_cells) = std::thread::scope(|s| {
        let full = s.spawn(|| {
            let unpruned = build(&proteins, Unpruned(Levenshtein::new()));
            run(&unpruned, &queries, EPSILON).0.dp_cells_evaluated
        });
        let db = build(&proteins, Levenshtein::new());
        let (stats, unique, matched) = run(&db, &queries, EPSILON);
        let full_cells = full.join().expect("the unpruned side runs");
        (db, stats, unique, matched, full_cells)
    });

    assert_eq!(db.window_count(), 410);
    assert_eq!(queries.len(), 13);
    assert_eq!(unique, 12, "the duplicate query ran once");
    assert_eq!(
        matched, 13,
        "every query, the duplicate too, found its plant"
    );

    assert_eq!(stats.index_distance_calls, 430_236);
    assert_eq!(stats.verification_calls, 84_410);
    assert_eq!(stats.segment_matches, 2_058);
    assert_eq!(stats.candidates, 42);
    assert_eq!(stats.dp_cells_evaluated, 48_699_829);
    assert_eq!(stats.pruned_by_lower_bound, 0);
    assert_eq!(full_cells, 265_673_875, "the unpruned side's full programs");

    // Memory layout: lengths × size_of. A change that brings back
    // per-window copies, or fattens a view or handle type, moves these.
    assert_eq!(db.index_space_stats().arena_bytes, 8_649);
    assert_eq!(db.resident_window_bytes(), 18_489);
}

/// The seeded trajectories (403 windows of λ/2 = 12 on a 320-unit lane)
/// and twelve queries planted with the benchmark's `traj-dfd` shape: 40
/// points, half of them jittered by up to 0.3, in 6 random points of
/// context each side.
fn trajectories() -> (SequenceDataset<Point2D>, Vec<Sequence<Point2D>>) {
    let trajectories = generate_trajectories(&TrajConfig {
        lane_length: 320.0,
        ..TrajConfig::sized_for_windows(440, 12, 42)
    });
    let mutator = PointMutator {
        jitter: 0.3,
        ..PointMutator::default()
    };
    let queries = (0..12)
        .map(|i| {
            plant_query(
                &trajectories,
                &mutator,
                &QueryConfig {
                    planted_len: 40,
                    context_len: 6,
                    perturbation_rate: 0.5,
                    seed: 2000 + i,
                },
            )
            .expect("the trajectories are long enough to plant queries")
            .query
        })
        .collect();
    (trajectories, queries)
}

#[test]
fn the_seeded_trajectory_batch_bulk_decides_exactly_these_counts() {
    let (trajectories, queries) = trajectories();
    let build = |backend| {
        let config = FrameworkConfig::new(24)
            .with_max_shift(2)
            .with_backend(backend);
        SubsequenceDatabase::builder(config, DiscreteFrechet::new())
            .add_dataset(&trajectories)
            .build()
            .expect("the trajectory workload builds")
    };
    let net = build(IndexBackend::ReferenceNet);
    let scan = build(IndexBackend::LinearScan);
    let (stats, unique, matched) = run(&net, &queries, 4.0);
    let (scanned, ..) = run(&scan, &queries, 4.0);

    assert_eq!(net.window_count(), 403);
    assert_eq!((unique, matched), (12, 12));
    // The net asks for 19.5 % of the scan's distance calls.
    assert_eq!(
        scanned.index_distance_calls, 207_948,
        "a scan visits every window"
    );
    assert_eq!(stats.index_distance_calls, 40_534);
    assert_eq!(stats.segment_matches, 2_904);
    assert_eq!(stats.candidates, 89);
    assert_eq!(stats.dp_cells_evaluated, 4_051_260);
    assert_eq!(stats.verification_calls, 20_697);
}
