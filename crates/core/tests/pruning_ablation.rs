//! End-to-end ablation of the threshold-aware pruning cascade: a database
//! built on `Unpruned<D>`, whose kernels all run their full programs, must
//! return **bit-identical results and distance-call statistics** to one built
//! on `D` — only `dp_cells_evaluated` may grow, and `pruned_by_lower_bound`
//! drops to zero. This is the in-repo proof that the pruning machinery is pure
//! performance, never behaviour, and it pins the headline saving: the
//! Levenshtein pipeline must evaluate at least 3× fewer DP cells pruned than
//! unpruned at this (smoke-like) scale, on every backend. The two sides are
//! two databases, so each case runs them at once, on two threads.
//! (`verify_ablation.rs` holds the same for ERP's dead start pairs.)

use std::fmt::Debug;

use ssr_core::{
    BatchOutcome, FrameworkConfig, IndexBackend, QueryEngine, QueryStats, SubsequenceDatabase,
    SubsequenceMatch,
};
use ssr_distance::{Levenshtein, SequenceDistance, Unpruned};
use ssr_sequence::{Element, Sequence, Symbol};

fn seq(text: &str) -> Sequence<Symbol> {
    Sequence::new(text.chars().map(Symbol::from_char).collect())
}

/// A deterministic, non-trivial database: repeated noisy context with a few
/// planted motifs, long enough that verification dominates.
const MOTIF: &str = "ACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWY";

fn protein_sequences() -> Vec<Sequence<Symbol>> {
    let alphabet: Vec<char> = "ACDEFGHIKLMNPQRSTVWY".chars().collect();
    let mut sequences = Vec::new();
    for s in 0..2u64 {
        let mut text = String::new();
        let mut state = s * 2654435761 + 12345;
        for _ in 0..140 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            text.push(alphabet[(state >> 33) as usize % alphabet.len()]);
        }
        // Plant the motif mid-sequence so queries have real matches.
        text.insert_str(60, MOTIF);
        sequences.push(seq(&text));
    }
    sequences
}

fn protein_queries() -> Vec<Sequence<Symbol>> {
    vec![
        seq(&format!("WWWWWWWWWW{MOTIF}WWWWWWWWWW")),
        seq("QLNWYHKTQDGARESVFCPIQLNWYHKTQDGARESVFCPIQLNWYHKTQDGARESVFCPI"),
    ]
}

fn build<E: Element + Send + Sync, D: SequenceDistance<E>>(
    config: &FrameworkConfig,
    distance: D,
    sequences: &[Sequence<E>],
) -> SubsequenceDatabase<E, D> {
    let mut builder = SubsequenceDatabase::builder(config.clone(), distance);
    for sequence in sequences {
        builder = builder.add_sequence(sequence.clone());
    }
    builder.build().expect("ablation database builds")
}

/// Radii of one case: Type I, Type II, and Type III's maximum and step.
type Radii = (f64, f64, f64, f64);

/// One batch of each query type.
struct Batches {
    type1: BatchOutcome<Vec<SubsequenceMatch>>,
    type2: BatchOutcome<Option<SubsequenceMatch>>,
    type3: BatchOutcome<Option<SubsequenceMatch>>,
}

impl Batches {
    fn run<E: Element + Send + Sync, D: SequenceDistance<E>>(
        db: &SubsequenceDatabase<E, D>,
        queries: &[Sequence<E>],
        (radius1, radius2, max3, step3): Radii,
    ) -> Self {
        let engine = QueryEngine::new(db);
        Batches {
            type1: engine.batch_type1(queries, radius1),
            type2: engine.batch_type2(queries, radius2),
            type3: engine.batch_type3(queries, max3, step3),
        }
    }

    fn stats(&self) -> [QueryStats; 3] {
        [
            self.type1.total_stats(),
            self.type2.total_stats(),
            self.type3.total_stats(),
        ]
    }
}

/// Strips the fields pruning is allowed to change.
fn frozen(stats: &QueryStats) -> QueryStats {
    QueryStats {
        dp_cells_evaluated: 0,
        pruned_by_lower_bound: 0,
        ..*stats
    }
}

fn assert_same<R: PartialEq + Debug>(what: &str, a: &BatchOutcome<R>, b: &BatchOutcome<R>) {
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (a, b) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(a.result, b.result, "{what}: results changed");
        assert_eq!(
            frozen(&a.stats),
            frozen(&b.stats),
            "{what}: distance-call stats changed"
        );
        assert_eq!(
            b.stats.pruned_by_lower_bound, 0,
            "{what}: the unpruned side recorded lower-bound prunes"
        );
    }
}

/// Runs the three query types on `pruned` and on `unpruned` concurrently,
/// holds them to the same answers and calls, and returns both sides.
fn ablate<E: Element + Send + Sync, D: SequenceDistance<E>>(
    what: &str,
    pruned: &SubsequenceDatabase<E, D>,
    unpruned: &SubsequenceDatabase<E, Unpruned<D>>,
    queries: &[Sequence<E>],
    radii: Radii,
) -> (Batches, Batches) {
    let (pruned, unpruned) = std::thread::scope(|s| {
        let full = s.spawn(|| Batches::run(unpruned, queries, radii));
        let pruned = Batches::run(pruned, queries, radii);
        (pruned, full.join().expect("the unpruned side runs"))
    });
    assert_same(&format!("{what} Type I"), &pruned.type1, &unpruned.type1);
    assert_same(&format!("{what} Type II"), &pruned.type2, &unpruned.type2);
    assert_same(&format!("{what} Type III"), &pruned.type3, &unpruned.type3);
    (pruned, unpruned)
}

#[test]
fn pruning_is_pure_performance() {
    let sequences = protein_sequences();
    let queries = protein_queries();
    for backend in [
        IndexBackend::ReferenceNet,
        IndexBackend::CoverTree,
        IndexBackend::MvReference { references: 4 },
        IndexBackend::LinearScan,
    ] {
        // Mirrors the shape of `counters.rs`: λ = 40 (windows of 20) at radius 8.
        let config = FrameworkConfig::new(40)
            .with_max_shift(2)
            .with_backend(backend);
        let db = build(&config, Levenshtein::new(), &sequences);
        let full_db = build(&config, Unpruned(Levenshtein::new()), &sequences);
        let (pruned, full) = ablate(
            &backend.to_string(),
            &db,
            &full_db,
            &queries,
            (5.0, 8.0, 8.0, 2.0),
        );
        let cells =
            |side: &Batches| -> u64 { side.stats().iter().map(|s| s.dp_cells_evaluated).sum() };
        let (pruned_cells, full_cells) = (cells(&pruned), cells(&full));
        assert!(
            pruned_cells * 3 <= full_cells,
            "{backend}: expected ≥3× DP-cell saving, got {pruned_cells} vs {full_cells}"
        );
    }
}
