//! End-to-end ablation of the threshold-aware pruning cascade: with pruning
//! disabled, every query must return **bit-identical results and
//! distance-call statistics** — only `dp_cells_evaluated` may grow (and
//! `pruned_by_lower_bound` must drop to zero). This is the in-repo proof that
//! the pruning machinery is pure performance, never behaviour, and it pins
//! the headline saving: the full pipeline must evaluate at least 3× fewer DP
//! cells with pruning on than off at this (smoke-like) scale.
//!
//! Lives in its own integration-test binary because the ablation knob is
//! process-global.

use ssr_core::{FrameworkConfig, IndexBackend, QueryEngine, QueryStats, SubsequenceDatabase};
use ssr_distance::{set_pruning_enabled, Levenshtein};
use ssr_sequence::{Sequence, Symbol};

fn seq(text: &str) -> Sequence<Symbol> {
    Sequence::new(text.chars().map(Symbol::from_char).collect())
}

/// A deterministic, non-trivial database: repeated noisy context with a few
/// planted motifs, long enough that verification dominates.
const MOTIF: &str = "ACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWY";

fn build_db(backend: IndexBackend) -> SubsequenceDatabase<Symbol, Levenshtein> {
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
    // Mirrors the smoke bench shape: λ = 40 (windows of 20) at radius 8.
    let mut builder = SubsequenceDatabase::builder(
        FrameworkConfig::new(40)
            .with_max_shift(2)
            .with_backend(backend),
        Levenshtein::new(),
    );
    for s in sequences {
        builder = builder.add_sequence(s);
    }
    builder.build().expect("ablation database builds")
}

fn queries() -> Vec<Sequence<Symbol>> {
    vec![
        seq(&format!("WWWWWWWWWW{MOTIF}WWWWWWWWWW")),
        seq("QLNWYHKTQDGARESVFCPIQLNWYHKTQDGARESVFCPIQLNWYHKTQDGARESVFCPI"),
    ]
}

/// Strips the fields pruning is allowed to change.
fn frozen(stats: &QueryStats) -> QueryStats {
    QueryStats {
        dp_cells_evaluated: 0,
        pruned_by_lower_bound: 0,
        ..*stats
    }
}

#[test]
fn pruning_is_pure_performance() {
    for backend in [
        IndexBackend::ReferenceNet,
        IndexBackend::CoverTree,
        IndexBackend::MvReference { references: 4 },
        IndexBackend::LinearScan,
    ] {
        let db = build_db(backend);
        let qs = queries();
        let engine = QueryEngine::new(&db);

        set_pruning_enabled(true);
        let pruned1 = engine.batch_type1(&qs, 5.0);
        let pruned2 = engine.batch_type2(&qs, 8.0);
        let pruned3 = engine.batch_type3(&qs, 8.0, 2.0);
        set_pruning_enabled(false);
        let full1 = engine.batch_type1(&qs, 5.0);
        let full2 = engine.batch_type2(&qs, 8.0);
        let full3 = engine.batch_type3(&qs, 8.0, 2.0);
        set_pruning_enabled(true);

        for (a, b) in pruned1.outcomes.iter().zip(&full1.outcomes) {
            assert_eq!(a.result, b.result, "{backend}: Type I results changed");
            assert_eq!(
                frozen(&a.stats),
                frozen(&b.stats),
                "{backend}: Type I distance-call stats changed"
            );
        }
        for (a, b) in pruned2.outcomes.iter().zip(&full2.outcomes) {
            assert_eq!(a.result, b.result, "{backend}: Type II results changed");
            assert_eq!(
                frozen(&a.stats),
                frozen(&b.stats),
                "{backend}: Type II distance-call stats changed"
            );
        }
        for (a, b) in pruned3.outcomes.iter().zip(&full3.outcomes) {
            assert_eq!(a.result, b.result, "{backend}: Type III results changed");
            assert_eq!(
                frozen(&a.stats),
                frozen(&b.stats),
                "{backend}: Type III distance-call stats changed"
            );
        }

        let pruned_cells = pruned1.total_stats().dp_cells_evaluated
            + pruned2.total_stats().dp_cells_evaluated
            + pruned3.total_stats().dp_cells_evaluated;
        let full_cells = full1.total_stats().dp_cells_evaluated
            + full2.total_stats().dp_cells_evaluated
            + full3.total_stats().dp_cells_evaluated;
        assert_eq!(
            full1.total_stats().pruned_by_lower_bound
                + full2.total_stats().pruned_by_lower_bound
                + full3.total_stats().pruned_by_lower_bound,
            0,
            "{backend}: disabled pruning still recorded lower-bound prunes"
        );
        assert!(
            pruned_cells * 3 <= full_cells,
            "{backend}: expected ≥3× DP-cell saving, got {pruned_cells} vs {full_cells}"
        );
    }
}
