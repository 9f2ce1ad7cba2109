//! The `--no-pruning` ablation knob: disabling pruning must change **only**
//! the amount of DP work, never a result. Lives in its own test binary (own
//! process) because the knob is process-global.

mod common;

use ssr_distance::{
    dp_cells_thread_total, lower_bound_prunes_thread_total, set_pruning_enabled, Dtw, EndSpec, Erp,
    Levenshtein, SequenceDistance,
};
use ssr_sequence::{Pitch, Point2D, Symbol};

fn sym(text: &str) -> Vec<Symbol> {
    text.chars().map(Symbol::from_char).collect()
}

#[test]
fn disabling_pruning_changes_work_but_never_results() {
    let a = sym("ACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWY");
    let b = sym("WYACMMMMGHIKLMNPQRSTVWYACDEFGHIMMMMQRSTV");
    let lev = Levenshtein::new();
    let erp = Erp::new();
    let dtw = Dtw::new();
    let taus = [0.0, 1.0, 4.0, 10.0, 40.0, f64::INFINITY];

    let pruned: Vec<_> = taus
        .iter()
        .map(|&tau| {
            (
                lev.distance_within(&a, &b, tau),
                erp.distance_within(&a, &b, tau),
                dtw.distance_within(&a, &b, tau),
            )
        })
        .collect();
    let cells_pruned_before = dp_cells_thread_total();
    let _ = lev.distance_within(&a, &b, 2.0);
    let cells_pruned = dp_cells_thread_total() - cells_pruned_before;

    set_pruning_enabled(false);
    let unpruned: Vec<_> = taus
        .iter()
        .map(|&tau| {
            (
                lev.distance_within(&a, &b, tau),
                erp.distance_within(&a, &b, tau),
                dtw.distance_within(&a, &b, tau),
            )
        })
        .collect();
    let prunes_before = lower_bound_prunes_thread_total();
    let cells_before = dp_cells_thread_total();
    let _ = lev.distance_within(&a, &b, 2.0);
    let cells_unpruned = dp_cells_thread_total() - cells_before;
    end_tables_hold_without_pruning();
    set_pruning_enabled(true);

    assert_eq!(pruned, unpruned, "pruning changed a result");
    assert_eq!(
        lower_bound_prunes_thread_total() - prunes_before,
        0,
        "disabled pruning must not record lower-bound prunes"
    );
    assert_eq!(cells_unpruned, (a.len() * b.len()) as u64);
    assert!(
        cells_pruned * 3 <= cells_unpruned,
        "ablation shows no saving: {cells_pruned} vs {cells_unpruned} cells"
    );
}

/// The end-table contract of `tests/common` with pruning off, on all four
/// element types (run from the one test above: the knob is process-global).
fn end_tables_hold_without_pruning() {
    // A small deterministic generator; the inputs only need variety.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |bound: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % bound
    };
    for _ in 0..12 {
        let (n, m) = (next(11), next(11));
        let ends = EndSpec {
            min_a: next(n + 1),
            min_b: next(m + 1),
            max_len_diff: [0, 1, 3, usize::MAX][next(4)],
        };
        let mut symbols = |len| -> Vec<Symbol> {
            (0..len)
                .map(|_| Symbol::from_char(b"ACGT"[next(4)] as char))
                .collect()
        };
        common::check_end_tables(&symbols(n), &symbols(m), ends);
        let mut pitches =
            |len| -> Vec<Pitch> { (0..len).map(|_| Pitch(next(12) as i16)).collect() };
        common::check_end_tables(&pitches(n), &pitches(m), ends);
        let mut scalars =
            |len| -> Vec<f64> { (0..len).map(|_| next(1600) as f64 / 100.0 - 8.0).collect() };
        common::check_end_tables(&scalars(n), &scalars(m), ends);
        let mut points = |len| -> Vec<Point2D> {
            (0..len)
                .map(|_| {
                    Point2D::new(
                        next(1000) as f64 / 100.0 - 5.0,
                        next(1000) as f64 / 100.0 - 5.0,
                    )
                })
                .collect()
        };
        common::check_end_tables(&points(n), &points(m), ends);
    }
}
