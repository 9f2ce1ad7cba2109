//! Whether a start pair is dead is read off its end table, and a table keeps
//! exactly the distances within the radius whether or not its program was
//! banded or abandoned. So an ERP query — the measure whose step-4 gap-sum
//! bound and float band do the most — returns **bit-identical results and
//! call statistics** on a database built on `Unpruned<Erp>`: only
//! `dp_cells_evaluated` grows and `pruned_by_lower_bound` drops to zero.
//! (`pruning_ablation.rs` holds the same for Levenshtein on all four
//! backends.) The two sides are two databases, so they run at once, on two
//! threads.

use ssr_core::{FrameworkConfig, QueryStats, SubsequenceDatabase};
use ssr_distance::{Erp, SequenceDistance, Unpruned};
use ssr_sequence::{Pitch, Sequence};

/// Deterministic pitches; every third of the first sequence's middle is
/// copied into the query, one element in six redrawn.
fn inputs() -> (Vec<Sequence<Pitch>>, Sequence<Pitch>) {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut pitch = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        Pitch((state >> 33) as i16 % 12)
    };
    let sequences: Vec<Vec<Pitch>> = (0..3).map(|_| (0..90).map(|_| pitch()).collect()).collect();
    let mut query: Vec<Pitch> = (0..5).map(|_| pitch()).collect();
    for (i, p) in sequences[0][20..62].iter().enumerate() {
        query.push(if i % 6 == 5 { pitch() } else { *p });
    }
    query.extend((0..5).map(|_| pitch()));
    (
        sequences.into_iter().map(Sequence::new).collect(),
        Sequence::new(query),
    )
}

fn build<D: SequenceDistance<Pitch>>(
    distance: D,
    sequences: &[Sequence<Pitch>],
) -> SubsequenceDatabase<Pitch, D> {
    let mut builder =
        SubsequenceDatabase::builder(FrameworkConfig::new(16).with_max_shift(2), distance);
    for sequence in sequences {
        builder = builder.add_sequence(sequence.clone());
    }
    builder.build().expect("database builds")
}

#[test]
fn dead_start_pairs_do_not_depend_on_pruning() {
    let (sequences, query) = inputs();
    let db = build(Erp::new(), &sequences);
    let full_db = build(Unpruned(Erp::new()), &sequences);
    let frozen = |stats: &QueryStats| QueryStats {
        dp_cells_evaluated: 0,
        pruned_by_lower_bound: 0,
        ..*stats
    };

    let (pruned, full) = std::thread::scope(|s| {
        let full = s.spawn(|| {
            (
                full_db.query_type1(&query, 12.0),
                full_db.query_type2(&query, 12.0),
                full_db.query_type3(&query, 16.0, 4.0),
            )
        });
        let pruned = (
            db.query_type1(&query, 12.0),
            db.query_type2(&query, 12.0),
            db.query_type3(&query, 16.0, 4.0),
        );
        (pruned, full.join().expect("the unpruned side runs"))
    });

    assert!(pruned.0.result.len() > 10, "the plant is found");
    assert_eq!(pruned.0.result, full.0.result);
    assert_eq!(pruned.1.result, full.1.result);
    assert_eq!(pruned.2.result, full.2.result);
    for (a, b) in [
        (&pruned.0.stats, &full.0.stats),
        (&pruned.1.stats, &full.1.stats),
        (&pruned.2.stats, &full.2.stats),
    ] {
        assert_eq!(frozen(a), frozen(b));
        assert_eq!(b.pruned_by_lower_bound, 0);
        assert!(a.dp_cells_evaluated < b.dp_cells_evaluated);
    }
    // Every prune is step 4's: step 5b tries no bound before its tables.
    let step4 = db.matching_segments(&query, 12.0).pruned_by_lower_bound;
    assert!(step4 > 0);
    assert_eq!(pruned.0.stats.pruned_by_lower_bound, step4);
}
