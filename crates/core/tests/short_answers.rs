//! Regression cases for Type II answers that used to come out shorter than
//! the longest similar pair (ROADMAP item 1).
//!
//! The benchmark's brute-force spot check — three 64-pitch song prefixes, one
//! planted query, ERP at radius 8, `λ = 24`, `λ0 = 2` — found five seeds on
//! `live-songs-erp` (34, 46, 57, 85, 99; they share the database, which comes
//! from the workload's fixed corpus seed) where the framework's answer was
//! shorter than `brute::longest_similar_pair`'s. They are pinned here as
//! literals, next to a hand-built case of the cause.
//!
//! **The sub-chain hypothesis explains all five.** In each, the windows that
//! lie fully inside the longest similar pair are two consecutive ones (2–3 on
//! seed 34, 1–2 on the other four), both matched and chained — but the window
//! *before* them matched too, by coincidence, so the one chain kept per end
//! match was the three-window one, whose expansion box only starts around its
//! first window. The two-window sub-chain's box — start points around its
//! own first window — holds the pair on every one of the five (checked
//! against the old `ExpansionLimits` when the cases were dumped); none needed
//! a start or end point outside §7's `λ/2 (+ λ0)` reach. A region paints the
//! start rectangle of every matched window, so every sub-chain is inside it.

use ssr_core::{
    build_regions, longest_similar_pair, BruteConstraints, FrameworkConfig, SubsequenceDatabase,
};
use ssr_distance::{Erp, Levenshtein};
use ssr_sequence::{Pitch, Sequence, Symbol};

const DATABASE: [&[i16]; 3] = [
    &[
        4, 8, 6, 6, 7, 8, 9, 11, 10, 11, 8, 9, 10, 11, 10, 11, 11, 11, 11, 11, 9, 8, 9, 6, 9, 9, 8,
        9, 5, 4, 8, 8, 8, 6, 7, 8, 9, 9, 8, 9, 10, 10, 9, 11, 11, 11, 10, 11, 9, 8, 11, 9, 8, 6, 5,
        9, 10, 8, 5, 4, 8, 8, 10, 6,
    ],
    &[
        5, 6, 8, 5, 7, 7, 6, 5, 7, 7, 6, 5, 4, 2, 3, 1, 1, 4, 3, 7, 8, 9, 11, 11, 11, 6, 7, 8, 8,
        5, 6, 6, 5, 7, 6, 5, 6, 7, 4, 3, 2, 3, 1, 1, 4, 4, 7, 5, 8, 9, 7, 11, 6, 8, 10, 11, 11, 5,
        7, 4, 7, 5, 5, 4,
    ],
    &[
        8, 5, 6, 3, 4, 3, 5, 3, 0, 4, 5, 5, 8, 8, 6, 6, 8, 9, 8, 5, 5, 7, 8, 8, 8, 5, 6, 3, 4, 3,
        4, 1, 3, 5, 5, 8, 7, 6, 5, 5, 4, 8, 5, 6, 4, 3, 4, 3, 3, 2, 1, 4, 5, 5, 8, 9, 7, 8, 6, 6,
        5, 7, 5, 5,
    ],
];

/// `(benchmark seed, query, |SQ| of the longest similar pair, |SQ| answered before regions)`.
const QUERIES: [(u64, &[i16], usize, usize); 5] = [
    (
        34,
        &[
            6, 4, 7, 6, 6, 8, 9, 8, 4, 5, 7, 8, 8, 8, 5, 6, 3, 4, 3, 4, 1, 3, 4, 5, 8, 8, 5, 5, 5,
            4, 8, 5, 6, 4, 3, 4, 3, 3, 2, 1, 4, 5, 7, 4,
        ],
        41,
        36,
    ),
    (
        46,
        &[
            8, 1, 6, 6, 7, 8, 9, 11, 10, 11, 8, 9, 10, 11, 10, 11, 11, 11, 11, 11, 9, 8, 9, 6, 9,
            9, 8, 9, 6, 4, 8, 8, 8, 6, 6, 7, 9, 9, 8, 9, 10, 10, 7, 3,
        ],
        43,
        42,
    ),
    (
        57,
        &[
            6, 7, 6, 7, 8, 9, 11, 10, 11, 8, 9, 10, 11, 10, 10, 11, 11, 11, 11, 9, 8, 9, 6, 9, 9,
            8, 8, 5, 4, 8, 8, 8, 6, 7, 8, 9, 9, 8, 8, 10, 10, 9, 10, 9,
        ],
        43,
        35,
    ),
    (
        85,
        &[
            5, 3, 5, 6, 3, 4, 3, 5, 3, 0, 3, 5, 5, 8, 8, 6, 6, 8, 9, 8, 5, 5, 7, 8, 8, 9, 5, 6, 3,
            4, 3, 4, 1, 3, 5, 6, 8, 7, 6, 5, 5, 4, 8, 3,
        ],
        43,
        42,
    ),
    (
        99,
        &[
            9, 8, 6, 8, 8, 9, 11, 10, 11, 8, 9, 10, 11, 10, 11, 11, 11, 11, 11, 9, 8, 9, 6, 9, 9,
            8, 9, 5, 4, 8, 8, 9, 6, 7, 8, 9, 9, 8, 9, 10, 10, 9, 3, 2,
        ],
        43,
        35,
    ),
];

fn pitches(values: &[i16]) -> Sequence<Pitch> {
    Sequence::new(values.iter().map(|&p| Pitch(p)).collect())
}

#[test]
fn type2_is_the_brute_force_longest_on_the_five_known_seeds() {
    // The benchmark's `live-songs-erp` configuration, budget included.
    let mut config = FrameworkConfig::new(24).with_max_shift(2);
    config.max_verifications = 20_000;
    let mut builder = SubsequenceDatabase::builder(config, Erp::new());
    for sequence in DATABASE {
        builder = builder.add_sequence(pitches(sequence));
    }
    let db = builder.build().expect("database builds");
    for (seed, query, longest, before) in QUERIES {
        let query = pitches(query);
        // Brute force over the pairs at least as long as the recorded answer
        // (any `|SQ| ≥ longest` has `|SX| ≥ longest − λ0`): all of them, so
        // a longer pair would show, at a hundredth of the full enumeration.
        let constraints = BruteConstraints {
            lambda: longest - 2,
            max_shift: 2,
        };
        let truth = longest_similar_pair(&query, &db.to_dataset(), db.distance(), constraints, 8.0)
            .expect("a similar pair exists");
        assert_eq!(truth.query_len(), longest, "seed {seed}: the case changed");
        assert!(before < longest, "seed {seed}: the case was never short");
        let outcome = db.query_type2(&query, 8.0);
        assert!(!outcome.stats.budget_exhausted, "seed {seed}");
        let found = outcome.result.expect("Type II finds a pair");
        assert_eq!(found.query_len(), longest, "seed {seed}: {found:?}");
        assert!(found.distance <= 8.0);
    }
}

/// Windows 1..=7 of the database sequence all match the query, each within
/// `ε = 2` of a consecutive query segment, so they chain into one run of
/// seven — but windows 1 and 2 carry two substitutions each and window 5 one,
/// so no pair within `ε` holds window 2: the longest similar pair spans
/// windows 3..=7. One chain per end match keeps 1..7 (and 1..6, 1..5, …), all
/// of which start around window 1; the sub-chain 3..7 existed nowhere.
#[test]
fn a_run_of_seven_windows_yields_the_pair_of_its_sub_chain() {
    let symbols = |text: &str| Sequence::new(text.chars().map(Symbol::from_char).collect());
    let windows = [
        "WWWWWW", "ACDEFG", "HIKLMN", "PQRSTV", "YADCFE", "GIHLKN", "MQPSRV", "TYCAED", "WWWWWW",
    ];
    let segments = [
        "YY", "ACDEWW", "HIKLWW", "PQRSTV", "YADCFE", "GIWLKN", "MQPSRV", "TYCAED", "YY",
    ];
    let config = FrameworkConfig::new(12).with_max_shift(1);
    let constraints = BruteConstraints {
        lambda: config.lambda,
        max_shift: config.max_shift,
    };
    let db = SubsequenceDatabase::builder(config.clone(), Levenshtein::new())
        .add_sequence(symbols(&windows.concat()))
        .build()
        .expect("database builds");
    let query = symbols(&segments.concat());

    let scan = db.matching_segments(&query, 2.0);
    let regions = build_regions(&scan.matches, config.window_len(), config.max_shift);
    assert_eq!((regions[0].window_range, regions[0].chain_len), ((1, 7), 7));

    let truth = longest_similar_pair(&query, &db.to_dataset(), db.distance(), constraints, 2.0)
        .expect("a similar pair exists");
    // Windows 3..=7 are 18..48; window 2 (12..18) is not inside the pair.
    assert!(truth.db_range.start > 12 && truth.db_range.start <= 18 && truth.db_range.end >= 48);
    assert_eq!(truth.query_len(), 31);
    let found = db
        .query_type2(&query, 2.0)
        .result
        .expect("Type II finds a pair");
    assert_eq!(
        found.query_len(),
        truth.query_len(),
        "{found:?} vs {truth:?}"
    );
}
