//! One element store, pushed to in place: the arena behind a database's
//! window store is the **only** resident copy of its sequences — built,
//! loaded or appended to, `db.sequence(id)` is a view of it — and an append
//! copies that store only while somebody else still reads it (a replica),
//! once, leaving the other side untouched.

use ssr_core::{FrameworkConfig, IndexBackend, QueryEngine, SubsequenceDatabase};
use ssr_distance::{Erp, Levenshtein, SequenceDistance};
use ssr_sequence::{Element, Pitch, Sequence, SequenceId, Symbol, WindowId};

const BACKENDS: [IndexBackend; 4] = [
    IndexBackend::ReferenceNet,
    IndexBackend::CoverTree,
    IndexBackend::MvReference { references: 3 },
    IndexBackend::LinearScan,
];

fn symbols(text: &str) -> Sequence<Symbol> {
    Sequence::new(text.chars().map(Symbol::from_char).collect())
}

/// A 12-value pitch line, seeded; ERP prunes on its gap sums, so these
/// databases carry the gap-prefix tables an append has to grow too.
fn pitches(seed: u64, len: usize) -> Sequence<Pitch> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        Pitch((state % 12) as i16)
    };
    Sequence::new((0..len).map(|_| next()).collect())
}

fn build<E, D>(
    backend: IndexBackend,
    distance: D,
    sequences: &[Sequence<E>],
) -> SubsequenceDatabase<E, D>
where
    E: Element + Send + Sync,
    D: SequenceDistance<E>,
{
    let config = FrameworkConfig::new(8)
        .with_max_shift(1)
        .with_backend(backend);
    let mut builder = SubsequenceDatabase::builder(config, distance);
    for sequence in sequences {
        builder = builder.add_sequence(sequence.clone());
    }
    builder.build().expect("database builds")
}

fn assert_one_copy<E, D>(db: &SubsequenceDatabase<E, D>, expected: &[Sequence<E>], label: &str)
where
    E: Element + Send + Sync,
    D: SequenceDistance<E>,
{
    let arena = db.windows().arena().elements().as_ptr_range();
    assert_eq!(db.sequence_count(), expected.len(), "{label}");
    for (i, sequence) in expected.iter().enumerate() {
        let view = db.sequence(SequenceId(i)).expect("live sequence");
        assert_eq!(
            view.elements(),
            sequence.elements(),
            "{label}: sequence {i}"
        );
        assert_eq!(view.label(), sequence.label(), "{label}: sequence {i}");
        let range = view.elements().as_ptr_range();
        assert!(
            arena.start <= range.start && range.end <= arena.end,
            "{label}: sequence {i} is held outside the arena — a second copy"
        );
    }
}

#[test]
fn every_stored_sequence_is_a_view_of_the_one_arena() {
    let mut labelled = symbols("ACDEFGHIKLMNPQRSTVWYACDEFGHI");
    labelled.set_label("P01234");
    let mut sequences = vec![symbols("MMMMMMMMACDEFGHIKLMNPQRSTVWYMMMMMMMM"), labelled];
    let built = build(IndexBackend::ReferenceNet, Levenshtein::new(), &sequences);
    assert_one_copy(&built, &sequences, "built");

    let mut loaded = SubsequenceDatabase::<Symbol, Levenshtein>::from_snapshot_bytes(
        built.snapshot_bytes(),
        Levenshtein::new(),
    )
    .expect("snapshot loads");
    assert_one_copy(&loaded, &sequences, "loaded");

    let mut tail = symbols("WWWWACDEFGHIWWWW");
    tail.set_label("tail");
    for extra in [tail, symbols("AC"), symbols("GGGGGGGGGGGGGGGG")] {
        loaded.append_sequence(extra.clone());
        sequences.push(extra);
        assert_one_copy(&loaded, &sequences, "appended to");
    }
    // What is stored is what a snapshot of it stores.
    let reloaded = SubsequenceDatabase::<Symbol, Levenshtein>::from_snapshot_bytes(
        loaded.snapshot_bytes(),
        Levenshtein::new(),
    )
    .expect("snapshot loads");
    assert_one_copy(&reloaded, &sequences, "reloaded");
    assert_eq!(reloaded.to_dataset().sequences(), &sequences[..]);
}

/// Everything a reader of `db` can see of its store and its answers.
fn observe<E, D>(
    db: &SubsequenceDatabase<E, D>,
    queries: &[Sequence<E>],
    epsilon: f64,
) -> (Vec<Vec<E>>, String)
where
    E: Element + Send + Sync,
    D: SequenceDistance<E>,
{
    let windows = db.windows();
    let slices = (0..windows.len())
        .map(|i| windows.slice(WindowId(i)).expect("stored window").to_vec())
        .collect();
    let engine = QueryEngine::new(db);
    let answers = format!(
        "{:?}\n{:?}\n{:?}",
        engine.batch_type1(queries, epsilon).outcomes,
        engine.batch_type2(queries, epsilon).outcomes,
        engine
            .batch_type3(queries, 2.0 * epsilon, epsilon / 2.0)
            .outcomes,
    );
    (slices, answers)
}

fn append_beside_a_replica<E, D>(
    distance: impl Fn() -> D,
    base: &[Sequence<E>],
    appended: &[Sequence<E>],
    queries: &[Sequence<E>],
    epsilon: f64,
) where
    E: Element + Send + Sync,
    D: SequenceDistance<E>,
{
    for backend in BACKENDS {
        let mut db = build(backend, distance(), base);
        let replica = db.clone_replica();
        let shared = db.windows() as *const _;
        assert!(
            std::ptr::eq(shared, replica.windows()),
            "{backend}: one store"
        );
        let before = observe(&replica, queries, epsilon);

        // The first append finds the store shared and copies it, once…
        db.append_sequence(appended[0].clone());
        let private = db.windows() as *const _;
        assert!(!std::ptr::eq(private, shared), "{backend}: copy-on-write");
        // …and every later one grows the private copy where it stands.
        for sequence in &appended[1..] {
            db.append_sequence(sequence.clone());
            assert!(std::ptr::eq(db.windows(), private), "{backend}: in place");
        }

        // The replica never noticed: same table, same slices, same answers.
        assert!(std::ptr::eq(replica.windows(), shared), "{backend}");
        assert_eq!(replica.sequence_count(), base.len(), "{backend}");
        assert_eq!(observe(&replica, queries, epsilon), before, "{backend}");

        // And the appended database is the rebuilt one.
        let all: Vec<_> = base.iter().chain(appended).cloned().collect();
        let rebuilt = build(backend, distance(), &all);
        assert_eq!(db.window_count(), rebuilt.window_count(), "{backend}");
        assert_eq!(
            observe(&db, queries, epsilon),
            observe(&rebuilt, queries, epsilon),
            "{backend}: appended ≢ rebuilt"
        );
    }
}

#[test]
fn an_append_beside_a_live_replica_copies_once_and_leaves_the_replica_alone() {
    append_beside_a_replica(
        Levenshtein::new,
        &[
            symbols("MMMMMMMMACDEFGHIKLMNPQRSTVWYMMMMMMMM"),
            symbols("GGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGG"),
        ],
        &[
            symbols("ACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWY"),
            symbols("AC"),
            symbols("WWWWACDEFGHIKLMNWWWW"),
        ],
        &[
            symbols("YYYYACDEFGHIKLMNPQRSTVWYYYYY"),
            symbols("GGGGGGGGGGGG"),
        ],
        3.0,
    );
    // ERP: the gap-prefix tables are shared with the replica too, and grow
    // by the same rule.
    let base: Vec<_> = (1..4).map(|seed| pitches(seed, 40)).collect();
    let appended: Vec<_> = (4..7).map(|seed| pitches(seed, 28)).collect();
    let queries = vec![
        Sequence::new(base[1].elements()[6..26].to_vec()),
        Sequence::new(appended[1].elements()[2..20].to_vec()),
    ];
    append_beside_a_replica(Erp::new, &base, &appended, &queries, 6.0);
}
