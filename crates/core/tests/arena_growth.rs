//! Arena-growth invariants: the flat [`ElementArena`] is append-only, and
//! window partitioning is **prefix-stable** — growing the arena never moves
//! an existing sequence, never reassigns a window id, and never changes what
//! an outstanding [`WindowId`] resolves to. This is the property the whole
//! incremental-maintenance path leans on: `append_sequence` pushes onto the
//! store in place and hands the index only the *tail* ids, which is sound
//! only if every id below the old count is untouched and the grown store is
//! the partition of the grown arena. Checked both directly at the
//! `ssr-sequence` layer and end-to-end through a snapshot-loaded database
//! driven through appends.

use proptest::prelude::*;

use ssr_core::{FrameworkConfig, SubsequenceDatabase};
use ssr_distance::Levenshtein;
use ssr_sequence::{ElementArena, Sequence, Symbol, Window, WindowId, WindowStore};

const WINDOW_LEN: usize = 4;

fn sym_seq(max_len: usize) -> impl Strategy<Value = Vec<Symbol>> {
    prop::collection::vec(
        (0u8..4).prop_map(|i| Symbol::from_char(b"ACGT"[i as usize] as char)),
        1..max_len,
    )
}

fn long_sym_seq(max_len: usize) -> impl Strategy<Value = Vec<Symbol>> {
    prop::collection::vec(
        (0u8..4).prop_map(|i| Symbol::from_char(b"ACGT"[i as usize] as char)),
        16..max_len,
    )
}

/// Everything an outstanding window handle promises: its provenance and the
/// exact elements it resolves to.
fn capture(store: &WindowStore<Symbol>) -> Vec<(Window, Vec<Symbol>)> {
    (0..store.len())
        .map(|i| {
            let id = WindowId(i);
            let window = store.get(id).expect("id below len resolves");
            let slice = store.slice(id).expect("id below len has elements");
            (window, slice.to_vec())
        })
        .collect()
}

fn assert_prefix_stable(
    before: &[(Window, Vec<Symbol>)],
    after: &WindowStore<Symbol>,
) -> Result<(), TestCaseError> {
    prop_assert!(after.len() >= before.len(), "growth never drops windows");
    for (i, (window, slice)) in before.iter().enumerate() {
        let id = WindowId(i);
        prop_assert_eq!(
            &after.get(id).expect("outstanding id stays valid"),
            window,
            "window {} changed provenance",
            i
        );
        prop_assert_eq!(
            after.slice(id).expect("outstanding id stays resolvable"),
            slice.as_slice(),
            "window {} changed contents",
            i
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The pure-sequence-layer property: re-partitioning a grown clone of an
    /// arena extends the window table without disturbing its prefix, and the
    /// original arena is untouched.
    #[test]
    fn repartitioning_a_grown_arena_is_prefix_stable(
        initial in prop::collection::vec(sym_seq(24), 1..4),
        appended in prop::collection::vec(sym_seq(24), 1..4),
    ) {
        let mut arena = ElementArena::default();
        for elements in &initial {
            arena.push_sequence(elements, None);
        }
        let store = WindowStore::partition(arena.clone(), WINDOW_LEN);
        let before = capture(&store);
        let elements_before = arena.elements().to_vec();

        let mut grown = arena.clone();
        for (i, elements) in appended.iter().enumerate() {
            let id = grown.push_sequence(elements, None);
            prop_assert_eq!(id.0, initial.len() + i, "ids are handed out in order");
        }
        // The clone grew; the original arena behind the old store is frozen.
        prop_assert_eq!(arena.elements(), elements_before.as_slice());
        prop_assert_eq!(arena.sequence_count(), initial.len());

        let grown_store = WindowStore::partition(grown, WINDOW_LEN);
        assert_prefix_stable(&before, &grown_store)?;

        // Each appended sequence contributes exactly floor(len / l) windows.
        let expected_new: usize = appended.iter().map(|s| s.len() / WINDOW_LEN).sum();
        prop_assert_eq!(grown_store.len(), before.len() + expected_new);

        // And the old store still answers identically afterwards.
        assert_prefix_stable(&before, &store)?;
    }

    /// What lets an append skip the re-partition: a store grown by
    /// `push_sequence` is the partition of its own (grown) arena — same
    /// window table, same resolved slices — and its prefix never moved.
    #[test]
    fn a_pushed_store_equals_the_partition_of_its_arena(
        initial in prop::collection::vec(sym_seq(24), 0..4),
        appended in prop::collection::vec(sym_seq(24), 1..4),
    ) {
        let mut arena = ElementArena::default();
        for elements in &initial {
            arena.push_sequence(elements, None);
        }
        let mut store = WindowStore::partition(arena, WINDOW_LEN);
        for (i, elements) in appended.iter().enumerate() {
            let before = capture(&store);
            let id = store.push_sequence(elements, None);
            prop_assert_eq!(id.0, initial.len() + i);
            assert_prefix_stable(&before, &store)?;
            prop_assert_eq!(store.len(), before.len() + elements.len() / WINDOW_LEN);
        }
        let partitioned = WindowStore::partition(store.arena().clone(), WINDOW_LEN);
        prop_assert_eq!(store.windows(), partitioned.windows());
        prop_assert_eq!(capture(&store), capture(&partitioned));
    }

    /// The end-to-end property: a snapshot-loaded database keeps every
    /// outstanding window id valid across a run of appends.
    #[test]
    fn appends_after_a_snapshot_load_never_shift_existing_windows(
        texts in prop::collection::vec(long_sym_seq(48), 1..3),
        appended in prop::collection::vec(long_sym_seq(48), 1..4),
    ) {
        let config = FrameworkConfig::new(2 * WINDOW_LEN).with_max_shift(1);
        let mut builder = SubsequenceDatabase::builder(config, Levenshtein::new());
        for t in &texts {
            builder = builder.add_sequence(Sequence::new(t.clone()));
        }
        let Ok(built) = builder.build() else { return Ok(()); };
        let mut db =
            SubsequenceDatabase::from_snapshot_bytes(built.snapshot_bytes(), Levenshtein::new())
                .expect("fresh snapshot loads");

        let mut before = capture(db.windows());
        for elements in &appended {
            let id = db.append_sequence(Sequence::new(elements.clone()));

            // Every window captured before this append still resolves to the
            // same provenance and the same elements...
            assert_prefix_stable(&before, db.windows())?;
            // ...the new windows sit strictly at the tail and point at the
            // new sequence...
            let expected_new = elements.len() / WINDOW_LEN;
            prop_assert_eq!(db.window_count(), before.len() + expected_new);
            for i in before.len()..db.window_count() {
                let window = db.windows().get(WindowId(i)).expect("tail id resolves");
                prop_assert_eq!(window.sequence, id);
                let slice = db.windows().slice(WindowId(i)).expect("tail id has elements");
                prop_assert_eq!(slice, &elements[window.start..window.start + WINDOW_LEN]);
            }
            // ...and the store's arena agrees with the dataset about the
            // appended sequence.
            prop_assert_eq!(
                db.windows().arena().sequence_slice(id).expect("arena holds the new sequence"),
                elements.as_slice()
            );

            before = capture(db.windows());
        }
    }
}
