//! Snapshot format-version skew: the v3 arena layout changed the section
//! schema (one contiguous `arena` element section, no `windows` section, no
//! per-window data), so files written by earlier builds must be rejected
//! cleanly — a v1/v2 payload parsed as v3 would misinterpret element bytes.
//! Also covers the degenerate end of the format: an empty-dataset v3
//! snapshot loads, answers queries (with empty results) and re-saves
//! byte-identically.

use ssr_core::storage::{
    SnapshotManifest, SECTION_ARENA, SECTION_DATASET, SECTION_INDEX, SECTION_MANIFEST,
};
use ssr_core::{FrameworkConfig, SubsequenceDatabase};
use ssr_distance::Levenshtein;
use ssr_index::{FnMetric, LinearScan};
use ssr_sequence::{ElementArena, Sequence, SequenceDataset, Symbol, WindowId};
use ssr_storage::{crc32, Encode, SnapshotBuilder, StorageError, FORMAT_VERSION};

fn seq(text: &str) -> Sequence<Symbol> {
    Sequence::new(text.chars().map(Symbol::from_char).collect())
}

fn v3_snapshot_bytes() -> Vec<u8> {
    SubsequenceDatabase::builder(
        FrameworkConfig::new(8).with_max_shift(1),
        Levenshtein::new(),
    )
    .add_sequence(seq("MMMMMMMMACDEFGHIKLMNPQRSTVWYMMMMMMMM"))
    .build()
    .unwrap()
    .snapshot_bytes()
}

/// Rewrites the format-version word of a snapshot and fixes the header CRC,
/// isolating the version check from the integrity checks.
fn with_version(mut bytes: Vec<u8>, version: u32) -> Vec<u8> {
    bytes[8..12].copy_from_slice(&version.to_le_bytes());
    let table_len = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;
    let header_end = 16 + table_len;
    let crc = crc32(&bytes[..header_end]);
    bytes[header_end..header_end + 4].copy_from_slice(&crc.to_le_bytes());
    bytes
}

fn try_load(bytes: Vec<u8>) -> Result<SubsequenceDatabase<Symbol, Levenshtein>, StorageError> {
    SubsequenceDatabase::from_snapshot_bytes(bytes, Levenshtein::new())
}

#[test]
fn current_format_version_is_3() {
    assert_eq!(FORMAT_VERSION, 3);
}

#[test]
fn v1_and_v2_snapshots_are_rejected_with_unsupported_version() {
    let bytes = v3_snapshot_bytes();
    assert!(try_load(bytes.clone()).is_ok(), "v3 control load");
    for old in [1u32, 2] {
        let err = try_load(with_version(bytes.clone(), old))
            .err()
            .unwrap_or_else(|| panic!("a v{old} snapshot must be rejected"));
        assert!(
            matches!(err, StorageError::UnsupportedVersion(v) if v == old),
            "v{old} gave {err:?}"
        );
    }
    // Future versions are rejected the same way, never guessed at.
    let err = try_load(with_version(bytes, 4))
        .err()
        .expect("a v4 snapshot must be rejected");
    assert!(
        matches!(err, StorageError::UnsupportedVersion(4)),
        "{err:?}"
    );
}

/// Builds a structurally valid v3 snapshot of a database with **zero**
/// sequences — a state the builder itself refuses to construct (it demands
/// at least one window) but the format, and a loader facing arbitrary
/// files, must handle totally.
fn empty_v3_snapshot_bytes() -> Vec<u8> {
    let config = FrameworkConfig::new(8)
        .with_max_shift(1)
        .with_backend(ssr_core::IndexBackend::LinearScan);
    let manifest = SnapshotManifest {
        element: "symbol".to_string(),
        distance: "Levenshtein".to_string(),
        config,
        sequences: 0,
        windows: 0,
        build_distance_calls: 0,
        build_dp_cells: 0,
    };
    let arena = ElementArena::<Symbol>::from_dataset(&SequenceDataset::new());
    let index: LinearScan<WindowId, _> =
        LinearScan::new(FnMetric(|_: &WindowId, _: &WindowId| 0.0));
    let mut builder = SnapshotBuilder::new();
    builder.section(SECTION_MANIFEST, |w| manifest.encode(w));
    builder.section(SECTION_ARENA, |w| arena.encode(w));
    builder.section(SECTION_DATASET, |w| w.put_usize(0));
    builder.section(SECTION_INDEX, |w| {
        ssr_core::IndexBackend::LinearScan.encode(w);
        index.encode(w);
    });
    builder.to_bytes()
}

#[test]
fn empty_dataset_v3_snapshot_roundtrips() {
    let bytes = empty_v3_snapshot_bytes();
    let db = try_load(bytes.clone()).expect("an empty v3 snapshot is valid");
    assert_eq!(db.sequence_count(), 0);
    assert_eq!(db.window_count(), 0);
    assert_eq!(db.windows().arena().len(), 0);

    // Queries against the empty database answer, with empty results.
    let outcome = db.query_type1(&seq("ACDEFGHIKLMN"), 2.0);
    assert!(outcome.result.is_empty());
    assert_eq!(outcome.stats.index_distance_calls, 0);
    assert!(db.query_type2(&seq("ACDEFGHIKLMN"), 2.0).result.is_none());

    // Save → load → save is a fixed point, down to the byte.
    assert_eq!(db.snapshot_bytes(), bytes);
}

#[test]
fn save_load_save_is_byte_stable_under_the_arena_layout() {
    let bytes = v3_snapshot_bytes();
    let loaded = try_load(bytes.clone()).unwrap();
    assert_eq!(loaded.snapshot_bytes(), bytes);
}

#[test]
fn crafted_out_of_range_index_handles_are_rejected() {
    // A snapshot whose index section claims handles beyond the window table
    // must be a typed error, not a panic at first slice resolution.
    let db = SubsequenceDatabase::<Symbol, _>::builder(
        FrameworkConfig::new(8)
            .with_max_shift(1)
            .with_backend(ssr_core::IndexBackend::LinearScan),
        Levenshtein::new(),
    )
    .add_sequence(seq("MMMMMMMMACDEFGHIKLMNPQRSTVWYMMMMMMMM"))
    .build()
    .unwrap();
    let snapshot = ssr_storage::Snapshot::from_bytes(db.snapshot_bytes()).unwrap();
    let windows = db.window_count();

    // Re-assemble the snapshot with an index that shifts every handle by
    // one, pointing the last one past the window table.
    let crafted: LinearScan<WindowId, _> = {
        let mut scan = LinearScan::new(FnMetric(|_: &WindowId, _: &WindowId| 0.0));
        scan.extend((1..=windows).map(WindowId));
        scan
    };
    let mut builder = SnapshotBuilder::new();
    for name in [SECTION_MANIFEST, SECTION_ARENA, SECTION_DATASET] {
        let mut r = snapshot.section_reader(name).unwrap();
        let payload = r.take(r.remaining(), "section payload").unwrap().to_vec();
        builder.section(name, |w| w.put_raw(&payload));
    }
    builder.section(SECTION_INDEX, |w| {
        ssr_core::IndexBackend::LinearScan.encode(w);
        crafted.encode(w);
    });
    let err = try_load(builder.to_bytes())
        .err()
        .expect("shifted handles must be rejected");
    assert!(matches!(err, StorageError::Malformed(_)), "{err:?}");
}
