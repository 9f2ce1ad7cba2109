//! Snapshot robustness: round-trips across all four datagen element types
//! (DNA, proteins, songs, trajectories) and a corruption suite — truncation
//! at every section boundary (and at every byte of a small snapshot) and
//! single-byte flips in every region. Damaged input must always yield a
//! typed [`StorageError`], never a panic, and a clean round-trip must be
//! query-parity-identical.

use ssr_core::{FrameworkConfig, QueryOutcome, SubsequenceDatabase, SubsequenceMatch};
use ssr_datagen::{
    generate_dna, generate_proteins, generate_songs, generate_trajectories, plant_query, DnaConfig,
    PitchMutator, PointMutator, ProteinConfig, QueryConfig, QueryMutator, SongsConfig,
    SymbolMutator, TrajConfig,
};
use ssr_distance::{DiscreteFrechet, Erp, Levenshtein, SequenceDistance};
use ssr_sequence::{Element, SequenceDataset, Symbol};
use ssr_storage::{Snapshot, StorableElement, StorageError};

const LAMBDA: usize = 12;

fn build<E, D>(dataset: SequenceDataset<E>, distance: D) -> SubsequenceDatabase<E, D>
where
    E: Element + StorableElement + Send + Sync,
    D: SequenceDistance<E>,
{
    SubsequenceDatabase::builder(FrameworkConfig::new(LAMBDA).with_max_shift(1), distance)
        .add_dataset(&dataset)
        .build()
        .expect("generated dataset builds")
}

/// Builds, snapshots, reloads and checks Type I + Type II query parity
/// (results AND stats) on a planted query.
fn assert_roundtrip_parity<E, D, M>(
    dataset: SequenceDataset<E>,
    distance_factory: impl Fn() -> D,
    mutator: M,
    epsilon: f64,
) where
    E: Element + StorableElement + Send + Sync,
    D: SequenceDistance<E>,
    M: QueryMutator<E>,
{
    let db = build(dataset, distance_factory());
    let loaded =
        SubsequenceDatabase::<E, D>::from_snapshot_bytes(db.snapshot_bytes(), distance_factory())
            .expect("snapshot loads");

    let planted = plant_query(
        &db.to_dataset(),
        &mutator,
        &QueryConfig {
            planted_len: 2 * LAMBDA,
            context_len: LAMBDA / 2,
            perturbation_rate: 0.05,
            seed: 99,
        },
    )
    .expect("dataset large enough to plant a query");

    let a: QueryOutcome<Vec<SubsequenceMatch>> = db.query_type1(&planted.query, epsilon);
    let b = loaded.query_type1(&planted.query, epsilon);
    assert_eq!(a.result, b.result);
    assert_eq!(a.stats, b.stats);

    let a = db.query_type2(&planted.query, epsilon);
    let b = loaded.query_type2(&planted.query, epsilon);
    assert!(a.result.is_some(), "planted query should be retrievable");
    assert_eq!(a.result, b.result);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn dna_snapshots_roundtrip_with_query_parity() {
    let dataset = generate_dna(&DnaConfig {
        num_sequences: 8,
        min_len: 40,
        max_len: 80,
        seed: 11,
        ..Default::default()
    });
    assert_roundtrip_parity(dataset, Levenshtein::new, SymbolMutator, 2.0);
}

#[test]
fn protein_snapshots_roundtrip_with_query_parity() {
    let dataset = generate_proteins(&ProteinConfig::sized_for_windows(40, LAMBDA / 2, 12));
    assert_roundtrip_parity(dataset, Levenshtein::new, SymbolMutator, 3.0);
}

#[test]
fn songs_snapshots_roundtrip_with_query_parity() {
    let dataset = generate_songs(&SongsConfig::sized_for_windows(40, LAMBDA / 2, 13));
    assert_roundtrip_parity(dataset, Erp::new, PitchMutator, 6.0);
}

#[test]
fn trajectory_snapshots_roundtrip_with_query_parity() {
    let dataset = generate_trajectories(&TrajConfig::sized_for_windows(40, LAMBDA / 2, 14));
    assert_roundtrip_parity(dataset, DiscreteFrechet::new, PointMutator::default(), 2.0);
}

/// A small proteins snapshot for the corruption battery.
fn small_snapshot_bytes() -> Vec<u8> {
    let dataset = generate_proteins(&ProteinConfig::sized_for_windows(10, LAMBDA / 2, 21));
    build(dataset, Levenshtein::new()).snapshot_bytes()
}

fn try_load(bytes: Vec<u8>) -> Result<SubsequenceDatabase<Symbol, Levenshtein>, StorageError> {
    SubsequenceDatabase::from_snapshot_bytes(bytes, Levenshtein::new())
}

#[test]
fn truncation_at_every_section_boundary_is_a_typed_error() {
    let bytes = small_snapshot_bytes();
    let snapshot = Snapshot::from_bytes(bytes.clone()).unwrap();
    let mut boundaries: Vec<usize> = snapshot
        .sections()
        .iter()
        .flat_map(|s| [s.offset as usize, (s.offset + s.len) as usize])
        .collect();
    boundaries.push(0);
    boundaries.push(8); // after magic
    boundaries.push(16); // after version + table length
    boundaries.sort_unstable();
    boundaries.dedup();
    for boundary in boundaries {
        if boundary == bytes.len() {
            continue;
        }
        let err = try_load(bytes[..boundary].to_vec())
            .err()
            .unwrap_or_else(|| panic!("truncation at byte {boundary} must fail"));
        // Typed, never a panic; the display must render too.
        let _ = err.to_string();
    }
}

#[test]
fn truncation_at_every_byte_is_a_typed_error() {
    let bytes = small_snapshot_bytes();
    for cut in 0..bytes.len() {
        let result = try_load(bytes[..cut].to_vec());
        assert!(result.is_err(), "prefix of {cut} bytes unexpectedly loaded");
    }
}

#[test]
fn single_byte_flips_in_every_section_are_checksum_errors() {
    let bytes = small_snapshot_bytes();
    let snapshot = Snapshot::from_bytes(bytes.clone()).unwrap();
    for entry in snapshot.sections() {
        let positions = [
            entry.offset as usize,
            entry.offset as usize + entry.len as usize / 2,
            entry.offset as usize + entry.len as usize - 1,
        ];
        for &pos in &positions {
            let mut damaged = bytes.clone();
            damaged[pos] ^= 0x20;
            let err = try_load(damaged)
                .err()
                .unwrap_or_else(|| panic!("flip in '{}' at byte {pos} must fail", entry.name));
            assert!(
                matches!(err, StorageError::ChecksumMismatch { ref section } if *section == entry.name),
                "flip in '{}' at byte {pos} gave {err:?}",
                entry.name
            );
        }
    }
}

#[test]
fn header_corruption_is_a_typed_error() {
    let bytes = small_snapshot_bytes();

    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(try_load(bad_magic), Err(StorageError::BadMagic)));

    // A flip anywhere in the section table is caught by the header CRC.
    let mut bad_table = bytes.clone();
    bad_table[20] ^= 0x01;
    assert!(matches!(
        try_load(bad_table),
        Err(StorageError::HeaderChecksumMismatch)
    ));

    // Flipping every single byte of the file must never panic and never load.
    for i in 0..bytes.len() {
        let mut damaged = bytes.clone();
        damaged[i] ^= 0x08;
        assert!(try_load(damaged).is_err(), "flip at byte {i} loaded");
    }
}

#[test]
fn non_snapshot_files_are_rejected() {
    assert!(matches!(
        try_load(Vec::new()),
        Err(StorageError::Truncated { .. })
    ));
    assert!(matches!(
        try_load(b"this is not a snapshot file at all".to_vec()),
        Err(StorageError::BadMagic)
    ));
}
