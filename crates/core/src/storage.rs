//! Database snapshots: save a built [`SubsequenceDatabase`] (steps 1–2 of the
//! framework, i.e. the expensive part) to disk and cold-start by loading it.
//!
//! A snapshot (format version 3) holds four sections in the `ssr-storage`
//! container format (magic + format version + section table + CRC per
//! section):
//!
//! | section      | contents                                                    |
//! |--------------|-------------------------------------------------------------|
//! | `manifest`   | element tag, distance name, [`FrameworkConfig`], counts      |
//! | `arena`      | **every** element, one contiguous run + sequence boundaries  |
//! | `dataset`    | per-sequence labels (elements live in the arena)             |
//! | `index`      | backend tag + structure over `WindowId` item handles         |
//! | `tombstones` | *optional*: removed sequence ids, strictly increasing        |
//!
//! The `tombstones` section is written only when at least one sequence has
//! been removed, so snapshots of read-only databases are byte-identical to
//! what earlier revisions of format 3 produced. A missing section means
//! every sequence is live.
//!
//! Elements are serialized exactly once: the arena section is the single
//! contiguous element store, sequences borrow ranges of it and windows are
//! `(sequence, start, len)` views derived from the arena's boundaries and
//! the configured window length — no per-window data exists on disk at all,
//! and loading performs **one** element-buffer allocation (plus a string per
//! labelled sequence), never a per-window or per-sequence one. Earlier format
//! versions, which stored every window's elements twice (window store + index
//! items), are rejected with [`StorageError::UnsupportedVersion`].
//!
//! The `manifest` section is decodable without knowing the element type, so
//! tooling (the `ssr` CLI) can inspect any snapshot and dispatch to the right
//! generic instantiation. Loading re-attaches the runtime context — the
//! user-supplied distance, wrapped in a fresh counting metric over the shared
//! window store — and restores the index **bit-identically**, including the
//! reference-visit order that determines per-query distance-call counts; the
//! `snapshot_parity` property test holds a loaded database to "same results
//! AND same stats" as the freshly built one.

use std::path::Path;
use std::sync::Arc;

use ssr_distance::{CallCounter, SequenceDistance};
use ssr_index::{
    CountingMetric, CoverTree, LinearScan, MvReferenceIndex, ReferenceNet, WindowSliceMetric,
};
use ssr_sequence::{Element, ElementArena, SequenceId, WindowStore};
use ssr_storage::{
    Decode, DecodeWith, Encode, Reader, Snapshot, SnapshotBuilder, StorableElement, StorageError,
    Writer,
};

use crate::config::{FrameworkConfig, IndexBackend};
use crate::database::{SubsequenceDatabase, WindowIndex, WindowMetric};

/// Section holding the element/distance tags, configuration and counts.
pub const SECTION_MANIFEST: &str = "manifest";
/// Section holding the contiguous element arena (all elements, once).
pub const SECTION_ARENA: &str = "arena";
/// Section holding per-sequence labels; sequence elements are ranges of the
/// arena section.
pub const SECTION_DATASET: &str = "dataset";
/// Section holding the metric index.
pub const SECTION_INDEX: &str = "index";
/// Optional section holding the removed (tombstoned) sequence ids. Absent
/// when every sequence is live — read-only snapshots stay byte-identical.
pub const SECTION_TOMBSTONES: &str = "tombstones";

impl Encode for IndexBackend {
    fn encode(&self, w: &mut Writer) {
        match self {
            IndexBackend::ReferenceNet => w.put_u8(0),
            IndexBackend::CoverTree => w.put_u8(1),
            IndexBackend::MvReference { references } => {
                w.put_u8(2);
                w.put_usize(*references);
            }
            IndexBackend::LinearScan => w.put_u8(3),
        }
    }
}

impl Decode for IndexBackend {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StorageError> {
        match r.take_u8()? {
            0 => Ok(IndexBackend::ReferenceNet),
            1 => Ok(IndexBackend::CoverTree),
            2 => Ok(IndexBackend::MvReference {
                references: r.take_usize()?,
            }),
            3 => Ok(IndexBackend::LinearScan),
            other => Err(StorageError::Malformed(format!(
                "unknown index backend tag {other}"
            ))),
        }
    }
}

impl Encode for FrameworkConfig {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.lambda);
        w.put_usize(self.max_shift);
        w.put_f64(self.epsilon_prime);
        self.max_parents.encode(w);
        self.backend.encode(w);
        w.put_usize(self.max_results);
        w.put_usize(self.max_verifications);
    }
}

impl Decode for FrameworkConfig {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StorageError> {
        let config = FrameworkConfig {
            lambda: r.take_usize()?,
            max_shift: r.take_usize()?,
            epsilon_prime: r.take_f64()?,
            max_parents: Option::<usize>::decode(r)?,
            backend: IndexBackend::decode(r)?,
            max_results: r.take_usize()?,
            max_verifications: r.take_usize()?,
        };
        config
            .validate()
            .map_err(|e| StorageError::Malformed(e.to_string()))?;
        Ok(config)
    }
}

/// The element-type-agnostic header of a database snapshot. Decodable from
/// any snapshot without instantiating the framework generics, which is what
/// lets `ssr info` inspect a file and `ssr query` dispatch on its contents.
#[derive(Clone, PartialEq, Debug)]
pub struct SnapshotManifest {
    /// [`StorableElement::TAG`] of the stored element type.
    pub element: String,
    /// [`SequenceDistance::name`] of the distance the database was built with.
    pub distance: String,
    /// The framework configuration.
    pub config: FrameworkConfig,
    /// Number of stored sequences.
    pub sequences: usize,
    /// Number of indexed windows.
    pub windows: usize,
    /// Distance evaluations the original build spent constructing the index —
    /// the work a cold start skips by loading this snapshot.
    pub build_distance_calls: u64,
    /// Dynamic-program cells those build evaluations filled.
    pub build_dp_cells: u64,
}

impl Encode for SnapshotManifest {
    fn encode(&self, w: &mut Writer) {
        self.element.encode(w);
        self.distance.encode(w);
        self.config.encode(w);
        w.put_usize(self.sequences);
        w.put_usize(self.windows);
        w.put_u64(self.build_distance_calls);
        w.put_u64(self.build_dp_cells);
    }
}

impl Decode for SnapshotManifest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StorageError> {
        Ok(SnapshotManifest {
            element: String::decode(r)?,
            distance: String::decode(r)?,
            config: FrameworkConfig::decode(r)?,
            sequences: r.take_usize()?,
            windows: r.take_usize()?,
            build_distance_calls: r.take_u64()?,
            build_dp_cells: r.take_u64()?,
        })
    }
}

impl SnapshotManifest {
    /// Reads the manifest section of a validated snapshot.
    pub fn read(snapshot: &Snapshot) -> Result<Self, StorageError> {
        snapshot.decode_section(SECTION_MANIFEST)
    }
}

impl<E, D> SubsequenceDatabase<E, D>
where
    E: Element + StorableElement + Send + Sync,
    D: SequenceDistance<E>,
{
    /// Serializes the database — sequences, windows and the prebuilt index —
    /// into snapshot bytes.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        self.snapshot_builder().to_bytes()
    }

    /// Writes a snapshot file (atomically, via a `.tmp` sibling).
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), StorageError> {
        self.snapshot_builder().write_to(path)
    }

    fn snapshot_builder(&self) -> SnapshotBuilder {
        let windows = self.windows();
        let arena = windows.arena();
        let manifest = SnapshotManifest {
            element: E::TAG.to_string(),
            distance: self.distance.name().to_string(),
            config: self.config.clone(),
            sequences: arena.sequence_count(),
            windows: windows.len(),
            build_distance_calls: self.build_distance_calls,
            build_dp_cells: self.build_dp_cells,
        };
        let mut builder = SnapshotBuilder::new();
        builder.section(SECTION_MANIFEST, |w| manifest.encode(w));
        builder.section(SECTION_ARENA, |w| arena.encode(w));
        builder.section(SECTION_DATASET, |w| {
            // Labels only: the elements were already written — once — to the
            // arena section, and the window views are derived, not stored.
            w.put_usize(arena.sequence_count());
            for i in 0..arena.sequence_count() {
                let sequence = arena.sequence(SequenceId(i)).expect("ids are dense");
                sequence.label().map(str::to_string).encode(w);
            }
        });
        builder.section(SECTION_INDEX, |w| match &self.index {
            WindowIndex::ReferenceNet(idx) => {
                IndexBackend::ReferenceNet.encode(w);
                idx.encode(w);
            }
            WindowIndex::CoverTree(idx) => {
                IndexBackend::CoverTree.encode(w);
                idx.encode(w);
            }
            WindowIndex::MvReference(idx) => {
                IndexBackend::MvReference {
                    references: idx.num_references(),
                }
                .encode(w);
                idx.encode(w);
            }
            WindowIndex::LinearScan(idx) => {
                IndexBackend::LinearScan.encode(w);
                idx.encode(w);
            }
        });
        let dead = self.tombstoned_sequences();
        if !dead.is_empty() {
            builder.section(SECTION_TOMBSTONES, |w| {
                w.put_usize(dead.len());
                for id in &dead {
                    w.put_usize(id.0);
                }
            });
        }
        builder
    }

    /// Loads a database from a snapshot file, re-attaching `distance` as the
    /// runtime context. The distance must be the same measure the snapshot
    /// was built with (checked by name) and `E` the same element type
    /// (checked by tag); the loaded database is query-parity-identical to
    /// the one that was saved — same results, same per-query statistics.
    pub fn load_snapshot(path: impl AsRef<Path>, distance: D) -> Result<Self, StorageError> {
        Self::from_snapshot(&Snapshot::open(path)?, distance)
    }

    /// [`Self::load_snapshot`] over bytes already in memory.
    pub fn from_snapshot_bytes(bytes: Vec<u8>, distance: D) -> Result<Self, StorageError> {
        Self::from_snapshot(&Snapshot::from_bytes(bytes)?, distance)
    }

    /// Reassembles a database from a validated snapshot.
    pub fn from_snapshot(snapshot: &Snapshot, distance: D) -> Result<Self, StorageError> {
        let manifest = SnapshotManifest::read(snapshot)?;
        if manifest.element != E::TAG {
            return Err(StorageError::ElementMismatch {
                expected: E::TAG.to_string(),
                found: manifest.element,
            });
        }
        if manifest.distance != distance.name() {
            return Err(StorageError::DistanceMismatch {
                expected: distance.name().to_string(),
                found: manifest.distance,
            });
        }
        let config = manifest.config;
        config
            .validate_distance::<E, D>(&distance)
            .map_err(|e| StorageError::Malformed(e.to_string()))?;

        // One contiguous element decode for the whole database: the arena is
        // the only section carrying element payloads, and reconstructing the
        // window store from it is pure arithmetic over the boundaries — no
        // per-window allocation anywhere on this path.
        let mut arena: ElementArena<E> = snapshot.decode_section(SECTION_ARENA)?;
        let mut r = snapshot.section_reader(SECTION_DATASET)?;
        let sequence_count = r.take_len(1)?;
        if sequence_count != arena.sequence_count() {
            return Err(StorageError::Malformed(format!(
                "dataset section stores {sequence_count} labels for {} arena sequences",
                arena.sequence_count()
            )));
        }
        for i in 0..sequence_count {
            if let Some(label) = Option::<String>::decode(&mut r)? {
                arena.set_label(SequenceId(i), label);
            }
        }
        r.expect_empty(SECTION_DATASET)?;
        let windows = Arc::new(WindowStore::partition(arena, config.window_len()));
        let window_count = windows.len();
        if manifest.sequences != sequence_count || manifest.windows != window_count {
            return Err(StorageError::Malformed(
                "manifest counts disagree with section contents".into(),
            ));
        }

        let distance = Arc::new(distance);
        // The gap prefix tables are runtime context like the counting metric:
        // rebuilt by scanning the loaded arena's sequence slices (ground
        // distances only — zero *sequence-distance* calls), not stored.
        let gap_prefixes = crate::database::build_gap_prefixes(distance.as_ref(), windows.arena());
        let counter = CallCounter::new();
        let cell_counter = ssr_distance::CellCounter::new();
        // The metric takes the store: the one handle the database keeps.
        let metric: WindowMetric<E, D> = CountingMetric::new(
            WindowSliceMetric::new(Arc::clone(&distance), windows),
            counter.clone(),
        )
        .with_cell_counter(cell_counter.clone());
        let mut r = snapshot.section_reader(SECTION_INDEX)?;
        let backend = IndexBackend::decode(&mut r)?;
        if backend != config.backend {
            return Err(StorageError::Malformed(format!(
                "index section stores a {backend} index but the config says {}",
                config.backend
            )));
        }
        let index = match backend {
            IndexBackend::ReferenceNet => {
                WindowIndex::ReferenceNet(ReferenceNet::decode_with(&mut r, metric)?)
            }
            IndexBackend::CoverTree => {
                WindowIndex::CoverTree(CoverTree::decode_with(&mut r, metric)?)
            }
            IndexBackend::MvReference { .. } => {
                WindowIndex::MvReference(MvReferenceIndex::decode_with(&mut r, metric)?)
            }
            IndexBackend::LinearScan => {
                WindowIndex::LinearScan(LinearScan::decode_with(&mut r, metric)?)
            }
        };
        r.expect_empty(SECTION_INDEX)?;
        if index.len() != window_count {
            return Err(StorageError::Malformed(format!(
                "index stores {} items for {window_count} windows",
                index.len(),
            )));
        }
        // The framework always inserts windows in id order, so the stored
        // item handles must be the identity map onto the window table.
        // Validating that here keeps decoding total: a crafted handle can
        // never reach the metric's slice resolution (which would panic on an
        // out-of-range id).
        let items = index.stored_items();
        if items.len() != window_count || items.iter().enumerate().any(|(i, w)| w.0 != i) {
            return Err(StorageError::Malformed(
                "index item handles must map 1:1 onto the window table".into(),
            ));
        }

        // Tombstones: an absent section means every sequence is live. When
        // present, the ids must be strictly increasing and in range — a
        // snapshot claiming a tombstone for a sequence it does not store is
        // malformed, not silently ignored.
        let mut tombstones = vec![false; sequence_count];
        let has_tombstones = snapshot
            .sections()
            .iter()
            .any(|s| s.name == SECTION_TOMBSTONES);
        if has_tombstones {
            let mut r = snapshot.section_reader(SECTION_TOMBSTONES)?;
            let count = r.take_len(1)?;
            let mut previous: Option<usize> = None;
            for _ in 0..count {
                let id = r.take_usize()?;
                if previous.is_some_and(|p| p >= id) {
                    return Err(StorageError::Malformed(
                        "tombstone ids must be strictly increasing".into(),
                    ));
                }
                if id >= sequence_count {
                    return Err(StorageError::Malformed(format!(
                        "tombstone for sequence {id} but only {sequence_count} sequences stored"
                    )));
                }
                tombstones[id] = true;
                previous = Some(id);
            }
            r.expect_empty(SECTION_TOMBSTONES)?;
            if count == 0 {
                return Err(StorageError::Malformed(
                    "tombstones section present but empty".into(),
                ));
            }
        }

        // No counter reset here: the counter was created fresh above, so a
        // non-zero value after loading means decoding evaluated distances —
        // exactly the regression `tests::snapshot_roundtrips_for_every_backend`
        // exists to catch. Resetting would make that check vacuous.
        let probe_depth = crate::database::probe_depth_histogram(index.backend_name());
        Ok(SubsequenceDatabase {
            config,
            distance,
            index,
            counter,
            cell_counter,
            build_distance_calls: manifest.build_distance_calls,
            build_dp_cells: manifest.build_dp_cells,
            gap_prefixes,
            tombstones,
            probe_depth,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_distance::{Hamming, Levenshtein};
    use ssr_sequence::{Pitch, Sequence, Symbol};

    fn seq(text: &str) -> Sequence<Symbol> {
        Sequence::new(text.chars().map(Symbol::from_char).collect())
    }

    fn planted_db(backend: IndexBackend) -> SubsequenceDatabase<Symbol, Levenshtein> {
        let config = FrameworkConfig::new(8)
            .with_max_shift(1)
            .with_backend(backend);
        SubsequenceDatabase::builder(config, Levenshtein::new())
            .add_sequence(seq("MMMMMMMMACDEFGHIKLMNPQRSTVWYMMMMMMMM"))
            .add_sequence(seq("WWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWW"))
            .build()
            .unwrap()
    }

    #[test]
    fn snapshot_roundtrips_for_every_backend() {
        for backend in [
            IndexBackend::ReferenceNet,
            IndexBackend::CoverTree,
            IndexBackend::MvReference { references: 3 },
            IndexBackend::LinearScan,
        ] {
            let db = planted_db(backend);
            let bytes = db.snapshot_bytes();
            let loaded = SubsequenceDatabase::<Symbol, Levenshtein>::from_snapshot_bytes(
                bytes,
                Levenshtein::new(),
            )
            .unwrap();
            assert_eq!(loaded.window_count(), db.window_count());
            assert_eq!(loaded.build_distance_calls(), db.build_distance_calls());
            assert_eq!(loaded.query_distance_counter().get(), 0);

            let query = seq("YYYYACDEFGHIKLMNPQRSTVWYYYYY");
            let a = db.query_type1(&query, 3.0);
            let b = loaded.query_type1(&query, 3.0);
            assert_eq!(a.result, b.result, "backend {backend}");
            assert_eq!(a.stats, b.stats, "backend {backend}");
        }
    }

    #[test]
    fn manifest_is_readable_without_the_element_type() {
        let db = planted_db(IndexBackend::ReferenceNet);
        let snapshot = Snapshot::from_bytes(db.snapshot_bytes()).unwrap();
        let manifest = SnapshotManifest::read(&snapshot).unwrap();
        assert_eq!(manifest.element, "symbol");
        assert_eq!(manifest.distance, "Levenshtein");
        assert_eq!(manifest.config.lambda, 8);
        assert_eq!(manifest.windows, db.window_count());
        assert_eq!(manifest.build_distance_calls, db.build_distance_calls());
        let names: Vec<&str> = snapshot
            .sections()
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(names, vec!["manifest", "arena", "dataset", "index"]);
    }

    #[test]
    fn mismatched_element_and_distance_are_typed_errors() {
        let db = planted_db(IndexBackend::ReferenceNet);
        let bytes = db.snapshot_bytes();

        let err = SubsequenceDatabase::<Pitch, Levenshtein>::from_snapshot_bytes(
            bytes.clone(),
            Levenshtein::new(),
        )
        .err()
        .expect("element mismatch");
        assert!(matches!(err, StorageError::ElementMismatch { .. }), "{err}");

        let err =
            SubsequenceDatabase::<Symbol, Hamming>::from_snapshot_bytes(bytes, Hamming::new())
                .err()
                .expect("distance mismatch");
        assert!(
            matches!(err, StorageError::DistanceMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn tombstones_section_roundtrips_and_is_absent_when_clean() {
        let mut db = planted_db(IndexBackend::ReferenceNet);
        // Clean database: no tombstones section (read-only snapshots stay
        // byte-identical to what the format wrote before removal existed).
        let snapshot = Snapshot::from_bytes(db.snapshot_bytes()).unwrap();
        assert!(snapshot
            .sections()
            .iter()
            .all(|s| s.name != SECTION_TOMBSTONES));

        assert!(db.remove_sequence(SequenceId(1)));
        let snapshot = Snapshot::from_bytes(db.snapshot_bytes()).unwrap();
        assert!(snapshot
            .sections()
            .iter()
            .any(|s| s.name == SECTION_TOMBSTONES));
        let loaded = SubsequenceDatabase::<Symbol, Levenshtein>::from_snapshot(
            &snapshot,
            Levenshtein::new(),
        )
        .unwrap();
        assert!(!loaded.is_live(SequenceId(1)));
        assert_eq!(loaded.live_sequence_count(), 1);
        assert_eq!(loaded.tombstoned_sequences(), vec![SequenceId(1)]);
        // Dead-sequence matches stay filtered after a reload.
        let query = seq("WWWWWWWW");
        let a = db.query_type1(&query, 0.5);
        let b = loaded.query_type1(&query, 0.5);
        assert_eq!(a.result, b.result);
        assert!(a.result.is_empty());
    }

    #[test]
    fn out_of_range_tombstone_is_rejected() {
        let mut db = planted_db(IndexBackend::LinearScan);
        assert!(db.remove_sequence(SequenceId(0)));
        let bytes = db.snapshot_bytes();
        let snapshot = Snapshot::from_bytes(bytes).unwrap();
        // Rewrite the tombstones payload to point past the dataset.
        let mut builder = SnapshotBuilder::new();
        for section in snapshot.sections() {
            let name = section.name.clone();
            if name == SECTION_TOMBSTONES {
                builder.section(SECTION_TOMBSTONES, |w| {
                    w.put_usize(1);
                    w.put_usize(7);
                });
            } else {
                let mut r = snapshot.section_reader(&name).unwrap();
                let payload = r.take(r.remaining(), "copy").unwrap().to_vec();
                builder.section(&name, |w| w.put_raw(&payload));
            }
        }
        let err = SubsequenceDatabase::<Symbol, Levenshtein>::from_snapshot_bytes(
            builder.to_bytes(),
            Levenshtein::new(),
        )
        .err()
        .expect("out-of-range tombstone");
        assert!(matches!(err, StorageError::Malformed(_)), "{err}");
    }

    #[test]
    fn config_codec_roundtrips() {
        let config = FrameworkConfig::new(20)
            .with_max_shift(3)
            .with_backend(IndexBackend::MvReference { references: 5 })
            .with_epsilon_prime(0.5)
            .with_max_parents(4);
        let mut w = Writer::new();
        config.encode(&mut w);
        let bytes = w.into_bytes();
        let back = FrameworkConfig::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.lambda, config.lambda);
        assert_eq!(back.max_shift, config.max_shift);
        assert_eq!(back.backend, config.backend);
        assert_eq!(back.max_parents, config.max_parents);

        // An invalid stored config (max_shift >= window length) is rejected.
        let mut bad = FrameworkConfig::new(20);
        bad.max_shift = 15;
        let mut w = Writer::new();
        bad.encode(&mut w);
        let bytes = w.into_bytes();
        assert!(matches!(
            FrameworkConfig::decode(&mut Reader::new(&bytes)),
            Err(StorageError::Malformed(_))
        ));
    }
}
