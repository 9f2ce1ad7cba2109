//! Live (mutable, WAL-backed) databases: the durability layer over
//! [`SubsequenceDatabase::append_sequence`] / [`remove_sequence`].
//!
//! A [`LiveDatabase`] pairs a snapshot file with an append-only write-ahead
//! log (the `.wal` sibling, framed by [`ssr_storage::wal`]). Every mutation
//! is logged **before** it is applied in memory, so the on-disk pair always
//! determines the in-memory state: opening loads the last snapshot and
//! replays the log's typed operations ([`WalOp`]) on top of it, reaching —
//! bit-identically, results and stats — the state of the process that
//! crashed, however far it got. [`LiveDatabase::compact`] folds the log into
//! a fresh snapshot (atomically, via the snapshot layer's `.tmp` + rename)
//! and truncates the WAL back to an empty header.
//!
//! [`remove_sequence`]: SubsequenceDatabase::remove_sequence

use std::path::{Path, PathBuf};
use std::time::Instant;

use ssr_distance::SequenceDistance;
use ssr_sequence::{Element, Sequence, SequenceId};
use ssr_storage::{
    write_atomic, Decode, Encode, Reader, StorableElement, StorageError, WalBinding, WalWriter,
    Writer,
};

use crate::database::SubsequenceDatabase;

/// One logged mutation. The tag byte leads the payload so tooling (`ssr
/// info`) can classify records without instantiating the element type.
#[derive(Clone, PartialEq, Debug)]
pub enum WalOp<E> {
    /// A sequence appended to the database.
    Append {
        /// The sequence's label, if any.
        label: Option<String>,
        /// The sequence's elements.
        elements: Vec<E>,
    },
    /// A sequence tombstoned by its id.
    Remove {
        /// Id of the removed sequence.
        sequence: usize,
    },
}

/// Tag byte of an [`WalOp::Append`] payload.
pub const WAL_OP_APPEND: u8 = 0;
/// Tag byte of a [`WalOp::Remove`] payload.
pub const WAL_OP_REMOVE: u8 = 1;

impl<E: Encode> Encode for WalOp<E> {
    fn encode(&self, w: &mut Writer) {
        match self {
            WalOp::Append { label, elements } => {
                w.put_u8(WAL_OP_APPEND);
                label.encode(w);
                elements.encode(w);
            }
            WalOp::Remove { sequence } => {
                w.put_u8(WAL_OP_REMOVE);
                w.put_usize(*sequence);
            }
        }
    }
}

impl<E: Decode> Decode for WalOp<E> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StorageError> {
        match r.take_u8()? {
            WAL_OP_APPEND => Ok(WalOp::Append {
                label: Option::<String>::decode(r)?,
                elements: Vec::<E>::decode(r)?,
            }),
            WAL_OP_REMOVE => Ok(WalOp::Remove {
                sequence: r.take_usize()?,
            }),
            other => Err(StorageError::Malformed(format!(
                "unknown wal op tag {other}"
            ))),
        }
    }
}

impl<E: Encode> WalOp<E> {
    /// Serializes the op into one WAL record payload.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }
}

impl<E: Decode> WalOp<E> {
    /// Decodes one WAL record payload, demanding exact consumption.
    pub fn from_payload(payload: &[u8]) -> Result<Self, StorageError> {
        let mut r = Reader::new(payload);
        let op = WalOp::decode(&mut r)?;
        r.expect_empty("wal op")?;
        Ok(op)
    }
}

/// Counts `(appends, removes)` over raw WAL record payloads by tag byte —
/// element-type-agnostic, so `ssr info` can report pending work for any
/// snapshot.
pub fn count_op_kinds(records: &[Vec<u8>]) -> Result<(usize, usize), StorageError> {
    let mut appends = 0;
    let mut removes = 0;
    for (i, payload) in records.iter().enumerate() {
        match payload.first() {
            Some(&WAL_OP_APPEND) => appends += 1,
            Some(&WAL_OP_REMOVE) => removes += 1,
            Some(&other) => {
                return Err(StorageError::Malformed(format!(
                    "wal record {i} has unknown op tag {other}"
                )))
            }
            None => {
                return Err(StorageError::Malformed(format!(
                    "wal record {i} has an empty payload"
                )))
            }
        }
    }
    Ok((appends, removes))
}

/// Path of the WAL sibling of a snapshot: the snapshot path with `.wal`
/// appended (not substituted, so `db.ssr` pairs with `db.ssr.wal`).
pub fn wal_path_for(snapshot_path: impl AsRef<Path>) -> PathBuf {
    let mut os = snapshot_path.as_ref().as_os_str().to_os_string();
    os.push(".wal");
    PathBuf::from(os)
}

/// Replays decoded WAL record payloads onto `db`, returning
/// `(appends, removes)`. Shared by [`LiveDatabase::open`] and the read-only
/// [`load_with_wal`]; replay is strict — an op that does not apply cleanly
/// is a typed error, never a silent skip.
fn apply_ops<E, D>(
    db: &mut SubsequenceDatabase<E, D>,
    records: &[Vec<u8>],
) -> Result<(usize, usize), StorageError>
where
    E: Element + StorableElement + Send + Sync,
    D: SequenceDistance<E>,
{
    let mut appends = 0;
    let mut removes = 0;
    for (i, payload) in records.iter().enumerate() {
        match WalOp::<E>::from_payload(payload)? {
            WalOp::Append { label, elements } => {
                let mut sequence = Sequence::new(elements);
                if let Some(label) = label {
                    sequence.set_label(label);
                }
                db.append_sequence(sequence);
                appends += 1;
            }
            WalOp::Remove { sequence } => {
                // Removals are only logged after validating the id against
                // the live set, so a failing replay means the log and
                // snapshot no longer belong together.
                if !db.remove_sequence(SequenceId(sequence)) {
                    return Err(StorageError::Malformed(format!(
                        "wal record {i} removes sequence {sequence}, which is unknown or already removed"
                    )));
                }
                removes += 1;
            }
        }
    }
    Ok((appends, removes))
}

/// Publishes open-time telemetry: snapshot decode and WAL replay wall-clock
/// as global gauges (and spans in the global trace ring, under trace id 0),
/// plus the replayed op count as the `ssr_wal_pending_ops` gauge — the ops
/// sitting in the log, not yet folded into the snapshot.
fn record_open_telemetry(snapshot_us: u64, replay_us: u64, pending_ops: usize) {
    let registry = ssr_obs::global();
    registry
        .gauge(
            "ssr_snapshot_load_us",
            "Wall-clock of the last snapshot decode, in microseconds.",
        )
        .set(snapshot_us as i64);
    registry
        .gauge(
            "ssr_wal_replay_us",
            "Wall-clock of the last WAL replay, in microseconds.",
        )
        .set(replay_us as i64);
    registry
        .gauge(
            "ssr_wal_pending_ops",
            "Logged operations not yet folded into the snapshot.",
        )
        .set(pending_ops as i64);
    let mut trace = ssr_obs::TraceBuf::new(0);
    trace.record("snapshot_load", snapshot_us.saturating_mul(1_000));
    trace.record("wal_replay", replay_us.saturating_mul(1_000));
    trace.flush_to(ssr_obs::trace_ring());
}

/// Read-only open: loads the snapshot at `path` and replays its WAL sibling
/// **without touching the disk** — no WAL is created when missing, no torn
/// tail is truncated, no stale log is reset. Returns the database plus the
/// number of ops replayed. This is what inspection paths (`ssr info`,
/// `ssr query`) use so that looking at a database never mutates its files.
pub fn load_with_wal<E, D>(
    path: impl AsRef<Path>,
    distance: D,
) -> Result<(SubsequenceDatabase<E, D>, usize), StorageError>
where
    E: Element + StorableElement + Send + Sync,
    D: SequenceDistance<E>,
{
    let path = path.as_ref();
    let bytes = std::fs::read(path)?;
    let binding = ssr_storage::WalBinding::of(&bytes);
    let load_started = Instant::now();
    let mut db = SubsequenceDatabase::<E, D>::from_snapshot_bytes(bytes, distance)?;
    let snapshot_us = load_started.elapsed().as_micros() as u64;
    let replay_started = Instant::now();
    let records = match std::fs::read(wal_path_for(path)) {
        Ok(wal_bytes) => {
            let read = ssr_storage::decode_wal(&wal_bytes)?;
            // A log bound to a different snapshot is an interrupted
            // compaction's leftover: already folded, nothing to replay.
            if read.binding == Some(binding) {
                read.records
            } else {
                Vec::new()
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let (appends, removes) = apply_ops(&mut db, &records)?;
    record_open_telemetry(
        snapshot_us,
        replay_started.elapsed().as_micros() as u64,
        appends + removes,
    );
    Ok((db, appends + removes))
}

/// A snapshot + WAL pair open for reading and mutation.
///
/// All mutations go through this type (which logs them durably before
/// applying them); queries go through the shared reference returned by
/// [`Self::database`].
pub struct LiveDatabase<E: Element + StorableElement + Send + Sync, D: SequenceDistance<E>> {
    db: SubsequenceDatabase<E, D>,
    wal: WalWriter,
    snapshot_path: PathBuf,
    wal_path: PathBuf,
    pending_appends: usize,
    pending_removes: usize,
}

impl<E, D> LiveDatabase<E, D>
where
    E: Element + StorableElement + Send + Sync,
    D: SequenceDistance<E>,
{
    /// Writes `db` as a fresh snapshot at `path` with an empty WAL sibling
    /// (bound to that snapshot's identity) and takes ownership of the pair.
    pub fn create(
        path: impl AsRef<Path>,
        db: SubsequenceDatabase<E, D>,
    ) -> Result<Self, StorageError> {
        let snapshot_path = path.as_ref().to_path_buf();
        let bytes = db.snapshot_bytes();
        write_atomic(&snapshot_path, &bytes)?;
        let wal_path = wal_path_for(&snapshot_path);
        let wal = WalWriter::create(&wal_path, WalBinding::of(&bytes))?;
        Ok(LiveDatabase {
            db,
            wal,
            snapshot_path,
            wal_path,
            pending_appends: 0,
            pending_removes: 0,
        })
    }

    /// Opens the snapshot at `path` and replays its WAL sibling on top: the
    /// resulting in-memory state is the one the last process reached before
    /// exiting (or crashing — a torn log tail is truncated away by the WAL
    /// layer, and the operations before it replay byte-exactly). A missing
    /// WAL means no pending mutations, and a WAL bound to a *different*
    /// snapshot (the leftover of a compaction interrupted between its
    /// snapshot rename and its log truncation) is discarded, not replayed —
    /// its records are already folded into the snapshot being opened.
    pub fn open(path: impl AsRef<Path>, distance: D) -> Result<Self, StorageError> {
        let snapshot_path = path.as_ref().to_path_buf();
        let bytes = std::fs::read(&snapshot_path)?;
        let binding = WalBinding::of(&bytes);
        let load_started = Instant::now();
        let mut db = SubsequenceDatabase::<E, D>::from_snapshot_bytes(bytes, distance)?;
        let snapshot_us = load_started.elapsed().as_micros() as u64;
        let wal_path = wal_path_for(&snapshot_path);
        let replay_started = Instant::now();
        let (wal, records) = WalWriter::open(&wal_path, binding)?;
        let (pending_appends, pending_removes) = apply_ops(&mut db, &records)?;
        record_open_telemetry(
            snapshot_us,
            replay_started.elapsed().as_micros() as u64,
            pending_appends + pending_removes,
        );
        Ok(LiveDatabase {
            db,
            wal,
            snapshot_path,
            wal_path,
            pending_appends,
            pending_removes,
        })
    }

    /// Appends a sequence: logged durably first, then applied in memory (see
    /// [`SubsequenceDatabase::append_sequence`] for the incremental index
    /// maintenance). Returns the id the sequence is stored under.
    pub fn append_sequence(&mut self, sequence: Sequence<E>) -> Result<SequenceId, StorageError> {
        let op = WalOp::Append {
            label: sequence.label().map(str::to_string),
            elements: sequence.elements().to_vec(),
        };
        self.wal.append(&op.to_payload())?;
        self.pending_appends += 1;
        self.publish_pending_gauge();
        Ok(self.db.append_sequence(sequence))
    }

    /// Tombstones a sequence. Unknown or already-removed ids return
    /// `Ok(false)` **without** writing a log record — the WAL only ever
    /// holds operations that applied, which is what makes replay total.
    pub fn remove_sequence(&mut self, id: SequenceId) -> Result<bool, StorageError> {
        if !self.db.is_live(id) {
            return Ok(false);
        }
        let op = WalOp::<E>::Remove { sequence: id.0 };
        self.wal.append(&op.to_payload())?;
        self.pending_removes += 1;
        self.publish_pending_gauge();
        let removed = self.db.remove_sequence(id);
        debug_assert!(removed, "is_live guaranteed the removal applies");
        Ok(removed)
    }

    /// Folds the WAL into a fresh snapshot: saves the current in-memory
    /// state (atomically — `.tmp` then rename) and truncates the log,
    /// rebinding it to the new snapshot's identity. A crash between the two
    /// steps is safe: the surviving log still names the *old* snapshot, so
    /// the next [`Self::open`] detects the stale binding and discards it
    /// instead of double-applying records the new snapshot already contains.
    ///
    /// # Failpoints
    ///
    /// `live.compact` fires in exactly that window — after the new snapshot
    /// is durably renamed into place but before the WAL is rebound — so
    /// chaos tests can exercise the stale-binding recovery path on demand.
    pub fn compact(&mut self) -> Result<(), StorageError> {
        let bytes = self.db.snapshot_bytes();
        write_atomic(&self.snapshot_path, &bytes)?;
        if ssr_fault::evaluate("live.compact").is_some() {
            return Err(ssr_fault::injected_io_error("live.compact").into());
        }
        self.wal.reset(WalBinding::of(&bytes))?;
        self.pending_appends = 0;
        self.pending_removes = 0;
        self.publish_pending_gauge();
        Ok(())
    }

    /// Mirrors [`Self::pending_ops`] into the global `ssr_wal_pending_ops`
    /// gauge after every mutation and compaction.
    fn publish_pending_gauge(&self) {
        ssr_obs::global()
            .gauge(
                "ssr_wal_pending_ops",
                "Logged operations not yet folded into the snapshot.",
            )
            .set(self.pending_ops() as i64);
    }

    /// The in-memory database (queries go through this reference).
    pub fn database(&self) -> &SubsequenceDatabase<E, D> {
        &self.db
    }

    /// Consumes the pair, returning the in-memory database.
    pub fn into_database(self) -> SubsequenceDatabase<E, D> {
        self.db
    }

    /// Path of the snapshot file.
    pub fn snapshot_path(&self) -> &Path {
        &self.snapshot_path
    }

    /// Path of the WAL sibling.
    pub fn wal_path(&self) -> &Path {
        &self.wal_path
    }

    /// Number of logged operations not yet folded into the snapshot.
    pub fn pending_ops(&self) -> usize {
        self.pending_appends + self.pending_removes
    }

    /// Pending appends not yet folded into the snapshot.
    pub fn pending_appends(&self) -> usize {
        self.pending_appends
    }

    /// Pending removals not yet folded into the snapshot.
    pub fn pending_removes(&self) -> usize {
        self.pending_removes
    }

    /// Current WAL length in bytes.
    pub fn wal_len_bytes(&self) -> u64 {
        self.wal.len_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FrameworkConfig;
    use ssr_distance::Levenshtein;
    use ssr_sequence::Symbol;

    fn seq(text: &str) -> Sequence<Symbol> {
        Sequence::new(text.chars().map(Symbol::from_char).collect())
    }

    fn temp_snapshot(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ssr-live-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.ssr", std::process::id()))
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(wal_path_for(path));
    }

    fn base_db() -> SubsequenceDatabase<Symbol, Levenshtein> {
        SubsequenceDatabase::builder(
            FrameworkConfig::new(8).with_max_shift(1),
            Levenshtein::new(),
        )
        .add_sequence(seq("ACDEFGHIKLMNPQRSTVWY"))
        .build()
        .unwrap()
    }

    #[test]
    fn wal_op_codec_roundtrips() {
        let ops = [
            WalOp::Append {
                label: Some("s1".into()),
                elements: seq("ACGT").elements().to_vec(),
            },
            WalOp::Append {
                label: None,
                elements: Vec::new(),
            },
            WalOp::<Symbol>::Remove { sequence: 3 },
        ];
        for op in &ops {
            let payload = op.to_payload();
            assert_eq!(&WalOp::<Symbol>::from_payload(&payload).unwrap(), op);
        }
        let (appends, removes) =
            count_op_kinds(&ops.iter().map(WalOp::to_payload).collect::<Vec<_>>()).unwrap();
        assert_eq!((appends, removes), (2, 1));
        assert!(WalOp::<Symbol>::from_payload(&[9]).is_err());
        assert!(count_op_kinds(&[vec![9]]).is_err());
    }

    #[test]
    fn mutations_survive_reopen_and_compaction() {
        let path = temp_snapshot("lifecycle");
        cleanup(&path);
        let mut live = LiveDatabase::create(&path, base_db()).unwrap();
        let mut tail = seq("ACDEFGHI");
        tail.set_label("tail");
        live.append_sequence(tail).unwrap();
        assert!(live.remove_sequence(SequenceId(0)).unwrap());
        assert!(!live.remove_sequence(SequenceId(0)).unwrap());
        assert_eq!(live.pending_ops(), 2);
        let reference_scan = live.database().matching_segments(&seq("ACDEFGHI"), 1.0);
        drop(live);

        // Reopen: replay reaches the same state.
        let live = LiveDatabase::<Symbol, _>::open(&path, Levenshtein::new()).unwrap();
        assert_eq!(live.pending_appends(), 1);
        assert_eq!(live.pending_removes(), 1);
        assert_eq!(live.database().live_sequence_count(), 1);
        assert_eq!(
            live.database().matching_segments(&seq("ACDEFGHI"), 1.0),
            reference_scan
        );

        // Compact: WAL folds into the snapshot; a reopen replays nothing.
        let mut live = live;
        live.compact().unwrap();
        assert_eq!(live.pending_ops(), 0);
        drop(live);
        let live = LiveDatabase::<Symbol, _>::open(&path, Levenshtein::new()).unwrap();
        assert_eq!(live.pending_ops(), 0);
        assert_eq!(live.database().live_sequence_count(), 1);
        assert_eq!(
            live.database().matching_segments(&seq("ACDEFGHI"), 1.0),
            reference_scan
        );
        cleanup(&path);
    }

    #[test]
    fn interrupted_compaction_does_not_double_apply() {
        let path = temp_snapshot("interrupted");
        cleanup(&path);
        let mut live = LiveDatabase::create(&path, base_db()).unwrap();
        live.append_sequence(seq("ACDEFGHI")).unwrap();
        // Simulate a compaction crashing between its two steps: the folded
        // snapshot lands, the WAL truncation never happens.
        live.database().save_snapshot(&path).unwrap();
        drop(live);
        let live = LiveDatabase::<Symbol, _>::open(&path, Levenshtein::new()).unwrap();
        // The stale log's append is already in the snapshot; replaying it
        // would duplicate the sequence. The binding check discards it.
        assert_eq!(live.pending_ops(), 0);
        assert_eq!(live.database().sequence_count(), 2);
        cleanup(&path);
    }

    #[test]
    fn missing_wal_means_no_pending_mutations() {
        let path = temp_snapshot("nowal");
        cleanup(&path);
        base_db().save_snapshot(&path).unwrap();
        let live = LiveDatabase::<Symbol, _>::open(&path, Levenshtein::new()).unwrap();
        assert_eq!(live.pending_ops(), 0);
        assert_eq!(live.database().sequence_count(), 1);
        cleanup(&path);
    }
}
