//! The seeded chaos harness behind `bench --chaos`: runs a fixed set of
//! fault schedules — torn WAL writes, a compaction-window crash, a worker
//! panic, a dropped accept ridden out by the retrying client, and a graceful
//! drain — against real on-disk state and a real server, in-process, and
//! verifies the recovery invariants after each one:
//!
//! * **zero acked loss** — every operation that returned `Ok` survives the
//!   simulated crash;
//! * **bit-identical recovery** — the reopened database equals an
//!   uninterrupted reference byte-for-byte via `snapshot_bytes()`;
//! * **counter consistency** — `ssr_faults_injected_total` and the client's
//!   retry tally match what the schedule actually fired.
//!
//! Every schedule is deterministic in `--chaos-seed`: the `prob-P-SEED`
//! trigger hashes a per-site hit counter, so CI replays byte-identical
//! fault sequences. The harness exits through [`run_chaos`]'s report; the
//! binary turns any failed schedule into a nonzero exit.

use std::path::PathBuf;
use std::time::Duration;

use ssr_core::serve::{Client, ServeConfig, Server};
use ssr_core::wire::{QuerySpec, Request, Response, WireError};
use ssr_core::{ClientConfig, LiveDatabase, SubsequenceDatabase, WireClient};
use ssr_datagen::{generate_proteins, ProteinConfig};
use ssr_distance::Levenshtein;
use ssr_sequence::{Sequence, SequenceId, Symbol};

use crate::json::JsonValue;

/// One schedule's verdict, for the text log and the JSON artifact.
pub struct ChaosOutcome {
    /// Schedule name (stable, used by CI greps).
    pub name: &'static str,
    /// The seed this schedule derived from `--chaos-seed`.
    pub seed: u64,
    /// Operations attempted (appends, requests — schedule-specific).
    pub operations: usize,
    /// Operations the system acked.
    pub acked: usize,
    /// Faults the failpoint registry injected during the schedule.
    pub injected: u64,
    /// Client retries spent (0 for storage-only schedules).
    pub retries: u64,
    /// `None` when the invariants held; the violation otherwise.
    pub failure: Option<String>,
}

impl ChaosOutcome {
    /// JSON object for the `--out` artifact.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("name", JsonValue::String(self.name.to_string())),
            ("seed", JsonValue::Number(self.seed as f64)),
            ("operations", JsonValue::Number(self.operations as f64)),
            ("acked", JsonValue::Number(self.acked as f64)),
            ("injected", JsonValue::Number(self.injected as f64)),
            ("retries", JsonValue::Number(self.retries as f64)),
            ("ok", JsonValue::Bool(self.failure.is_none())),
            (
                "failure",
                match &self.failure {
                    Some(msg) => JsonValue::String(msg.clone()),
                    None => JsonValue::Null,
                },
            ),
        ])
    }
}

fn scratch_path(name: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssr-bench-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
    dir.join(format!("{name}-{seed}.ssr"))
}

/// A small, seeded protein database plus a pool of append candidates carved
/// from the same generator — everything downstream is deterministic in
/// `seed`.
fn seeded_fixture(
    seed: u64,
) -> (
    SubsequenceDatabase<Symbol, Levenshtein>,
    Vec<Sequence<Symbol>>,
) {
    let dataset = generate_proteins(&ProteinConfig::sized_for_windows(240, 20, seed));
    let sequences = dataset.sequences();
    let split = (sequences.len() / 3).max(1);
    let config = ssr_core::FrameworkConfig::new(16).with_max_shift(2);
    let mut builder = SubsequenceDatabase::builder(config, Levenshtein::new());
    for seq in &sequences[..split] {
        builder = builder.add_sequence(seq.clone());
    }
    let db = builder.build().expect("chaos fixture builds");
    (db, sequences[split..].to_vec())
}

fn cleanup(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(ssr_core::wal_path_for(path));
}

/// Schedule 1: probabilistic injected `wal.append` failures over a seeded
/// append workload, a torn final frame, a crash, and a reopen that must hold
/// both invariants.
fn torn_wal_schedule(seed: u64) -> ChaosOutcome {
    let name = "torn-wal-write";
    let (db, appends) = seeded_fixture(seed);
    let path = scratch_path(name, seed);
    cleanup(&path);
    let injected_before = ssr_fault::injected_total();
    let mut failure = None;
    let mut acked = 0usize;

    let mut live = LiveDatabase::create(&path, db).expect("chaos fixture creates");
    let mut reference = SubsequenceDatabase::from_snapshot_bytes(
        std::fs::read(&path).expect("snapshot readable"),
        Levenshtein::new(),
    )
    .expect("snapshot loads");

    ssr_fault::configure_str(&format!("wal.append=prob-350-{seed}:error")).expect("spec parses");
    for seq in &appends {
        if live.append_sequence(seq.clone()).is_ok() {
            reference.append_sequence(seq.clone());
            acked += 1;
        }
    }
    // Tear the final frame mid-write, then "crash".
    ssr_fault::configure_str("wal.append=nth-1:partial-7").expect("spec parses");
    if live.append_sequence(appends[0].clone()).is_ok() {
        failure = Some("the torn append must not ack".to_string());
    }
    ssr_fault::clear();
    drop(live);

    match LiveDatabase::<Symbol, _>::open(&path, Levenshtein::new()) {
        Ok(reopened) => {
            if reopened.pending_ops() != acked {
                failure.get_or_insert(format!(
                    "acked-append loss: {} replayed of {acked} acked",
                    reopened.pending_ops()
                ));
            }
            if reopened.database().snapshot_bytes() != reference.snapshot_bytes() {
                failure.get_or_insert("recovered state diverged from the reference".to_string());
            }
        }
        Err(e) => {
            failure.get_or_insert(format!("reopen failed: {e}"));
        }
    }
    let injected = ssr_fault::injected_total() - injected_before;
    let expected = (appends.len() - acked) as u64 + 1;
    if injected != expected {
        failure.get_or_insert(format!(
            "fault counter drift: {injected} injected, schedule fired {expected}"
        ));
    }
    cleanup(&path);
    ChaosOutcome {
        name,
        seed,
        operations: appends.len() + 1,
        acked,
        injected,
        retries: 0,
        failure,
    }
}

/// Schedule 2: a crash in the compaction window (snapshot renamed, WAL not
/// yet rebound). Reopen must discard the stale log, never double-apply.
fn compact_window_schedule(seed: u64) -> ChaosOutcome {
    let name = "compact-window-crash";
    let (db, appends) = seeded_fixture(seed);
    let path = scratch_path(name, seed);
    cleanup(&path);
    let injected_before = ssr_fault::injected_total();
    let mut failure = None;

    let mut live = LiveDatabase::create(&path, db).expect("chaos fixture creates");
    let mut acked = 0usize;
    for seq in appends.iter().take(4) {
        live.append_sequence(seq.clone()).expect("append acks");
        acked += 1;
    }
    let folded = live.database().snapshot_bytes();
    ssr_fault::configure_str("live.compact=nth-1:error").expect("spec parses");
    if live.compact().is_ok() {
        failure = Some("the window failpoint must fire".to_string());
    }
    ssr_fault::clear();
    drop(live); // crash with the stale WAL on disk

    match LiveDatabase::<Symbol, _>::open(&path, Levenshtein::new()) {
        Ok(reopened) => {
            if reopened.pending_ops() != 0 {
                failure.get_or_insert(format!(
                    "stale log replayed: {} pending ops after the fold",
                    reopened.pending_ops()
                ));
            }
            if reopened.database().snapshot_bytes() != folded {
                failure.get_or_insert("post-fold state diverged".to_string());
            }
        }
        Err(e) => {
            failure.get_or_insert(format!("reopen failed: {e}"));
        }
    }
    cleanup(&path);
    ChaosOutcome {
        name,
        seed,
        operations: acked + 1,
        acked,
        injected: ssr_fault::injected_total() - injected_before,
        retries: 0,
        failure,
    }
}

fn probe_request(db: &SubsequenceDatabase<Symbol, Levenshtein>) -> Request<Symbol> {
    let seq = db
        .sequence(SequenceId(0))
        .expect("the fixture stores a sequence");
    let len = seq.len().clamp(1, 24);
    Request::Query {
        spec: QuerySpec::Type1 { epsilon: 4.0 },
        queries: vec![seq.elements()[..len].to_vec()],
    }
}

/// Schedule 3: a worker panic mid-query. The connection gets a typed error,
/// the pool survives, and the panic is counted.
fn worker_panic_schedule(seed: u64) -> ChaosOutcome {
    let name = "worker-panic";
    let (db, _) = seeded_fixture(seed);
    let request = probe_request(&db);
    let injected_before = ssr_fault::injected_total();
    let mut failure = None;

    let server = Server::bind(
        db,
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .expect("chaos server binds");
    let mut client = Client::<Symbol>::connect(server.local_addr()).expect("connect");

    ssr_fault::configure_str("serve.worker=nth-1:error").expect("spec parses");
    match client.request(&request) {
        Ok(Response::Error(WireError::Internal(_))) => {}
        other => {
            failure = Some(format!(
                "expected Internal for the panicked job, got {other:?}"
            ));
        }
    }
    ssr_fault::clear();
    match client.request(&request) {
        Ok(Response::Outcomes(_)) => {}
        other => {
            failure.get_or_insert(format!("pool did not survive the panic: {other:?}"));
        }
    }
    server.shutdown();
    ChaosOutcome {
        name,
        seed,
        operations: 2,
        acked: 1,
        injected: ssr_fault::injected_total() - injected_before,
        retries: 0,
        failure,
    }
}

/// Schedule 4: the server drops the client's first connection at accept; the
/// retrying client must ride it out, deterministically in its jitter seed.
fn accept_fault_schedule(seed: u64) -> ChaosOutcome {
    let name = "accept-fault-retry";
    let (db, _) = seeded_fixture(seed);
    let injected_before = ssr_fault::injected_total();
    let mut failure = None;

    let server =
        Server::bind(db, "127.0.0.1:0", ServeConfig::default()).expect("chaos server binds");
    let mut client = WireClient::<Symbol>::new(
        server.local_addr(),
        ClientConfig {
            read_timeout: Duration::from_millis(500),
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(40),
            jitter_seed: seed,
            ..ClientConfig::default()
        },
    )
    .expect("client builds");

    ssr_fault::configure_str("serve.accept=nth-1:error").expect("spec parses");
    match client.request(&Request::Ping) {
        Ok(Response::Pong) => {}
        other => {
            failure = Some(format!("retries did not recover the ping: {other:?}"));
        }
    }
    ssr_fault::clear();
    let retries = client.retries();
    if retries == 0 {
        failure.get_or_insert("the dropped accept cost no retry".to_string());
    }
    server.shutdown();
    ChaosOutcome {
        name,
        seed,
        operations: 1,
        acked: 1,
        injected: ssr_fault::injected_total() - injected_before,
        retries,
        failure,
    }
}

/// Schedule 5: graceful drain — in-flight probes keep answering, new query
/// batches are refused typed, and every server thread exits.
fn drain_schedule(seed: u64) -> ChaosOutcome {
    let name = "graceful-drain";
    let (db, _) = seeded_fixture(seed);
    let request = probe_request(&db);
    let mut failure = None;

    let server = Server::bind(db, "127.0.0.1:0", ServeConfig::default()).expect("binds");
    let addr = server.local_addr();
    let mut surviving = Client::<Symbol>::connect(addr).expect("connect");
    match surviving.request(&request) {
        Ok(Response::Outcomes(_)) => {}
        other => failure = Some(format!("pre-drain query failed: {other:?}")),
    }

    let mut trigger = WireClient::<Symbol>::connect(addr).expect("trigger client");
    match trigger.request(&Request::Shutdown) {
        Ok(Response::ShuttingDown) => {}
        other => {
            failure.get_or_insert(format!("shutdown not acked: {other:?}"));
        }
    }
    // The ack precedes the drain flag; poll until the refusal is typed.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut acked = 0usize;
    loop {
        match surviving.request(&request) {
            Ok(Response::Error(WireError::Draining)) => {
                acked += 1;
                break;
            }
            Ok(Response::Outcomes(_)) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5));
            }
            other => {
                failure.get_or_insert(format!("expected the draining refusal, got {other:?}"));
                break;
            }
        }
    }
    // wait() returning is the bounded-exit assertion; the CI job's timeout
    // is the backstop if the drain wedges.
    server.wait();
    ChaosOutcome {
        name,
        seed,
        operations: 1,
        acked,
        injected: 0,
        retries: trigger.retries(),
        failure,
    }
}

/// Runs every schedule under seeds derived from `base_seed` and returns the
/// outcomes. Storage schedules run under three derived seeds each to cover
/// distinct fault placements; server schedules once.
pub fn run_chaos(base_seed: u64) -> Vec<ChaosOutcome> {
    ssr_fault::clear();
    let mut outcomes = Vec::new();
    for offset in 0..3 {
        outcomes.push(torn_wal_schedule(base_seed.wrapping_add(offset)));
    }
    outcomes.push(compact_window_schedule(base_seed));
    outcomes.push(worker_panic_schedule(base_seed));
    outcomes.push(accept_fault_schedule(base_seed));
    outcomes.push(drain_schedule(base_seed));
    ssr_fault::clear();
    outcomes
}
