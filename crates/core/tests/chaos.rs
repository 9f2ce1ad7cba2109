//! Seeded chaos schedules: deterministic fault injection against the live
//! database and the query server, asserting the two invariants that matter —
//! **zero acked-append loss** (every operation that returned `Ok` survives a
//! crash) and **bit-identical recovery** (the reopened state equals an
//! uninterrupted reference, byte for byte through `snapshot_bytes()`).
//!
//! Each schedule is a pure function of its seed: the `prob-P-SEED` trigger
//! hashes the per-site hit counter, so a re-run fires the same faults at the
//! same operations. The failpoint registry is process-global — every test
//! here owns it through an [`ssr_fault::FailpointGuard`], which both
//! serializes the armed section and disarms on drop, and the armed tests
//! live here (not in the lib's unit tests) so they cannot fire inside an
//! unrelated threaded test.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use ssr_core::serve::{Client, ServeConfig, Server};
use ssr_core::wire::{QuerySpec, Request, Response, WireError};
use ssr_core::{ClientConfig, FrameworkConfig, LiveDatabase, SubsequenceDatabase, WireClient};
use ssr_datagen::{generate_proteins, ProteinConfig};
use ssr_distance::Levenshtein;
use ssr_fault::FailpointGuard;
use ssr_sequence::{Sequence, Symbol};

fn sym(text: &str) -> Vec<Symbol> {
    text.chars().map(Symbol::from_char).collect()
}

fn seq(text: &str) -> Sequence<Symbol> {
    Sequence::new(sym(text))
}

fn scratch_path(stem: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("ssr-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is creatable");
    dir.join(format!(
        "{stem}-{}.ssr",
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

fn initial_database() -> SubsequenceDatabase<Symbol, Levenshtein> {
    let config = FrameworkConfig::new(8).with_max_shift(1);
    SubsequenceDatabase::builder(config, Levenshtein::new())
        .add_sequence(seq("ACGTACGTACGTACGTACGT"))
        .add_sequence(seq("TTTTCCCCGGGGAAAATTTT"))
        .build()
        .expect("seed dataset builds")
}

/// The appends a schedule attempts, in order. Long enough that a permille
/// probability in the hundreds reliably fires at least once per seed.
const APPEND_SCRIPT: &[&str] = &[
    "GATTACAGATTACAGATTACA",
    "CGCGCGCGATATATATCGCG",
    "AAAACCCCGGGGTTTTAAAA",
    "TTGGTTGGTTGGTTGG",
    "ACACACACACACACACACAC",
    "GGGGAAAAGGGGAAAAGGGG",
    "CATCATCATCATCATCAT",
    "TGCATGCATGCATGCATGCA",
    "AAGGTTCCAAGGTTCCAAGG",
    "CCCCCCCCGGGGGGGGTTTT",
];

/// A database and the appends a torn-WAL schedule attempts on it, in order.
type Fixture = (
    SubsequenceDatabase<Symbol, Levenshtein>,
    Vec<Sequence<Symbol>>,
);

fn scripted_fixture() -> Fixture {
    (
        initial_database(),
        APPEND_SCRIPT.iter().map(|text| seq(text)).collect(),
    )
}

/// A seeded 240-window generated-protein dataset: the first third of its
/// sequences is the database, the rest are the appends.
fn generated_fixture(seed: u64) -> Fixture {
    let dataset = generate_proteins(&ProteinConfig::sized_for_windows(240, 20, seed));
    let sequences = dataset.sequences();
    let split = (sequences.len() / 3).max(1);
    let config = FrameworkConfig::new(16).with_max_shift(2);
    let mut builder = SubsequenceDatabase::builder(config, Levenshtein::new());
    for sequence in &sequences[..split] {
        builder = builder.add_sequence(sequence.clone());
    }
    let db = builder.build().expect("generated fixture builds");
    (db, sequences[split..].to_vec())
}

/// Runs the fixture's appends with `wal.append` armed to fail
/// probabilistically under `seed`, crashes (drops the writer), reopens, and
/// demands the recovered state equal a reference holding exactly the acked
/// appends. Returns (acked, injected) so the caller can check the schedule
/// shape.
fn run_torn_wal_schedule(
    guard: &FailpointGuard,
    (initial, appends): Fixture,
    seed: u64,
    permille: u32,
) -> (usize, u64) {
    let path = scratch_path(&format!("torn-wal-{seed}"));
    let mut live = LiveDatabase::create(&path, initial).expect("create succeeds");
    let initial_snapshot = std::fs::read(&path).expect("initial snapshot readable");
    let injected_before = ssr_fault::injected_total();

    // The reference mirrors the open path: load the initial snapshot, then
    // apply in memory exactly the operations the WAL acked.
    let mut reference =
        SubsequenceDatabase::from_snapshot_bytes(initial_snapshot, Levenshtein::new())
            .expect("initial snapshot loads");

    guard
        .rearm(&format!("wal.append=prob-{permille}-{seed}:error"))
        .unwrap();
    let mut acked = 0usize;
    for sequence in &appends {
        match live.append_sequence(sequence.clone()) {
            Ok(_) => {
                reference.append_sequence(sequence.clone());
                acked += 1;
            }
            Err(err) => assert!(
                err.to_string().contains("failpoint 'wal.append'"),
                "only injected failures are expected: {err}"
            ),
        }
    }
    // Finale: tear the very last append mid-frame. The torn tail must be
    // dropped on recovery without touching the acked records before it.
    guard.rearm("wal.append=nth-1:partial-7").unwrap();
    let torn = live.append_sequence(seq("TORNTORNTORNTORN"));
    guard.disarm();
    assert!(torn.is_err(), "the torn append must not be acked");

    let wal_path = live.wal_path().to_path_buf();
    drop(live); // the crash

    let reopened =
        LiveDatabase::<Symbol, _>::open(&path, Levenshtein::new()).expect("reopen succeeds");
    assert_eq!(reopened.pending_ops(), acked, "zero acked-append loss");
    assert_eq!(
        reopened.database().snapshot_bytes(),
        reference.snapshot_bytes(),
        "recovered state must be bit-identical to the acked reference"
    );

    let injected = ssr_fault::injected_total() - injected_before;
    assert_eq!(
        injected as usize,
        (appends.len() - acked) + 1,
        "every non-acked append (plus the torn finale) was an injection"
    );
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal_path);
    (acked, injected)
}

#[test]
fn torn_wal_schedules_lose_no_acked_append_under_any_seed() {
    let guard = FailpointGuard::disarmed();
    // Distinct seeds produce distinct-but-deterministic schedules; each must
    // fire at least once and ack at least once for the assertion to bite.
    let mut shapes = Vec::new();
    for seed in [7, 23, 5151] {
        let (acked, injected) = run_torn_wal_schedule(&guard, scripted_fixture(), seed, 350);
        assert!(acked > 0, "seed {seed}: schedule acked nothing");
        assert!(injected > 1, "seed {seed}: schedule never fired mid-script");
        shapes.push((acked, injected));
    }
    // Determinism: replaying a seed replays its exact schedule.
    let (acked, injected) = run_torn_wal_schedule(&guard, scripted_fixture(), 7, 350);
    assert_eq!((acked, injected), shapes[0], "seed 7 must replay exactly");
    // The same schedule over generated data, three derived seeds per base.
    for seed in [42, 1337].into_iter().flat_map(|base| base..base + 3) {
        let (acked, injected) = run_torn_wal_schedule(&guard, generated_fixture(seed), seed, 350);
        assert!(acked > 0, "seed {seed}: schedule acked nothing");
        assert!(injected > 1, "seed {seed}: schedule never fired mid-script");
    }
}

#[test]
fn compact_window_crash_never_double_applies() {
    let guard = FailpointGuard::disarmed();
    let path = scratch_path("compact-window");
    let mut live = LiveDatabase::create(&path, initial_database()).expect("create succeeds");
    for text in &APPEND_SCRIPT[..4] {
        live.append_sequence(seq(text)).expect("append acks");
    }
    let folded = live.database().snapshot_bytes();

    // Crash in the compaction window: the new snapshot is durably renamed
    // into place, the WAL still carries the (now stale) log bound to the
    // old snapshot.
    guard.rearm("live.compact=nth-1:error").unwrap();
    let err = live.compact().expect_err("the window failpoint fires");
    guard.disarm();
    assert!(err.to_string().contains("failpoint 'live.compact'"));
    let wal_path = live.wal_path().to_path_buf();
    drop(live); // the crash

    let reopened =
        LiveDatabase::<Symbol, _>::open(&path, Levenshtein::new()).expect("reopen succeeds");
    assert_eq!(
        reopened.pending_ops(),
        0,
        "the stale log must be discarded, not double-applied"
    );
    assert_eq!(reopened.database().snapshot_bytes(), folded);

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal_path);
}

/// Kill-and-reopen torture: across several seeds, interleave appends and
/// injected `wal.reset` / `wal.append` failures with compactions, crash
/// after each stretch and reopen, demanding parity every time.
#[test]
fn kill_and_reopen_cycles_preserve_parity_across_seeds() {
    let guard = FailpointGuard::disarmed();
    for seed in [101u64, 202, 303] {
        let path = scratch_path(&format!("kill-reopen-{seed}"));
        let mut live = LiveDatabase::create(&path, initial_database()).expect("create succeeds");
        let mut reference = SubsequenceDatabase::from_snapshot_bytes(
            std::fs::read(&path).expect("initial snapshot readable"),
            Levenshtein::new(),
        )
        .expect("initial snapshot loads");
        let mut wal_path = live.wal_path().to_path_buf();

        for (cycle, chunk) in APPEND_SCRIPT.chunks(3).enumerate() {
            guard
                .rearm(&format!(
                    "wal.append=prob-250-{}:error;wal.reset=prob-500-{}:error",
                    seed + cycle as u64,
                    seed ^ cycle as u64
                ))
                .unwrap();
            for text in chunk {
                if live.append_sequence(seq(text)).is_ok() {
                    reference.append_sequence(seq(text));
                }
            }
            // A compaction may fail at the reset (after the snapshot landed)
            // — either way the state must survive the kill below. No append
            // follows a failed compact on the same writer: its log is stale.
            let _ = live.compact();
            guard.disarm();
            wal_path = live.wal_path().to_path_buf();
            drop(live); // kill
            live = LiveDatabase::<Symbol, _>::open(&path, Levenshtein::new())
                .unwrap_or_else(|e| panic!("seed {seed} cycle {cycle}: reopen failed: {e}"));
            assert_eq!(
                live.database().snapshot_bytes(),
                reference.snapshot_bytes(),
                "seed {seed} cycle {cycle}: reopen diverged"
            );
        }
        drop(live);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&wal_path);
    }
}

fn build_server_db() -> SubsequenceDatabase<Symbol, Levenshtein> {
    let config = FrameworkConfig::new(8).with_max_shift(1);
    SubsequenceDatabase::builder(config, Levenshtein::new())
        .add_sequence(seq("MMMMMMMMACDEFGHIKLMNPQRSTVWYMMMMMMMM"))
        .add_sequence(seq("ACACACACACACACACACACACACACACACAC"))
        .build()
        .expect("server database builds")
}

fn query_request() -> Request<Symbol> {
    Request::Query {
        spec: QuerySpec::Type1 { epsilon: 2.0 },
        queries: vec![sym("ACACACACACACACAC")],
    }
}

fn metric_value(exposition: &str, family: &str) -> Option<u64> {
    exposition
        .lines()
        .find(|l| l.starts_with(family) && !l.starts_with('#'))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

#[test]
fn worker_panic_is_isolated_and_counted() {
    let guard = FailpointGuard::disarmed();
    let server = Server::bind(
        build_server_db(),
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let mut client = Client::<Symbol>::connect(server.local_addr()).expect("connect");

    // First query panics inside the (only) worker; the connection gets a
    // typed Internal, not a hang, and the worker survives to serve more.
    guard.rearm("serve.worker=nth-1:error").unwrap();
    let first = client.request(&query_request()).expect("connection lives");
    guard.disarm();
    assert!(
        matches!(first, Response::Error(WireError::Internal(_))),
        "a panicked job answers Internal, got {first:?}"
    );

    // Same worker, same connection: the pool did not shrink.
    match client.request(&query_request()).expect("retry works") {
        Response::Outcomes(outcomes) => assert_eq!(outcomes.len(), 1),
        other => panic!("expected outcomes after the panic, got {other:?}"),
    }
    match client.request(&Request::Metrics).expect("metrics answer") {
        Response::Metrics(text) => {
            assert_eq!(
                metric_value(&text, "ssr_worker_panics_total"),
                Some(1),
                "the panic must be counted"
            );
        }
        other => panic!("expected metrics, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn stalled_peer_is_timed_out_and_counted_without_pinning_the_server() {
    let _guard = FailpointGuard::disarmed();
    let server = Server::bind(
        build_server_db(),
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            read_timeout: Some(Duration::from_millis(150)),
            ..ServeConfig::default()
        },
    )
    .expect("bind");

    // A slowloris: open a connection, write half a frame header, stall.
    let mut stall = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    {
        use std::io::Write;
        stall.write_all(&[0x10, 0x00]).expect("partial header");
        stall.flush().expect("flush");
    }

    // A healthy client keeps being served while the stalled one waits out
    // its timeout.
    let mut healthy = Client::<Symbol>::connect(server.local_addr()).expect("connect");
    assert!(matches!(
        healthy.request(&Request::Ping).expect("ping"),
        Response::Pong
    ));

    // The stalled connection is answered a typed refusal, then closed.
    stall
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("deadline");
    let refusal = ssr_storage::read_frame(&mut stall, 1 << 20)
        .expect("typed refusal frame")
        .expect("server answers before closing");
    match Response::decode_payload(&refusal).expect("refusal decodes") {
        Response::Error(WireError::Malformed(msg)) => {
            assert!(msg.contains("timed out"), "refusal names the cause: {msg}")
        }
        other => panic!("expected a malformed/timeout refusal, got {other:?}"),
    }

    // The healthy connection idled past the same timeout while the stall
    // played out, so it was reaped too — reconnect for the scrape. The
    // counter holds at least the stalled peer (the idle one may add more).
    let mut fresh = Client::<Symbol>::connect(server.local_addr()).expect("reconnect");
    match fresh.request(&Request::Metrics).expect("metrics answer") {
        Response::Metrics(text) => {
            let timeouts =
                metric_value(&text, "ssr_connection_timeouts_total").expect("family present");
            assert!(timeouts >= 1, "the stall must be counted, saw {timeouts}");
        }
        other => panic!("expected metrics, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn drain_finishes_probes_refuses_queries_and_exits() {
    let _guard = FailpointGuard::disarmed();
    let server = Server::bind(
        build_server_db(),
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // Connection A outlives the drain; connection B triggers it.
    let mut surviving = Client::<Symbol>::connect(addr).expect("connect A");
    assert!(matches!(
        surviving
            .request(&query_request())
            .expect("pre-drain query"),
        Response::Outcomes(_)
    ));

    let mut trigger = WireClient::<Symbol>::new(addr, ClientConfig::default()).expect("client B");
    match trigger.request(&Request::Shutdown) {
        Ok(Response::ShuttingDown) => {}
        other => panic!("expected a shutdown ack, got {other:?}"),
    }

    // The ack is written before the drain flag flips, so poll the gauge
    // until the drain is observable; probes must keep answering throughout.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        assert!(matches!(
            surviving
                .request(&Request::Ping)
                .expect("probe during drain"),
            Response::Pong
        ));
        match surviving
            .request(&Request::Metrics)
            .expect("metrics answer")
        {
            Response::Metrics(text) => {
                if metric_value(&text, "ssr_draining") == Some(1) {
                    break;
                }
            }
            other => panic!("expected metrics, got {other:?}"),
        }
        assert!(
            std::time::Instant::now() < deadline,
            "drain gauge never rose"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // With the drain observable, a new query batch is refused, typed.
    match surviving.request(&query_request()).expect("typed refusal") {
        Response::Error(WireError::Draining) => {}
        other => panic!("expected the draining refusal, got {other:?}"),
    }

    // The drain completes: every server thread exits (the test harness
    // itself is the hang bound — wait() returning is the assertion).
    server.wait();
}

#[test]
fn retrying_client_rides_out_accept_faults_deterministically() {
    let guard = FailpointGuard::disarmed();
    let server =
        Server::bind(build_server_db(), "127.0.0.1:0", ServeConfig::default()).expect("bind");

    // The server drops the client's first connection at accept; the retry
    // budget (4 attempts) rides it out with room to spare.
    let mut client = WireClient::<Symbol>::new(
        server.local_addr(),
        ClientConfig {
            read_timeout: Duration::from_millis(300),
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(20),
            jitter_seed: 42,
            ..ClientConfig::default()
        },
    )
    .expect("client");
    guard.rearm("serve.accept=nth-1:error").unwrap();
    let response = client.request(&Request::Ping).expect("retries succeed");
    guard.disarm();
    assert!(matches!(response, Response::Pong));
    assert!(
        client.retries() >= 1,
        "the dropped accept must have cost at least one retry"
    );
    server.shutdown();
}
