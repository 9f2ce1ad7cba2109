//! Served-vs-in-process parity: results that cross the wire must be
//! **bit-identical** — matches and work statistics — to the same queries run
//! through a local [`QueryEngine`]. Alongside parity, this file pins the
//! server's operational contracts: cache replays return the originally
//! computed outcome flagged `cached`, the scraped telemetry agrees with what
//! the client sent and timed, a saturated admission queue rejects
//! with a typed `Overloaded` (while `Ping`/`Stats` keep answering), and both
//! shutdown paths (handle and wire) drain cleanly.

use std::time::{Duration, Instant};

use ssr_core::serve::{Client, ServeConfig, Server};
use ssr_core::wire::{QuerySpec, Request, Response, WireError};
use ssr_core::{FrameworkConfig, QueryEngine, SubsequenceDatabase};
use ssr_distance::Levenshtein;
use ssr_sequence::{Sequence, Symbol};

fn sym(text: &str) -> Vec<Symbol> {
    text.chars().map(Symbol::from_char).collect()
}

const DB_TEXTS: &[&str] = &[
    "MMMMMMMMACDEFGHIKLMNPQRSTVWYMMMMMMMM",
    "ACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWY",
    "GGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGG",
    "ACACACACACACACACACACACACACACACAC",
];

const QUERY_TEXTS: &[&str] = &[
    "YYYYACDEFGHIKLMNPQRSTVWYYYYY",
    "ACACACACACACACAC",
    "QQQQQQQQQQQQQQQQQQQQ",
    "YYYYACDEFGHIKLMNPQRSTVWYYYYY", // exact duplicate of the first
];

fn build_db() -> SubsequenceDatabase<Symbol, Levenshtein> {
    let config = FrameworkConfig::new(8).with_max_shift(1);
    let mut builder = SubsequenceDatabase::builder(config, Levenshtein::new());
    for text in DB_TEXTS {
        builder = builder.add_sequence(Sequence::new(sym(text)));
    }
    builder.build().expect("test database builds")
}

fn queries() -> Vec<Sequence<Symbol>> {
    QUERY_TEXTS.iter().map(|t| Sequence::new(sym(t))).collect()
}

fn query_request(spec: QuerySpec) -> Request<Symbol> {
    Request::Query {
        spec,
        queries: QUERY_TEXTS.iter().map(|t| sym(t)).collect(),
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        replicas: 2,
        read_timeout: Some(Duration::from_secs(10)),
        ..ServeConfig::default()
    }
}

/// The value of the unlabeled series `name` in a Prometheus text exposition.
fn scraped(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no series {name} in the exposition"))
}

/// Lower edge of the bucket holding the nearest-rank 99th percentile of the
/// scraped histogram `family`: every observation binned there was strictly
/// greater, so this is a lower bound on the server's true p99.
fn scraped_p99_lower_edge(exposition: &str, family: &str) -> u64 {
    let rank = (0.99 * scraped(exposition, &format!("{family}_count")) as f64).ceil() as u64;
    let prefix = format!("{family}_bucket{{le=\"");
    let mut lower_edge = 0;
    for bucket in exposition.lines().filter_map(|l| l.strip_prefix(&prefix)) {
        let (le, cumulative) = bucket.split_once("\"} ").expect("bucket line");
        if cumulative.parse::<u64>().expect("cumulative count") >= rank {
            return lower_edge;
        }
        lower_edge = le.parse().expect("a finite edge below the p99 bucket");
    }
    panic!("histogram {family} never reaches its own count");
}

#[test]
fn served_outcomes_are_bit_identical_to_in_process_outcomes() {
    let db = build_db();
    let engine = QueryEngine::new(&db);
    let specs = [
        QuerySpec::Type1 { epsilon: 2.0 },
        QuerySpec::Type2 { epsilon: 3.0 },
        QuerySpec::Type3 {
            epsilon_max: 4.0,
            epsilon_increment: 1.0,
        },
    ];

    let server = Server::bind(build_db(), "127.0.0.1:0", serve_config()).expect("bind");
    let mut client = Client::<Symbol>::connect(server.local_addr()).expect("connect");

    let mut client_us = Vec::new();
    for spec in specs {
        // The in-process reference, through the same engine the server uses.
        let expected: Vec<(Vec<ssr_core::SubsequenceMatch>, ssr_core::QueryStats)> = match spec {
            QuerySpec::Type1 { epsilon } => engine
                .batch_type1(&queries(), epsilon)
                .outcomes
                .into_iter()
                .map(|o| (o.result, o.stats))
                .collect(),
            QuerySpec::Type2 { epsilon } => engine
                .batch_type2(&queries(), epsilon)
                .outcomes
                .into_iter()
                .map(|o| (o.result.into_iter().collect(), o.stats))
                .collect(),
            QuerySpec::Type3 {
                epsilon_max,
                epsilon_increment,
            } => engine
                .batch_type3(&queries(), epsilon_max, epsilon_increment)
                .outcomes
                .into_iter()
                .map(|o| (o.result.into_iter().collect(), o.stats))
                .collect(),
        };

        // Rounds after the first are answered by the result cache; a replay
        // must be the same bits, so every round is held to the reference.
        for round in 0..5 {
            let sent = Instant::now();
            let response = client.request(&query_request(spec)).expect("request");
            client_us.push(sent.elapsed().as_micros() as u64);
            let Response::Outcomes(served) = response else {
                panic!("expected outcomes, got {response:?}");
            };
            assert_eq!(served.len(), expected.len());
            for (i, (wire, (matches, stats))) in served.iter().zip(&expected).enumerate() {
                assert_eq!(
                    &wire.matches, matches,
                    "spec {spec:?} round {round} query {i}: matches"
                );
                assert_eq!(
                    &wire.stats, stats,
                    "spec {spec:?} round {round} query {i}: stats"
                );
            }
        }
    }

    // The server's own telemetry against what the client sent and timed: a
    // drift in the answered-query counter means a request was double-counted
    // or silently dropped, and the server-side p99 (admission queue included)
    // can never exceed the client-side one, which also pays the round trip.
    let Response::Metrics(exposition) = client.request(&Request::Metrics).expect("metrics") else {
        panic!("expected the exposition");
    };
    assert_eq!(
        scraped(&exposition, "ssr_queries_answered_total"),
        (client_us.len() * QUERY_TEXTS.len()) as u64
    );
    client_us.sort_unstable();
    let client_p99 = client_us[(0.99 * client_us.len() as f64).ceil() as usize - 1];
    let server_p99 = scraped_p99_lower_edge(&exposition, "ssr_request_duration_us");
    assert!(
        server_p99 <= client_p99,
        "server-side p99 > {server_p99} us exceeds the client-side p99 of {client_p99} us"
    );
    server.shutdown();
}

#[test]
fn cache_replays_the_original_outcome_bit_identically() {
    let server = Server::bind(build_db(), "127.0.0.1:0", serve_config()).expect("bind");
    let mut client = Client::<Symbol>::connect(server.local_addr()).expect("connect");
    let request = query_request(QuerySpec::Type3 {
        epsilon_max: 4.0,
        epsilon_increment: 1.0,
    });

    let Response::Outcomes(first) = client.request(&request).expect("first") else {
        panic!("expected outcomes");
    };
    // The duplicate query inside the batch hits the entry its first
    // occurrence populated only on the *next* request; within one batch the
    // engine's own dedup already collapses it.
    let Response::Outcomes(second) = client.request(&request).expect("second") else {
        panic!("expected outcomes");
    };
    assert!(
        second.iter().all(|o| o.cached),
        "second round must be answered by the result cache"
    );
    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_eq!(a.matches, b.matches, "query {i}: cached matches diverge");
        assert_eq!(a.stats, b.stats, "query {i}: cached stats diverge");
    }

    let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") else {
        panic!("expected stats");
    };
    assert_eq!(stats.cache_hits, QUERY_TEXTS.len() as u64);
    assert_eq!(stats.cache_misses, QUERY_TEXTS.len() as u64);
    // The engine deduplicated the in-batch duplicate, but the cache stores
    // per distinct key, so three entries back the four queries.
    assert_eq!(stats.cache_entries, 3);
    assert!(stats.queries_executed >= 3);
    assert_eq!(stats.replicas, 2);
    server.shutdown();
}

#[test]
fn saturated_queue_rejects_with_typed_overload_and_keeps_answering_pings() {
    // `queue_depth: 0` refuses every admission deterministically — no racing
    // against worker drain speed.
    let config = ServeConfig {
        queue_depth: 0,
        ..serve_config()
    };
    let server = Server::bind(build_db(), "127.0.0.1:0", config).expect("bind");
    let mut client = Client::<Symbol>::connect(server.local_addr()).expect("connect");

    let request = query_request(QuerySpec::Type1 { epsilon: 2.0 });
    for round in 0..3 {
        match client
            .request(&request)
            .expect("request survives rejection")
        {
            Response::Error(WireError::Overloaded) => {}
            other => panic!("round {round}: expected overload, got {other:?}"),
        }
    }
    // Control traffic bypasses admission: the overloaded server still pings
    // and still reports stats, including the rejections it just issued.
    assert!(matches!(
        client.request(&Request::Ping).expect("ping"),
        Response::Pong
    ));
    let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") else {
        panic!("expected stats");
    };
    assert_eq!(stats.rejected_overload, 3);
    assert_eq!(stats.queries_executed, 0);
    server.shutdown();
}

#[test]
fn wire_shutdown_drains_the_server() {
    let server = Server::bind(build_db(), "127.0.0.1:0", serve_config()).expect("bind");
    let addr = server.local_addr();
    let mut client = Client::<Symbol>::connect(addr).expect("connect");
    assert!(matches!(
        client.request(&Request::Shutdown).expect("shutdown ack"),
        Response::ShuttingDown
    ));
    // The handle join must complete promptly — the wire request already
    // closed the queue and woke the accept loop.
    server.shutdown();
    // New connections are refused or die unanswered once drained.
    if let Ok(mut late) = Client::<Symbol>::connect(addr) {
        assert!(late.request(&Request::Ping).is_err());
    }
}

#[test]
fn replicas_share_the_arena_and_answer_identically() {
    let db = build_db();
    let replica = db.clone_replica();
    // Same allocation, not equal bytes: the replica borrows the arena.
    assert!(std::ptr::eq(
        db.windows().arena() as *const _,
        replica.windows().arena() as *const _
    ));
    let query = Sequence::new(sym(QUERY_TEXTS[0]));
    let a = db.query_type2(&query, 3.0);
    let b = replica.query_type2(&query, 3.0);
    assert_eq!(a.result, b.result);
    assert_eq!(a.stats, b.stats);
    // Counters are private per replica: the replica's queries never moved
    // the original's query-time counters.
    let before = db.query_distance_counter().get();
    let _ = replica.query_type2(&query, 3.0);
    assert_eq!(db.query_distance_counter().get(), before);
}
