//! [`ClusterClient`] contracts against real `ssr serve` nodes: failover
//! covers a dead node, the breaker quarantines and readmits it, hedges fire
//! exactly when asked and never produce a second response, the per-op
//! deadline caps a failover chain, a fully-dark cluster fails typed, and a
//! seeded node-kill schedule replays to the same counters (the last section).
//!
//! Node outages come from two sources: genuinely dead addresses (a bound
//! listener dropped before the test, so connections are refused instantly)
//! and [`ssr_fault::kill_node`] (the server holds its port but drops every
//! connection), which is what lets a "crashed" node come back without a
//! rebind race. Node names are unique per test — the kill registry is
//! process-global and these tests run in parallel.

use std::net::TcpListener;
use std::time::Duration;

use ssr_cluster::{
    BreakerConfig, BreakerState, ClusterClient, ClusterConfig, ClusterCounters, ClusterError,
};
use ssr_core::client::ClientConfig;
use ssr_core::serve::{ServeConfig, Server};
use ssr_core::wire::{QuerySpec, Request, Response};
use ssr_core::{FrameworkConfig, QueryEngine, QueryStats, SubsequenceDatabase, SubsequenceMatch};
use ssr_datagen::{generate_proteins, ProteinConfig};
use ssr_distance::Levenshtein;
use ssr_sequence::{Sequence, Symbol};

fn sym(text: &str) -> Vec<Symbol> {
    text.chars().map(Symbol::from_char).collect()
}

const DB_TEXTS: &[&str] = &[
    "MMMMMMMMACDEFGHIKLMNPQRSTVWYMMMMMMMM",
    "ACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWY",
    "ACACACACACACACACACACACACACACACAC",
];

fn build_db() -> SubsequenceDatabase<Symbol, Levenshtein> {
    let config = FrameworkConfig::new(8).with_max_shift(1);
    let mut builder = SubsequenceDatabase::builder(config, Levenshtein::new());
    for text in DB_TEXTS {
        builder = builder.add_sequence(Sequence::new(sym(text)));
    }
    builder.build().expect("test database builds")
}

fn query_request() -> Request<Symbol> {
    Request::Query {
        spec: QuerySpec::Type1 { epsilon: 2.0 },
        queries: vec![sym("YYYYACDEFGHIKLMNPQRSTVWYYYYY"), sym("ACACACACACACACAC")],
    }
}

fn node(name: Option<&str>) -> Server<Symbol, Levenshtein> {
    Server::bind(
        build_db(),
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            node_name: name.map(String::from),
            ..ServeConfig::default()
        },
    )
    .expect("node binds")
}

/// An address that refuses connections instantly: bind, record, drop.
fn dead_addr() -> String {
    let throwaway = TcpListener::bind("127.0.0.1:0").expect("bind");
    throwaway.local_addr().expect("addr").to_string()
}

/// Fast-failing cluster policy: one wire attempt per node (the cluster *is*
/// the retry), no prober, no hedging, and a quarantine far longer than any
/// test so a tripped breaker stays tripped.
fn test_config(threshold: u32, cooldown: Duration) -> ClusterConfig {
    ClusterConfig {
        client: ClientConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_millis(500),
            max_attempts: 1,
            op_deadline: None,
            ..ClientConfig::default()
        },
        breaker: BreakerConfig {
            threshold,
            cooldown,
            jitter_seed: 7,
        },
        hedge_after: None,
        route_seed: 42,
        probe_interval: None,
    }
}

#[test]
fn failover_covers_a_dead_node_until_the_breaker_quarantines_it() {
    let a = node(None);
    let b = node(None);
    let addrs = vec![
        a.local_addr().to_string(),
        dead_addr(),
        b.local_addr().to_string(),
    ];
    let cluster = ClusterClient::<Symbol>::new(addrs, test_config(1, Duration::from_secs(60)))
        .expect("cluster");

    // Every request must succeed: the dead node costs a failover the first
    // time routing picks it, then its breaker (threshold 1, quarantine far
    // beyond the test) takes it out of the candidate set for good.
    let mut answered = 0;
    for _ in 0..25 {
        match cluster
            .request(&query_request())
            .expect("idempotent queries never fail")
        {
            Response::Outcomes(outcomes) => {
                assert_eq!(outcomes.len(), 2);
                answered += 1;
            }
            other => panic!("expected outcomes, got {other:?}"),
        }
    }
    let counters = cluster.counters();
    assert_eq!(answered, 25);
    assert_eq!(counters.requests, 25);
    assert_eq!(
        counters.breaker_trips, 1,
        "the dead node tripped once and was never gambled on again"
    );
    assert_eq!(
        counters.node_failures, 1,
        "exactly one request ever reached the dead node"
    );
    assert_eq!(
        counters.failovers, 1,
        "that one request failed over and still succeeded"
    );
    let health = cluster.node_health();
    assert_eq!(health[1].state, BreakerState::Open, "dead node quarantined");
    assert_eq!(health[0].state, BreakerState::Closed);
    assert_eq!(health[2].state, BreakerState::Closed);
    a.shutdown();
    b.shutdown();
}

#[test]
fn a_killed_node_is_readmitted_through_the_half_open_probe_after_revival() {
    let server = node(Some("cluster-test-readmit"));
    let cluster = ClusterClient::<Symbol>::new(
        vec![server.local_addr().to_string()],
        test_config(1, Duration::from_millis(100)),
    )
    .expect("cluster");

    ssr_fault::kill_node("cluster-test-readmit");
    match cluster.request(&query_request()) {
        Err(ClusterError::Exhausted { attempts, .. }) => assert_eq!(attempts, 1),
        other => panic!("expected exhaustion against the killed node, got {other:?}"),
    }
    assert_eq!(cluster.counters().breaker_trips, 1);
    assert_eq!(cluster.node_health()[0].state, BreakerState::Open);

    // While quarantined, requests are refused without touching the wire.
    match cluster.request(&query_request()) {
        Err(ClusterError::NoHealthyNodes { .. }) => {}
        other => panic!("expected no-healthy-nodes while quarantined, got {other:?}"),
    }
    assert_eq!(
        cluster.counters().node_failures,
        1,
        "the quarantined node was not re-dialed"
    );

    ssr_fault::revive_node("cluster-test-readmit");
    // Past cooldown + max jitter (100 + 50ms), the next request becomes the
    // half-open probe and its success closes the breaker.
    std::thread::sleep(Duration::from_millis(200));
    assert!(matches!(
        cluster
            .request(&query_request())
            .expect("revived node answers"),
        Response::Outcomes(_)
    ));
    assert_eq!(cluster.node_health()[0].state, BreakerState::Closed);
    assert_eq!(cluster.counters().breaker_trips, 1, "no re-trip on revival");
    server.shutdown();
}

#[test]
fn the_background_prober_readmits_a_revived_node_without_user_traffic() {
    let server = node(Some("cluster-test-prober"));
    let mut config = test_config(1, Duration::from_millis(50));
    config.probe_interval = Some(Duration::from_millis(20));
    let cluster = ClusterClient::<Symbol>::new(vec![server.local_addr().to_string()], config)
        .expect("cluster");

    ssr_fault::kill_node("cluster-test-prober");
    // Either a user request or a probe trips the breaker first; both feed
    // the same state machine.
    let _ = cluster.request(&query_request());
    assert_eq!(cluster.node_health()[0].state, BreakerState::Open);

    ssr_fault::revive_node("cluster-test-prober");
    // No user traffic from here on: probes alone must walk the breaker
    // open → half-open → closed. Generous budget; the cadence is 20ms.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while cluster.node_health()[0].state != BreakerState::Closed {
        assert!(
            std::time::Instant::now() < deadline,
            "prober failed to readmit the revived node in 5s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        cluster.counters().probes > 0,
        "readmission came from probes"
    );
    assert!(matches!(
        cluster.request(&query_request()).expect("readmitted"),
        Response::Outcomes(_)
    ));
    server.shutdown();
}

#[test]
fn a_forced_hedge_fires_exactly_once_and_yields_exactly_one_response() {
    let a = node(None);
    let b = node(None);
    let cluster = ClusterClient::<Symbol>::new(
        vec![a.local_addr().to_string(), b.local_addr().to_string()],
        test_config(3, Duration::from_secs(60)),
    )
    .expect("cluster");

    // hedge_after = 0 forces the hedge on every request regardless of how
    // fast the primary answers — the determinism knob the chaos harness
    // leans on.
    let response = cluster
        .request_with_hedge(&query_request(), Some(Duration::ZERO))
        .expect("hedged request succeeds");
    assert!(matches!(response, Response::Outcomes(_)));
    cluster.quiesce(); // the losing copy must fully land before we count
    let counters = cluster.counters();
    assert_eq!(counters.hedges, 1, "exactly one hedge copy was fired");
    assert_eq!(
        counters.requests, 1,
        "exactly one response reached the caller"
    );
    assert!(
        counters.hedge_wins <= 1,
        "a win is a race; more than one is double-counting"
    );
    assert_eq!(counters.failovers, 0);
    a.shutdown();
    b.shutdown();
}

#[test]
fn the_per_op_deadline_caps_a_failover_chain() {
    let mut config = test_config(3, Duration::from_secs(60));
    config.client.op_deadline = Some(Duration::ZERO);
    let cluster = ClusterClient::<Symbol>::new(vec![dead_addr(), dead_addr(), dead_addr()], config)
        .expect("cluster");
    // A zero budget admits the first hop (the deadline is only consulted
    // before *continuing* a chain) and refuses every hop after it.
    match cluster.request(&query_request()) {
        Err(ClusterError::DeadlineExceeded { attempts, .. }) => {
            assert_eq!(attempts, 1, "the chain was cut after the first hop");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(cluster.counters().deadline_exceeded, 1);
    assert_eq!(cluster.counters().node_failures, 1);
}

#[test]
fn a_fully_dark_cluster_fails_typed_and_then_refuses_fast() {
    let cluster = ClusterClient::<Symbol>::new(
        vec![dead_addr(), dead_addr()],
        test_config(1, Duration::from_secs(60)),
    )
    .expect("cluster");
    // First request walks both nodes, trips both breakers.
    match cluster.request(&query_request()) {
        Err(ClusterError::Exhausted { attempts, .. }) => assert_eq!(attempts, 2),
        other => panic!("expected exhaustion, got {other:?}"),
    }
    assert_eq!(cluster.counters().breaker_trips, 2);
    // Second request finds no routable candidate and never dials.
    match cluster.request(&query_request()) {
        Err(ClusterError::NoHealthyNodes { .. }) => {}
        other => panic!("expected no healthy nodes, got {other:?}"),
    }
    assert_eq!(cluster.counters().node_failures, 2, "no further dialing");
}

#[test]
fn cluster_responses_are_bit_identical_to_the_in_process_engine() {
    let db = build_db();
    let engine = QueryEngine::new(&db);
    let queries = vec![
        Sequence::new(sym("YYYYACDEFGHIKLMNPQRSTVWYYYYY")),
        Sequence::new(sym("ACACACACACACACAC")),
    ];
    let expected = engine.batch_type1(&queries, 2.0);

    let a = node(None);
    let b = node(None);
    let cluster = ClusterClient::<Symbol>::new(
        vec![a.local_addr().to_string(), b.local_addr().to_string()],
        test_config(3, Duration::from_secs(60)),
    )
    .expect("cluster");
    // Whichever node routing picks, the answer is the same bits — the
    // invariant that makes failover and hedging safe at all.
    for _ in 0..6 {
        let Response::Outcomes(served) = cluster.request(&query_request()).expect("query") else {
            panic!("expected outcomes");
        };
        assert_eq!(served.len(), expected.outcomes.len());
        for (wire, local) in served.iter().zip(&expected.outcomes) {
            assert_eq!(wire.matches, local.result, "matches are bit-identical");
            assert_eq!(wire.stats, local.stats, "work stats are bit-identical");
        }
    }
    a.shutdown();
    b.shutdown();
}

#[test]
fn administrative_fanout_reaches_every_node_individually() {
    let a = node(None);
    let b = node(None);
    let dead = dead_addr();
    let cluster = ClusterClient::<Symbol>::new(
        vec![
            a.local_addr().to_string(),
            dead.clone(),
            b.local_addr().to_string(),
        ],
        test_config(1, Duration::from_secs(60)),
    )
    .expect("cluster");

    let outcomes = cluster.for_each_node(&Request::Stats);
    assert_eq!(outcomes.len(), 3, "one outcome per node, address order");
    assert!(matches!(outcomes[0].1, Ok(Response::Stats(_))));
    assert_eq!(outcomes[1].0, dead);
    assert!(outcomes[1].1.is_err(), "the dead node reports its failure");
    assert!(matches!(outcomes[2].1, Ok(Response::Stats(_))));

    // Drain fans out the same way; dead nodes fail individually without
    // blocking the live ones.
    let drains = cluster.for_each_node(&Request::Shutdown);
    assert!(matches!(drains[0].1, Ok(Response::ShuttingDown)));
    assert!(drains[1].1.is_err());
    assert!(matches!(drains[2].1, Ok(Response::ShuttingDown)));
    a.wait();
    b.wait();
}

// The seeded node-kill replay: three nodes serving one snapshot, one
// client, and a kill/revive schedule that is a pure function of the seed —
// nodes die and come back at fixed request indices, never at wall-clock
// times. The whole scripted pass runs twice against fresh clients, and:
//
// * no idempotent query is lost: failover covers every outage;
// * whatever node answers (primary, failover hop or hedge winner), matches
//   and work stats are the in-process `QueryEngine`'s, bit for bit;
// * the two passes count the same failovers, hedges and breaker trips
//   (`hedge_wins` excluded: a win is a race by definition).
//
// Determinism rests on four choices: a closed single-threaded request loop
// (in-flight counts are zero at every routing decision), breaker threshold
// 1 with a quarantine far longer than the run (a killed node trips exactly
// once, at the first request routed to it, and is never gambled on again),
// no prober (no wall-clock readmission), and a `quiesce` after every hedged
// request (the losing copy's breaker bookkeeping lands before the next
// routing decision). A last, unscripted phase checks recovery the live way:
// a probing client with a short cooldown must readmit all three nodes.
//
// Node names carry the seed, and each replay revives only its own nodes:
// the kill registry is process-global and the seeds run in parallel with
// each other and with the tests above.

/// Nodes of the replayed cluster.
const CHAOS_NODES: usize = 3;
/// Scripted requests per pass.
const CHAOS_REQUESTS: usize = 48;
/// Queries per request batch.
const CHAOS_BATCH: usize = 3;

type Answers = Vec<Vec<(Vec<SubsequenceMatch>, QueryStats)>>;

/// The kill/revive script: `(request_index, node, kill?)` events. Two
/// episodes, each killing a different node for ten requests: at most one
/// node is ever down, so three nodes always keep a healthy majority and no
/// lost query is a fair demand.
fn kill_schedule(seed: u64) -> Vec<(usize, usize, bool)> {
    let first_node = (ssr_fault::mix64(seed) % CHAOS_NODES as u64) as usize;
    let second_node = (first_node + 1 + (ssr_fault::mix64(seed ^ 1) % 2) as usize) % CHAOS_NODES;
    let first_at = 6 + (ssr_fault::mix64(seed ^ 2) % 4) as usize;
    let second_at = 26 + (ssr_fault::mix64(seed ^ 3) % 4) as usize;
    vec![
        (first_at, first_node, true),
        (first_at + 10, first_node, false),
        (second_at, second_node, true),
        (second_at + 10, second_node, false),
    ]
}

/// Whether request `r` is hedged: about one in six, seeded, and never while
/// a node is down. A hedge that meets an undiscovered dead node turns the
/// primary's failure into a hedge win instead of a failover; keeping hedges
/// to healthy stretches sends every kill discovery through a plain primary
/// send, so both counters are provably nonzero.
fn hedged(seed: u64, r: usize) -> bool {
    let mut down = [false; CHAOS_NODES];
    for (at, node, kill) in kill_schedule(seed) {
        if at <= r {
            down[node] = kill;
        }
    }
    !down.contains(&true)
        && ssr_fault::mix64(seed ^ 0x9E37_79B9_7F4A_7C15 ^ (r as u64)).is_multiple_of(6)
}

fn chaos_node_name(seed: u64, i: usize) -> String {
    format!("cluster-chaos-{seed}-node-{i}")
}

fn revive_chaos_nodes(seed: u64) {
    for i in 0..CHAOS_NODES {
        ssr_fault::revive_node(&chaos_node_name(seed, i));
    }
}

/// One request per query type, each a batch carved from the served
/// sequences themselves: in vocabulary and the same on every machine.
fn request_shapes(db: &SubsequenceDatabase<Symbol, Levenshtein>) -> Vec<Request<Symbol>> {
    let specs = [
        QuerySpec::Type1 { epsilon: 8.0 },
        QuerySpec::Type2 { epsilon: 8.0 },
        QuerySpec::Type3 {
            epsilon_max: 8.0,
            epsilon_increment: 2.0,
        },
    ];
    let dataset = db.to_dataset();
    let sequences = dataset.sequences();
    specs
        .iter()
        .enumerate()
        .map(|(shape, spec)| Request::Query {
            spec: *spec,
            queries: (0..CHAOS_BATCH)
                .map(|slot| {
                    let seq = &sequences[(shape * CHAOS_BATCH + slot) % sequences.len()];
                    let len = seq.len().clamp(1, 24);
                    let start = (seq.len() - len) / 2;
                    seq.elements()[start..start + len].to_vec()
                })
                .collect(),
        })
        .collect()
}

/// The in-process answers to each request shape.
fn reference_answers(
    db: &SubsequenceDatabase<Symbol, Levenshtein>,
    shapes: &[Request<Symbol>],
) -> Answers {
    let engine = QueryEngine::new(db);
    shapes
        .iter()
        .map(|request| {
            let Request::Query { spec, queries } = request else {
                unreachable!("request shapes are queries");
            };
            let local: Vec<Sequence<Symbol>> = queries.iter().cloned().map(Sequence::new).collect();
            match *spec {
                QuerySpec::Type1 { epsilon } => engine
                    .batch_type1(&local, epsilon)
                    .outcomes
                    .into_iter()
                    .map(|o| (o.result, o.stats))
                    .collect(),
                QuerySpec::Type2 { epsilon } => engine
                    .batch_type2(&local, epsilon)
                    .outcomes
                    .into_iter()
                    .map(|o| (o.result.into_iter().collect(), o.stats))
                    .collect(),
                QuerySpec::Type3 {
                    epsilon_max,
                    epsilon_increment,
                } => engine
                    .batch_type3(&local, epsilon_max, epsilon_increment)
                    .outcomes
                    .into_iter()
                    .map(|o| (o.result.into_iter().collect(), o.stats))
                    .collect(),
            }
        })
        .collect()
}

/// One wire attempt per node, breaker threshold 1 with an hour-long
/// quarantine, no prober, and hedging only where the schedule says so (by
/// the per-request override).
fn scripted_config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        client: ClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_attempts: 1,
            op_deadline: Some(Duration::from_secs(30)),
            ..ClientConfig::default()
        },
        breaker: BreakerConfig {
            threshold: 1,
            cooldown: Duration::from_secs(3600),
            jitter_seed: seed,
        },
        hedge_after: None,
        route_seed: seed,
        probe_interval: None,
    }
}

/// One scripted pass: a fresh client, the same servers, the same schedule.
/// Returns the client's counters.
fn scripted_pass(
    seed: u64,
    pass: usize,
    addrs: &[String],
    shapes: &[Request<Symbol>],
    expected: &Answers,
) -> ClusterCounters {
    let cluster =
        ClusterClient::<Symbol>::new(addrs.to_vec(), scripted_config(seed)).expect("cluster");
    let schedule = kill_schedule(seed);
    for r in 0..CHAOS_REQUESTS {
        for &(at, node, kill) in &schedule {
            if at == r {
                let name = chaos_node_name(seed, node);
                if kill {
                    ssr_fault::kill_node(&name);
                } else {
                    ssr_fault::revive_node(&name);
                }
            }
        }
        let shape = r % shapes.len();
        let hedge = hedged(seed, r).then_some(Duration::ZERO);
        let response = cluster.request_with_hedge(&shapes[shape], hedge);
        if hedge.is_some() {
            cluster.quiesce();
        }
        let served = match response {
            Ok(Response::Outcomes(served)) => served,
            other => panic!("seed {seed} pass {pass} request {r}: query lost: {other:?}"),
        };
        assert_eq!(served.len(), expected[shape].len());
        // `cached` is the server's business (the second pass replays from
        // warm caches); matches and work stats are the same bits whichever
        // node answered.
        for (wire, (matches, stats)) in served.iter().zip(&expected[shape]) {
            assert_eq!(
                (&wire.matches, &wire.stats),
                (matches, stats),
                "seed {seed} pass {pass} request {r}"
            );
        }
    }
    revive_chaos_nodes(seed);
    cluster.counters()
}

/// With every node revived, a probing client with a short cooldown must
/// walk all three breakers back to closed and be answered again: the live,
/// wall-clock half of the restart story, kept out of the counters.
fn recovery_phase(addrs: &[String], shape: &Request<Symbol>) {
    let mut config = scripted_config(7);
    config.client.op_deadline = None;
    config.breaker.cooldown = Duration::from_millis(50);
    config.probe_interval = Some(Duration::from_millis(20));
    let cluster = ClusterClient::<Symbol>::new(addrs.to_vec(), config).expect("cluster");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let states: Vec<_> = cluster.node_health().iter().map(|h| h.state).collect();
        if states.iter().all(|&s| s == BreakerState::Closed) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "revived nodes never all closed: {states:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    for _ in 0..CHAOS_NODES {
        assert!(matches!(
            cluster.request(shape).expect("a recovered cluster answers"),
            Response::Outcomes(_)
        ));
    }
}

/// Boots three nodes from one seeded database, runs the scripted pass twice
/// and the recovery phase.
fn replay_node_kills(seed: u64) {
    let dataset = generate_proteins(&ProteinConfig::sized_for_windows(120, 20, seed));
    let config = FrameworkConfig::new(16).with_max_shift(2);
    let bytes = SubsequenceDatabase::builder(config, Levenshtein::new())
        .add_dataset(&dataset)
        .build()
        .expect("fixture builds")
        .snapshot_bytes();
    // One logical database, four byte-identical materializations: one per
    // node and the in-process reference.
    let open = || {
        SubsequenceDatabase::<Symbol, Levenshtein>::from_snapshot_bytes(
            bytes.clone(),
            Levenshtein::new(),
        )
        .expect("fixture opens")
    };
    let reference = open();
    let shapes = request_shapes(&reference);
    let expected = reference_answers(&reference, &shapes);

    let servers: Vec<_> = (0..CHAOS_NODES)
        .map(|i| {
            Server::bind(
                open(),
                "127.0.0.1:0",
                ServeConfig {
                    workers: 2,
                    node_name: Some(chaos_node_name(seed, i)),
                    ..ServeConfig::default()
                },
            )
            .expect("node binds")
        })
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();

    let first = scripted_pass(seed, 1, &addrs, &shapes, &expected);
    let second = scripted_pass(seed, 2, &addrs, &shapes, &expected);
    let replayed = |c: &ClusterCounters| {
        (
            c.requests,
            c.failovers,
            c.hedges,
            c.breaker_trips,
            c.node_failures,
            c.deadline_exceeded,
        )
    };
    assert_eq!(
        replayed(&first),
        replayed(&second),
        "seed {seed}: the counters did not replay"
    );
    // Two kill episodes, threshold 1, quarantine >> run: one trip each,
    // however routing lands.
    assert_eq!(first.breaker_trips, 2, "seed {seed}: {first:?}");
    assert!(first.failovers > 0, "seed {seed}: no failover: {first:?}");
    assert!(first.hedges > 0, "seed {seed}: no hedge: {first:?}");

    recovery_phase(&addrs, &shapes[0]);
    for server in servers {
        server.shutdown();
    }
}

#[test]
fn node_kills_replay_exactly_at_seed_42() {
    replay_node_kills(42);
}

#[test]
fn node_kills_replay_exactly_at_seed_1337() {
    replay_node_kills(1337);
}
