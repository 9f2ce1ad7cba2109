//! The seeded node-kill chaos harness behind `bench --cluster`: three real
//! `ssr serve` nodes (in-process, same snapshot), one [`ClusterClient`], and
//! a kill/revive schedule that is a **pure function of the seed** — nodes
//! die and come back at fixed *request indices*, never at wall-clock times.
//!
//! The invariants it proves:
//!
//! * **zero failed idempotent queries** — every query batch is answered even
//!   while a node is down, because failover covers the outage;
//! * **bit-identical results** — whatever node answers (primary, failover
//!   hop or hedge winner), matches and work stats equal the in-process
//!   [`QueryEngine`] on the same data, byte for byte;
//! * **schedule-exact counters** — the same seed replays the same
//!   failover/hedge/breaker-trip counts: the whole pass runs **twice**
//!   against fresh clients and the two [`ClusterCounters`] must agree
//!   exactly (`hedge_wins` excluded — a win is a race by definition).
//!
//! Determinism rests on four choices: a closed single-threaded request loop
//! (in-flight counts are zero at every routing decision), breaker threshold
//! 1 with a quarantine far longer than the run (a killed node trips exactly
//! once, at the first request routed to it, and is never gambled on again),
//! probing disabled (no wall-clock-driven readmission), and a
//! [`ClusterClient::quiesce`] after every hedged request (the losing copy's
//! breaker bookkeeping lands before the next routing decision). A final
//! non-scripted phase revives everything and checks recovery the live way:
//! a probing client with a short cooldown must readmit all three nodes.

use std::time::Duration;

use ssr_cluster::{BreakerConfig, BreakerState, ClusterClient, ClusterConfig, ClusterCounters};
use ssr_core::serve::{ServeConfig, Server};
use ssr_core::wire::{QuerySpec, Request, Response};
use ssr_core::{ClientConfig, QueryEngine, SubsequenceDatabase};
use ssr_datagen::{generate_proteins, ProteinConfig};
use ssr_distance::Levenshtein;
use ssr_sequence::{Sequence, Symbol};

use crate::json::JsonValue;

/// Nodes in the self-hosted cluster.
const NODES: usize = 3;
/// Scripted requests per pass.
const REQUESTS: usize = 48;
/// Queries per request batch.
const BATCH: usize = 3;

/// The verdict of one `--cluster` run, for the log and the JSON artifact.
pub struct ClusterChaosOutcome {
    /// The base seed the schedule derived from.
    pub seed: u64,
    /// Scripted requests sent per pass.
    pub requests: usize,
    /// Counter snapshot of the first pass (the second must equal it).
    pub counters: ClusterCounters,
    /// `None` when every invariant held; the first violation otherwise.
    pub failure: Option<String>,
}

impl ClusterChaosOutcome {
    /// JSON object for the `--out` artifact.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("seed", JsonValue::Number(self.seed as f64)),
            ("requests", JsonValue::Number(self.requests as f64)),
            (
                "failovers",
                JsonValue::Number(self.counters.failovers as f64),
            ),
            ("hedges", JsonValue::Number(self.counters.hedges as f64)),
            (
                "breaker_trips",
                JsonValue::Number(self.counters.breaker_trips as f64),
            ),
            (
                "node_failures",
                JsonValue::Number(self.counters.node_failures as f64),
            ),
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

/// The kill/revive script: `(request_index, node, kill?)` events, derived
/// purely from the seed. Two episodes, each killing a *different* node for a
/// ten-request window — at most one node is ever down, so a three-node
/// cluster always has a healthy majority and zero lost queries is a fair
/// demand. A quarantined node stays quarantined for the rest of the pass
/// (cooldown >> run), which is exactly what makes the trip count exact.
fn kill_schedule(seed: u64) -> Vec<(usize, usize, bool)> {
    let first_node = (ssr_fault::mix64(seed) % NODES as u64) as usize;
    let second_node = (first_node + 1 + (ssr_fault::mix64(seed ^ 1) % 2) as usize) % NODES;
    let first_at = 6 + (ssr_fault::mix64(seed ^ 2) % 4) as usize;
    let second_at = 26 + (ssr_fault::mix64(seed ^ 3) % 4) as usize;
    vec![
        (first_at, first_node, true),
        (first_at + 10, first_node, false),
        (second_at, second_node, true),
        (second_at + 10, second_node, false),
    ]
}

/// Whether request `r` is hedged: roughly one request in six, seeded — but
/// never inside a kill window. A hedge that collides with an undiscovered
/// dead node gets covered by the hedge race instead of the failover path
/// (the primary's failure becomes a hedge win, not a failover), and the
/// harness wants both counters provably nonzero. Keeping hedges to healthy
/// stretches routes every kill discovery through a plain primary send.
fn hedged(seed: u64, r: usize) -> bool {
    if killed_during(seed, r) {
        return false;
    }
    ssr_fault::mix64(seed ^ 0x9E37_79B9_7F4A_7C15 ^ (r as u64)).is_multiple_of(6)
}

/// Whether any node is down at request `r` under the seed's schedule.
fn killed_during(seed: u64, r: usize) -> bool {
    let mut down = [false; NODES];
    for (at, node, kill) in kill_schedule(seed) {
        if at <= r {
            down[node] = kill;
        }
    }
    down.iter().any(|&d| d)
}

fn node_name(i: usize) -> String {
    format!("cluster-bench-node-{i}")
}

/// Deterministic request shapes carved from the served sequences themselves:
/// guaranteed in-vocabulary, and identical on every machine.
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
        .map(|(shape, spec)| {
            let queries = (0..BATCH)
                .map(|slot| {
                    let seq = &sequences[(shape * BATCH + slot) % sequences.len()];
                    let len = seq.len().clamp(1, 24);
                    let start = (seq.len() - len) / 2;
                    seq.elements()[start..start + len].to_vec()
                })
                .collect();
            Request::Query {
                spec: *spec,
                queries,
            }
        })
        .collect()
}

/// The in-process reference answers for each request shape — matches and
/// work stats the served outcomes must reproduce bit-identically.
fn reference_answers(
    db: &SubsequenceDatabase<Symbol, Levenshtein>,
    shapes: &[Request<Symbol>],
) -> Vec<Vec<(Vec<ssr_core::SubsequenceMatch>, ssr_core::QueryStats)>> {
    let engine = QueryEngine::new(db);
    shapes
        .iter()
        .map(|request| {
            let Request::Query { spec, queries } = request else {
                unreachable!("request shapes are queries");
            };
            let local: Vec<Sequence<Symbol>> = queries.iter().cloned().map(Sequence::new).collect();
            match spec {
                QuerySpec::Type1 { epsilon } => engine
                    .batch_type1(&local, *epsilon)
                    .outcomes
                    .into_iter()
                    .map(|o| (o.result, o.stats))
                    .collect(),
                QuerySpec::Type2 { epsilon } => engine
                    .batch_type2(&local, *epsilon)
                    .outcomes
                    .into_iter()
                    .map(|o| (o.result.into_iter().collect(), o.stats))
                    .collect(),
                QuerySpec::Type3 {
                    epsilon_max,
                    epsilon_increment,
                } => engine
                    .batch_type3(&local, *epsilon_max, *epsilon_increment)
                    .outcomes
                    .into_iter()
                    .map(|o| (o.result.into_iter().collect(), o.stats))
                    .collect(),
            }
        })
        .collect()
}

/// Cluster policy for the scripted pass: one wire attempt per node, breaker
/// threshold 1 with an hour-long quarantine, no prober, hedging only where
/// the schedule says so (via the per-request override).
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

struct PassResult {
    counters: ClusterCounters,
    failed_queries: usize,
    parity_failures: usize,
}

/// One scripted pass: fresh client, same servers, same schedule.
fn run_pass(
    seed: u64,
    addrs: &[String],
    shapes: &[Request<Symbol>],
    expected: &[Vec<(Vec<ssr_core::SubsequenceMatch>, ssr_core::QueryStats)>],
) -> Result<PassResult, String> {
    ssr_fault::revive_all_nodes();
    let cluster = ClusterClient::<Symbol>::new(addrs.to_vec(), scripted_config(seed))
        .map_err(|e| format!("cluster client: {e}"))?;
    let schedule = kill_schedule(seed);
    let mut failed_queries = 0usize;
    let mut parity_failures = 0usize;
    for r in 0..REQUESTS {
        for &(at, node, kill) in &schedule {
            if at == r {
                if kill {
                    ssr_fault::kill_node(&node_name(node));
                } else {
                    ssr_fault::revive_node(&node_name(node));
                }
            }
        }
        let shape = r % shapes.len();
        let hedge = hedged(seed, r).then_some(Duration::ZERO);
        let response = cluster.request_with_hedge(&shapes[shape], hedge);
        if hedge.is_some() {
            // The losing copy must finish its breaker bookkeeping before
            // the next routing decision reads the breakers.
            cluster.quiesce();
        }
        match response {
            Ok(Response::Outcomes(served)) => {
                let want = &expected[shape];
                if served.len() != want.len() {
                    parity_failures += 1;
                    continue;
                }
                for (wire, (matches, stats)) in served.iter().zip(want) {
                    // `cached` is the server's business (the second pass
                    // replays from warm caches); matches and work stats must
                    // be the same bits regardless of which node answered.
                    if &wire.matches != matches || &wire.stats != stats {
                        parity_failures += 1;
                    }
                }
            }
            Ok(other) => {
                return Err(format!("request {r}: unexpected response {other:?}"));
            }
            Err(err) => {
                failed_queries += 1;
                eprintln!("# cluster: request {r} FAILED: {err}");
            }
        }
    }
    let counters = cluster.counters();
    ssr_fault::revive_all_nodes();
    Ok(PassResult {
        counters,
        failed_queries,
        parity_failures,
    })
}

/// After the scripted passes: every node revived, a *probing* client with a
/// short cooldown must walk all three breakers back to closed and answer
/// queries again — the live (wall-clock) half of the restart story, kept out
/// of the deterministic counters on purpose.
fn recovery_phase(addrs: &[String], shape: &Request<Symbol>) -> Result<(), String> {
    let config = ClusterConfig {
        client: ClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_attempts: 1,
            op_deadline: None,
            ..ClientConfig::default()
        },
        breaker: BreakerConfig {
            threshold: 1,
            cooldown: Duration::from_millis(50),
            jitter_seed: 7,
        },
        hedge_after: None,
        route_seed: 7,
        probe_interval: Some(Duration::from_millis(20)),
    };
    let cluster = ClusterClient::<Symbol>::new(addrs.to_vec(), config)
        .map_err(|e| format!("recovery client: {e}"))?;
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let health = cluster.node_health();
        if health.iter().all(|h| h.state == BreakerState::Closed) {
            break;
        }
        if std::time::Instant::now() >= deadline {
            return Err(format!(
                "revived nodes never all closed: {:?}",
                health.iter().map(|h| h.state).collect::<Vec<_>>()
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    for _ in 0..NODES {
        match cluster.request(shape) {
            Ok(Response::Outcomes(_)) => {}
            other => return Err(format!("post-recovery query failed: {other:?}")),
        }
    }
    Ok(())
}

/// Runs the whole `--cluster` chaos story: boot three nodes from one
/// database (the `--snapshot` file when given, a seeded synthetic fixture
/// otherwise), run the scripted pass twice, demand equal counters, then run
/// the recovery phase.
pub fn run_cluster_chaos(seed: u64, snapshot: Option<&str>) -> ClusterChaosOutcome {
    let fail = |failure: String| ClusterChaosOutcome {
        seed,
        requests: REQUESTS,
        counters: ClusterCounters::default(),
        failure: Some(failure),
    };

    // One logical database, four materializations: one per node plus the
    // in-process reference — all byte-identical by construction.
    let bytes = match snapshot {
        Some(path) => match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) => return fail(format!("reading snapshot {path}: {e}")),
        },
        None => {
            let dataset = generate_proteins(&ProteinConfig::sized_for_windows(240, 20, seed));
            let config = ssr_core::FrameworkConfig::new(16).with_max_shift(2);
            let mut builder = SubsequenceDatabase::builder(config, Levenshtein::new());
            for seq in dataset.sequences() {
                builder = builder.add_sequence(seq.clone());
            }
            match builder.build() {
                Ok(db) => db.snapshot_bytes(),
                Err(e) => return fail(format!("building fixture: {e}")),
            }
        }
    };
    let open = || {
        SubsequenceDatabase::<Symbol, Levenshtein>::from_snapshot_bytes(
            bytes.clone(),
            Levenshtein::new(),
        )
    };
    let reference = match open() {
        Ok(db) => db,
        Err(e) => return fail(format!("opening fixture: {e}")),
    };
    let shapes = request_shapes(&reference);
    let expected = reference_answers(&reference, &shapes);

    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..NODES {
        let db = match open() {
            Ok(db) => db,
            Err(e) => return fail(format!("opening node {i} database: {e}")),
        };
        let server = match Server::bind(
            db,
            "127.0.0.1:0",
            ServeConfig {
                workers: 2,
                node_name: Some(node_name(i)),
                ..ServeConfig::default()
            },
        ) {
            Ok(server) => server,
            Err(e) => return fail(format!("binding node {i}: {e}")),
        };
        addrs.push(server.local_addr().to_string());
        servers.push(server);
    }
    eprintln!(
        "# cluster: 3 nodes up at {}, seed {seed}, {REQUESTS} scripted requests x 2 passes",
        addrs.join(" ")
    );

    let outcome = (|| {
        let first = run_pass(seed, &addrs, &shapes, &expected)?;
        let second = run_pass(seed, &addrs, &shapes, &expected)?;
        let mut failure = None;
        if first.failed_queries > 0 || second.failed_queries > 0 {
            failure = Some(format!(
                "lost idempotent queries: {} in pass 1, {} in pass 2 (must be 0)",
                first.failed_queries, second.failed_queries
            ));
        }
        if first.parity_failures > 0 || second.parity_failures > 0 {
            failure.get_or_insert(format!(
                "served results diverged from the in-process engine: {} + {} outcomes",
                first.parity_failures, second.parity_failures
            ));
        }
        // hedge_wins is a race by definition; everything else must replay.
        let comparable = |c: &ClusterCounters| {
            (
                c.requests,
                c.failovers,
                c.hedges,
                c.breaker_trips,
                c.node_failures,
                c.deadline_exceeded,
            )
        };
        if comparable(&first.counters) != comparable(&second.counters) {
            failure.get_or_insert(format!(
                "counters did not replay: pass 1 {:?}, pass 2 {:?}",
                comparable(&first.counters),
                comparable(&second.counters)
            ));
        }
        if first.counters.breaker_trips != 2 {
            // Two kill episodes, threshold 1, quarantine >> run: exactly one
            // trip per episode, however routing lands.
            failure.get_or_insert(format!(
                "expected exactly 2 breaker trips (one per kill episode), saw {}",
                first.counters.breaker_trips
            ));
        }
        if first.counters.failovers == 0 {
            failure.get_or_insert(
                "the schedule produced no failover — the harness proved nothing".to_string(),
            );
        }
        if first.counters.hedges == 0 {
            failure.get_or_insert("the schedule fired no hedge".to_string());
        }
        recovery_phase(&addrs, &shapes[0])?;
        eprintln!(
            "# cluster: pass counters — {} requests, {} failovers, {} hedges ({} won), \
             {} breaker trips, {} node failures; both passes identical",
            first.counters.requests,
            first.counters.failovers,
            first.counters.hedges,
            first.counters.hedge_wins,
            first.counters.breaker_trips,
            first.counters.node_failures
        );
        Ok((first.counters, failure))
    })();

    ssr_fault::revive_all_nodes();
    for server in servers {
        server.shutdown();
    }
    match outcome {
        Ok((counters, failure)) => ClusterChaosOutcome {
            seed,
            requests: REQUESTS,
            counters,
            failure,
        },
        Err(e) => fail(e),
    }
}
