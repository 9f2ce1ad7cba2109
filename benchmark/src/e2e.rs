//! The untraced run: the end-to-end metrics a user of the system would see,
//! with every output checked.
//!
//! Load shape: one process, at most two threads or connections (`nproc` is
//! 2). Engine operations are a closed loop of one caller issuing queries back
//! to back; the batch uses two engine threads; served requests are a closed
//! loop of two connections against an in-process server with two workers.
//!
//! Most of the run is a sequence of *rounds*, each a few queries of every
//! type, a batch pass, a few appends and, every other round, one reopen and
//! compact. Interleaving matters on a
//! shared machine: a stall of a few hundred milliseconds then touches a few
//! samples of every metric, which a median ignores, instead of swallowing
//! one short phase whole.
//!
//! The run is three blocks of rounds, each followed by a *served segment* in
//! which both connections work through their schedules at once. Segments are
//! sustained (over a second each) rather than a burst per round: what a
//! thread hand-off costs on a virtual CPU depends on how recently that CPU
//! idled, so sporadic bursts of requests measure the hypervisor's mood.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ssr_core::{
    wal_path_for, Client, LiveDatabase, QueryEngine, QueryOutcome, QuerySpec, Request, Response,
    SubsequenceMatch, WireOutcome,
};
use ssr_datagen::PlantedQuery;
use ssr_sequence::{Element, Sequence};
use ssr_storage::StorableElement;

use crate::check::{validate_match, validate_type2, Expectation, PlantedVerdict, Tally};
use crate::fixture::{brute_force_spot_check, Db, Fixture};
use crate::inputs::{Mutation, Regime, Workload, HOT_QUERIES, REPLAY_OPS};
use crate::stats::{highest_supported_percentile, median, percentile};

/// Blocks of rounds, each followed by a served segment.
const BLOCKS: usize = 3;
/// Share of `--seconds` spent in rounds; the served segments get the rest.
const ROUNDS_SHARE: f64 = 0.75;
/// Fewest rounds of a block. With three blocks and the per-round counts
/// below that is 72 Type II, 36 Type I and 24 Type III queries, 12 batch
/// passes, 144 timed appends and 6 reopen/compact copies. Every timing is a
/// median, and the percentile helper wants ten samples beyond it.
const MIN_ROUNDS_PER_BLOCK: usize = 4;
const TYPE2_PER_ROUND: usize = 6;
const TYPE1_PER_ROUND: usize = 3;
const TYPE3_PER_ROUND: usize = 2;
const APPENDS_PER_ROUND: usize = 12;
/// Every this many rounds, one copy of the replay pair is reopened and
/// compacted.
const ROUNDS_PER_REOPEN: usize = 2;
/// Fewest requests each connection sends in a served segment.
const SEGMENT_REQUEST_FLOOR: usize = 10;
/// Untimed queries of each type, and untimed requests per connection (50 in
/// total), before the first round.
const WARMUP_QUERIES: usize = 4;
const WARMUP_REQUESTS: usize = 25;
/// Reads answered on the live database and again after reopen and compact.
const LIVE_READS: usize = 2;

/// What a run reports.
pub struct Report {
    pub metrics: Vec<(String, f64)>,
    pub tally: Tally,
}

fn millis(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

pub fn type2_request<E: Element>(query: &Sequence<E>, epsilon: f64) -> Request<E> {
    Request::Query {
        spec: QuerySpec::Type2 { epsilon },
        queries: vec![query.elements().to_vec()],
    }
}

/// Sends one Type II request and unpacks its single outcome; anything but
/// `Outcomes` with one entry — a typed refusal included — is an error.
pub fn exchange<E: StorableElement>(
    client: &mut Client<E>,
    request: &Request<E>,
) -> Result<WireOutcome, String> {
    match client.request(request) {
        Ok(Response::Outcomes(mut outcomes)) if outcomes.len() == 1 => Ok(outcomes.remove(0)),
        Ok(other) => Err(format!("unexpected response {other:?}")),
        Err(error) => Err(format!("request failed: {error}")),
    }
}

/// Wall times and outcomes of one query type, in query order.
struct Timed<T> {
    wall_ms: Vec<f64>,
    outcomes: Vec<T>,
}

impl<T> Timed<T> {
    fn new() -> Self {
        Timed {
            wall_ms: Vec::new(),
            outcomes: Vec::new(),
        }
    }

    /// Runs `call` on the next `count` queries not yet answered.
    fn advance<E>(
        &mut self,
        queries: &[PlantedQuery<E>],
        count: usize,
        mut call: impl FnMut(&Sequence<E>) -> T,
    ) {
        for planted in queries.iter().skip(self.outcomes.len()).take(count) {
            let started = Instant::now();
            let outcome = call(&planted.query);
            self.wall_ms.push(millis(started));
            self.outcomes.push(outcome);
        }
    }
}

/// What one served request returned.
struct Served {
    query: usize,
    wall_ms: f64,
    outcome: Result<WireOutcome, String>,
}

/// One closed-loop connection and its place in its request schedule.
struct Connection<'a, E> {
    client: Client<E>,
    schedule: &'a [usize],
    next: usize,
}

/// One served segment: every connection continues its schedule until
/// `deadline` (and for at least [`SEGMENT_REQUEST_FLOOR`] requests), all
/// connections at once. Returns the segment's wall in seconds.
fn served_segment<E: Element + StorableElement + Send + Sync>(
    connections: &mut [Connection<'_, E>],
    queries: &[PlantedQuery<E>],
    epsilon: f64,
    deadline: Instant,
    served: &mut Vec<Served>,
) -> f64 {
    let started = Instant::now();
    let done: Vec<Vec<Served>> = std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .iter_mut()
            .map(|connection| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    for &query in &connection.schedule[connection.next..] {
                        if done.len() >= SEGMENT_REQUEST_FLOOR && Instant::now() >= deadline {
                            break;
                        }
                        let request = type2_request(&queries[query].query, epsilon);
                        let sent = Instant::now();
                        let outcome = exchange(&mut connection.client, &request);
                        done.push(Served {
                            query,
                            wall_ms: millis(sent),
                            outcome,
                        });
                    }
                    connection.next += done.len();
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    served.extend(done.into_iter().flatten());
    wall
}

/// Applies `mutations` to the live database and times every append.
fn apply_mutations<R: Regime>(
    live: &mut LiveDatabase<R::E, R::D>,
    mutations: &[Mutation<R::E>],
    append_ms: &mut Vec<f64>,
    tally: &mut Tally,
) {
    for mutation in mutations {
        match mutation {
            Mutation::Append(sequence) => {
                let sequence = sequence.clone();
                let started = Instant::now();
                let result = live.append_sequence(sequence);
                append_ms.push(millis(started));
                tally.record(result.map(drop).map_err(|e| format!("append failed: {e}")));
            }
            Mutation::Remove(id) => {
                tally.record(match live.remove_sequence(*id) {
                    Ok(true) => Ok(()),
                    Ok(false) => Err(format!("remove of {id:?} found nothing to remove")),
                    Err(e) => Err(format!("remove failed: {e}")),
                });
            }
        }
    }
}

fn live_reads<R: Regime>(
    db: &Db<R>,
    queries: &[PlantedQuery<R::E>],
    epsilon: f64,
) -> Vec<QueryOutcome<Option<SubsequenceMatch>>> {
    queries[..LIVE_READS]
        .iter()
        .map(|planted| db.query_type2(&planted.query, epsilon))
        .collect()
}

/// The live snapshot/WAL pair as it stood with the [`REPLAY_OPS`] head of the
/// mutation stream pending, copied aside, and what the live database then
/// answered. Rounds go on appending to the live pair; every reopen replays a
/// copy of this one.
struct ReplayPair {
    snapshot: PathBuf,
    pending_ops: usize,
    reads: Vec<QueryOutcome<Option<SubsequenceMatch>>>,
}

fn copy_pair(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::copy(from, to)?;
    std::fs::copy(wal_path_for(from), wal_path_for(to))?;
    Ok(())
}

/// Reopen and compact timings, one sample per copy of the replay pair.
#[derive(Default)]
struct Reopens {
    reopen_ms: Vec<f64>,
    compact_ms: Vec<f64>,
}

/// Copies the replay pair, reopens the copy (snapshot load + WAL replay of
/// every pending operation) and compacts it. On the first copy the reopened
/// and the compacted database must answer the reads exactly as the live one
/// did.
fn reopen_and_compact<R: Regime>(
    replay: &ReplayPair,
    queries: &[PlantedQuery<R::E>],
    scratch: &Path,
    epsilon: f64,
    reopens: &mut Reopens,
    tally: &mut Tally,
) {
    let first = reopens.reopen_ms.is_empty();
    let snapshot = scratch.join("copy.ssr");
    if let Err(e) = copy_pair(&replay.snapshot, &snapshot) {
        return tally.record(Err(format!("copying the snapshot/WAL pair failed: {e}")));
    }
    let started = Instant::now();
    let reopened = LiveDatabase::<R::E, R::D>::open(&snapshot, R::distance());
    reopens.reopen_ms.push(millis(started));
    let mut reopened = match reopened {
        Ok(reopened) => reopened,
        Err(e) => return tally.record(Err(format!("reopen failed: {e}"))),
    };
    tally.require(reopened.pending_ops() == replay.pending_ops, || {
        format!(
            "reopen replayed {} operations, the live database logged {}",
            reopened.pending_ops(),
            replay.pending_ops
        )
    });
    if first {
        tally.require(
            live_reads::<R>(reopened.database(), queries, epsilon) == replay.reads,
            || "the reopened database answers its reads differently".to_string(),
        );
    }
    let started = Instant::now();
    let compacted = reopened.compact();
    reopens.compact_ms.push(millis(started));
    tally.record(compacted.map_err(|e| format!("compact failed: {e}")));
    drop(reopened);
    if first {
        match LiveDatabase::<R::E, R::D>::open(&snapshot, R::distance()) {
            Ok(folded) => {
                let answers = live_reads::<R>(folded.database(), queries, epsilon);
                tally.require(folded.pending_ops() == 0 && answers == replay.reads, || {
                    "the compacted database answers its reads differently".to_string()
                });
            }
            Err(e) => tally.record(Err(format!("reopen after compact failed: {e}"))),
        }
    }
}

/// A median that must exist: [`MIN_ROUNDS`] guarantees the samples.
fn must_median(samples: &[f64], name: &str) -> f64 {
    percentile(samples, 50.0)
        .unwrap_or_else(|| panic!("{name}: {} samples are too few for a median", samples.len()))
}

/// Runs the untraced benchmark of `workload` and reports its end-to-end
/// metrics.
pub fn run<R: Regime>(workload: &Workload, seed: u64, seconds: f64, scratch: &Path) -> Report {
    let mut tally = Tally::default();
    let (mut fixture, setup_s) = Fixture::<R>::set_up(workload, seed, scratch);
    brute_force_spot_check::<R>(workload, &fixture.inputs, seed, &mut tally);
    let epsilon = workload.epsilon;
    let db = &fixture.db;
    let queries = &fixture.inputs.queries;
    let bytes_per_window = db.resident_window_bytes() as f64 / db.window_count() as f64;

    let engine = QueryEngine::new(db).with_threads(2);
    let mut connections: Vec<Connection<'_, R::E>> = fixture
        .inputs
        .schedules
        .iter()
        .map(|schedule| Connection {
            client: Client::connect(fixture.server.local_addr()).expect("connect to the server"),
            schedule,
            next: 0,
        })
        .collect();

    // One untimed pass of everything.
    for planted in &queries[..WARMUP_QUERIES] {
        std::hint::black_box(db.query_type2(&planted.query, epsilon));
        std::hint::black_box(db.query_type1(&planted.query, epsilon));
        std::hint::black_box(db.query_type3(
            &planted.query,
            workload.epsilon_max,
            workload.epsilon_step,
        ));
    }
    let warm_up: Vec<Sequence<R::E>> = queries[..WARMUP_QUERIES]
        .iter()
        .map(|p| p.query.clone())
        .collect();
    std::hint::black_box(engine.batch_type2(&warm_up, epsilon));
    for connection in &mut connections {
        for i in 0..WARMUP_REQUESTS {
            let request = type2_request(&queries[i % HOT_QUERIES].query, epsilon);
            let _ = exchange(&mut connection.client, &request);
        }
    }

    let mut type2 = Timed::new();
    let mut type1 = Timed::new();
    let mut type3 = Timed::new();
    let mut batch_qps = Vec::new();
    let mut append_ms = Vec::new();
    let mut reopens = Reopens::default();
    // The head of the mutation stream, untimed, leaves the pair every reopen
    // replays; the timed appends that follow go a few to a round.
    let (replayed, timed) = fixture.inputs.mutations.split_at(REPLAY_OPS);
    apply_mutations::<R>(&mut fixture.live, replayed, &mut Vec::new(), &mut tally);
    let replay = ReplayPair {
        snapshot: scratch.join("replay.ssr"),
        pending_ops: fixture.live.pending_ops(),
        reads: live_reads::<R>(fixture.live.database(), queries, epsilon),
    };
    copy_pair(fixture.live.snapshot_path(), &replay.snapshot).expect("copy the replay pair");
    let mut append_slices = timed.chunks(APPENDS_PER_ROUND);

    let mut served = Vec::new();
    let mut served_wall_s = 0.0;
    let block_time = Duration::from_secs_f64(seconds * ROUNDS_SHARE / BLOCKS as f64);
    let segment_time = Duration::from_secs_f64(seconds * (1.0 - ROUNDS_SHARE) / BLOCKS as f64);
    let mut rounds = 0;
    for _ in 0..BLOCKS {
        let block_deadline = Instant::now() + block_time;
        let mut block_rounds = 0;
        while block_rounds < MIN_ROUNDS_PER_BLOCK || Instant::now() < block_deadline {
            let round_start = type2.outcomes.len();
            type2.advance(queries, TYPE2_PER_ROUND, |q| db.query_type2(q, epsilon));
            type1.advance(queries, TYPE1_PER_ROUND, |q| db.query_type1(q, epsilon));
            type3.advance(queries, TYPE3_PER_ROUND, |q| {
                db.query_type3(q, workload.epsilon_max, workload.epsilon_step)
            });
            // The round's Type II queries again, batched on two threads:
            // same answers, same statistics.
            if let Some(again) = queries.get(round_start..round_start + TYPE2_PER_ROUND) {
                let batch: Vec<Sequence<R::E>> = again.iter().map(|p| p.query.clone()).collect();
                let started = Instant::now();
                let outcome = engine.batch_type2(&batch, epsilon);
                batch_qps.push(TYPE2_PER_ROUND as f64 / started.elapsed().as_secs_f64());
                tally.require(outcome.outcomes == type2.outcomes[round_start..], || {
                    "the batched answers differ from the sequential ones".to_string()
                });
            }
            if let Some(slice) = append_slices.next() {
                apply_mutations::<R>(&mut fixture.live, slice, &mut append_ms, &mut tally);
            }
            if (rounds + block_rounds) % ROUNDS_PER_REOPEN == 0 {
                reopen_and_compact::<R>(
                    &replay,
                    queries,
                    scratch,
                    epsilon,
                    &mut reopens,
                    &mut tally,
                );
            }
            block_rounds += 1;
        }
        rounds += block_rounds;
        let deadline = Instant::now() + segment_time;
        served_wall_s += served_segment(&mut connections, queries, epsilon, deadline, &mut served);
    }
    drop(connections);

    // Type II: valid by recomputation; these are the reference answers the
    // batched and the served path are compared with. Where the planted pair
    // lies within the radius an answer is expected, at least as long.
    let mut answered = Expectation::default();
    let mut shorter_than_planted = 0;
    for (planted, outcome) in queries.iter().zip(&type2.outcomes) {
        let verdict = validate_type2(
            db,
            planted,
            &outcome.result,
            outcome.stats.budget_exhausted,
            epsilon,
        );
        if let Ok(verdict) = &verdict {
            answered.observe(*verdict != PlantedVerdict::Missing);
            shorter_than_planted += usize::from(*verdict == PlantedVerdict::ShorterThanPlanted);
        }
        tally.record(verdict.map(drop));
    }
    answered.settle(
        &mut tally,
        "Type II found nothing though the planted pair lies within the radius",
    );
    // Type I: every reported pair satisfies λ / λ0 / ε on recomputation.
    for (planted, outcome) in queries.iter().zip(&type1.outcomes) {
        let verdict = outcome
            .result
            .iter()
            .try_for_each(|found| validate_match(db, &planted.query, found, epsilon));
        tally.record(verdict);
    }
    // Type III: a valid pair, expected no farther than the nearest Type I
    // pair plus one sweep step (the sweep stops at the first radius that
    // verifies). A sweep that ran out of budget at one radius moves on to the
    // next, so only its validity is checked.
    let mut nearest = Expectation::default();
    for ((planted, outcome), range) in queries.iter().zip(&type3.outcomes).zip(&type1.outcomes) {
        let nearest_type1 = range
            .result
            .iter()
            .map(|m| m.distance)
            .fold(f64::INFINITY, f64::min);
        let (verdict, distance) = match &outcome.result {
            Some(found) => (
                validate_match(db, &planted.query, found, workload.epsilon_max),
                found.distance,
            ),
            None => (Ok(()), f64::INFINITY),
        };
        if verdict.is_ok() && nearest_type1.is_finite() && !outcome.stats.budget_exhausted {
            nearest.observe(distance <= nearest_type1 + workload.epsilon_step);
        }
        tally.record(verdict);
    }
    nearest.settle(
        &mut tally,
        "Type III missing, or farther than the nearest Type I pair plus a step",
    );
    // Served: every request answered, and identical to the in-process answer
    // wherever the Type II queries reached the same query.
    let mut request_ms = Vec::with_capacity(served.len());
    for request in &served {
        request_ms.push(request.wall_ms);
        let verdict = match (&request.outcome, type2.outcomes.get(request.query)) {
            (Err(why), _) => Err(why.clone()),
            (Ok(outcome), Some(reference)) => {
                if outcome.matches.as_slice() == reference.result.as_slice()
                    && outcome.stats == reference.stats
                {
                    Ok(())
                } else {
                    Err(format!(
                        "served answer to query {} differs from the in-process one",
                        request.query
                    ))
                }
            }
            (Ok(_), None) => Ok(()),
        };
        tally.record(verdict);
    }

    let metrics = vec![
        ("setup_s", setup_s),
        ("type2_p50_ms", must_median(&type2.wall_ms, "type2_p50_ms")),
        ("type1_p50_ms", must_median(&type1.wall_ms, "type1_p50_ms")),
        ("type3_p50_ms", must_median(&type3.wall_ms, "type3_p50_ms")),
        ("batch_qps", median(&batch_qps)),
        ("bytes_per_window", bytes_per_window),
        ("req_per_s", served.len() as f64 / served_wall_s),
        ("append_p50_ms", must_median(&append_ms, "append_p50_ms")),
        ("reopen_ms", median(&reopens.reopen_ms)),
        ("compact_ms", median(&reopens.compact_ms)),
    ];
    // Sample counts, each with its tail: the highest percentile that still
    // has ten samples beyond it. Tails are reported here, not as metrics:
    // on a shared machine they do not repeat within any bound worth setting.
    let samples = [
        ("type2", &type2.wall_ms),
        ("type1", &type1.wall_ms),
        ("type3", &type3.wall_ms),
        ("requests", &request_ms),
        ("appends", &append_ms),
    ]
    .map(|(name, walls)| {
        match highest_supported_percentile(walls.len())
            .and_then(|p| Some((p, percentile(walls, p)?)))
        {
            Some((p, tail)) => format!("{name} {} (p{p} {tail:.3} ms)", walls.len()),
            None => format!("{name} {}", walls.len()),
        }
    });
    eprintln!(
        "# {}: {rounds} rounds, {} batch passes, {} reopen/compact copies; samples: {}; {shorter_than_planted} Type II answers shorter than a planted pair within the radius, {} missing; {} Type III answers missing or farther than Type I's nearest plus a step; WAL flush policy: sync_all per record",
        workload.name,
        batch_qps.len(),
        reopens.reopen_ms.len(),
        samples.join(", "),
        answered.missed,
        nearest.missed,
    );
    fixture.tear_down();
    Report {
        metrics: metrics
            .into_iter()
            .map(|(name, value)| (name.to_string(), value))
            .collect(),
        tally,
    }
}
