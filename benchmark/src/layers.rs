//! The traced run: one row per layer, each measured from outside by timing
//! calls into the layer's public functions, with a span recorded around
//! every such call. Written to `benchmark/out/<workload>.trace.json` at exit.
//!
//! Work that carries a count (probes, queries, mutations) is a fixed number
//! of operations, so the counts repeat exactly for a seed; loops that only
//! sharpen a mean time (codec, ping, cache hit) run for a share of
//! `--seconds`.

use std::io::{Cursor, Write as _};
use std::path::Path;
use std::time::{Duration, Instant};

use ssr_cluster::{ClusterClient, ClusterConfig};
use ssr_core::{
    wal_path_for, BatchOutcome, Client, IndexBackend, LiveDatabase, QueryEngine, QueryStats,
    Request, Response, SegmentScan, StageTimings, SubsequenceMatch, WalOp, WireClient,
};
use ssr_distance::{dp_cells_thread_total, lower_bound_prunes_thread_total, SequenceDistance};
use ssr_sequence::{segment_count, Sequence, WindowId};
use ssr_storage::{
    read_frame, write_frame, WalBinding, WalWriter, FRAME_HEADER_LEN, WAL_HEADER_LEN,
};

use crate::check::Tally;
use crate::e2e::{exchange, type2_request, Report};
use crate::fixture::{build_database, Db, Fixture};
use crate::inputs::{Mix, Mutation, Regime, Workload, HOT_QUERIES};
use crate::spec::BACKENDS;
use crate::stats::{mean, median};
use crate::trace::{trace_document, Tracer};

/// Window pairs the distance rows are measured on.
const DISTANCE_PAIRS: usize = 20_000;
/// Queries probed through `matching_segments` on each backend.
const PROBE_QUERIES: usize = 8;
/// Passes over the probe queries; the probe time is their median.
const PROBE_PASSES: usize = 3;
/// Queries of the single-threaded engine pass behind the `query.*` rows.
const ENGINE_QUERIES: usize = 24;
/// Queries and rounds of the telemetry on/off comparison.
const OBS_QUERIES: usize = 12;
const OBS_ROUNDS: usize = 3;
/// Type III queries behind the probe-amplification and memo rows.
const TYPE3_QUERIES: usize = 8;
/// Never-repeated queries timed served and in process for the miss rows.
const MISS_QUERIES: usize = 16;
/// Repetitions of whole-file operations (encode, save, load, open).
const FILE_REPEATS: usize = 3;
/// Floor of every time-boxed loop, and the share of `--seconds` each gets.
const LOOP_FLOOR: usize = 200;
const LOOP_SHARE: f64 = 0.02;
/// Pivots of the `mv-reference` backend.
const MV_REFERENCES: usize = 5;
/// Largest frame read back from the server (the server's own default).
const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

fn backend_of(name: &str) -> IndexBackend {
    match name {
        "reference-net" => IndexBackend::ReferenceNet,
        "cover-tree" => IndexBackend::CoverTree,
        "mv-reference" => IndexBackend::MvReference {
            references: MV_REFERENCES,
        },
        "linear-scan" => IndexBackend::LinearScan,
        other => unreachable!("undeclared backend {other}"),
    }
}

/// Calls `call` until `share` of the run has passed, at least
/// [`LOOP_FLOOR`] times; returns each call's wall in nanoseconds.
fn timed_loop(seconds: f64, mut call: impl FnMut()) -> Vec<f64> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * LOOP_SHARE);
    let mut walls = Vec::new();
    while walls.len() < LOOP_FLOOR || Instant::now() < deadline {
        let started = Instant::now();
        call();
        walls.push(started.elapsed().as_nanos() as f64);
    }
    walls
}

fn nanos(started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64
}

/// The rows and spans gathered so far.
struct Rows {
    metrics: Vec<(String, f64)>,
    tracer: Tracer,
    tally: Tally,
}

impl Rows {
    fn push(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }
}

/// `distance.*`: the workload's own measure on window pairs drawn from its
/// data, at the workload's radius.
fn distance_rows<R: Regime>(rows: &mut Rows, db: &Db<R>, epsilon: f64, seed: u64) {
    let windows = db.windows();
    let mut mix = Mix::new(seed ^ 0xD157);
    let pairs: Vec<_> = (0..DISTANCE_PAIRS)
        .map(|_| {
            let mut pick = || {
                let id = WindowId((mix.next_u64() % windows.len() as u64) as usize);
                windows.slice(id).expect("a stored window")
            };
            (pick(), pick())
        })
        .collect();
    let distance = db.distance();
    let op = rows.tracer.next_op();

    let cells_before = dp_cells_thread_total();
    let (full_ns, _) = rows.tracer.span(op, None, "distance", "distance", || {
        let started = Instant::now();
        for (a, b) in &pairs {
            std::hint::black_box(distance.distance(a, b));
        }
        nanos(started)
    });
    let full_cells = dp_cells_thread_total() - cells_before;

    let (cells_before, prunes_before) =
        (dp_cells_thread_total(), lower_bound_prunes_thread_total());
    let ((within_ns, accepted), _) =
        rows.tracer
            .span(op, None, "distance", "distance_within", || {
                let started = Instant::now();
                let accepted = pairs
                    .iter()
                    .filter(|(a, b)| {
                        std::hint::black_box(distance.distance_within(a, b, epsilon)).is_some()
                    })
                    .count();
                (nanos(started), accepted)
            });
    let within_cells = dp_cells_thread_total() - cells_before;
    let prunes = lower_bound_prunes_thread_total() - prunes_before;

    let n = DISTANCE_PAIRS as f64;
    rows.push(
        "distance.full_ns_per_cell",
        full_ns / full_cells.max(1) as f64,
    );
    rows.push("distance.within_ns_per_call", within_ns / n);
    rows.push("distance.within_cells_per_call", within_cells as f64 / n);
    rows.push("distance.within_accept_frac", accepted as f64 / n);
    rows.push("distance.lb_prune_frac", prunes as f64 / n);
}

/// Matches of a scan in an order that does not depend on the backend.
fn canonical(scan: &SegmentScan) -> Vec<(usize, usize, usize, u64)> {
    let mut matches: Vec<_> = scan
        .matches
        .iter()
        .map(|m| (m.window.0, m.query_start, m.query_len, m.distance.to_bits()))
        .collect();
    matches.sort_unstable();
    matches
}

/// `index.<backend>.*`: one database per backend over the same windows,
/// probed through `matching_segments` with the same queries. Returns the
/// Reference Net's build time for `snapshot.load_vs_build`.
fn index_rows<R: Regime>(rows: &mut Rows, workload: &Workload, fixture: &Fixture<R>) -> f64 {
    struct Measured {
        build_ms: f64,
        build_calls_per_window: f64,
        probe_us: f64,
        calls_per_probe: f64,
        cells_per_probe: f64,
        bytes_per_window: f64,
    }
    let queries = &fixture.inputs.queries[..PROBE_QUERIES];
    let epsilon = workload.epsilon;
    let mut reference = None;
    let mut measured = Vec::new();
    for name in BACKENDS {
        let op = rows.tracer.next_op();
        let started = Instant::now();
        let (db, _) = rows.tracer.span(op, None, "index", "build", || {
            build_database::<R>(workload, backend_of(name), &fixture.inputs.dataset)
        });
        let build_ms = nanos(started) / 1e6;
        let spec = db.config().segment_spec();
        let probes: usize = queries
            .iter()
            .map(|p| segment_count(p.query.len(), spec))
            .sum();

        let mut pass_ns = Vec::new();
        let mut scans = Vec::new();
        for _ in 0..PROBE_PASSES {
            let started = Instant::now();
            scans = queries
                .iter()
                .map(|planted| {
                    let op = rows.tracer.next_op();
                    rows.tracer
                        .span(op, None, "index", "matching_segments", || {
                            db.matching_segments(&planted.query, epsilon)
                        })
                        .0
                })
                .collect();
            pass_ns.push(nanos(started));
        }
        let calls: u64 = scans.iter().map(|s| s.distance_calls).sum();
        let cells: u64 = scans.iter().map(|s| s.dp_cells).sum();

        // Same result sets, and the same Type II answers, on every backend.
        let sets: Vec<_> = scans.iter().map(canonical).collect();
        let answers: Vec<_> = queries
            .iter()
            .map(|planted| db.query_type2(&planted.query, epsilon).result)
            .collect();
        match &reference {
            None => reference = Some((sets, answers)),
            Some((reference_sets, reference_answers)) => {
                rows.tally.require(&sets == reference_sets, || {
                    format!(
                        "{name} returns different segment matches than {}",
                        BACKENDS[0]
                    )
                });
                rows.tally.require(&answers == reference_answers, || {
                    format!(
                        "{name} returns different Type II answers than {}",
                        BACKENDS[0]
                    )
                });
            }
        }
        measured.push(Measured {
            build_ms,
            build_calls_per_window: db.build_distance_calls() as f64 / db.window_count() as f64,
            probe_us: median(&pass_ns) / 1e3 / probes as f64,
            calls_per_probe: calls as f64 / probes as f64,
            cells_per_probe: cells as f64 / probes as f64,
            bytes_per_window: db.resident_window_bytes() as f64 / db.window_count() as f64,
        });
    }
    let scan = measured.last().expect("linear-scan is the last backend");
    let (scan_calls, scan_us) = (scan.calls_per_probe, scan.probe_us);
    for (name, m) in BACKENDS.iter().zip(&measured) {
        rows.push(format!("index.{name}.build_ms"), m.build_ms);
        rows.push(
            format!("index.{name}.build_calls_per_window"),
            m.build_calls_per_window,
        );
        rows.push(format!("index.{name}.probe_us"), m.probe_us);
        rows.push(format!("index.{name}.calls_per_probe"), m.calls_per_probe);
        rows.push(format!("index.{name}.cells_per_probe"), m.cells_per_probe);
        rows.push(
            format!("index.{name}.calls_vs_scan"),
            m.calls_per_probe / scan_calls,
        );
        rows.push(format!("index.{name}.time_vs_scan"), m.probe_us / scan_us);
        rows.push(format!("index.{name}.bytes_per_window"), m.bytes_per_window);
    }
    measured[0].build_ms
}

/// One query through a single-threaded engine: one `batch_type2` call of
/// one query, timed from outside, its stage children filled from the
/// returned `StageTimings`. Returns the measured wall in nanoseconds and the
/// batch.
fn engine_query<R: Regime>(
    tracer: &mut Tracer,
    engine: &QueryEngine<'_, R::E, R::D>,
    query: &Sequence<R::E>,
    epsilon: f64,
) -> (f64, BatchOutcome<Option<SubsequenceMatch>>) {
    let op = tracer.next_op();
    let started = Instant::now();
    let (batch, span) = tracer.span(op, None, "query", "query_type2", || {
        engine.batch_type2(std::slice::from_ref(query), epsilon)
    });
    let wall_ns = nanos(started);
    tracer.stage_children(
        span,
        "query",
        &[
            ("segment", batch.timings.segment_ns),
            ("filter", batch.timings.filter_ns),
            ("chain", batch.timings.chain_ns),
            ("verify", batch.timings.verify_ns),
        ],
    );
    (wall_ns, batch)
}

/// `query.*` and `obs.overhead_frac`; returns `trace.overhead_frac`. Both
/// overheads pair every query with itself — tracer (or telemetry) off and
/// on, in alternating order — so a slow minute of the machine falls on both
/// sides alike.
fn query_rows<R: Regime>(rows: &mut Rows, workload: &Workload, fixture: &Fixture<R>) -> f64 {
    let db = &fixture.db;
    let epsilon = workload.epsilon;
    let queries: Vec<Sequence<R::E>> = fixture.inputs.queries[..ENGINE_QUERIES]
        .iter()
        .map(|p| p.query.clone())
        .collect();
    let engine = QueryEngine::new(db).with_threads(1);

    let mut off = Tracer::new(false);
    let (mut untraced_ns, mut wall_ns) = (0.0, 0.0);
    let mut timings = StageTimings::default();
    let mut stats = QueryStats::default();
    let mut found = 0;
    for (i, query) in queries.iter().enumerate() {
        let untraced_first = i % 2 == 0;
        if untraced_first {
            untraced_ns += engine_query::<R>(&mut off, &engine, query, epsilon).0;
        }
        let (traced_ns, batch) = engine_query::<R>(&mut rows.tracer, &engine, query, epsilon);
        if !untraced_first {
            untraced_ns += engine_query::<R>(&mut off, &engine, query, epsilon).0;
        }
        wall_ns += traced_ns;
        timings.merge(&batch.timings);
        stats.merge(&batch.outcomes[0].stats);
        found += usize::from(batch.outcomes[0].result.is_some());
    }
    let n = ENGINE_QUERIES as f64;
    rows.push(
        "query.segment_ms_per_query",
        timings.segment_ns as f64 / 1e6 / n,
    );
    rows.push(
        "query.filter_ms_per_query",
        timings.filter_ns as f64 / 1e6 / n,
    );
    rows.push(
        "query.chain_ms_per_query",
        timings.chain_ns as f64 / 1e6 / n,
    );
    rows.push(
        "query.verify_ms_per_query",
        timings.verify_ns as f64 / 1e6 / n,
    );
    rows.push("query.attributed_frac", timings.total_ns() as f64 / wall_ns);
    rows.push("query.segments_per_query", stats.segments as f64 / n);
    rows.push(
        "query.index_calls_per_query",
        stats.index_distance_calls as f64 / n,
    );
    rows.push(
        "query.segment_matches_per_query",
        stats.segment_matches as f64 / n,
    );
    rows.push("query.candidates_per_query", stats.candidates as f64 / n);
    rows.push(
        "query.verifications_per_query",
        stats.verification_calls as f64 / n,
    );
    rows.push(
        "query.dp_cells_per_query",
        stats.dp_cells_evaluated as f64 / n,
    );
    rows.push(
        "query.lb_prunes_per_query",
        stats.pruned_by_lower_bound as f64 / n,
    );
    rows.push(
        "query.results_per_verification",
        found as f64 / stats.verification_calls.max(1) as f64,
    );

    // Type III index work relative to one probe pass at its largest radius.
    let (mut sweep_calls, mut single_calls) = (0u64, 0u64);
    for query in &queries[..TYPE3_QUERIES] {
        let op = rows.tracer.next_op();
        let (batch, _) = rows.tracer.span(op, None, "query", "query_type3", || {
            engine.batch_type3(
                std::slice::from_ref(query),
                workload.epsilon_max,
                workload.epsilon_step,
            )
        });
        sweep_calls += batch.outcomes[0].stats.index_distance_calls;
        single_calls += db
            .matching_segments(query, workload.epsilon_max)
            .distance_calls;
    }
    rows.push(
        "query.type3_probe_amplification",
        sweep_calls as f64 / single_calls.max(1) as f64,
    );

    // Telemetry recording on against off, on the plain query path: the
    // fastest of OBS_ROUNDS runs of each query on each side.
    let mut fastest_ns = [0.0, 0.0];
    for (i, query) in queries[..OBS_QUERIES].iter().enumerate() {
        let mut best = [f64::INFINITY, f64::INFINITY];
        for round in 0..OBS_ROUNDS {
            for side in 0..2 {
                let enabled = (i + round + side) % 2 == 1;
                ssr_obs::set_enabled(enabled);
                let started = Instant::now();
                std::hint::black_box(db.query_type2(query, epsilon));
                let slot = usize::from(enabled);
                best[slot] = best[slot].min(nanos(started));
            }
        }
        fastest_ns[0] += best[0];
        fastest_ns[1] += best[1];
    }
    ssr_obs::set_enabled(true);
    rows.push("obs.overhead_frac", fastest_ns[1] / fastest_ns[0] - 1.0);
    wall_ns / untraced_ns - 1.0
}

/// `batch.*`: the same batch on one and on two engine threads.
fn batch_rows<R: Regime>(rows: &mut Rows, workload: &Workload, fixture: &Fixture<R>) {
    let db = &fixture.db;
    let queries: Vec<Sequence<R::E>> = fixture.inputs.queries[..ENGINE_QUERIES]
        .iter()
        .map(|p| p.query.clone())
        .collect();
    let op = rows.tracer.next_op();
    let mut pass = |threads: usize| {
        let engine = QueryEngine::new(db).with_threads(threads);
        let started = Instant::now();
        let (batch, _) = rows.tracer.span(op, None, "batch", "batch_type2", || {
            engine.batch_type2(&queries, workload.epsilon)
        });
        (nanos(started), batch)
    };
    let (sequential_ns, sequential) = pass(1);
    let (parallel_ns, parallel) = pass(2);
    rows.tally
        .require(sequential.outcomes == parallel.outcomes, || {
            "two engine threads answer differently from one".to_string()
        });
    let memo = QueryEngine::new(db).with_threads(2).batch_type3(
        &queries[..TYPE3_QUERIES],
        workload.epsilon_max,
        workload.epsilon_step,
    );
    rows.push("batch.speedup", sequential_ns / parallel_ns);
    rows.push(
        "batch.cpu_over_wall",
        parallel.timings.total_ns() as f64 / parallel_ns,
    );
    rows.push("batch.memo_entries", memo.memo_entries as f64);
}

/// `snapshot.*`: encode, durable save and load of the built database.
fn snapshot_rows<R: Regime>(
    rows: &mut Rows,
    fixture: &Fixture<R>,
    scratch: &Path,
    build_ms: f64,
) -> f64 {
    let db = &fixture.db;
    let path = scratch.join("layer.ssr");
    let (mut encode_ms, mut write_ms, mut load_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes = 0;
    for _ in 0..FILE_REPEATS {
        let op = rows.tracer.next_op();
        let started = Instant::now();
        let (encoded, _) = rows
            .tracer
            .span(op, None, "snapshot", "snapshot_bytes", || {
                db.snapshot_bytes()
            });
        encode_ms.push(nanos(started) / 1e6);
        bytes = encoded.len();

        let started = Instant::now();
        let (saved, _) = rows.tracer.span(op, None, "snapshot", "save_snapshot", || {
            db.save_snapshot(&path)
        });
        write_ms.push(nanos(started) / 1e6);
        rows.tally
            .record(saved.map_err(|e| format!("save_snapshot failed: {e}")));

        let started = Instant::now();
        let (loaded, _) = rows.tracer.span(op, None, "snapshot", "load_snapshot", || {
            Db::<R>::load_snapshot(&path, R::distance())
        });
        load_ms.push(nanos(started) / 1e6);
        rows.tally.record(match loaded {
            Ok(loaded) if loaded.window_count() == db.window_count() => Ok(()),
            Ok(loaded) => Err(format!(
                "snapshot reloads with {} windows",
                loaded.window_count()
            )),
            Err(e) => Err(format!("load_snapshot failed: {e}")),
        });
    }
    let load = median(&load_ms);
    rows.push("snapshot.encode_ms", median(&encode_ms));
    rows.push("snapshot.write_ms", median(&write_ms));
    rows.push("snapshot.load_ms", load);
    rows.push(
        "snapshot.bytes_per_window",
        bytes as f64 / db.window_count() as f64,
    );
    rows.push("snapshot.load_vs_build", load / build_ms);
    load
}

/// `wal.*` and `live.*`: the mutation stream three ways — through the
/// `LiveDatabase` (traced, then reopened for the replay rows), as raw WAL
/// appends of the same payloads, and applied in memory with no log.
fn wal_and_live_rows<R: Regime>(rows: &mut Rows, fixture: &mut Fixture<R>, scratch: &Path) {
    let mutations = &fixture.inputs.mutations;

    // Logged and applied, one span per mutation.
    for mutation in mutations {
        let op = rows.tracer.next_op();
        let verdict = match mutation {
            Mutation::Append(sequence) => {
                let sequence = sequence.clone();
                let live = &mut fixture.live;
                let (result, _) = rows.tracer.span(op, None, "live", "append_sequence", || {
                    live.append_sequence(sequence)
                });
                result.map(drop).map_err(|e| format!("append failed: {e}"))
            }
            Mutation::Remove(id) => {
                let live = &mut fixture.live;
                let (result, _) = rows.tracer.span(op, None, "live", "remove_sequence", || {
                    live.remove_sequence(*id)
                });
                match result {
                    Ok(true) => Ok(()),
                    Ok(false) => Err(format!("remove of {id:?} found nothing to remove")),
                    Err(e) => Err(format!("remove failed: {e}")),
                }
            }
        };
        rows.tally.record(verdict);
    }

    // Raw log appends of the same payloads isolate encode + fsync.
    let payloads: Vec<Vec<u8>> = mutations
        .iter()
        .map(|mutation| match mutation {
            Mutation::Append(sequence) => WalOp::Append {
                label: None,
                elements: sequence.elements().to_vec(),
            }
            .to_payload(),
            Mutation::Remove(id) => WalOp::<R::E>::Remove { sequence: id.0 }.to_payload(),
        })
        .collect();
    let user_bytes: usize = mutations
        .iter()
        .map(|mutation| match mutation {
            Mutation::Append(sequence) => sequence.len() * std::mem::size_of::<R::E>(),
            Mutation::Remove(_) => std::mem::size_of::<usize>(),
        })
        .sum();
    let mut append_us = Vec::new();
    let mut wal = WalWriter::create(scratch.join("raw.wal"), WalBinding::of(b"raw"))
        .expect("create the scratch WAL");
    for payload in &payloads {
        let op = rows.tracer.next_op();
        let started = Instant::now();
        let (result, _) = rows
            .tracer
            .span(op, None, "wal", "append", || wal.append(payload));
        append_us.push(nanos(started) / 1e3);
        rows.tally
            .record(result.map_err(|e| format!("raw WAL append failed: {e}")));
    }
    rows.push("wal.append_us", median(&append_us));
    rows.push(
        "wal.bytes_per_user_byte",
        (wal.len_bytes() - WAL_HEADER_LEN as u64) as f64 / user_bytes as f64,
    );

    // Replay: opening the pair minus loading the snapshot alone.
    let (mut open_ms, mut load_ms) = (Vec::new(), Vec::new());
    for copy in 0..FILE_REPEATS {
        let snapshot = scratch.join(format!("replay-{copy}.ssr"));
        std::fs::copy(fixture.live.snapshot_path(), &snapshot)
            .and_then(|_| std::fs::copy(fixture.live.wal_path(), wal_path_for(&snapshot)))
            .expect("copy the snapshot/WAL pair");
        let op = rows.tracer.next_op();
        let started = Instant::now();
        let (loaded, _) = rows.tracer.span(op, None, "snapshot", "load_snapshot", || {
            Db::<R>::load_snapshot(&snapshot, R::distance())
        });
        load_ms.push(nanos(started) / 1e6);
        rows.tally.record(
            loaded
                .map(drop)
                .map_err(|e| format!("load_snapshot failed: {e}")),
        );
        let started = Instant::now();
        let (opened, _) = rows.tracer.span(op, None, "live", "open", || {
            LiveDatabase::<R::E, R::D>::open(&snapshot, R::distance())
        });
        open_ms.push(nanos(started) / 1e6);
        rows.tally.record(match opened {
            Ok(opened) if opened.pending_ops() == mutations.len() => Ok(()),
            Ok(opened) => Err(format!(
                "open replayed {} of {} operations",
                opened.pending_ops(),
                mutations.len()
            )),
            Err(e) => Err(format!("open failed: {e}")),
        });
    }
    let replay_ms = (median(&open_ms) - median(&load_ms)).max(0.0);
    rows.push("wal.replay_ms", replay_ms);
    rows.push(
        "wal.replay_us_per_op",
        replay_ms * 1e3 / mutations.len() as f64,
    );

    // The same mutations in memory: index insert + arena growth, no log.
    let mut memory = fixture.db.clone_replica();
    let (windows_before, calls_before) = (memory.window_count(), memory.build_distance_calls());
    let (mut append_mem_us, mut remove_us) = (Vec::new(), Vec::new());
    for mutation in mutations {
        let op = rows.tracer.next_op();
        match mutation {
            Mutation::Append(sequence) => {
                let sequence = sequence.clone();
                let started = Instant::now();
                rows.tracer.span(op, None, "index", "append_sequence", || {
                    memory.append_sequence(sequence)
                });
                append_mem_us.push(nanos(started) / 1e3);
            }
            Mutation::Remove(id) => {
                let started = Instant::now();
                let (removed, _) = rows.tracer.span(op, None, "index", "remove_sequence", || {
                    memory.remove_sequence(*id)
                });
                remove_us.push(nanos(started) / 1e3);
                rows.tally.require(removed, || {
                    format!("in-memory remove of {id:?} found nothing")
                });
            }
        }
    }
    rows.push("live.append_mem_us", median(&append_mem_us));
    rows.push(
        "live.append_calls_per_window",
        (memory.build_distance_calls() - calls_before) as f64
            / (memory.window_count() - windows_before) as f64,
    );
    rows.push("live.remove_us", median(&remove_us));
}

/// One request sent by hand — encode, frame exchange, decode — so that each
/// step is its own span under the request's. Returns the request's wall in
/// nanoseconds and the response.
fn traced_exchange<R: Regime>(
    tracer: &mut Tracer,
    client: &mut Client<R::E>,
    request: &Request<R::E>,
) -> (f64, Result<Response, String>) {
    let op = tracer.next_op();
    let started = Instant::now();
    let parent = tracer.begin(op, None, "client", "request");
    let (payload, _) = tracer.span(op, parent, "wire", "encode_payload", || {
        request.encode_payload()
    });
    let (answer, _) = tracer.span(op, parent, "serve", "exchange", || {
        let stream = client.stream_mut();
        write_frame(stream, &payload)
            .and_then(|()| stream.flush().map_err(Into::into))
            .and_then(|()| read_frame(stream, MAX_FRAME_LEN))
    });
    let (response, _) = tracer.span(op, parent, "wire", "decode_payload", || match answer {
        Ok(Some(payload)) => Response::decode_payload(&payload).map_err(|e| e.to_string()),
        Ok(None) => Err("the server closed the connection".to_string()),
        Err(e) => Err(e.to_string()),
    });
    tracer.end(parent);
    (nanos(started), response)
}

fn server_stats<R: Regime>(client: &mut Client<R::E>) -> ssr_core::ServerStatsSnapshot {
    match client.request(&Request::Stats) {
        Ok(Response::Stats(stats)) => stats,
        other => panic!("the server did not answer Stats: {other:?}"),
    }
}

/// `wire.*`, `serve.*`, `client.*` and `cluster.*`.
fn serving_rows<R: Regime>(
    rows: &mut Rows,
    workload: &Workload,
    fixture: &Fixture<R>,
    seconds: f64,
) {
    let addr = fixture.server.local_addr();
    let epsilon = workload.epsilon;
    let queries = &fixture.inputs.queries;
    let hot = type2_request(&queries[0].query, epsilon);
    let mut client = Client::<R::E>::connect(addr).expect("connect to the server");

    // Warm the hot set as the untraced run does; the second answer to `hot`
    // is the cached one every later hit must equal, and the message the
    // codec rows are measured on.
    for planted in &queries[..HOT_QUERIES] {
        let warmed = exchange(&mut client, &type2_request(&planted.query, epsilon));
        rows.tally.record(warmed.map(drop));
    }
    let request_payload = hot.encode_payload();
    let response = match client.request(&hot) {
        Ok(response @ Response::Outcomes(_)) => response,
        other => panic!("the server did not answer the hot query: {other:?}"),
    };
    let response_payload = response.encode_payload();
    rows.push(
        "wire.request_encode_ns",
        mean(&timed_loop(seconds, || {
            drop(std::hint::black_box(hot.encode_payload()))
        })),
    );
    rows.push(
        "wire.request_decode_ns",
        mean(&timed_loop(seconds, || {
            drop(std::hint::black_box(Request::<R::E>::decode_payload(
                &request_payload,
            )))
        })),
    );
    rows.push(
        "wire.response_encode_ns",
        mean(&timed_loop(seconds, || {
            drop(std::hint::black_box(response.encode_payload()))
        })),
    );
    rows.push(
        "wire.response_decode_ns",
        mean(&timed_loop(seconds, || {
            drop(std::hint::black_box(Response::decode_payload(
                &response_payload,
            )))
        })),
    );
    rows.push(
        "wire.frame_ns",
        mean(&timed_loop(seconds, || {
            for payload in [&request_payload, &response_payload] {
                let mut framed = Vec::with_capacity(payload.len() + FRAME_HEADER_LEN);
                write_frame(&mut framed, payload).expect("frame a payload");
                std::hint::black_box(
                    read_frame(&mut Cursor::new(framed), MAX_FRAME_LEN).expect("read it back"),
                );
            }
        })),
    );
    rows.push(
        "wire.request_bytes",
        (request_payload.len() + FRAME_HEADER_LEN) as f64,
    );
    rows.push(
        "wire.response_bytes",
        (response_payload.len() + FRAME_HEADER_LEN) as f64,
    );

    // The loopback floor and a cache hit.
    let ping_ns = timed_loop(seconds, || {
        let pong = client.request(&Request::Ping);
        rows.tally.require(matches!(pong, Ok(Response::Pong)), || {
            format!("ping answered {pong:?}")
        });
    });
    rows.push("serve.ping_us", median(&ping_ns) / 1e3);
    let hit_ns = timed_loop(seconds, || {
        let (_, answer) = traced_exchange::<R>(&mut rows.tracer, &mut client, &hot);
        rows.tally.require(answer.as_ref() == Ok(&response), || {
            format!("the cached answer changed: {answer:?}")
        });
    });
    let hit_us = median(&hit_ns) / 1e3;
    rows.push("serve.hit_us", hit_us);

    // The workload's own request mix, replayed until MISS_QUERIES requests
    // have missed the cache. Every miss is also answered in process — before
    // the request on odd misses, after it on even ones, so neither side
    // always finds the caches warm — and must agree with the served answer.
    let cache_before = server_stats::<R>(&mut client);
    let (mut miss_ms, mut overhead_us) = (Vec::new(), Vec::new());
    for &query in &fixture.inputs.schedules[0] {
        if miss_ms.len() == MISS_QUERIES {
            break;
        }
        let planted = &queries[query];
        let request = type2_request(&planted.query, epsilon);
        let is_miss = query >= HOT_QUERIES;
        let in_process = || {
            let started = Instant::now();
            let reference = fixture.db.query_type2(&planted.query, epsilon);
            (nanos(started) / 1e6, reference)
        };
        let before = (is_miss && miss_ms.len() % 2 == 1).then(in_process);
        let (wall_ns, answer) = traced_exchange::<R>(&mut rows.tracer, &mut client, &request);
        let verdict = match answer {
            Ok(Response::Outcomes(outcomes))
                if outcomes.len() == 1 && outcomes[0].cached != is_miss =>
            {
                if is_miss {
                    let (in_process_ms, reference) = before.unwrap_or_else(in_process);
                    miss_ms.push(wall_ns / 1e6);
                    overhead_us.push((wall_ns / 1e6 - in_process_ms) * 1e3);
                    let served = &outcomes[0];
                    if served.matches.as_slice() == reference.result.as_slice()
                        && served.stats == reference.stats
                    {
                        Ok(())
                    } else {
                        Err(format!(
                            "the served answer to query {query} differs from the in-process one"
                        ))
                    }
                } else {
                    Ok(())
                }
            }
            other => Err(format!(
                "request for query {query} (miss: {is_miss}) was answered with {other:?}"
            )),
        };
        rows.tally.record(verdict);
    }
    let cache_after = server_stats::<R>(&mut client);
    let hits = cache_after.cache_hits - cache_before.cache_hits;
    let misses = cache_after.cache_misses - cache_before.cache_misses;
    rows.push("serve.miss_ms", median(&miss_ms));
    rows.push("serve.miss_overhead_us", median(&overhead_us));
    rows.push(
        "serve.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    rows.push(
        "serve.overload_rejections",
        cache_after.rejected_overload as f64,
    );

    // The retrying client and a one-node cluster client on the same hit.
    let mut wire_client = WireClient::<R::E>::connect(addr).expect("connect the wire client");
    let wire_ns = timed_loop(seconds, || {
        let answer = wire_client.request(&hot);
        rows.tally
            .require(answer.as_ref().ok() == Some(&response), || {
                format!("WireClient answered {answer:?}")
            });
    });
    rows.push("client.wireclient_hit_us", median(&wire_ns) / 1e3);
    let cluster = ClusterClient::<R::E>::new(
        [addr.to_string()],
        ClusterConfig {
            probe_interval: None,
            ..ClusterConfig::default()
        },
    )
    .expect("a one-node cluster");
    let cluster_ns = timed_loop(seconds, || {
        let answer = cluster.request(&hot);
        rows.tally
            .require(answer.as_ref().ok() == Some(&response), || {
                format!("ClusterClient answered {answer:?}")
            });
    });
    let cluster_us = median(&cluster_ns) / 1e3;
    rows.push("cluster.hit_us", cluster_us);
    rows.push("cluster.hop_overhead_us", cluster_us - hit_us);
    drop(cluster);

    // The server's own timing of the same requests, from its exposition.
    match client.request(&Request::Metrics) {
        Ok(Response::Metrics(text)) => {
            let sample = |name: &str| {
                text.lines()
                    .find_map(|line| line.strip_prefix(name)?.trim().parse::<f64>().ok())
                    .unwrap_or_else(|| panic!("the exposition has no {name} sample"))
            };
            rows.push(
                "serve.server_request_us_mean",
                sample("ssr_request_duration_us_sum ") / sample("ssr_request_duration_us_count "),
            );
        }
        other => panic!("the server did not answer Metrics: {other:?}"),
    }
}

/// Runs the traced benchmark of `workload`, reports its per-layer metrics
/// and writes the trace file.
pub fn run<R: Regime>(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    out_dir: &Path,
) -> Report {
    let (mut fixture, _setup_s) = Fixture::<R>::set_up(workload, seed, scratch);
    let mut rows = Rows {
        metrics: Vec::new(),
        tracer: Tracer::new(true),
        tally: Tally::default(),
    };
    distance_rows::<R>(&mut rows, &fixture.db, workload.epsilon, seed);
    let build_ms = index_rows(&mut rows, workload, &fixture);
    let trace_overhead = query_rows(&mut rows, workload, &fixture);
    batch_rows(&mut rows, workload, &fixture);
    snapshot_rows(&mut rows, &fixture, scratch, build_ms);
    wal_and_live_rows(&mut rows, &mut fixture, scratch);
    serving_rows(&mut rows, workload, &fixture, seconds);
    rows.push("trace.overhead_frac", trace_overhead);
    fixture.tear_down();

    // Emit in declared order, whatever order the sections ran in.
    let declared = crate::spec::per_layer();
    rows.metrics
        .sort_by_key(|(name, _)| declared.iter().position(|m| &m.name == name));
    let document = trace_document(workload.name, seed, rows.tracer.spans(), &rows.metrics);
    let path = out_dir.join(format!("{}.trace.json", workload.name));
    if let Err(e) = std::fs::write(&path, format!("{document}\n")) {
        rows.tally
            .record(Err(format!("cannot write {}: {e}", path.display())));
    }
    Report {
        metrics: rows.metrics,
        tally: rows.tally,
    }
}
