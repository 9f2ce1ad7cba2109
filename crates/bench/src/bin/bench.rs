//! Batched query-engine benchmark and CI perf-regression gate.
//!
//! Builds a seeded synthetic protein database, plants a batch of queries
//! with known answers, and runs the batch through [`ssr_core::QueryEngine`]
//! twice — sequentially (`threads = 1`) and with `--threads N` workers —
//! verifying that both produce identical outcomes. Emits a machine-readable
//! report (`BENCH_<date>.json` by default) with per-stage wall-clock and
//! distance-call counts, and optionally gates against a committed baseline:
//!
//! ```text
//! cargo run --release -p ssr-bench --bin bench -- \
//!     [--scale smoke|small|medium] [--threads N] [--queries N] \
//!     [--out PATH] [--baseline bench/baseline.json] [--min-speedup X] \
//!     [--snapshot PATH] [--min-cold-start-speedup X]
//! ```
//!
//! With `--snapshot PATH` the harness additionally measures the cold-start
//! story: it saves the built database to `PATH`, loads it back, asserts the
//! loaded database answers the whole batch with bit-identical outcomes
//! (results AND statistics), and records load wall-clock versus rebuild
//! wall-clock — plus per-section byte sizes — in the JSON report. Loading
//! performs **zero** distance calls, so the cold-start speedup is gated at
//! ≥ 5× by default (`--min-cold-start-speedup 0` disables the gate).
//!
//! The gated metrics are **distance-call counts** (index filtering and
//! verification) plus the shortlist sizes — deterministic on every machine,
//! unlike wall-clock — and the gate fails when any of them regresses more
//! than 10% over the baseline. Wall-clock and speedup are reported for
//! humans; `--min-speedup` turns the speedup into a local acceptance check.

use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use ssr_bench::json::JsonValue;
use ssr_core::{BatchOutcome, FrameworkConfig, QueryEngine, SubsequenceDatabase};
use ssr_datagen::{generate_proteins, plant_query, ProteinConfig, QueryConfig, SymbolMutator};
use ssr_distance::Levenshtein;
use ssr_sequence::{Sequence, Symbol};
use ssr_storage::Snapshot;

/// Fraction by which a gated metric may exceed its baseline value.
const GATE_TOLERANCE: f64 = 0.10;

/// Metrics compared against the baseline ("higher is worse"). All are
/// deterministic counts: the distance-call counters are invariant under the
/// threshold-aware pruning machinery by construction, `dp_cells_evaluated`
/// gates the pruning itself — a kernel regression that evaluates more cells
/// fails here even when every call count is unchanged — and the two byte
/// counters gate the flat arena layout: they are computed from lengths and
/// `size_of`, identical on every machine, and a change that reintroduces
/// per-window copies (or fattens the view/handle types) regresses them.
const GATED_METRICS: [&str; 7] = [
    "index_distance_calls",
    "verification_calls",
    "segment_matches",
    "candidates",
    "dp_cells_evaluated",
    "arena_bytes",
    "bytes_per_window",
];

/// Resident bytes the pre-arena (format v2) layout spent on windows and
/// index items: every window owned its elements **twice** — once in the
/// window store (provenance + `Vec<E>` header + payload + serialized gap
/// sum) and once cloned into the index as a bare `Vec<E>`. Used only to
/// report the reduction ratio the arena layout achieves; the gated numbers
/// are the measured ones.
fn owned_layout_bytes(windows: usize, window_len: usize, elem_size: usize) -> usize {
    let vec_bytes = std::mem::size_of::<Vec<u8>>() + window_len * elem_size;
    let provenance = 3 * std::mem::size_of::<usize>(); // sequence, window_index, start
    let gap_sum = std::mem::size_of::<f64>();
    windows * (provenance + vec_bytes + gap_sum + vec_bytes)
}

struct Options {
    scale: &'static str,
    windows: usize,
    queries: usize,
    threads: usize,
    out: Option<String>,
    baseline: Option<String>,
    min_speedup: Option<f64>,
    snapshot: Option<String>,
    min_cold_start_speedup: f64,
    /// Load-generator mode: drive a running `ssr serve` at this address
    /// instead of benchmarking in-process. `--snapshot` then names the
    /// snapshot the server loaded, for the served-vs-in-process parity check.
    serve: Option<String>,
    /// Closed-loop connections in `--serve` mode.
    connections: usize,
    /// Queries per request batch in `--serve` mode.
    batch: usize,
    /// Requests per connection in `--serve` mode.
    rounds: usize,
    /// Gate: served p99 latency must stay under this (0 disables).
    max_p99_ms: f64,
    /// Gate: result-cache hit rate after the run must reach this (0
    /// disables).
    min_cache_hit_rate: f64,
    /// After the load, ask the server to shut down and assert it exits.
    serve_shutdown: bool,
    /// Chaos mode: run the seeded fault schedules instead of benchmarking.
    chaos: bool,
    /// Base seed of `--chaos` (each schedule derives its own from it).
    chaos_seed: u64,
    /// Cluster chaos mode: three in-process `ssr serve` nodes, a seeded
    /// node-kill/restart schedule, and schedule-exact counter replay.
    /// `--snapshot` (optional here) names the database all nodes serve.
    cluster: bool,
    /// Base seed of `--cluster` (routing, kill schedule, hedge placement).
    cluster_seed: u64,
    /// Ablation: disable the threshold-aware pruning machinery entirely.
    no_pruning: bool,
    /// Gate: the pruned run must evaluate at least this factor fewer DP
    /// cells than a pruning-disabled ablation run (0 disables the gate and
    /// the extra ablation pass).
    min_dp_pruning_ratio: f64,
    /// Gate: resident window/index bytes (arena + views + item handles) must
    /// be at least this factor smaller than the owned Vec-of-Vec layout the
    /// arena replaced (0 disables the gate; the ratio is always reported).
    min_bytes_reduction: f64,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench [--scale smoke|small|medium] [--threads N] [--queries N] \
         [--out PATH] [--baseline PATH] [--min-speedup X] [--snapshot PATH] \
         [--min-cold-start-speedup X] [--no-pruning] [--min-dp-pruning-ratio X] \
         [--min-bytes-reduction X]\n       \
         bench --serve ADDR --snapshot PATH [--connections N] [--batch N] [--rounds N] \
         [--max-p99-ms X] [--min-cache-hit-rate X] [--serve-shutdown] [--out PATH]\n       \
         bench --chaos [--chaos-seed N] [--out PATH]\n       \
         bench --cluster [--cluster-seed N] [--snapshot PATH] [--out PATH]"
    );
    std::process::exit(2);
}

fn parse_options() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        scale: "smoke",
        windows: 400,
        queries: 12,
        threads: 4,
        out: None,
        baseline: None,
        min_speedup: None,
        snapshot: None,
        min_cold_start_speedup: 5.0,
        no_pruning: false,
        min_dp_pruning_ratio: 0.0,
        min_bytes_reduction: 0.0,
        serve: None,
        connections: 4,
        batch: 4,
        rounds: 25,
        max_p99_ms: 0.0,
        min_cache_hit_rate: 0.0,
        serve_shutdown: false,
        chaos: false,
        chaos_seed: 42,
        cluster: false,
        cluster_seed: 42,
    };
    let mut queries_override = None;
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--scale" => {
                let (scale, windows, queries) = match value(&mut i).as_str() {
                    "smoke" => ("smoke", 400, 12),
                    "small" => ("small", 1200, 24),
                    "medium" => ("medium", 4000, 48),
                    _ => usage(),
                };
                opts.scale = scale;
                opts.windows = windows;
                opts.queries = queries;
            }
            "--threads" => {
                opts.threads = value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--queries" => {
                queries_override = Some(value(&mut i).parse().unwrap_or_else(|_| usage()));
            }
            "--out" => opts.out = Some(value(&mut i)),
            "--baseline" => opts.baseline = Some(value(&mut i)),
            "--min-speedup" => {
                opts.min_speedup = Some(value(&mut i).parse().unwrap_or_else(|_| usage()));
            }
            "--snapshot" => opts.snapshot = Some(value(&mut i)),
            "--min-cold-start-speedup" => {
                opts.min_cold_start_speedup = value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--no-pruning" => opts.no_pruning = true,
            "--min-dp-pruning-ratio" => {
                opts.min_dp_pruning_ratio = value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--min-bytes-reduction" => {
                opts.min_bytes_reduction = value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--serve" => opts.serve = Some(value(&mut i)),
            "--connections" => {
                opts.connections = value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--batch" => opts.batch = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--rounds" => opts.rounds = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--max-p99-ms" => {
                opts.max_p99_ms = value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--min-cache-hit-rate" => {
                opts.min_cache_hit_rate = value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--serve-shutdown" => opts.serve_shutdown = true,
            "--chaos" => opts.chaos = true,
            "--chaos-seed" => {
                opts.chaos_seed = value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--cluster" => opts.cluster = true,
            "--cluster-seed" => {
                opts.cluster_seed = value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    if let Some(q) = queries_override {
        opts.queries = q;
    }
    if opts.queries == 0 || opts.threads == 0 && opts.min_speedup.is_some() {
        usage();
    }
    opts
}

/// Gregorian date for a Unix day number (Howard Hinnant's `civil_from_days`).
fn civil_from_days(mut z: i64) -> (i64, u32, u32) {
    z += 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

fn today() -> String {
    let days = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| (d.as_secs() / 86_400) as i64)
        .unwrap_or(0);
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

fn stage_object(batch: &BatchOutcome<Option<ssr_core::SubsequenceMatch>>) -> JsonValue {
    JsonValue::object(vec![
        ("wall_ns", JsonValue::Number(batch.wall_ns as f64)),
        (
            "segment_ns",
            JsonValue::Number(batch.timings.segment_ns as f64),
        ),
        (
            "filter_ns",
            JsonValue::Number(batch.timings.filter_ns as f64),
        ),
        ("chain_ns", JsonValue::Number(batch.timings.chain_ns as f64)),
        (
            "verify_ns",
            JsonValue::Number(batch.timings.verify_ns as f64),
        ),
        ("threads", JsonValue::Number(batch.threads as f64)),
    ])
}

fn main() {
    if let Err(e) = ssr_fault::init_from_env() {
        eprintln!("bench: SSR_FAILPOINTS: {e}");
        std::process::exit(2);
    }
    let opts = parse_options();
    if opts.chaos {
        chaos_mode(&opts);
        return;
    }
    if opts.cluster {
        cluster_mode(&opts);
        return;
    }
    if opts.serve.is_some() {
        serve_mode(&opts);
        return;
    }
    let epsilon = 8.0;
    if opts.no_pruning {
        eprintln!("# ablation: threshold-aware pruning DISABLED");
        ssr_distance::set_pruning_enabled(false);
    }

    // Seeded workload: deterministic across machines, so the distance-call
    // counts gated by CI are reproducible everywhere.
    eprintln!(
        "# bench: scale={} windows~{} queries={} threads={}",
        opts.scale, opts.windows, opts.queries, opts.threads
    );
    let proteins = generate_proteins(&ProteinConfig::sized_for_windows(opts.windows, 20, 42));
    let mut queries: Vec<Sequence<Symbol>> = (0..opts.queries)
        .map(|i| {
            plant_query(
                &proteins,
                &SymbolMutator,
                &QueryConfig {
                    planted_len: 60,
                    context_len: 20,
                    perturbation_rate: 0.05,
                    seed: 1000 + i as u64,
                },
            )
            .expect("protein dataset large enough to plant queries")
            .query
        })
        .collect();
    // A duplicate of the first query exercises batch deduplication.
    queries.push(queries[0].clone());

    let build_started = Instant::now();
    let db: SubsequenceDatabase<Symbol, Levenshtein> = SubsequenceDatabase::builder(
        FrameworkConfig::new(40).with_max_shift(2),
        Levenshtein::new(),
    )
    .add_dataset(&proteins)
    .with_threads(opts.threads)
    .build()
    .expect("bench database builds");
    let build_wall_ns = build_started.elapsed().as_nanos() as u64;
    eprintln!(
        "# built {} windows in {:.1} ms ({} build distance calls)",
        db.window_count(),
        build_wall_ns as f64 / 1e6,
        db.build_distance_calls()
    );

    let sequential = QueryEngine::new(&db).batch_type2(&queries, epsilon);
    let parallel = QueryEngine::new(&db)
        .with_threads(opts.threads)
        .batch_type2(&queries, epsilon);

    // Parity: the parallel batch must be bit-identical to the sequential one.
    let mut parity_failures = 0usize;
    for (i, (a, b)) in sequential
        .outcomes
        .iter()
        .zip(&parallel.outcomes)
        .enumerate()
    {
        if a != b {
            eprintln!("PARITY FAILURE on query {i}: sequential != parallel outcome");
            parity_failures += 1;
        }
    }
    let available = ssr_core::resolve_threads(0);
    if parallel.threads > available {
        eprintln!(
            "# note: {} worker threads on {} hardware threads — wall-clock speedup is \
             bounded by the machine, not the engine",
            parallel.threads, available
        );
    }
    let found = sequential
        .outcomes
        .iter()
        .filter(|o| o.result.is_some())
        .count();
    let stats = sequential.total_stats();
    let speedup = sequential.wall_ns as f64 / parallel.wall_ns.max(1) as f64;
    eprintln!(
        "# {}/{} queries matched; sequential {:.1} ms, parallel {:.1} ms ({} threads): speedup {:.2}x",
        found,
        queries.len(),
        sequential.wall_ns as f64 / 1e6,
        parallel.wall_ns as f64 / 1e6,
        parallel.threads,
        speedup
    );
    eprintln!(
        "# dp cells {} ({} lower-bound prunes) across {} index + {} verification calls",
        stats.dp_cells_evaluated,
        stats.pruned_by_lower_bound,
        stats.index_distance_calls,
        stats.verification_calls
    );

    // DP-cell ablation: rerun the batch with pruning disabled, assert the
    // outcomes are bit-identical apart from the work counters, and gate the
    // in-repo saving. Skipped when the whole run is already an ablation.
    let mut ablation_failures = 0usize;
    let ablation = (!opts.no_pruning && opts.min_dp_pruning_ratio > 0.0).then(|| {
        ssr_distance::set_pruning_enabled(false);
        let unpruned = QueryEngine::new(&db).batch_type2(&queries, epsilon);
        ssr_distance::set_pruning_enabled(true);
        for (i, (a, b)) in sequential
            .outcomes
            .iter()
            .zip(&unpruned.outcomes)
            .enumerate()
        {
            if a.result != b.result {
                eprintln!("ABLATION PARITY FAILURE on query {i}: pruning changed the result");
                ablation_failures += 1;
            }
            if a.stats.verification_calls != b.stats.verification_calls
                || a.stats.index_distance_calls != b.stats.index_distance_calls
            {
                eprintln!("ABLATION PARITY FAILURE on query {i}: pruning changed call counts");
                ablation_failures += 1;
            }
        }
        let full_cells = unpruned.total_stats().dp_cells_evaluated;
        let ratio = full_cells as f64 / stats.dp_cells_evaluated.max(1) as f64;
        eprintln!(
            "# pruning ablation: {} dp cells without pruning vs {} with — {:.2}x fewer",
            full_cells, stats.dp_cells_evaluated, ratio
        );
        if ratio < opts.min_dp_pruning_ratio {
            eprintln!(
                "FAIL dp-cell pruning ratio {ratio:.2}x below required {:.2}x",
                opts.min_dp_pruning_ratio
            );
            ablation_failures += 1;
        }
        (full_cells, ratio)
    });

    // Cold-start measurement: save → load → query parity → speedup gate.
    let mut snapshot_failures = 0usize;
    let snapshot_json = opts.snapshot.as_ref().map(|path| {
        let save_started = Instant::now();
        if let Err(e) = db.save_snapshot(path) {
            eprintln!("FAIL writing snapshot {path}: {e}");
            std::process::exit(1);
        }
        let save_wall_ns = save_started.elapsed().as_nanos() as u64;
        let load_started = Instant::now();
        let loaded: SubsequenceDatabase<Symbol, Levenshtein> =
            match SubsequenceDatabase::load_snapshot(path, Levenshtein::new()) {
                Ok(db) => db,
                Err(e) => {
                    eprintln!("FAIL loading snapshot {path}: {e}");
                    std::process::exit(1);
                }
            };
        let load_wall_ns = load_started.elapsed().as_nanos() as u64;
        let load_distance_calls = loaded.query_distance_counter().get();
        if load_distance_calls != 0 {
            eprintln!("FAIL snapshot load performed {load_distance_calls} distance calls");
            snapshot_failures += 1;
        }
        // The loaded database must answer the whole batch bit-identically to
        // the database it was saved from — results AND statistics.
        let reloaded = QueryEngine::new(&loaded).batch_type2(&queries, epsilon);
        for (i, (a, b)) in sequential
            .outcomes
            .iter()
            .zip(&reloaded.outcomes)
            .enumerate()
        {
            if a != b {
                eprintln!("SNAPSHOT PARITY FAILURE on query {i}: loaded != built outcome");
                snapshot_failures += 1;
            }
        }
        let cold_start_speedup = build_wall_ns as f64 / load_wall_ns.max(1) as f64;
        eprintln!(
            "# snapshot: save {:.1} ms, load {:.1} ms vs rebuild {:.1} ms — cold start {:.1}x \
             ({} distance calls loading, {} rebuilding)",
            save_wall_ns as f64 / 1e6,
            load_wall_ns as f64 / 1e6,
            build_wall_ns as f64 / 1e6,
            cold_start_speedup,
            load_distance_calls,
            db.build_distance_calls()
        );
        if opts.min_cold_start_speedup > 0.0 && cold_start_speedup < opts.min_cold_start_speedup {
            eprintln!(
                "FAIL cold-start speedup {cold_start_speedup:.2}x below required {:.2}x",
                opts.min_cold_start_speedup
            );
            snapshot_failures += 1;
        }
        let sections = match Snapshot::open(path) {
            Ok(snapshot) => JsonValue::Object(
                snapshot
                    .sections()
                    .iter()
                    .map(|s| (s.name.clone(), JsonValue::Number(s.len as f64)))
                    .collect(),
            ),
            Err(e) => {
                eprintln!("FAIL re-opening snapshot {path}: {e}");
                snapshot_failures += 1;
                JsonValue::Null
            }
        };
        let file_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        JsonValue::object(vec![
            ("file_bytes", JsonValue::Number(file_bytes as f64)),
            ("save_wall_ns", JsonValue::Number(save_wall_ns as f64)),
            ("load_wall_ns", JsonValue::Number(load_wall_ns as f64)),
            ("rebuild_wall_ns", JsonValue::Number(build_wall_ns as f64)),
            (
                "cold_start_speedup",
                JsonValue::Number((cold_start_speedup * 100.0).round() / 100.0),
            ),
            (
                "load_distance_calls",
                JsonValue::Number(load_distance_calls as f64),
            ),
            ("sections", sections),
        ])
    });

    // Memory layout accounting: all deterministic (lengths × size_of, never
    // allocator capacities), so CI can gate them like the call counters.
    let index_space = db.index_space_stats();
    let view_bytes = db.windows().view_bytes();
    let resident_window_bytes = db.resident_window_bytes();
    let bytes_per_window = resident_window_bytes as f64 / db.window_count().max(1) as f64;
    let owned_bytes = owned_layout_bytes(
        db.window_count(),
        db.windows().window_len(),
        std::mem::size_of::<Symbol>(),
    );
    let bytes_reduction = owned_bytes as f64 / resident_window_bytes.max(1) as f64;
    eprintln!(
        "# memory: arena {} B + views {} B + index handles {} B = {} B resident \
         ({:.1} B/window) vs {} B owned layout — {:.2}x smaller",
        index_space.arena_bytes,
        view_bytes,
        index_space.item_bytes,
        resident_window_bytes,
        bytes_per_window,
        owned_bytes,
        bytes_reduction
    );
    let mut bytes_failures = 0usize;
    if opts.min_bytes_reduction > 0.0 && bytes_reduction < opts.min_bytes_reduction {
        eprintln!(
            "FAIL resident-bytes reduction {bytes_reduction:.2}x below required {:.2}x",
            opts.min_bytes_reduction
        );
        bytes_failures += 1;
    }
    let report = JsonValue::object(vec![
        (
            "schema",
            JsonValue::String("ssr-bench-engine/1".to_string()),
        ),
        ("date", JsonValue::String(today())),
        ("scale", JsonValue::String(opts.scale.to_string())),
        ("threads", JsonValue::Number(parallel.threads as f64)),
        (
            // Speedup is bounded by the machine: reading an artifact produced
            // on a 1-core runner should not look like an engine regression.
            "available_parallelism",
            JsonValue::Number(ssr_core::resolve_threads(0) as f64),
        ),
        ("queries", JsonValue::Number(queries.len() as f64)),
        (
            "unique_queries",
            JsonValue::Number(parallel.unique_queries as f64),
        ),
        ("queries_matched", JsonValue::Number(found as f64)),
        ("windows", JsonValue::Number(db.window_count() as f64)),
        ("build_wall_ns", JsonValue::Number(build_wall_ns as f64)),
        (
            "build_distance_calls",
            JsonValue::Number(db.build_distance_calls() as f64),
        ),
        (
            "index_distance_calls",
            JsonValue::Number(stats.index_distance_calls as f64),
        ),
        (
            "verification_calls",
            JsonValue::Number(stats.verification_calls as f64),
        ),
        (
            "segment_matches",
            JsonValue::Number(stats.segment_matches as f64),
        ),
        ("candidates", JsonValue::Number(stats.candidates as f64)),
        (
            "dp_cells_evaluated",
            JsonValue::Number(stats.dp_cells_evaluated as f64),
        ),
        (
            "pruned_by_lower_bound",
            JsonValue::Number(stats.pruned_by_lower_bound as f64),
        ),
        ("pruning_enabled", JsonValue::Bool(!opts.no_pruning)),
        (
            "arena_bytes",
            JsonValue::Number(index_space.arena_bytes as f64),
        ),
        (
            "bytes_per_window",
            JsonValue::Number((bytes_per_window * 100.0).round() / 100.0),
        ),
        (
            "resident_window_bytes",
            JsonValue::Number(resident_window_bytes as f64),
        ),
        ("owned_layout_bytes", JsonValue::Number(owned_bytes as f64)),
        (
            "bytes_reduction",
            JsonValue::Number((bytes_reduction * 100.0).round() / 100.0),
        ),
        ("sequential", stage_object(&sequential)),
        ("parallel", stage_object(&parallel)),
        (
            "speedup",
            JsonValue::Number((speedup * 100.0).round() / 100.0),
        ),
        (
            "index_space",
            JsonValue::object(vec![
                ("items", JsonValue::Number(index_space.items as f64)),
                ("entries", JsonValue::Number(index_space.entries as f64)),
                ("levels", JsonValue::Number(index_space.levels as f64)),
                (
                    "avg_parents",
                    JsonValue::Number((index_space.avg_parents * 100.0).round() / 100.0),
                ),
                (
                    "estimated_bytes",
                    JsonValue::Number(index_space.estimated_bytes as f64),
                ),
                (
                    "serialized_bytes",
                    JsonValue::Number(index_space.serialized_bytes as f64),
                ),
                (
                    "item_bytes",
                    JsonValue::Number(index_space.item_bytes as f64),
                ),
                ("view_bytes", JsonValue::Number(view_bytes as f64)),
            ]),
        ),
    ]);
    let report = match (report, snapshot_json) {
        (JsonValue::Object(mut members), Some(snapshot)) => {
            members.push(("snapshot".to_string(), snapshot));
            JsonValue::Object(members)
        }
        (report, _) => report,
    };
    let report = match (report, ablation) {
        (JsonValue::Object(mut members), Some((full_cells, ratio))) => {
            members.push((
                "dp_cells_no_pruning".to_string(),
                JsonValue::Number(full_cells as f64),
            ));
            members.push((
                "dp_pruning_ratio".to_string(),
                JsonValue::Number((ratio * 100.0).round() / 100.0),
            ));
            JsonValue::Object(members)
        }
        (report, _) => report,
    };

    let out_path = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("BENCH_{}.json", today()));
    std::fs::write(&out_path, report.render()).unwrap_or_else(|e| {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    });
    eprintln!("# wrote {out_path}");

    let mut failures = parity_failures + snapshot_failures + ablation_failures + bytes_failures;
    if let Some(baseline_path) = &opts.baseline {
        failures += check_baseline(baseline_path, &report);
    }
    if let Some(min) = opts.min_speedup {
        if speedup < min {
            eprintln!("FAIL speedup {speedup:.2}x below required {min:.2}x");
            failures += 1;
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

/// `--chaos` mode: the seeded fault schedules of [`ssr_bench::chaos`], with
/// a one-line verdict per schedule, an optional JSON artifact, and a nonzero
/// exit if any invariant broke.
fn chaos_mode(opts: &Options) {
    eprintln!("# chaos: base seed {}", opts.chaos_seed);
    let outcomes = ssr_bench::run_chaos(opts.chaos_seed);
    let mut failures = 0usize;
    for outcome in &outcomes {
        match &outcome.failure {
            None => eprintln!(
                "# chaos: PASS {} (seed {}, {} ops, {} acked, {} injected, {} retries)",
                outcome.name,
                outcome.seed,
                outcome.operations,
                outcome.acked,
                outcome.injected,
                outcome.retries
            ),
            Some(msg) => {
                failures += 1;
                eprintln!(
                    "# chaos: FAIL {} (seed {}): {msg}",
                    outcome.name, outcome.seed
                );
            }
        }
    }
    if let Some(out) = &opts.out {
        let report = JsonValue::object(vec![
            ("kind", JsonValue::String("chaos".to_string())),
            ("date", JsonValue::String(today())),
            ("base_seed", JsonValue::Number(opts.chaos_seed as f64)),
            (
                "schedules",
                JsonValue::Array(outcomes.iter().map(|o| o.to_json()).collect()),
            ),
        ]);
        std::fs::write(out, report.render()).unwrap_or_else(|e| {
            eprintln!("FAIL writing chaos report {out}: {e}");
            std::process::exit(1);
        });
        eprintln!("# chaos: report written to {out}");
    }
    eprintln!(
        "# chaos: {} of {} schedules passed",
        outcomes.len() - failures,
        outcomes.len()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}

/// `--cluster` mode: the seeded node-kill chaos harness of
/// [`ssr_bench::cluster`] — three in-process nodes, two identical scripted
/// passes whose failover/hedge/breaker-trip counters must replay exactly,
/// and a live recovery phase. Nonzero exit on any broken invariant.
fn cluster_mode(opts: &Options) {
    eprintln!("# cluster: seed {}", opts.cluster_seed);
    let outcome = ssr_bench::run_cluster_chaos(opts.cluster_seed, opts.snapshot.as_deref());
    match &outcome.failure {
        None => eprintln!(
            "# cluster: PASS (seed {}, {} requests, {} failovers, {} hedges, {} trips)",
            outcome.seed,
            outcome.requests,
            outcome.counters.failovers,
            outcome.counters.hedges,
            outcome.counters.breaker_trips
        ),
        Some(msg) => eprintln!("# cluster: FAIL (seed {}): {msg}", outcome.seed),
    }
    if let Some(out) = &opts.out {
        let report = JsonValue::object(vec![
            ("kind", JsonValue::String("cluster-chaos".to_string())),
            ("date", JsonValue::String(today())),
            ("run", outcome.to_json()),
        ]);
        std::fs::write(out, report.render()).unwrap_or_else(|e| {
            eprintln!("FAIL writing cluster report {out}: {e}");
            std::process::exit(1);
        });
        eprintln!("# cluster: report written to {out}");
    }
    if outcome.failure.is_some() {
        std::process::exit(1);
    }
}

/// `--serve` mode: closed-loop load against a running `ssr serve`, with a
/// served-vs-in-process parity check, latency/cache-hit gates and a JSON
/// artifact. Exits nonzero on any gate or parity failure.
fn serve_mode(opts: &Options) {
    let addr = opts.serve.as_deref().expect("serve_mode requires --serve");
    let Some(snapshot_path) = opts.snapshot.as_deref() else {
        eprintln!("bench --serve requires --snapshot PATH (the snapshot the server loaded)");
        std::process::exit(2);
    };

    // The in-process reference database: the same snapshot + pending WAL the
    // server opened. Symbol/Levenshtein only — the synthetic bench workloads
    // are protein-shaped, and the parity engine must match the server's
    // element type exactly.
    let (db, replayed): (SubsequenceDatabase<Symbol, Levenshtein>, usize) =
        match ssr_core::load_with_wal(snapshot_path, Levenshtein::new()) {
            Ok(loaded) => loaded,
            Err(e) => {
                eprintln!("FAIL loading parity snapshot {snapshot_path}: {e}");
                std::process::exit(1);
            }
        };
    eprintln!(
        "# serve mode: addr={addr} snapshot={snapshot_path} ({} sequences, {} windows, \
         {replayed} WAL ops), {} connections x {} rounds, batch {}",
        db.sequence_count(),
        db.window_count(),
        opts.connections,
        opts.rounds,
        opts.batch
    );

    // Deterministic request shapes carved out of the served sequences
    // themselves: guaranteed in-vocabulary, and identical on every machine.
    let specs = [
        ssr_core::QuerySpec::Type1 { epsilon: 8.0 },
        ssr_core::QuerySpec::Type2 { epsilon: 8.0 },
        ssr_core::QuerySpec::Type3 {
            epsilon_max: 8.0,
            epsilon_increment: 2.0,
        },
    ];
    let dataset = db.to_dataset();
    let sequences = dataset.sequences();
    let requests: Vec<ssr_core::Request<Symbol>> = specs
        .iter()
        .enumerate()
        .map(|(shape, spec)| {
            let queries = (0..opts.batch.max(1))
                .map(|slot| {
                    let seq = &sequences[(shape * opts.batch + slot) % sequences.len()];
                    let len = seq.len().clamp(1, 24);
                    let start = (seq.len() - len) / 2;
                    seq.elements()[start..start + len].to_vec()
                })
                .collect();
            ssr_core::Request::Query {
                spec: *spec,
                queries,
            }
        })
        .collect();

    if let Err(e) = ssr_bench::wait_until_ready::<Symbol>(addr, Duration::from_secs(30)) {
        eprintln!("FAIL server at {addr} never became ready: {e}");
        std::process::exit(1);
    }

    let config = ssr_bench::LoadConfig {
        addr: addr.to_string(),
        connections: opts.connections,
        rounds: opts.rounds,
        connect_timeout: Duration::from_secs(30),
    };
    let report = match ssr_bench::run_load(&config, &requests) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("FAIL load run against {addr}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "# load: {} completed, {} overloaded, {} failed in {:.1} ms ({:.0} req/s)",
        report.completed,
        report.overloaded,
        report.failed,
        report.wall_ns as f64 / 1e6,
        report.qps
    );
    eprintln!(
        "# latency: p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms, max {:.2} ms",
        report.latency.p50_ns as f64 / 1e6,
        report.latency.p95_ns as f64 / 1e6,
        report.latency.p99_ns as f64 / 1e6,
        report.latency.max_ns as f64 / 1e6
    );
    eprintln!(
        "# cache: {} hits / {} misses ({:.0}% hit rate), {} entries",
        report.server_stats.cache_hits,
        report.server_stats.cache_misses,
        report.cache_hit_rate * 100.0,
        report.server_stats.cache_entries
    );

    let mut failures = 0usize;

    // Parity: the served outcomes of request shape 0 (a Type I batch) must
    // be bit-identical — matches AND stats — to the in-process engine.
    let ssr_core::Request::Query { spec, queries } = &requests[0] else {
        unreachable!("request shapes are queries");
    };
    let ssr_core::QuerySpec::Type1 { epsilon } = spec else {
        unreachable!("shape 0 is Type I");
    };
    let local: Vec<Sequence<Symbol>> = queries.iter().cloned().map(Sequence::new).collect();
    let expected = QueryEngine::new(&db).batch_type1(&local, *epsilon);
    if report.sample_outcomes.is_empty() {
        eprintln!("FAIL no served sample outcomes captured for the parity check");
        failures += 1;
    } else if report.sample_outcomes.len() != expected.outcomes.len() {
        eprintln!(
            "FAIL parity: served {} outcomes, in-process produced {}",
            report.sample_outcomes.len(),
            expected.outcomes.len()
        );
        failures += 1;
    } else {
        for (i, (wire, local)) in report
            .sample_outcomes
            .iter()
            .zip(&expected.outcomes)
            .enumerate()
        {
            if wire.matches != local.result || wire.stats != local.stats {
                eprintln!("FAIL parity: served outcome {i} differs from in-process outcome");
                failures += 1;
            }
        }
        if failures == 0 {
            eprintln!(
                "# parity: {} served outcomes bit-identical to in-process engine",
                expected.outcomes.len()
            );
        }
    }

    if report.failed > 0 {
        eprintln!("FAIL {} requests failed outright", report.failed);
        failures += 1;
    }
    if opts.max_p99_ms > 0.0 {
        let p99_ms = report.latency.p99_ns as f64 / 1e6;
        if p99_ms > opts.max_p99_ms {
            eprintln!(
                "FAIL p99 latency {:.2} ms exceeds the {:.2} ms gate",
                p99_ms, opts.max_p99_ms
            );
            failures += 1;
        } else {
            eprintln!(
                "OK   p99 {:.2} ms within the {:.2} ms gate",
                p99_ms, opts.max_p99_ms
            );
        }
    }
    if opts.min_cache_hit_rate > 0.0 {
        if report.cache_hit_rate < opts.min_cache_hit_rate {
            eprintln!(
                "FAIL cache hit rate {:.2} below the {:.2} gate",
                report.cache_hit_rate, opts.min_cache_hit_rate
            );
            failures += 1;
        } else {
            eprintln!(
                "OK   cache hit rate {:.2} meets the {:.2} gate",
                report.cache_hit_rate, opts.min_cache_hit_rate
            );
        }
    }

    // Telemetry cross-check: scrape the Metrics endpoint and hold the
    // server's own counters against what the load generator measured from
    // the outside.
    let mut server_metrics = JsonValue::Null;
    match scrape_metrics(addr) {
        Err(e) => {
            eprintln!("FAIL scraping the Metrics endpoint at {addr}: {e}");
            failures += 1;
        }
        Ok(text) => match ssr_bench::promcheck::parse(&text) {
            Err(e) => {
                eprintln!("FAIL exposition from {addr} does not validate: {e}");
                failures += 1;
            }
            Ok(exposition) => {
                // Every completed request carried `batch` queries and every
                // overloaded one was rejected before execution, so the
                // server's answered-query counter must equal the load
                // generator's completed-requests tally exactly — a drift
                // means a request was double-counted or silently dropped.
                let expected_answered = (report.completed * opts.batch.max(1) as u64) as f64;
                let answered = exposition.scalar("ssr_queries_answered_total");
                if answered != Some(expected_answered) {
                    eprintln!(
                        "FAIL scraped ssr_queries_answered_total {answered:?} != \
                         completed x batch = {expected_answered}"
                    );
                    failures += 1;
                } else {
                    eprintln!(
                        "# scrape: exposition valid, {expected_answered} answered queries \
                         match the load generator's count"
                    );
                }
                // Server-side p99 (wall clock inside the server, admission
                // queue included) can never exceed the client-observed p99,
                // which additionally pays the wire round trip. The scraped
                // value is a bucket lower edge, so the comparison is safe
                // against bucketing error in the server's favor only.
                let client_p99_us = report.latency.p99_ns / 1_000;
                let server_p99_lower_us = exposition
                    .histogram_snapshot("ssr_request_duration_us")
                    .and_then(|snapshot| snapshot.percentile_lower_edge(0.99));
                match server_p99_lower_us {
                    Some(server_us) if server_us > client_p99_us => {
                        eprintln!(
                            "FAIL server-side p99 >= {server_us} us exceeds the \
                             client-side p99 of {client_p99_us} us"
                        );
                        failures += 1;
                    }
                    Some(server_us) => {
                        eprintln!(
                            "# latency cross-check: server-side p99 in ({server_us}, \
                             {}] us, client-side p99 {client_p99_us} us",
                            server_us.saturating_mul(2)
                        );
                    }
                    None => {
                        eprintln!(
                            "FAIL exposition has no populated ssr_request_duration_us \
                             histogram"
                        );
                        failures += 1;
                    }
                }
                let scraped = |name: &str| {
                    exposition
                        .scalar(name)
                        .map(JsonValue::Number)
                        .unwrap_or(JsonValue::Null)
                };
                server_metrics = JsonValue::object(vec![
                    ("queries_answered", scraped("ssr_queries_answered_total")),
                    ("queries_executed", scraped("ssr_queries_executed_total")),
                    ("cache_hits", scraped("ssr_cache_hits_total")),
                    ("cache_misses", scraped("ssr_cache_misses_total")),
                    (
                        "overload_rejections",
                        scraped("ssr_overload_rejections_total"),
                    ),
                    ("queue_depth", scraped("ssr_queue_depth")),
                    ("uptime_ms", scraped("ssr_uptime_ms")),
                    ("cache_bytes_estimate", scraped("ssr_cache_bytes_estimate")),
                    (
                        "request_p99_lower_us",
                        server_p99_lower_us
                            .map(|us| JsonValue::Number(us as f64))
                            .unwrap_or(JsonValue::Null),
                    ),
                    ("client_p99_us", JsonValue::Number(client_p99_us as f64)),
                    (
                        "cache_shard_evictions",
                        JsonValue::Number(exposition.sum("ssr_cache_shard_evictions_total")),
                    ),
                ]);
            }
        },
    }

    let json = JsonValue::object(vec![
        ("schema_version", JsonValue::Number(1.0)),
        ("date", JsonValue::String(today())),
        ("mode", JsonValue::String("serve".to_string())),
        ("addr", JsonValue::String(addr.to_string())),
        ("snapshot", JsonValue::String(snapshot_path.to_string())),
        ("connections", JsonValue::Number(opts.connections as f64)),
        ("rounds", JsonValue::Number(opts.rounds as f64)),
        ("batch", JsonValue::Number(opts.batch as f64)),
        ("wal_ops_replayed", JsonValue::Number(replayed as f64)),
        ("load", report.to_json()),
        ("server_metrics", server_metrics),
        ("parity_ok", JsonValue::Bool(failures == 0)),
    ]);
    if let Some(out) = &opts.out {
        if let Err(e) = std::fs::write(out, json.render()) {
            eprintln!("failed to write {out}: {e}");
            std::process::exit(1);
        }
        eprintln!("# wrote {out}");
    }

    if opts.serve_shutdown {
        ssr_bench::request_shutdown::<Symbol>(addr);
        // The listener should be gone within a few beats of the drain.
        let deadline = Instant::now() + Duration::from_secs(10);
        while ssr_bench::is_listening(addr) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(100));
        }
        if ssr_bench::is_listening(addr) {
            eprintln!("FAIL server at {addr} still listening after shutdown request");
            failures += 1;
        } else {
            eprintln!("# server at {addr} shut down cleanly");
        }
    }

    if failures > 0 {
        std::process::exit(1);
    }
}

/// Fetches the server's Prometheus exposition over the wire.
fn scrape_metrics(addr: &str) -> Result<String, String> {
    let mut client = ssr_bench::connect_with_retry::<Symbol>(addr, Duration::from_secs(10))
        .map_err(|e| e.to_string())?;
    match client.request(&ssr_core::Request::Metrics) {
        Ok(ssr_core::Response::Metrics(text)) => Ok(text),
        Ok(other) => Err(format!("metrics answered with {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

/// Compares the deterministic counters of `report` against the committed
/// baseline, returning the number of failed gates.
fn check_baseline(path: &str, report: &JsonValue) -> usize {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("FAIL cannot read baseline {path}: {e}");
            return 1;
        }
    };
    let baseline = match JsonValue::parse(&text) {
        Ok(value) => value,
        Err(e) => {
            eprintln!("FAIL cannot parse baseline {path}: {e}");
            return 1;
        }
    };
    let mut failures = 0usize;
    for metric in GATED_METRICS {
        let Some(expected) = baseline.get(metric).and_then(JsonValue::as_f64) else {
            continue;
        };
        let Some(actual) = report.get(metric).and_then(JsonValue::as_f64) else {
            eprintln!("FAIL metric {metric} missing from the report");
            failures += 1;
            continue;
        };
        let limit = expected * (1.0 + GATE_TOLERANCE);
        if actual > limit {
            eprintln!(
                "FAIL {metric}: {actual} exceeds baseline {expected} by more than {:.0}%",
                GATE_TOLERANCE * 100.0
            );
            failures += 1;
        } else if actual < expected * (1.0 - GATE_TOLERANCE) {
            eprintln!(
                "NOTE {metric}: {actual} improved more than {:.0}% over baseline {expected}; \
                 consider refreshing bench/baseline.json",
                GATE_TOLERANCE * 100.0
            );
        } else {
            eprintln!(
                "OK   {metric}: {actual} within {:.0}% of {expected}",
                GATE_TOLERANCE * 100.0
            );
        }
    }
    failures
}
