//! Deterministic-counter smoke run and CI regression gate, plus the seeded
//! cluster replay.
//!
//! ```text
//! bench [--out PATH] [--baseline bench/baseline.json]
//! bench --cluster [--cluster-seed N] [--snapshot PATH] [--out PATH]
//! ```
//!
//! The smoke run builds a seeded synthetic protein database, plants a batch
//! of queries with known answers, runs them as one sequential Type II batch
//! through [`ssr_core::QueryEngine`] and reports the work it took. With
//! `--baseline` the seven gated metrics — the distance-call counts of index
//! filtering and verification, the two shortlist sizes, `dp_cells_evaluated`
//! and the two arena byte counters — are compared with the committed values
//! and the run fails when any of them regresses by more than 10%. All seven
//! are deterministic counts, identical on every machine; wall time is the
//! business of `benchmark/`, and every parity invariant (threads, snapshot
//! reload, pruning ablation, served outcomes, fault schedules) belongs to the
//! test suite that owns it. The report also carries `dp_cells_no_pruning`,
//! the cells the same batch fills on a second database built from the same
//! proteins on `Unpruned<Levenshtein>`: ungated (`pruning_ablation.rs` holds
//! the saving), quoted by the docs.
//!
//! `--cluster` runs the node-kill harness of [`ssr_bench::cluster`]. The
//! report goes to `--out`, or to stdout without it.

use ssr_bench::json::JsonValue;
use ssr_core::{FrameworkConfig, QueryEngine, SubsequenceDatabase};
use ssr_datagen::{generate_proteins, plant_query, ProteinConfig, QueryConfig, SymbolMutator};
use ssr_distance::{Levenshtein, Unpruned};
use ssr_sequence::{Sequence, Symbol};

/// Fraction by which a gated metric may exceed its baseline value.
const GATE_TOLERANCE: f64 = 0.10;

/// Metrics compared against the baseline ("higher is worse"). The
/// distance-call counters are invariant under the threshold-aware pruning
/// machinery by construction, `dp_cells_evaluated` gates the pruning itself —
/// a kernel regression that evaluates more cells fails here even when every
/// call count is unchanged — and the two byte counters gate the flat arena
/// layout: they are computed from lengths and `size_of`, and a change that
/// reintroduces per-window copies (or fattens the view/handle types)
/// regresses them.
const GATED_METRICS: [&str; 7] = [
    "index_distance_calls",
    "verification_calls",
    "segment_matches",
    "candidates",
    "dp_cells_evaluated",
    "arena_bytes",
    "bytes_per_window",
];

const WINDOWS: usize = 400;
const QUERIES: u64 = 12;
const EPSILON: f64 = 8.0;

struct Options {
    out: Option<String>,
    baseline: Option<String>,
    cluster: bool,
    /// Base seed of `--cluster` (routing, kill schedule, hedge placement).
    cluster_seed: u64,
    /// The database all `--cluster` nodes serve (a seeded fixture without).
    snapshot: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench [--out PATH] [--baseline PATH]\n       \
         bench --cluster [--cluster-seed N] [--snapshot PATH] [--out PATH]"
    );
    std::process::exit(2);
}

fn parse_options() -> Options {
    let mut opts = Options {
        out: None,
        baseline: None,
        cluster: false,
        cluster_seed: 42,
        snapshot: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--out" => opts.out = Some(value()),
            "--baseline" => opts.baseline = Some(value()),
            "--cluster" => opts.cluster = true,
            "--cluster-seed" => opts.cluster_seed = value().parse().unwrap_or_else(|_| usage()),
            "--snapshot" => opts.snapshot = Some(value()),
            _ => usage(),
        }
    }
    opts
}

fn main() {
    if let Err(e) = ssr_fault::init_from_env() {
        eprintln!("bench: SSR_FAILPOINTS: {e}");
        std::process::exit(2);
    }
    let opts = parse_options();
    let ok = if opts.cluster {
        cluster_mode(&opts)
    } else {
        smoke_mode(&opts)
    };
    if !ok {
        std::process::exit(1);
    }
}

fn emit(out: Option<&str>, report: &JsonValue) {
    match out {
        Some(path) => {
            std::fs::write(path, report.render()).unwrap_or_else(|e| {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("# wrote {path}");
        }
        None => println!("{}", report.render()),
    }
}

/// The smoke run: seeded workload, one sequential batch, the report, the
/// baseline gate. Returns whether every gate held.
fn smoke_mode(opts: &Options) -> bool {
    // Seeded workload: deterministic across machines, so the counts gated by
    // CI are reproducible everywhere.
    let proteins = generate_proteins(&ProteinConfig::sized_for_windows(WINDOWS, 20, 42));
    let mut queries: Vec<Sequence<Symbol>> = (0..QUERIES)
        .map(|i| {
            plant_query(
                &proteins,
                &SymbolMutator,
                &QueryConfig {
                    planted_len: 60,
                    context_len: 20,
                    perturbation_rate: 0.05,
                    seed: 1000 + i,
                },
            )
            .expect("protein dataset large enough to plant queries")
            .query
        })
        .collect();
    // A duplicate of the first query exercises batch deduplication.
    queries.push(queries[0].clone());

    let config = FrameworkConfig::new(40).with_max_shift(2);
    let db = SubsequenceDatabase::builder(config.clone(), Levenshtein::new())
        .add_dataset(&proteins)
        .build()
        .expect("bench database builds");
    eprintln!(
        "# bench: {} windows ({} build distance calls), {} queries",
        db.window_count(),
        db.build_distance_calls(),
        queries.len()
    );

    let engine = QueryEngine::new(&db);
    let batch = engine.batch_type2(&queries, EPSILON);
    let found = batch.outcomes.iter().filter(|o| o.result.is_some()).count();
    let stats = batch.total_stats();
    eprintln!(
        "# {found}/{} queries matched in {:.1} ms: dp cells {} ({} lower-bound prunes) across \
         {} index + {} verification calls",
        queries.len(),
        batch.wall_ns as f64 / 1e6,
        stats.dp_cells_evaluated,
        stats.pruned_by_lower_bound,
        stats.index_distance_calls,
        stats.verification_calls
    );

    // What the same batch costs with every kernel running its full program.
    let unpruned = SubsequenceDatabase::builder(config, Unpruned(Levenshtein::new()))
        .add_dataset(&proteins)
        .build()
        .expect("unpruned bench database builds");
    let full_cells = QueryEngine::new(&unpruned)
        .batch_type2(&queries, EPSILON)
        .total_stats()
        .dp_cells_evaluated;
    eprintln!(
        "# pruning ablation: {full_cells} dp cells without pruning vs {} with — {:.2}x fewer",
        stats.dp_cells_evaluated,
        full_cells as f64 / stats.dp_cells_evaluated.max(1) as f64
    );

    // Memory layout accounting: lengths × size_of, never allocator capacities.
    let index_space = db.index_space_stats();
    let view_bytes = db.windows().view_bytes();
    let resident_window_bytes = db.resident_window_bytes();
    let bytes_per_window = resident_window_bytes as f64 / db.window_count().max(1) as f64;
    eprintln!(
        "# memory: arena {} B + views {view_bytes} B + index handles {} B = \
         {resident_window_bytes} B resident ({bytes_per_window:.1} B/window)",
        index_space.arena_bytes, index_space.item_bytes
    );

    let num = |v: f64| JsonValue::Number(v);
    let report = JsonValue::object(vec![
        (
            "schema",
            JsonValue::String("ssr-bench-engine/1".to_string()),
        ),
        ("queries", num(queries.len() as f64)),
        ("unique_queries", num(batch.unique_queries as f64)),
        ("queries_matched", num(found as f64)),
        ("windows", num(db.window_count() as f64)),
        (
            "build_distance_calls",
            num(db.build_distance_calls() as f64),
        ),
        (
            "index_distance_calls",
            num(stats.index_distance_calls as f64),
        ),
        ("verification_calls", num(stats.verification_calls as f64)),
        ("segment_matches", num(stats.segment_matches as f64)),
        ("candidates", num(stats.candidates as f64)),
        ("dp_cells_evaluated", num(stats.dp_cells_evaluated as f64)),
        (
            "pruned_by_lower_bound",
            num(stats.pruned_by_lower_bound as f64),
        ),
        ("dp_cells_no_pruning", num(full_cells as f64)),
        ("arena_bytes", num(index_space.arena_bytes as f64)),
        (
            "bytes_per_window",
            num((bytes_per_window * 100.0).round() / 100.0),
        ),
        ("resident_window_bytes", num(resident_window_bytes as f64)),
        (
            "index_space",
            JsonValue::object(vec![
                ("items", num(index_space.items as f64)),
                ("entries", num(index_space.entries as f64)),
                ("levels", num(index_space.levels as f64)),
                (
                    "avg_parents",
                    num((index_space.avg_parents * 100.0).round() / 100.0),
                ),
                ("estimated_bytes", num(index_space.estimated_bytes as f64)),
                ("serialized_bytes", num(index_space.serialized_bytes as f64)),
                ("item_bytes", num(index_space.item_bytes as f64)),
                ("view_bytes", num(view_bytes as f64)),
            ]),
        ),
    ]);
    emit(opts.out.as_deref(), &report);

    match &opts.baseline {
        Some(path) => check_baseline(path, &report) == 0,
        None => true,
    }
}

/// `--cluster` mode: the seeded node-kill harness of [`ssr_bench::cluster`] —
/// three in-process nodes, two identical scripted passes whose
/// failover/hedge/breaker-trip counters must replay exactly, and a live
/// recovery phase. Returns whether every invariant held.
fn cluster_mode(opts: &Options) -> bool {
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
    let report = JsonValue::object(vec![
        ("kind", JsonValue::String("cluster-chaos".to_string())),
        ("run", outcome.to_json()),
    ]);
    emit(opts.out.as_deref(), &report);
    outcome.failure.is_none()
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
