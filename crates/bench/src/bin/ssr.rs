//! `ssr` — build, inspect and query on-disk database snapshots.
//!
//! ```text
//! ssr build   [--dataset dna|proteins|songs|traj] [--windows N] [--seed S]
//!             [--lambda L] [--max-shift S] [--backend reference-net|cover-tree|mv-K|linear-scan]
//!             [--threads N] [--out PATH]
//! ssr info    PATH [--json]
//! ssr query   PATH (--plant SEED | --text STRING) [--type 1|2|3] [--epsilon X]
//!             [--epsilon-max X] [--epsilon-increment X]
//! ssr append  PATH --text STRING [--label L]
//! ssr remove  PATH --sequence N
//! ssr compact PATH
//! ssr serve   PATH [--addr HOST:PORT] [--workers N] [--replicas N]
//!             [--queue-depth N] [--cache-shards N] [--cache-capacity N]
//!             [--slow-query-ms N] [--failpoint SPEC]
//! ssr stats   ADDR [--check] [--json]
//! ssr drain   ADDR
//! ssr cluster ADDR1,ADDR2,... query --text STRING [--type 1|2|3] [--epsilon X]
//!             [--epsilon-max X] [--epsilon-increment X] [--hedge-ms N]
//! ssr cluster ADDR1,ADDR2,... stats
//! ssr cluster ADDR1,ADDR2,... drain
//! ```
//!
//! `build` generates one of the four synthetic datasets, runs steps 1–2 of
//! the framework (window partitioning + metric index construction) and
//! writes the result as a versioned, checksummed snapshot. `info` prints the
//! snapshot's manifest, per-section byte sizes and the state of the WAL
//! sibling (if any) without needing to know the element type. `query`
//! cold-starts a database from the snapshot — loading it instead of
//! rebuilding — and answers a Type I/II/III query against it, printing
//! matches, statistics and the load wall-clock.
//!
//! `append`, `remove` and `compact` mutate a snapshot through its
//! write-ahead log: each operation is logged durably in the `.wal` sibling
//! and applied to the in-memory database incrementally; `compact` folds the
//! log into a fresh snapshot and truncates it. Opening a snapshot always
//! replays its WAL, so `query` and `info` observe pending mutations too.
//!
//! `serve` cold-starts the database the same way and exposes it over a TCP
//! wire protocol (see `ssr_core::serve`): a worker pool behind a bounded
//! admission queue, a sharded result cache, and optional read-only replicas
//! sharing one element arena. It runs in the foreground until a client sends
//! a wire `Shutdown`. `bench --serve ADDR` is the matching load generator.
//! `info --json` emits the same facts as `info` machine-readably (plus the
//! pending-WAL op counts), for scripts and the CI smoke job.
//!
//! `stats` scrapes a *running* server's telemetry over the wire: by default
//! it prints the raw Prometheus text exposition (pipe it into any scraper);
//! `--check` additionally validates the exposition and the presence of the
//! core metric families, exiting nonzero otherwise (the CI serve-smoke job
//! runs this mid-load); `--json` prints the wire Stats snapshot — uptime,
//! cache occupancy and byte estimate included — as one JSON object.
//! `serve --slow-query-ms N` dumps a span tree plus the per-query
//! statistics to stderr for every query batch slower than `N` milliseconds.
//!
//! `drain` asks a running server to stop gracefully: in-flight work
//! finishes, new queries are refused with a typed `Draining` error, probes
//! keep answering, and the process exits once the worker pool empties. It is
//! the scripted counterpart to a wire `Shutdown`. For failure drills,
//! `serve --failpoint SPEC` (or the `SSR_FAILPOINTS` environment variable,
//! honored by every subcommand) arms deterministic fault-injection sites —
//! see `ssr_fault` and ARCHITECTURE.md for the site map and the
//! `name=trigger:action` grammar.
//!
//! `cluster` speaks to N servers at once through `ssr_cluster`'s
//! fault-tolerant client: `query` routes one query by seeded
//! power-of-two-choices over the healthy nodes, fails over across nodes on
//! node-level failures (circuit breakers quarantine repeat offenders), and
//! optionally hedges with `--hedge-ms` (`0` hedges immediately); it prints
//! the matches plus the failover/hedge counters the request spent. `stats`
//! and `drain` fan out to every node individually and report per-node
//! outcomes — a dead node fails its own line without blocking the rest.
//!
//! Each dataset is bound to its paper distance: DNA and PROTEINS use
//! Levenshtein over symbols, SONGS uses ERP over pitches, TRAJ uses the
//! discrete Fréchet distance over 2-D points. The snapshot manifest records
//! both tags, and `query`/`info` dispatch on them.

use std::time::Instant;

use ssr_bench::json::JsonValue;
use ssr_core::live::count_op_kinds;
use ssr_core::storage::SnapshotManifest;
use ssr_core::{
    wal_path_for, FrameworkConfig, IndexBackend, LiveDatabase, QueryOutcome, ServeConfig, Server,
    SubsequenceDatabase,
};
use ssr_datagen::{
    generate_dna, generate_proteins, generate_songs, generate_trajectories, plant_query, DnaConfig,
    PitchMutator, PointMutator, ProteinConfig, QueryConfig, QueryMutator, SongsConfig,
    SymbolMutator, TrajConfig,
};
use ssr_distance::{DiscreteFrechet, Erp, Levenshtein, SequenceDistance};
use ssr_sequence::{Element, Pitch, Point2D, Sequence, SequenceDataset, Symbol};
use ssr_storage::{Snapshot, StorableElement, StorageError, WalBinding};

fn usage() -> ! {
    eprintln!(
        "usage:\n  ssr build [--dataset dna|proteins|songs|traj] [--windows N] [--seed S] \
         [--lambda L] [--max-shift S] [--backend reference-net|cover-tree|mv-K|linear-scan] \
         [--threads N] [--out PATH]\n  ssr info PATH [--json]\n  ssr query PATH (--plant SEED | \
         --text STRING) [--type 1|2|3] [--epsilon X] [--epsilon-max X] [--epsilon-increment X]\n  \
         ssr append PATH --text STRING [--label L]\n  ssr remove PATH --sequence N\n  \
         ssr compact PATH\n  ssr serve PATH [--addr HOST:PORT] [--workers N] [--replicas N] \
         [--queue-depth N] [--cache-shards N] [--cache-capacity N] [--slow-query-ms N] \
         [--failpoint SPEC]\n  ssr stats ADDR [--check] [--json]\n  ssr drain ADDR\n  \
         ssr cluster ADDR1,ADDR2,... query --text STRING [--type 1|2|3] [--epsilon X] \
         [--epsilon-max X] [--epsilon-increment X] [--hedge-ms N]\n  \
         ssr cluster ADDR1,ADDR2,... stats\n  ssr cluster ADDR1,ADDR2,... drain"
    );
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("ssr: {msg}");
    std::process::exit(1);
}

fn main() {
    // Arm any failpoints requested via SSR_FAILPOINTS before touching disk
    // or the network; a malformed spec is a configuration error, not a
    // silently-disarmed drill.
    if let Err(e) = ssr_fault::init_from_env() {
        fail(format!("SSR_FAILPOINTS: {e}"));
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("build") => cmd_build(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("append") => cmd_append(&args[1..]),
        Some("remove") => cmd_remove(&args[1..]),
        Some("compact") => cmd_compact(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("drain") => cmd_drain(&args[1..]),
        Some("cluster") => cmd_cluster(&args[1..]),
        _ => usage(),
    }
}

// -- build ------------------------------------------------------------------

struct BuildOptions {
    dataset: String,
    windows: usize,
    seed: u64,
    lambda: usize,
    max_shift: usize,
    backend: IndexBackend,
    threads: usize,
    out: String,
}

fn parse_backend(text: &str) -> IndexBackend {
    match text {
        "reference-net" => IndexBackend::ReferenceNet,
        "cover-tree" => IndexBackend::CoverTree,
        "linear-scan" => IndexBackend::LinearScan,
        other => match other.strip_prefix("mv-").and_then(|k| k.parse().ok()) {
            Some(references) => IndexBackend::MvReference { references },
            None => usage(),
        },
    }
}

fn cmd_build(args: &[String]) {
    let mut opts = BuildOptions {
        dataset: "proteins".to_string(),
        windows: 400,
        seed: 42,
        lambda: 40,
        max_shift: 2,
        backend: IndexBackend::ReferenceNet,
        threads: 1,
        out: "db.ssr".to_string(),
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--dataset" => opts.dataset = value(&mut i),
            "--windows" => opts.windows = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => opts.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--lambda" => opts.lambda = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--max-shift" => opts.max_shift = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--backend" => opts.backend = parse_backend(&value(&mut i)),
            "--threads" => opts.threads = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--out" => opts.out = value(&mut i),
            _ => usage(),
        }
        i += 1;
    }
    let window_len = (opts.lambda / 2).max(1);
    match opts.dataset.as_str() {
        "dna" => {
            // DNA has no windows-based sizing helper; aim for ~windows/4
            // sequences of ~4 windows each.
            let config = DnaConfig {
                num_sequences: (opts.windows / 4).max(1),
                min_len: window_len * 3,
                max_len: window_len * 5,
                seed: opts.seed,
                ..Default::default()
            };
            build_and_save(generate_dna(&config), Levenshtein::new(), &opts);
        }
        "proteins" => {
            let config = ProteinConfig::sized_for_windows(opts.windows, window_len, opts.seed);
            build_and_save(generate_proteins(&config), Levenshtein::new(), &opts);
        }
        "songs" => {
            let config = SongsConfig::sized_for_windows(opts.windows, window_len, opts.seed);
            build_and_save(generate_songs(&config), Erp::new(), &opts);
        }
        "traj" => {
            let config = TrajConfig::sized_for_windows(opts.windows, window_len, opts.seed);
            build_and_save(
                generate_trajectories(&config),
                DiscreteFrechet::new(),
                &opts,
            );
        }
        _ => usage(),
    }
}

fn build_and_save<E, D>(dataset: SequenceDataset<E>, distance: D, opts: &BuildOptions)
where
    E: Element + StorableElement + Send + Sync,
    D: SequenceDistance<E>,
{
    let distance_name = distance.name();
    let config = FrameworkConfig::new(opts.lambda).with_max_shift(opts.max_shift);
    let config = config.with_backend(opts.backend);
    let started = Instant::now();
    let db = SubsequenceDatabase::builder(config, distance)
        .add_dataset(&dataset)
        .with_threads(opts.threads)
        .build()
        .unwrap_or_else(|e| fail(e));
    let build_ms = started.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    db.save_snapshot(&opts.out).unwrap_or_else(|e| fail(e));
    let save_ms = started.elapsed().as_secs_f64() * 1e3;
    let file_bytes = std::fs::metadata(&opts.out).map(|m| m.len()).unwrap_or(0);
    println!(
        "built {} ({} windows over {} sequences, {} distance, {} backend) in {build_ms:.1} ms \
         ({} build distance calls)",
        opts.dataset,
        db.window_count(),
        db.sequence_count(),
        distance_name,
        opts.backend,
        db.build_distance_calls()
    );
    println!("wrote {} ({file_bytes} bytes) in {save_ms:.1} ms", opts.out);
}

// -- info -------------------------------------------------------------------

/// The WAL sibling's state, shared by the human and `--json` renderings.
#[derive(Default)]
struct WalState {
    present: bool,
    readable: bool,
    records: usize,
    appends: usize,
    removes: usize,
    bytes: u64,
    torn_bytes: u64,
    stale: bool,
}

fn wal_state(path: &str) -> WalState {
    let wal_path = wal_path_for(path);
    if !wal_path.exists() {
        return WalState::default();
    }
    let mut state = WalState {
        present: true,
        ..WalState::default()
    };
    let read = match ssr_storage::read_wal_file(&wal_path) {
        Ok(read) => read,
        Err(_) => return state,
    };
    state.readable = true;
    state.records = read.records.len();
    state.bytes = read.valid_len as u64;
    state.torn_bytes = read.dropped_bytes as u64;
    if let Ok((appends, removes)) = count_op_kinds(&read.records) {
        state.appends = appends;
        state.removes = removes;
    }
    state.stale = match std::fs::read(path) {
        Ok(bytes) => read.binding != Some(WalBinding::of(&bytes)),
        Err(_) => true,
    };
    state
}

fn cmd_info(args: &[String]) {
    let (path, json) = match args {
        [path] => (path, false),
        [path, flag] if flag == "--json" => (path, true),
        [flag, path] if flag == "--json" => (path, true),
        _ => usage(),
    };
    let snapshot = Snapshot::open(path).unwrap_or_else(|e| fail(e));
    let manifest = SnapshotManifest::read(&snapshot).unwrap_or_else(|e| fail(e));
    if json {
        print_info_json(path, &snapshot, &manifest);
        return;
    }
    println!("snapshot      {path}");
    println!(
        "format        version {} ({} bytes total)",
        ssr_storage::FORMAT_VERSION,
        snapshot.file_len()
    );
    println!("element       {}", manifest.element);
    println!("distance      {}", manifest.distance);
    println!(
        "config        lambda={} max_shift={} epsilon_prime={} backend={} max_parents={:?}",
        manifest.config.lambda,
        manifest.config.max_shift,
        manifest.config.epsilon_prime,
        manifest.config.backend,
        manifest.config.max_parents
    );
    println!(
        "contents      {} sequences, {} windows, {} build distance calls saved",
        manifest.sequences, manifest.windows, manifest.build_distance_calls
    );
    println!("sections");
    for entry in snapshot.sections() {
        println!(
            "  {:<10} {:>12} bytes  crc32 {:08x}",
            entry.name, entry.len, entry.crc
        );
    }
    print_wal_state(path);
    // Loading the typed database additionally surfaces the index's exact
    // serialized structural footprint (SpaceStats::serialized_bytes) and the
    // resident memory layout: the shared element arena, the window views and
    // the index's per-item id handles.
    with_database(path, &manifest, |db| {
        let stats = db.index_space_stats();
        println!(
            "index         items={} entries={} levels={} avg_parents={:.2} \
             serialized_bytes={} estimated_bytes={}",
            stats.items,
            stats.entries,
            stats.levels,
            stats.avg_parents,
            stats.serialized_bytes,
            stats.estimated_bytes
        );
        let resident = db.resident_window_bytes();
        println!(
            "memory        arena_bytes={} view_bytes={} item_bytes={} \
             resident_window_bytes={} bytes_per_window={:.1}",
            stats.arena_bytes,
            db.window_view_bytes(),
            stats.item_bytes,
            resident,
            resident as f64 / stats.items.max(1) as f64
        );
    });
}

/// `info --json`: the manifest, sections, WAL state and (when a typed loader
/// exists) the index/memory footprint as one machine-readable object —
/// scripts and the CI serve-smoke job consume this instead of scraping the
/// human rendering.
fn print_info_json(path: &str, snapshot: &Snapshot, manifest: &SnapshotManifest) {
    let num = |v: f64| JsonValue::Number(v);
    let wal = wal_state(path);
    let mut members: Vec<(String, JsonValue)> = vec![
        ("path".to_string(), JsonValue::String(path.to_string())),
        (
            "format_version".to_string(),
            num(ssr_storage::FORMAT_VERSION as f64),
        ),
        ("file_bytes".to_string(), num(snapshot.file_len() as f64)),
        (
            "element".to_string(),
            JsonValue::String(manifest.element.clone()),
        ),
        (
            "distance".to_string(),
            JsonValue::String(manifest.distance.clone()),
        ),
        (
            "config".to_string(),
            JsonValue::object(vec![
                ("lambda", num(manifest.config.lambda as f64)),
                ("max_shift", num(manifest.config.max_shift as f64)),
                ("epsilon_prime", num(manifest.config.epsilon_prime)),
                (
                    "backend",
                    JsonValue::String(format!("{}", manifest.config.backend)),
                ),
                (
                    "max_parents",
                    match manifest.config.max_parents {
                        Some(n) => num(n as f64),
                        None => JsonValue::Null,
                    },
                ),
            ]),
        ),
        ("sequences".to_string(), num(manifest.sequences as f64)),
        ("windows".to_string(), num(manifest.windows as f64)),
        (
            "build_distance_calls".to_string(),
            num(manifest.build_distance_calls as f64),
        ),
        // Server-runtime fields, present so `info --json` and
        // `stats --json` share one schema; a snapshot on disk has no
        // uptime or result cache, so they are null here and populated by
        // `ssr stats ADDR --json` against a running server.
        ("uptime_ms".to_string(), JsonValue::Null),
        ("cache_entries".to_string(), JsonValue::Null),
        ("cache_bytes_estimate".to_string(), JsonValue::Null),
        (
            "sections".to_string(),
            JsonValue::Array(
                snapshot
                    .sections()
                    .iter()
                    .map(|entry| {
                        JsonValue::object(vec![
                            ("name", JsonValue::String(entry.name.clone())),
                            ("bytes", num(entry.len as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "wal".to_string(),
            JsonValue::object(vec![
                ("present", JsonValue::Bool(wal.present)),
                ("readable", JsonValue::Bool(wal.readable)),
                ("pending_records", num(wal.records as f64)),
                ("appends", num(wal.appends as f64)),
                ("removes", num(wal.removes as f64)),
                ("bytes", num(wal.bytes as f64)),
                ("torn_bytes", num(wal.torn_bytes as f64)),
                ("stale", JsonValue::Bool(wal.present && wal.stale)),
            ]),
        ),
    ];
    with_database(path, manifest, |db| {
        let stats = db.index_space_stats();
        let resident = db.resident_window_bytes();
        members.push((
            "index".to_string(),
            JsonValue::object(vec![
                ("items", num(stats.items as f64)),
                ("entries", num(stats.entries as f64)),
                ("levels", num(stats.levels as f64)),
                ("serialized_bytes", num(stats.serialized_bytes as f64)),
                ("estimated_bytes", num(stats.estimated_bytes as f64)),
            ]),
        ));
        members.push((
            "memory".to_string(),
            JsonValue::object(vec![
                ("arena_bytes", num(stats.arena_bytes as f64)),
                ("view_bytes", num(db.window_view_bytes() as f64)),
                ("item_bytes", num(stats.item_bytes as f64)),
                ("resident_window_bytes", num(resident as f64)),
                (
                    "bytes_per_window",
                    num((resident as f64 / stats.items.max(1) as f64 * 10.0).round() / 10.0),
                ),
            ]),
        ));
    });
    println!("{}", JsonValue::Object(members).render());
}

/// Prints the state of the snapshot's WAL sibling: record counts by kind,
/// bytes, and whether the log actually binds to this snapshot (a stale
/// binding is the leftover of an interrupted compaction and will be
/// discarded on the next open).
fn print_wal_state(path: &str) {
    let wal_path = wal_path_for(path);
    if !wal_path.exists() {
        println!("wal           none");
        return;
    }
    let read = match ssr_storage::read_wal_file(&wal_path) {
        Ok(read) => read,
        Err(e) => {
            println!("wal           {} (unreadable: {e})", wal_path.display());
            return;
        }
    };
    let kinds = match count_op_kinds(&read.records) {
        Ok((appends, removes)) => format!("{appends} appends, {removes} removes"),
        Err(e) => format!("unclassifiable ops: {e}"),
    };
    let binding = match std::fs::read(path) {
        Ok(bytes) if read.binding == Some(WalBinding::of(&bytes)) => "",
        _ => " [stale: bound to a different snapshot; discarded on open]",
    };
    let torn = if read.dropped_bytes > 0 {
        format!(" + {} bytes torn tail", read.dropped_bytes)
    } else {
        String::new()
    };
    println!(
        "wal           {} pending records ({kinds}), {} bytes{torn}{binding}",
        read.records.len(),
        read.valid_len
    );
}

// -- append / remove / compact ----------------------------------------------

/// The slice of live-database behaviour the mutation subcommands need,
/// object-safe so `remove` and `compact` can erase the element and distance
/// types behind the manifest dispatch.
trait LiveOps {
    fn remove(&mut self, sequence: usize) -> Result<bool, StorageError>;
    fn compact(&mut self) -> Result<(), StorageError>;
    fn live_sequences(&self) -> usize;
    fn pending_ops(&self) -> usize;
    fn wal_len_bytes(&self) -> u64;
}

impl<E, D> LiveOps for LiveDatabase<E, D>
where
    E: Element + StorableElement + Send + Sync,
    D: SequenceDistance<E>,
{
    fn remove(&mut self, sequence: usize) -> Result<bool, StorageError> {
        self.remove_sequence(ssr_sequence::SequenceId(sequence))
    }

    fn compact(&mut self) -> Result<(), StorageError> {
        LiveDatabase::compact(self)
    }

    fn live_sequences(&self) -> usize {
        self.database().live_sequence_count()
    }

    fn pending_ops(&self) -> usize {
        LiveDatabase::pending_ops(self)
    }

    fn wal_len_bytes(&self) -> u64 {
        LiveDatabase::wal_len_bytes(self)
    }
}

/// Opens the snapshot + WAL pair behind `path` with the element/distance
/// pairing the manifest records, then runs `f` on the type-erased handle.
fn with_live(path: &str, f: impl FnOnce(&mut dyn LiveOps)) {
    let snapshot = Snapshot::open(path).unwrap_or_else(|e| fail(e));
    let manifest = SnapshotManifest::read(&snapshot).unwrap_or_else(|e| fail(e));
    match manifest.element.as_str() {
        "symbol" => {
            let mut live = LiveDatabase::<Symbol, _>::open(path, Levenshtein::new())
                .unwrap_or_else(|e| fail(e));
            f(&mut live);
        }
        "pitch" => {
            let mut live =
                LiveDatabase::<Pitch, _>::open(path, Erp::new()).unwrap_or_else(|e| fail(e));
            f(&mut live);
        }
        "point2d" => {
            let mut live = LiveDatabase::<Point2D, _>::open(path, DiscreteFrechet::new())
                .unwrap_or_else(|e| fail(e));
            f(&mut live);
        }
        other => fail(format!("no mutation support for element type '{other}'")),
    }
}

fn cmd_append(args: &[String]) {
    if args.is_empty() {
        usage();
    }
    let path = args[0].clone();
    let mut text: Option<String> = None;
    let mut label: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--text" => text = Some(value(&mut i)),
            "--label" => label = Some(value(&mut i)),
            _ => usage(),
        }
        i += 1;
    }
    let Some(text) = text else { usage() };
    let snapshot = Snapshot::open(&path).unwrap_or_else(|e| fail(e));
    let manifest = SnapshotManifest::read(&snapshot).unwrap_or_else(|e| fail(e));
    if manifest.element != Symbol::TAG {
        fail(format!(
            "append takes --text and therefore only supports symbol snapshots, not '{}'",
            manifest.element
        ));
    }
    let mut live =
        LiveDatabase::<Symbol, _>::open(&path, Levenshtein::new()).unwrap_or_else(|e| fail(e));
    let mut sequence = Sequence::new(text.chars().map(Symbol::from_char).collect::<Vec<_>>());
    if let Some(label) = label {
        sequence.set_label(label);
    }
    let elements = sequence.len();
    let id = live.append_sequence(sequence).unwrap_or_else(|e| fail(e));
    println!(
        "appended {id} ({elements} elements); {} windows indexed, wal {} pending ops ({} bytes)",
        live.database().window_count(),
        live.pending_ops(),
        live.wal_len_bytes()
    );
}

fn cmd_remove(args: &[String]) {
    if args.is_empty() {
        usage();
    }
    let path = args[0].clone();
    let mut sequence: Option<usize> = None;
    let mut i = 1;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--sequence" => sequence = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            _ => usage(),
        }
        i += 1;
    }
    let Some(sequence) = sequence else { usage() };
    with_live(&path, |live| match live.remove(sequence) {
        Ok(true) => println!(
            "removed sequence {sequence}; {} live sequences remain, wal {} pending ops ({} bytes)",
            live.live_sequences(),
            live.pending_ops(),
            live.wal_len_bytes()
        ),
        Ok(false) => fail(format!("sequence {sequence} is unknown or already removed")),
        Err(e) => fail(e),
    });
}

fn cmd_compact(args: &[String]) {
    let [path] = args else { usage() };
    with_live(path, |live| {
        let pending = live.pending_ops();
        live.compact().unwrap_or_else(|e| fail(e));
        let file_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        println!(
            "folded {pending} pending ops into {path} ({file_bytes} bytes); wal reset to {} bytes",
            live.wal_len_bytes()
        );
    });
}

// -- serve ------------------------------------------------------------------

struct ServeOptions {
    addr: String,
    workers: usize,
    replicas: usize,
    queue_depth: usize,
    cache_shards: usize,
    cache_capacity: usize,
    slow_query_ms: Option<u64>,
}

fn cmd_serve(args: &[String]) {
    let Some(path) = args.first().cloned() else {
        usage()
    };
    let mut opts = ServeOptions {
        addr: "127.0.0.1:7878".to_string(),
        workers: 0,
        replicas: 1,
        queue_depth: 64,
        cache_shards: 16,
        cache_capacity: 256,
        slow_query_ms: None,
    };
    let mut i = 1;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--addr" => opts.addr = value(&mut i),
            "--workers" => opts.workers = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--replicas" => opts.replicas = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--queue-depth" => opts.queue_depth = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--cache-shards" => {
                opts.cache_shards = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--cache-capacity" => {
                opts.cache_capacity = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--slow-query-ms" => {
                opts.slow_query_ms = Some(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--failpoint" => {
                let spec = value(&mut i);
                let armed = ssr_fault::configure_str(&spec)
                    .unwrap_or_else(|e| fail(format!("--failpoint {spec}: {e}")));
                eprintln!("# armed {armed} failpoint(s): {spec}");
            }
            _ => usage(),
        }
        i += 1;
    }
    let snapshot = Snapshot::open(&path).unwrap_or_else(|e| fail(e));
    let manifest = SnapshotManifest::read(&snapshot).unwrap_or_else(|e| fail(e));
    drop(snapshot);
    match manifest.element.as_str() {
        "symbol" => serve_db(
            load::<Symbol, _>(&path, Levenshtein::new(), &manifest),
            &opts,
        ),
        "pitch" => serve_db(load::<Pitch, _>(&path, Erp::new(), &manifest), &opts),
        "point2d" => serve_db(
            load::<Point2D, _>(&path, DiscreteFrechet::new(), &manifest),
            &opts,
        ),
        other => fail(format!("no typed loader for element '{other}'")),
    }
}

fn serve_db<E, D>(db: SubsequenceDatabase<E, D>, opts: &ServeOptions)
where
    E: Element + StorableElement + Send + Sync + 'static,
    D: SequenceDistance<E> + Send + Sync + 'static,
{
    let config = ServeConfig {
        workers: opts.workers,
        replicas: opts.replicas,
        queue_depth: opts.queue_depth,
        cache_shards: opts.cache_shards,
        cache_shard_capacity: opts.cache_capacity,
        slow_query_ms: opts.slow_query_ms,
        ..ServeConfig::default()
    };
    let server = Server::bind(db, opts.addr.as_str(), config).unwrap_or_else(|e| fail(e));
    let stats = server.stats();
    println!(
        "serving {} sequences / {} windows on {} ({} workers, {} replicas)",
        stats.sequences,
        stats.windows,
        server.local_addr(),
        stats.workers,
        stats.replicas
    );
    server.wait();
    println!("server stopped");
}

// -- stats ------------------------------------------------------------------

/// Metric families `stats --check` requires of a healthy server — the
/// observability contract the CI serve-smoke job enforces mid-load.
const REQUIRED_FAMILIES: [&str; 7] = [
    "ssr_request_duration_us",
    "ssr_cache_hits_total",
    "ssr_cache_misses_total",
    "ssr_queue_depth",
    "ssr_overload_rejections_total",
    "ssr_replica_dp_cells_total",
    "ssr_wal_pending_ops",
];

fn cmd_stats(args: &[String]) {
    let mut addr: Option<String> = None;
    let mut check = false;
    let mut json = false;
    for arg in args {
        match arg.as_str() {
            "--check" => check = true,
            "--json" => json = true,
            other if addr.is_none() && !other.starts_with("--") => addr = Some(other.to_string()),
            _ => usage(),
        }
    }
    let Some(addr) = addr else { usage() };
    // Stats and Metrics carry no element payload, so the client's element
    // type parameter is immaterial; Symbol stands in.
    let mut client =
        ssr_bench::connect_with_retry::<Symbol>(&addr, std::time::Duration::from_secs(10))
            .unwrap_or_else(|e| fail(format!("connecting to {addr}: {e}")));
    if check || !json {
        let text = match client.request(&ssr_core::Request::Metrics) {
            Ok(ssr_core::Response::Metrics(text)) => text,
            Ok(other) => fail(format!("metrics answered with {other:?}")),
            Err(e) => fail(format!("scraping {addr}: {e}")),
        };
        if check {
            let doc = ssr_bench::promcheck::parse(&text)
                .unwrap_or_else(|e| fail(format!("invalid exposition from {addr}: {e}")));
            let missing: Vec<&str> = REQUIRED_FAMILIES
                .iter()
                .copied()
                .filter(|family| !doc.families.contains_key(*family))
                .collect();
            if !missing.is_empty() {
                fail(format!(
                    "exposition from {addr} is missing required families: {}",
                    missing.join(", ")
                ));
            }
            eprintln!(
                "# exposition valid: {} families, {} samples, all {} required families present",
                doc.families.len(),
                doc.samples.len(),
                REQUIRED_FAMILIES.len()
            );
        }
        if !json {
            print!("{text}");
            return;
        }
    }
    let stats = match client.request(&ssr_core::Request::Stats) {
        Ok(ssr_core::Response::Stats(stats)) => stats,
        Ok(other) => fail(format!("stats answered with {other:?}")),
        Err(e) => fail(format!("fetching stats from {addr}: {e}")),
    };
    let num = |v: f64| JsonValue::Number(v);
    println!(
        "{}",
        JsonValue::object(vec![
            ("addr", JsonValue::String(addr)),
            ("uptime_ms", num(stats.uptime_ms as f64)),
            ("sequences", num(stats.sequences as f64)),
            ("windows", num(stats.windows as f64)),
            ("workers", num(stats.workers as f64)),
            ("replicas", num(stats.replicas as f64)),
            ("arena_bytes", num(stats.arena_bytes as f64)),
            ("queries_executed", num(stats.queries_executed as f64)),
            ("cache_hits", num(stats.cache_hits as f64)),
            ("cache_misses", num(stats.cache_misses as f64)),
            ("cache_entries", num(stats.cache_entries as f64)),
            (
                "cache_bytes_estimate",
                num(stats.cache_bytes_estimate as f64)
            ),
            ("rejected_overload", num(stats.rejected_overload as f64)),
        ])
        .render()
    );
}

// -- drain ------------------------------------------------------------------

fn cmd_drain(args: &[String]) {
    let Some(addr) = args.first() else { usage() };
    if args.len() > 1 {
        usage()
    }
    // Shutdown is deliberately non-idempotent in the client: one attempt,
    // no retries, a typed refusal on any ambiguous failure. The element
    // type parameter is immaterial for a control frame; Symbol stands in.
    let mut client = ssr_core::WireClient::<Symbol>::connect(addr)
        .unwrap_or_else(|e| fail(format!("connecting to {addr}: {e}")));
    match client.request(&ssr_core::Request::Shutdown) {
        Ok(ssr_core::Response::ShuttingDown) => {}
        Ok(other) => fail(format!("drain answered with {other:?}")),
        Err(e) => fail(format!("draining {addr}: {e}")),
    }
    // The ack races the drain flag by design (it is written first), so wait
    // for the observable outcome: the listener going away once in-flight
    // work finishes and the worker pool empties.
    let deadline = Instant::now() + std::time::Duration::from_secs(30);
    while ssr_bench::is_listening(addr) {
        if Instant::now() >= deadline {
            fail(format!("{addr} still listening 30s after the drain ack"));
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    println!("drained: {addr} acknowledged shutdown and stopped listening");
}

// -- cluster ----------------------------------------------------------------

/// A cluster client over the comma-separated address list, tuned for CLI
/// one-shots: health probing on, modest timeouts, the cluster's failover as
/// the only retry.
fn cluster_client(addrs: &str, hedge_ms: Option<u64>) -> ssr_cluster::ClusterClient<Symbol> {
    let addrs: Vec<String> = addrs
        .split(',')
        .map(str::trim)
        .filter(|a| !a.is_empty())
        .map(String::from)
        .collect();
    if addrs.len() < 2 {
        fail("cluster takes at least two comma-separated node addresses");
    }
    let config = ssr_cluster::ClusterConfig {
        hedge_after: hedge_ms.map(std::time::Duration::from_millis),
        ..ssr_cluster::ClusterConfig::default()
    };
    ssr_cluster::ClusterClient::new(addrs, config).unwrap_or_else(|e| fail(e))
}

fn cmd_cluster(args: &[String]) {
    let (Some(addrs), Some(verb)) = (args.first(), args.get(1)) else {
        usage()
    };
    match verb.as_str() {
        "query" => cluster_query(addrs, &args[2..]),
        "stats" => cluster_stats(addrs),
        "drain" => cluster_drain(addrs),
        _ => usage(),
    }
}

/// `cluster ... query`: one Type I/II/III query through the fault-tolerant
/// client — whichever healthy node answers, plus the failover/hedge spend.
/// `--text` only (and therefore symbol snapshots only), like `append`.
fn cluster_query(addrs: &str, args: &[String]) {
    let mut opts = QueryOptions {
        query_type: 2,
        epsilon: 8.0,
        epsilon_max: 16.0,
        epsilon_increment: 1.0,
        plant: None,
        text: None,
    };
    let mut hedge_ms = None;
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--type" => opts.query_type = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--epsilon" => opts.epsilon = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--epsilon-max" => opts.epsilon_max = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--epsilon-increment" => {
                opts.epsilon_increment = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--text" => opts.text = Some(value(&mut i)),
            "--hedge-ms" => hedge_ms = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            _ => usage(),
        }
        i += 1;
    }
    let Some(text) = &opts.text else { usage() };
    if !(1..=3).contains(&opts.query_type) {
        usage();
    }
    let spec = match opts.query_type {
        1 => ssr_core::QuerySpec::Type1 {
            epsilon: opts.epsilon,
        },
        2 => ssr_core::QuerySpec::Type2 {
            epsilon: opts.epsilon,
        },
        _ => ssr_core::QuerySpec::Type3 {
            epsilon_max: opts.epsilon_max,
            epsilon_increment: opts.epsilon_increment,
        },
    };
    let request = ssr_core::Request::Query {
        spec,
        queries: vec![text.chars().map(Symbol::from_char).collect::<Vec<_>>()],
    };
    let cluster = cluster_client(addrs, hedge_ms);
    let started = Instant::now();
    let response = cluster.request(&request).unwrap_or_else(|e| fail(e));
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let counters = cluster.counters();
    match response {
        ssr_core::Response::Outcomes(outcomes) => {
            for outcome in &outcomes {
                println!(
                    "{} match(es){}:",
                    outcome.matches.len(),
                    if outcome.cached { " (cached)" } else { "" }
                );
                for m in &outcome.matches {
                    print_match(m);
                }
            }
            eprintln!(
                "# cluster: answered in {wall_ms:.1} ms — {} failover(s), {} hedge(s) \
                 ({} won), {} breaker trip(s)",
                counters.failovers, counters.hedges, counters.hedge_wins, counters.breaker_trips
            );
        }
        ssr_core::Response::Error(e) => fail(format!("the cluster answered with: {e}")),
        other => fail(format!("unexpected response: {other:?}")),
    }
}

/// `cluster ... stats`: the wire Stats snapshot from every node, one JSON
/// object per line tagged with the node address. Dead nodes report their
/// failure without blocking the rest; exits nonzero only when *no* node
/// answered.
fn cluster_stats(addrs: &str) {
    let cluster = cluster_client(addrs, None);
    let mut answered = 0usize;
    for (addr, outcome) in cluster.for_each_node(&ssr_core::Request::Stats) {
        match outcome {
            Ok(ssr_core::Response::Stats(stats)) => {
                answered += 1;
                let num = |v: f64| JsonValue::Number(v);
                println!(
                    "{}",
                    JsonValue::object(vec![
                        ("node", JsonValue::String(addr)),
                        ("uptime_ms", num(stats.uptime_ms as f64)),
                        ("sequences", num(stats.sequences as f64)),
                        ("windows", num(stats.windows as f64)),
                        ("queries_executed", num(stats.queries_executed as f64)),
                        ("cache_hits", num(stats.cache_hits as f64)),
                        ("cache_misses", num(stats.cache_misses as f64)),
                        ("rejected_overload", num(stats.rejected_overload as f64)),
                    ])
                    .render()
                );
            }
            Ok(other) => eprintln!("# {addr}: unexpected response {other:?}"),
            Err(e) => eprintln!("# {addr}: DOWN ({e})"),
        }
    }
    if answered == 0 {
        fail("no node answered stats");
    }
}

/// `cluster ... drain`: graceful shutdown fanned out to every node; waits
/// for each acknowledging node's listener to go away. Exits nonzero when any
/// listed node fails to drain — pass only the nodes you mean to stop.
fn cluster_drain(addrs: &str) {
    let cluster = cluster_client(addrs, None);
    let mut failures = 0usize;
    let mut acked = Vec::new();
    for (addr, outcome) in cluster.for_each_node(&ssr_core::Request::Shutdown) {
        match outcome {
            Ok(ssr_core::Response::ShuttingDown) => {
                println!("{addr}: acknowledged shutdown");
                acked.push(addr);
            }
            Ok(other) => {
                eprintln!("# {addr}: drain answered with {other:?}");
                failures += 1;
            }
            Err(e) => {
                eprintln!("# {addr}: drain failed ({e})");
                failures += 1;
            }
        }
    }
    let deadline = Instant::now() + std::time::Duration::from_secs(30);
    for addr in &acked {
        while ssr_bench::is_listening(addr) {
            if Instant::now() >= deadline {
                eprintln!("# {addr}: still listening 30s after the drain ack");
                failures += 1;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
    println!("drained {} node(s)", acked.len());
}

// -- query ------------------------------------------------------------------

#[derive(Clone, Default)]
struct QueryOptions {
    query_type: u8,
    epsilon: f64,
    epsilon_max: f64,
    epsilon_increment: f64,
    plant: Option<u64>,
    text: Option<String>,
}

fn cmd_query(args: &[String]) {
    if args.is_empty() {
        usage();
    }
    let path = args[0].clone();
    let mut opts = QueryOptions {
        query_type: 2,
        epsilon: 8.0,
        epsilon_max: 16.0,
        epsilon_increment: 1.0,
        plant: None,
        text: None,
    };
    let mut i = 1;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--type" => opts.query_type = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--epsilon" => opts.epsilon = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--epsilon-max" => opts.epsilon_max = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--epsilon-increment" => {
                opts.epsilon_increment = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--plant" => opts.plant = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--text" => opts.text = Some(value(&mut i)),
            _ => usage(),
        }
        i += 1;
    }
    if !(1..=3).contains(&opts.query_type) || (opts.plant.is_none() && opts.text.is_none()) {
        usage();
    }
    let snapshot = Snapshot::open(&path).unwrap_or_else(|e| fail(e));
    let manifest = SnapshotManifest::read(&snapshot).unwrap_or_else(|e| fail(e));
    match manifest.element.as_str() {
        "symbol" => {
            let db = load::<Symbol, _>(&path, Levenshtein::new(), &manifest);
            let query = symbol_query(&db, &opts, &manifest);
            run_query(&db, query, &opts);
        }
        "pitch" => {
            let db = load::<Pitch, _>(&path, Erp::new(), &manifest);
            let query = planted_query(&db, PitchMutator, &opts);
            run_query(&db, query, &opts);
        }
        "point2d" => {
            let db = load::<Point2D, _>(&path, DiscreteFrechet::new(), &manifest);
            let query = planted_query(&db, PointMutator::default(), &opts);
            run_query(&db, query, &opts);
        }
        other => fail(format!("no query support for element type '{other}'")),
    }
}

/// Runs `f` over the typed database behind the snapshot at `path` (with its
/// WAL replayed read-only), dispatching on the manifest's element tag. Used
/// by `info`; `query` needs per-element query construction and dispatches
/// itself.
fn with_database(path: &str, manifest: &SnapshotManifest, f: impl FnOnce(&dyn DatabaseStats)) {
    match manifest.element.as_str() {
        "symbol" => {
            f(&load::<Symbol, _>(path, Levenshtein::new(), manifest));
        }
        "pitch" => {
            f(&load::<Pitch, _>(path, Erp::new(), manifest));
        }
        "point2d" => {
            f(&load::<Point2D, _>(path, DiscreteFrechet::new(), manifest));
        }
        other => {
            eprintln!("note: no typed loader for element '{other}'; manifest only");
        }
    }
}

/// The slice of database behaviour `info` needs, object-safe so dispatch can
/// erase the element and distance types.
trait DatabaseStats {
    fn index_space_stats(&self) -> ssr_index::SpaceStats;
    /// Resident bytes of the window view table (provenance words, no
    /// elements — those are the arena's).
    fn window_view_bytes(&self) -> usize;
    /// Total resident window/index bytes — the framework's own definition,
    /// so this always agrees with the CI-gated `bytes_per_window`.
    fn resident_window_bytes(&self) -> usize;
}

impl<E, D> DatabaseStats for SubsequenceDatabase<E, D>
where
    E: Element + Send + Sync,
    D: SequenceDistance<E>,
{
    fn index_space_stats(&self) -> ssr_index::SpaceStats {
        SubsequenceDatabase::index_space_stats(self)
    }

    fn window_view_bytes(&self) -> usize {
        self.windows().view_bytes()
    }

    fn resident_window_bytes(&self) -> usize {
        SubsequenceDatabase::resident_window_bytes(self)
    }
}

fn load<E, D>(path: &str, distance: D, manifest: &SnapshotManifest) -> SubsequenceDatabase<E, D>
where
    E: Element + StorableElement + Send + Sync,
    D: SequenceDistance<E>,
{
    if manifest.distance != distance.name() {
        fail(StorageError::DistanceMismatch {
            expected: distance.name().to_string(),
            found: manifest.distance.clone(),
        });
    }
    let started = Instant::now();
    let (db, replayed) =
        ssr_core::load_with_wal(path, distance).unwrap_or_else(|e: StorageError| fail(e));
    let replay_note = if replayed > 0 {
        format!("; replayed {replayed} wal ops")
    } else {
        String::new()
    };
    eprintln!(
        "# cold start: loaded {} windows in {:.1} ms (0 distance calls; the original build \
         spent {}{replay_note})",
        db.window_count(),
        started.elapsed().as_secs_f64() * 1e3,
        db.build_distance_calls()
    );
    db
}

fn symbol_query<D: SequenceDistance<Symbol>>(
    db: &SubsequenceDatabase<Symbol, D>,
    opts: &QueryOptions,
    manifest: &SnapshotManifest,
) -> Sequence<Symbol> {
    if let Some(text) = &opts.text {
        let elements: Vec<Symbol> = text.chars().map(Symbol::from_char).collect();
        if elements.len() < manifest.config.lambda {
            fail(format!(
                "--text must be at least lambda = {} characters",
                manifest.config.lambda
            ));
        }
        return Sequence::new(elements);
    }
    planted_query(db, SymbolMutator, opts)
}

fn planted_query<E, D, M>(
    db: &SubsequenceDatabase<E, D>,
    mutator: M,
    opts: &QueryOptions,
) -> Sequence<E>
where
    E: Element + Send + Sync,
    D: SequenceDistance<E>,
    M: QueryMutator<E>,
{
    let Some(seed) = opts.plant else {
        fail("this element type only supports --plant SEED queries");
    };
    let config = QueryConfig {
        planted_len: db.config().lambda + db.config().window_len(),
        context_len: db.config().window_len(),
        perturbation_rate: 0.05,
        seed,
    };
    let planted = plant_query(&db.to_dataset(), &mutator, &config)
        .unwrap_or_else(|| fail("database too small to plant a query; use more windows"));
    eprintln!(
        "# planted query from {} range {:?}",
        planted.source, planted.source_range
    );
    planted.query
}

fn run_query<E, D>(db: &SubsequenceDatabase<E, D>, query: Sequence<E>, opts: &QueryOptions)
where
    E: Element + Send + Sync,
    D: SequenceDistance<E>,
{
    let started = Instant::now();
    match opts.query_type {
        1 => {
            let outcome = db.query_type1(&query, opts.epsilon);
            print_stats(&outcome, started);
            println!(
                "{} matching pairs (epsilon {}):",
                outcome.result.len(),
                opts.epsilon
            );
            for m in outcome.result.iter().take(10) {
                print_match(m);
            }
            if outcome.result.len() > 10 {
                println!("  … {} more", outcome.result.len() - 10);
            }
        }
        2 => {
            let outcome = db.query_type2(&query, opts.epsilon);
            print_stats(&outcome, started);
            match &outcome.result {
                Some(m) => {
                    println!("longest similar subsequence (epsilon {}):", opts.epsilon);
                    print_match(m);
                }
                None => println!("no similar subsequence within epsilon {}", opts.epsilon),
            }
        }
        3 => {
            let outcome = db.query_type3(&query, opts.epsilon_max, opts.epsilon_increment);
            print_stats(&outcome, started);
            match &outcome.result {
                Some(m) => {
                    println!(
                        "nearest pair (epsilon_max {}, increment {}):",
                        opts.epsilon_max, opts.epsilon_increment
                    );
                    print_match(m);
                }
                None => println!("no pair found up to epsilon_max {}", opts.epsilon_max),
            }
        }
        _ => usage(),
    }
}

fn print_match(m: &ssr_core::SubsequenceMatch) {
    println!(
        "  {} db[{}..{}] ~ query[{}..{}]  distance {:.3}",
        m.sequence,
        m.db_range.start,
        m.db_range.end,
        m.query_range.start,
        m.query_range.end,
        m.distance
    );
}

fn print_stats<R>(outcome: &QueryOutcome<R>, started: Instant) {
    let s = &outcome.stats;
    eprintln!(
        "# {:.1} ms | segments {} | index distance calls {} | segment matches {} | \
         candidates {} | verification calls {}{}",
        started.elapsed().as_secs_f64() * 1e3,
        s.segments,
        s.index_distance_calls,
        s.segment_matches,
        s.candidates,
        s.verification_calls,
        if s.budget_exhausted {
            " | BUDGET EXHAUSTED"
        } else {
            ""
        }
    );
    eprintln!(
        "# pruning: dp cells {} | lower-bound prunes {}",
        s.dp_cells_evaluated, s.pruned_by_lower_bound
    );
}
