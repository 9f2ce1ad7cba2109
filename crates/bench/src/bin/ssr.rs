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
//! a wire `Shutdown`.
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
//! both tags; `Paired` and `by_element!` are where the pairing and the
//! dispatch on the tag are written.

use std::str::FromStr;
use std::time::{Duration, Instant};

use ssr_bench::json::JsonValue;
use ssr_core::live::count_op_kinds;
use ssr_core::storage::SnapshotManifest;
use ssr_core::{
    wal_path_for, FrameworkConfig, IndexBackend, LiveDatabase, QueryOutcome, QuerySpec, Request,
    Response, ServeConfig, Server, SubsequenceDatabase, WireClient,
};
use ssr_datagen::{
    generate_dna, generate_proteins, generate_songs, generate_trajectories, plant_query, DnaConfig,
    PitchMutator, PointMutator, ProteinConfig, QueryConfig, QueryMutator, SongsConfig,
    SymbolMutator, TrajConfig,
};
use ssr_distance::{DiscreteFrechet, Erp, Levenshtein, SequenceDistance};
use ssr_sequence::{Element, Pitch, Point2D, Sequence, SequenceDataset, SequenceId, Symbol};
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
    let mut args = Args(args.iter());
    match args.next() {
        Some("build") => cmd_build(args),
        Some("info") => cmd_info(args),
        Some("query") => cmd_query(args),
        Some("append") => cmd_append(args),
        Some("remove") => cmd_remove(args),
        Some("compact") => cmd_compact(args),
        Some("serve") => cmd_serve(args),
        Some("stats") => cmd_stats(args),
        Some("drain") => cmd_drain(args),
        Some("cluster") => cmd_cluster(args),
        _ => usage(),
    }
}

/// Cursor over a verb's arguments.
struct Args<'a>(std::slice::Iter<'a, String>);

impl<'a> Args<'a> {
    /// The next argument, if any: a flag name or an optional positional.
    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The next argument parsed as `T` — a required positional or the value
    /// of the flag just read. Missing or unparsable is a usage error.
    fn value<T: FromStr>(&mut self) -> T {
        self.next()
            .and_then(|text| text.parse().ok())
            .unwrap_or_else(|| usage())
    }

    /// Refuses trailing arguments.
    fn done(mut self) {
        if self.next().is_some() {
            usage();
        }
    }
}

// -- the element pairing ------------------------------------------------------

/// An element type the CLI handles, bound to its paper distance and to the
/// mutator that plants queries in it. Written once, here.
trait Paired: Element + StorableElement + Send + Sync + 'static {
    type Distance: SequenceDistance<Self> + 'static;
    fn distance() -> Self::Distance;
    fn mutator() -> impl QueryMutator<Self>;
    /// `--text` as elements; only symbols have a literal spelling.
    fn from_text(_text: &str) -> Option<Vec<Self>> {
        None
    }
}

impl Paired for Symbol {
    type Distance = Levenshtein;
    fn distance() -> Levenshtein {
        Levenshtein::new()
    }
    fn mutator() -> impl QueryMutator<Self> {
        SymbolMutator
    }
    fn from_text(text: &str) -> Option<Vec<Symbol>> {
        Some(symbols(text))
    }
}

fn symbols(text: &str) -> Vec<Symbol> {
    text.chars().map(Symbol::from_char).collect()
}

impl Paired for Pitch {
    type Distance = Erp;
    fn distance() -> Erp {
        Erp::new()
    }
    fn mutator() -> impl QueryMutator<Self> {
        PitchMutator
    }
}

impl Paired for Point2D {
    type Distance = DiscreteFrechet;
    fn distance() -> DiscreteFrechet {
        DiscreteFrechet::new()
    }
    fn mutator() -> impl QueryMutator<Self> {
        PointMutator::default()
    }
}

/// Calls `$verb::<E>(args…)` with the element type `$manifest` records —
/// the one dispatch on the manifest tag. `None` for a tag no [`Paired`]
/// type carries.
macro_rules! by_element {
    ($manifest:expr, $verb:ident($($arg:expr),*)) => {
        match $manifest.element.as_str() {
            Symbol::TAG => Some($verb::<Symbol>($($arg),*)),
            Pitch::TAG => Some($verb::<Pitch>($($arg),*)),
            Point2D::TAG => Some($verb::<Point2D>($($arg),*)),
            _ => None,
        }
    };
}

fn untyped(manifest: &SnapshotManifest) -> ! {
    fail(format!(
        "no typed loader for element '{}'",
        manifest.element
    ))
}

fn read_manifest(path: &str) -> SnapshotManifest {
    let snapshot = Snapshot::open(path).unwrap_or_else(|e| fail(e));
    SnapshotManifest::read(&snapshot).unwrap_or_else(|e| fail(e))
}

/// Cold-starts the database behind the snapshot at `path`, its WAL replayed
/// read-only.
fn load<E: Paired>(path: &str, manifest: &SnapshotManifest) -> SubsequenceDatabase<E, E::Distance> {
    let distance = E::distance();
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

fn open_live<E: Paired>(path: &str) -> LiveDatabase<E, E::Distance> {
    LiveDatabase::open(path, E::distance()).unwrap_or_else(|e| fail(e))
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

fn cmd_build(mut args: Args) {
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
    while let Some(flag) = args.next() {
        match flag {
            "--dataset" => opts.dataset = args.value(),
            "--windows" => opts.windows = args.value(),
            "--seed" => opts.seed = args.value(),
            "--lambda" => opts.lambda = args.value(),
            "--max-shift" => opts.max_shift = args.value(),
            "--backend" => opts.backend = parse_backend(&args.value::<String>()),
            "--threads" => opts.threads = args.value(),
            "--out" => opts.out = args.value(),
            _ => usage(),
        }
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
            build(generate_dna(&config), &opts);
        }
        "proteins" => {
            let config = ProteinConfig::sized_for_windows(opts.windows, window_len, opts.seed);
            build(generate_proteins(&config), &opts);
        }
        "songs" => {
            let config = SongsConfig::sized_for_windows(opts.windows, window_len, opts.seed);
            build(generate_songs(&config), &opts);
        }
        "traj" => {
            let config = TrajConfig::sized_for_windows(opts.windows, window_len, opts.seed);
            build(generate_trajectories(&config), &opts);
        }
        _ => usage(),
    }
}

fn build<E: Paired>(dataset: SequenceDataset<E>, opts: &BuildOptions) {
    let distance = E::distance();
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
    /// Why the log could not be read, when it could not.
    unreadable: Option<String>,
    records: usize,
    appends: usize,
    removes: usize,
    /// Why the records could not be counted by kind, when they could not.
    unclassifiable: Option<String>,
    bytes: u64,
    torn_bytes: u64,
    /// The log binds to a different snapshot — the leftover of an
    /// interrupted compaction, discarded on the next open.
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
        Err(e) => {
            state.unreadable = Some(e.to_string());
            return state;
        }
    };
    state.records = read.records.len();
    state.bytes = read.valid_len as u64;
    state.torn_bytes = read.dropped_bytes as u64;
    match count_op_kinds(&read.records) {
        Ok((appends, removes)) => {
            state.appends = appends;
            state.removes = removes;
        }
        Err(e) => state.unclassifiable = Some(e.to_string()),
    }
    state.stale = match std::fs::read(path) {
        Ok(bytes) => read.binding != Some(WalBinding::of(&bytes)),
        Err(_) => true,
    };
    state
}

/// What loading the typed database adds to the manifest: the index's exact
/// serialized structural footprint and the resident memory layout — the
/// shared element arena, the window views and the index's per-item handles.
struct Footprint {
    index: ssr_index::SpaceStats,
    /// Resident bytes of the window view table (provenance words, no
    /// elements — those are the arena's).
    view_bytes: usize,
    /// Total resident window/index bytes — the framework's own definition,
    /// so this always agrees with the CI-gated `bytes_per_window`.
    resident_bytes: usize,
}

fn footprint<E: Paired>(path: &str, manifest: &SnapshotManifest) -> Footprint {
    let db = load::<E>(path, manifest);
    Footprint {
        index: db.index_space_stats(),
        view_bytes: db.windows().view_bytes(),
        resident_bytes: db.resident_window_bytes(),
    }
}

fn cmd_info(mut args: Args) {
    let mut path = None;
    let mut json = false;
    while let Some(arg) = args.next() {
        match arg {
            "--json" => json = true,
            _ if path.is_none() && !arg.starts_with("--") => path = Some(arg),
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };
    let snapshot = Snapshot::open(path).unwrap_or_else(|e| fail(e));
    let manifest = SnapshotManifest::read(&snapshot).unwrap_or_else(|e| fail(e));
    let wal = wal_state(path);
    let loaded = by_element!(manifest, footprint(path, &manifest));
    if loaded.is_none() {
        eprintln!(
            "note: no typed loader for element '{}'; manifest only",
            manifest.element
        );
    }
    if json {
        print_info_json(path, &snapshot, &manifest, &wal, loaded.as_ref());
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
    print_wal_state(path, &wal);
    let Some(loaded) = loaded else { return };
    let stats = &loaded.index;
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
    println!(
        "memory        arena_bytes={} view_bytes={} item_bytes={} \
         resident_window_bytes={} bytes_per_window={:.1}",
        stats.arena_bytes,
        loaded.view_bytes,
        stats.item_bytes,
        loaded.resident_bytes,
        loaded.resident_bytes as f64 / stats.items.max(1) as f64
    );
}

/// `info --json`: the manifest, sections, WAL state and (when a typed loader
/// exists) the index/memory footprint as one machine-readable object —
/// scripts and the CI serve-smoke job consume this instead of scraping the
/// human rendering.
fn print_info_json(
    path: &str,
    snapshot: &Snapshot,
    manifest: &SnapshotManifest,
    wal: &WalState,
    loaded: Option<&Footprint>,
) {
    let num = |v: f64| JsonValue::Number(v);
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
                (
                    "readable",
                    JsonValue::Bool(wal.present && wal.unreadable.is_none()),
                ),
                ("pending_records", num(wal.records as f64)),
                ("appends", num(wal.appends as f64)),
                ("removes", num(wal.removes as f64)),
                ("bytes", num(wal.bytes as f64)),
                ("torn_bytes", num(wal.torn_bytes as f64)),
                ("stale", JsonValue::Bool(wal.stale)),
            ]),
        ),
    ];
    if let Some(loaded) = loaded {
        let stats = &loaded.index;
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
        let per_window = loaded.resident_bytes as f64 / stats.items.max(1) as f64;
        members.push((
            "memory".to_string(),
            JsonValue::object(vec![
                ("arena_bytes", num(stats.arena_bytes as f64)),
                ("view_bytes", num(loaded.view_bytes as f64)),
                ("item_bytes", num(stats.item_bytes as f64)),
                ("resident_window_bytes", num(loaded.resident_bytes as f64)),
                ("bytes_per_window", num((per_window * 10.0).round() / 10.0)),
            ]),
        ));
    }
    println!("{}", JsonValue::Object(members).render());
}

/// The human rendering of the WAL sibling's state: record counts by kind,
/// bytes, and whether the log actually binds to this snapshot.
fn print_wal_state(path: &str, wal: &WalState) {
    if !wal.present {
        println!("wal           none");
        return;
    }
    if let Some(e) = &wal.unreadable {
        println!(
            "wal           {} (unreadable: {e})",
            wal_path_for(path).display()
        );
        return;
    }
    let kinds = match &wal.unclassifiable {
        None => format!("{} appends, {} removes", wal.appends, wal.removes),
        Some(e) => format!("unclassifiable ops: {e}"),
    };
    let binding = if wal.stale {
        " [stale: bound to a different snapshot; discarded on open]"
    } else {
        ""
    };
    let torn = if wal.torn_bytes > 0 {
        format!(" + {} bytes torn tail", wal.torn_bytes)
    } else {
        String::new()
    };
    println!(
        "wal           {} pending records ({kinds}), {} bytes{torn}{binding}",
        wal.records, wal.bytes
    );
}

// -- append / remove / compact ----------------------------------------------

fn cmd_append(mut args: Args) {
    let path: String = args.value();
    let mut text: Option<String> = None;
    let mut label: Option<String> = None;
    while let Some(flag) = args.next() {
        match flag {
            "--text" => text = Some(args.value()),
            "--label" => label = Some(args.value()),
            _ => usage(),
        }
    }
    let Some(text) = text else { usage() };
    let manifest = read_manifest(&path);
    if manifest.element != Symbol::TAG {
        fail(format!(
            "append takes --text and therefore only supports symbol snapshots, not '{}'",
            manifest.element
        ));
    }
    let mut live = open_live::<Symbol>(&path);
    let mut sequence = Sequence::new(symbols(&text));
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

fn cmd_remove(mut args: Args) {
    let path: String = args.value();
    let mut sequence: Option<usize> = None;
    while let Some(flag) = args.next() {
        match flag {
            "--sequence" => sequence = Some(args.value()),
            _ => usage(),
        }
    }
    let Some(sequence) = sequence else { usage() };
    let manifest = read_manifest(&path);
    by_element!(manifest, remove(&path, sequence)).unwrap_or_else(|| untyped(&manifest));
}

fn remove<E: Paired>(path: &str, sequence: usize) {
    let mut live = open_live::<E>(path);
    match live.remove_sequence(SequenceId(sequence)) {
        Ok(true) => println!(
            "removed sequence {sequence}; {} live sequences remain, wal {} pending ops ({} bytes)",
            live.database().live_sequence_count(),
            live.pending_ops(),
            live.wal_len_bytes()
        ),
        Ok(false) => fail(format!("sequence {sequence} is unknown or already removed")),
        Err(e) => fail(e),
    }
}

fn cmd_compact(mut args: Args) {
    let path: String = args.value();
    args.done();
    let manifest = read_manifest(&path);
    by_element!(manifest, compact(&path)).unwrap_or_else(|| untyped(&manifest));
}

fn compact<E: Paired>(path: &str) {
    let mut live = open_live::<E>(path);
    let pending = live.pending_ops();
    live.compact().unwrap_or_else(|e| fail(e));
    let file_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    println!(
        "folded {pending} pending ops into {path} ({file_bytes} bytes); wal reset to {} bytes",
        live.wal_len_bytes()
    );
}

// -- serve ------------------------------------------------------------------

fn cmd_serve(mut args: Args) {
    let path: String = args.value();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut config = ServeConfig::default();
    while let Some(flag) = args.next() {
        match flag {
            "--addr" => addr = args.value(),
            "--workers" => config.workers = args.value(),
            "--replicas" => config.replicas = args.value(),
            "--queue-depth" => config.queue_depth = args.value(),
            "--cache-shards" => config.cache_shards = args.value(),
            "--cache-capacity" => config.cache_shard_capacity = args.value(),
            "--slow-query-ms" => config.slow_query_ms = Some(args.value()),
            "--failpoint" => {
                let spec: String = args.value();
                let armed = ssr_fault::configure_str(&spec)
                    .unwrap_or_else(|e| fail(format!("--failpoint {spec}: {e}")));
                eprintln!("# armed {armed} failpoint(s): {spec}");
            }
            _ => usage(),
        }
    }
    let manifest = read_manifest(&path);
    by_element!(manifest, serve(&path, &manifest, &addr, config.clone()))
        .unwrap_or_else(|| untyped(&manifest));
}

fn serve<E: Paired>(path: &str, manifest: &SnapshotManifest, addr: &str, config: ServeConfig) {
    let db = load::<E>(path, manifest);
    let server = Server::bind(db, addr, config).unwrap_or_else(|e| fail(e));
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

/// A client for control frames (`Metrics`, `Stats`, `Shutdown`), which carry
/// no element payload: the element type parameter is immaterial and Symbol
/// stands in.
fn control_client(addr: &str) -> WireClient<Symbol> {
    WireClient::connect(addr).unwrap_or_else(|e| fail(format!("connecting to {addr}: {e}")))
}

fn cmd_stats(mut args: Args) {
    let mut addr: Option<&str> = None;
    let mut check = false;
    let mut json = false;
    while let Some(arg) = args.next() {
        match arg {
            "--check" => check = true,
            "--json" => json = true,
            _ if addr.is_none() && !arg.starts_with("--") => addr = Some(arg),
            _ => usage(),
        }
    }
    let Some(addr) = addr else { usage() };
    let mut client = control_client(addr);
    if check || !json {
        let text = match client.request(&Request::Metrics) {
            Ok(Response::Metrics(text)) => text,
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
    let stats = match client.request(&Request::Stats) {
        Ok(Response::Stats(stats)) => stats,
        Ok(other) => fail(format!("stats answered with {other:?}")),
        Err(e) => fail(format!("fetching stats from {addr}: {e}")),
    };
    let num = |v: f64| JsonValue::Number(v);
    println!(
        "{}",
        JsonValue::object(vec![
            ("addr", JsonValue::String(addr.to_string())),
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

/// Waits for the listener at `addr` to go away — the observable outcome of a
/// drain, whose ack is written before the drain flag flips. `false` when it
/// is still there at `deadline`.
fn stops_listening(addr: &str, deadline: Instant) -> bool {
    while std::net::TcpStream::connect(addr).is_ok() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    true
}

fn cmd_drain(mut args: Args) {
    let addr: String = args.value();
    args.done();
    // Shutdown is deliberately non-idempotent in the client: one attempt,
    // no retries, a typed refusal on any ambiguous failure.
    match control_client(&addr).request(&Request::Shutdown) {
        Ok(Response::ShuttingDown) => {}
        Ok(other) => fail(format!("drain answered with {other:?}")),
        Err(e) => fail(format!("draining {addr}: {e}")),
    }
    if !stops_listening(&addr, Instant::now() + Duration::from_secs(30)) {
        fail(format!("{addr} still listening 30s after the drain ack"));
    }
    println!("drained: {addr} acknowledged shutdown and stopped listening");
}

// -- cluster ----------------------------------------------------------------

/// A cluster client over the comma-separated address list, tuned for CLI
/// one-shots: health probing on, modest timeouts, the cluster's failover as
/// the only retry.
fn cluster_client(addrs: &str, hedge_ms: Option<u64>) -> ssr_cluster::ClusterClient<Symbol> {
    let addrs = addrs.split(',').map(str::trim).filter(|a| !a.is_empty());
    let config = ssr_cluster::ClusterConfig {
        hedge_after: hedge_ms.map(Duration::from_millis),
        ..ssr_cluster::ClusterConfig::default()
    };
    ssr_cluster::ClusterClient::new(addrs, config).unwrap_or_else(|e| fail(e))
}

fn cmd_cluster(mut args: Args) {
    let addrs: String = args.value();
    match args.next() {
        Some("query") => cluster_query(&addrs, args),
        Some("stats") => cluster_stats(&addrs),
        Some("drain") => cluster_drain(&addrs),
        _ => usage(),
    }
}

/// `cluster ... query`: one Type I/II/III query through the fault-tolerant
/// client — whichever healthy node answers, plus the failover/hedge spend.
/// `--text` only (and therefore symbol snapshots only), like `append`.
fn cluster_query(addrs: &str, args: Args) {
    let opts = QueryOptions::parse(args);
    let (Some(text), None) = (&opts.text, opts.plant) else {
        usage()
    };
    let request = Request::Query {
        spec: opts.spec,
        queries: vec![symbols(text)],
    };
    let cluster = cluster_client(addrs, opts.hedge_ms);
    let started = Instant::now();
    let response = cluster.request(&request).unwrap_or_else(|e| fail(e));
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let counters = cluster.counters();
    match response {
        Response::Outcomes(outcomes) => {
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
        Response::Error(e) => fail(format!("the cluster answered with: {e}")),
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
    for (addr, outcome) in cluster.for_each_node(&Request::Stats) {
        match outcome {
            Ok(Response::Stats(stats)) => {
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
    for (addr, outcome) in cluster.for_each_node(&Request::Shutdown) {
        match outcome {
            Ok(Response::ShuttingDown) => {
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
    let deadline = Instant::now() + Duration::from_secs(30);
    for addr in &acked {
        if !stops_listening(addr, deadline) {
            eprintln!("# {addr}: still listening 30s after the drain ack");
            failures += 1;
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
    println!("drained {} node(s)", acked.len());
}

// -- query ------------------------------------------------------------------

/// What `query` and `cluster … query` take: the two share every flag but the
/// query's source (`--plant` needs the database at hand) and `--hedge-ms`.
struct QueryOptions {
    spec: QuerySpec,
    plant: Option<u64>,
    text: Option<String>,
    hedge_ms: Option<u64>,
}

impl QueryOptions {
    fn parse(mut args: Args) -> QueryOptions {
        let mut query_type = 2u8;
        let mut epsilon = 8.0;
        let mut epsilon_max = 16.0;
        let mut epsilon_increment = 1.0;
        let mut plant = None;
        let mut text = None;
        let mut hedge_ms = None;
        while let Some(flag) = args.next() {
            match flag {
                "--type" => query_type = args.value(),
                "--epsilon" => epsilon = args.value(),
                "--epsilon-max" => epsilon_max = args.value(),
                "--epsilon-increment" => epsilon_increment = args.value(),
                "--plant" => plant = Some(args.value()),
                "--text" => text = Some(args.value()),
                "--hedge-ms" => hedge_ms = Some(args.value()),
                _ => usage(),
            }
        }
        let spec = match query_type {
            1 => QuerySpec::Type1 { epsilon },
            2 => QuerySpec::Type2 { epsilon },
            3 => QuerySpec::Type3 {
                epsilon_max,
                epsilon_increment,
            },
            _ => usage(),
        };
        QueryOptions {
            spec,
            plant,
            text,
            hedge_ms,
        }
    }
}

fn cmd_query(mut args: Args) {
    let path: String = args.value();
    let opts = QueryOptions::parse(args);
    if opts.hedge_ms.is_some() || (opts.plant.is_none() && opts.text.is_none()) {
        usage();
    }
    let manifest = read_manifest(&path);
    by_element!(manifest, query(&path, &manifest, &opts)).unwrap_or_else(|| untyped(&manifest));
}

fn query<E: Paired>(path: &str, manifest: &SnapshotManifest, opts: &QueryOptions) {
    let db = load::<E>(path, manifest);
    let query = match opts.text.as_deref().and_then(E::from_text) {
        Some(elements) => {
            if elements.len() < manifest.config.lambda {
                fail(format!(
                    "--text must be at least lambda = {} characters",
                    manifest.config.lambda
                ));
            }
            Sequence::new(elements)
        }
        None => planted_query(&db, opts),
    };
    run_query(&db, query, opts.spec);
}

fn planted_query<E: Paired>(
    db: &SubsequenceDatabase<E, E::Distance>,
    opts: &QueryOptions,
) -> Sequence<E> {
    let Some(seed) = opts.plant else {
        fail("this element type only supports --plant SEED queries");
    };
    let config = QueryConfig {
        planted_len: db.config().lambda + db.config().window_len(),
        context_len: db.config().window_len(),
        perturbation_rate: 0.05,
        seed,
    };
    let planted = plant_query(&db.to_dataset(), &E::mutator(), &config)
        .unwrap_or_else(|| fail("database too small to plant a query; use more windows"));
    eprintln!(
        "# planted query from {} range {:?}",
        planted.source, planted.source_range
    );
    planted.query
}

fn run_query<E: Paired>(
    db: &SubsequenceDatabase<E, E::Distance>,
    query: Sequence<E>,
    spec: QuerySpec,
) {
    let started = Instant::now();
    match spec {
        QuerySpec::Type1 { epsilon } => {
            let outcome = db.query_type1(&query, epsilon);
            print_stats(&outcome, started);
            println!(
                "{} matching pairs (epsilon {epsilon}):",
                outcome.result.len()
            );
            for m in outcome.result.iter().take(10) {
                print_match(m);
            }
            if outcome.result.len() > 10 {
                println!("  … {} more", outcome.result.len() - 10);
            }
        }
        QuerySpec::Type2 { epsilon } => {
            let outcome = db.query_type2(&query, epsilon);
            print_stats(&outcome, started);
            match &outcome.result {
                Some(m) => {
                    println!("longest similar subsequence (epsilon {epsilon}):");
                    print_match(m);
                }
                None => println!("no similar subsequence within epsilon {epsilon}"),
            }
        }
        QuerySpec::Type3 {
            epsilon_max,
            epsilon_increment,
        } => {
            let outcome = db.query_type3(&query, epsilon_max, epsilon_increment);
            print_stats(&outcome, started);
            match &outcome.result {
                Some(m) => {
                    println!(
                        "nearest pair (epsilon_max {epsilon_max}, increment {epsilon_increment}):"
                    );
                    print_match(m);
                }
                None => println!("no pair found up to epsilon_max {epsilon_max}"),
            }
        }
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
