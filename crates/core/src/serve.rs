//! A concurrent query server over a loaded [`SubsequenceDatabase`].
//!
//! Dependency-free serving on `std` TCP: one accept loop, one lightweight
//! thread per connection, and a fixed pool of query workers behind a bounded
//! admission queue. Messages travel as [`crate::wire`] payloads inside the
//! shared [`ssr_storage::frame`] framing.
//!
//! The moving parts, and why each exists:
//!
//! * **Admission control** — connection threads never execute queries; they
//!   submit jobs to a bounded queue. A full queue rejects *immediately*
//!   with [`WireError::Overloaded`] instead of letting latency collapse
//!   under unbounded buffering: the client learns to back off while the
//!   server keeps answering `Ping`/`Stats` (which bypass the queue).
//! * **Result cache** — a mutex-sharded map ([`ShardedMemo`]) keyed by the
//!   *encoded query bytes* plus the query spec's tag and radius bits.
//!   Repeated queries (the common case under multi-user traffic) replay the
//!   originally computed outcome — matches *and* stats — bit-identically,
//!   flagged `cached` on the wire. Keys hold the full encoded bytes rather
//!   than a hash, so a collision can at worst waste memory, never serve a
//!   wrong result. Eviction is coarse (a full shard clears) and bounded by
//!   `cache_shards × cache_shard_capacity`.
//! * **Replicas** — each worker queries a [`SubsequenceDatabase::clone_replica`]
//!   chosen by `worker_id % replicas`. Replicas share the window store —
//!   the element arena with its labels and the view table — and the
//!   gap-prefix tables, each behind one `Arc` (the bytes that dominate
//!   residency), and duplicate only the index navigation structure plus
//!   private query counters, so workers never contend on the shared counter
//!   atomics.
//!
//! Every query is executed by the same [`QueryEngine`] the in-process API
//! uses, one batch per request, so served results are **bit-identical** to
//! in-process results — `tests/serve_parity.rs` holds that line.
//!
//! **Failure posture.** Worker threads wrap each job in `catch_unwind`, so a
//! panic inside one query poisons nothing: the job's reply channel drops
//! (the waiting connection answers [`WireError::Internal`]) and the worker
//! keeps serving. Connections that stall mid-frame past the read timeout
//! are counted and closed with a typed [`WireError::Malformed`] — a slow
//! peer cannot pin a connection thread forever. A wire
//! [`Request::Shutdown`] *drains*: in-flight jobs finish, new queries are
//! refused with [`WireError::Draining`] (`Ping`/`Stats`/`Metrics` still
//! answer, so probes keep working), and the server exits once the last
//! worker runs dry. Failpoints (`serve.accept`, `serve.frame_read`,
//! `serve.frame_write`, `serve.worker`) let chaos tests force each of these
//! paths deterministically.

use std::collections::VecDeque;
use std::io::Write;
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ssr_distance::SequenceDistance;
use ssr_sequence::{Element, Sequence};
use ssr_storage::{read_frame, write_frame, Encode, StorableElement, StorageError, Writer};

use crate::batch::QueryEngine;
use crate::database::SubsequenceDatabase;
use crate::parallel::{resolve_threads, ShardedMemo};
use crate::query::{QueryStats, SubsequenceMatch};
use crate::wire::{QuerySpec, Request, Response, ServerStatsSnapshot, WireError, WireOutcome};

/// Tuning knobs of [`Server::bind`]. The defaults suit a smoke-scale CI
/// deployment; production would raise the cache and queue bounds.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Query worker threads; `0` means one per available hardware thread.
    pub workers: usize,
    /// Read-only database replicas the workers rotate over (min 1).
    pub replicas: usize,
    /// Maximum query jobs waiting for a worker. `0` refuses every job —
    /// useful to test overload handling deterministically.
    pub queue_depth: usize,
    /// Mutex shards of the result cache.
    pub cache_shards: usize,
    /// Entries one cache shard holds before it evicts (coarsely, by
    /// clearing). Total cache bound: `cache_shards × cache_shard_capacity`.
    pub cache_shard_capacity: usize,
    /// Per-connection socket read timeout. A connection that stalls
    /// mid-frame longer than this is dropped — the stream offset can no
    /// longer be trusted, so there is nothing useful to answer.
    pub read_timeout: Option<Duration>,
    /// Largest frame payload accepted before the payload is read.
    pub max_frame_len: usize,
    /// Slow-query log threshold in milliseconds. `Some(ms)` span-traces
    /// every request (server spans plus the engine's per-stage spans, all
    /// flushed into [`ssr_obs::trace_ring`]) and dumps the span tree and
    /// statistics of any query slower than `ms` to stderr. `None` (the
    /// default) records no traces.
    pub slow_query_ms: Option<u64>,
    /// Name this server answers to on the [`ssr_fault::node_killed`] kill
    /// switch. While the named switch is thrown the server models a crashed
    /// process: new connections are dropped at accept and in-flight
    /// connections are abandoned mid-stream, with no response either way —
    /// but the listener keeps its port, so [`ssr_fault::revive_node`] is an
    /// instant, deterministic "restart". `None` (the default) opts out
    /// entirely; production servers pay one relaxed atomic load per check.
    pub node_name: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            replicas: 1,
            queue_depth: 64,
            cache_shards: 16,
            cache_shard_capacity: 256,
            read_timeout: Some(Duration::from_secs(30)),
            max_frame_len: 16 * 1024 * 1024,
            slow_query_ms: None,
            node_name: None,
        }
    }
}

/// Why [`BoundedQueue::try_push`] refused a job.
enum PushError {
    /// The queue is at capacity.
    Full,
    /// The queue was closed (server shutting down).
    Closed,
}

/// A minimal bounded MPMC queue: `Mutex<VecDeque>` + `Condvar`. Producers
/// never block — admission control wants an immediate full/closed verdict —
/// and consumers block in [`BoundedQueue::pop`] until a job or close
/// arrives.
struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    available: Condvar,
    capacity: usize,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity,
        }
    }

    /// Non-blocking push; `Err(Full)` is the admission-control reject.
    fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed {
            return Err(PushError::Closed);
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until an item arrives; `None` once closed and drained.
    fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).expect("queue poisoned");
        }
    }

    /// Closes the queue: producers get `Closed`, consumers drain then stop.
    fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.available.notify_all();
    }

    /// Jobs currently waiting for a worker (the admission-queue depth the
    /// `ssr_queue_depth` gauge reports at scrape time).
    fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").items.len()
    }
}

/// Result-cache key: the query's encoded element bytes plus the spec's tag
/// and radius bits. Full bytes, not a hash — elements (trajectory floats)
/// are not hashable in general, and byte keys make collisions impossible.
type CacheKey = (Vec<u8>, u8, u64, u64);

/// A cached outcome: matches and stats behind one `Arc` so cache hits clone
/// a pointer, not a result set.
type CachedOutcome = Arc<(Vec<SubsequenceMatch>, QueryStats)>;

fn cache_key<E: Encode>(elements: &[E], spec: &QuerySpec) -> CacheKey {
    let mut w = Writer::new();
    w.put_usize(elements.len());
    for e in elements {
        e.encode(&mut w);
    }
    let (radius, increment) = spec.radius_bits();
    (w.into_bytes(), spec.tag(), radius, increment)
}

/// Estimated resident bytes of the result cache: encoded key bytes plus the
/// match vectors, with a fixed per-entry overhead for the key tuple, the
/// stats and the `Arc` bookkeeping. An estimate — capacities and allocator
/// slack are deliberately ignored so the figure is deterministic.
fn cache_bytes_estimate(cache: &ShardedMemo<CacheKey, CachedOutcome>) -> u64 {
    cache.fold(0u64, |acc, key, outcome| {
        let key_bytes = key.0.len() + std::mem::size_of::<CacheKey>();
        let match_bytes = outcome.0.len() * std::mem::size_of::<SubsequenceMatch>();
        let fixed = std::mem::size_of::<(Vec<SubsequenceMatch>, QueryStats)>();
        acc + (key_bytes + match_bytes + fixed) as u64
    })
}

/// One admitted unit of work: the uncached queries of one request batch.
struct QueryJob<E> {
    spec: QuerySpec,
    queries: Vec<Sequence<E>>,
    keys: Vec<CacheKey>,
    reply: mpsc::Sender<Vec<CachedOutcome>>,
}

/// State shared by the accept loop, connection threads and workers.
struct Shared<E: Element, D: SequenceDistance<E>> {
    replicas: Vec<SubsequenceDatabase<E, D>>,
    queue: BoundedQueue<QueryJob<E>>,
    cache: ShardedMemo<CacheKey, CachedOutcome>,
    config: ServeConfig,
    workers: usize,
    shutdown: AtomicBool,
    /// Set by [`Shared::begin_drain`]: refuse new queries, finish in-flight
    /// ones, exit when the last worker runs dry.
    draining: AtomicBool,
    /// Worker threads still running; the last one out completes a drain.
    active_workers: AtomicUsize,
    /// Jobs whose execution panicked (caught; the worker kept serving).
    worker_panics: AtomicU64,
    /// Connections dropped because a read stalled past the timeout.
    connection_timeouts: AtomicU64,
    local_addr: SocketAddr,
    queries_executed: AtomicU64,
    queries_answered: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    rejected_overload: AtomicU64,
    /// When the server bound its socket; origin of `uptime_ms`.
    started: Instant,
    /// Server-owned metrics registry: holds the series that must accumulate
    /// across requests (today just the request-latency histogram — the
    /// counter families are rendered from the atomics above at scrape time).
    registry: ssr_obs::Registry,
    /// Wall-clock of each served `Query` request, in microseconds. A handle
    /// into `registry`, resolved once at bind.
    request_duration: ssr_obs::Histogram,
    /// `ssr_draining` gauge (0/1) in `registry`, resolved once at bind so a
    /// scrape can watch a drain progress.
    draining_gauge: ssr_obs::Gauge,
    /// Monotonic ids for server-side request traces (slow-query log).
    trace_ids: AtomicU64,
}

impl<E, D> Shared<E, D>
where
    E: Element + Send + Sync,
    D: SequenceDistance<E>,
{
    fn stats_snapshot(&self) -> ServerStatsSnapshot {
        let db = &self.replicas[0];
        ServerStatsSnapshot {
            sequences: db.sequence_count(),
            windows: db.window_count(),
            arena_bytes: db.windows().arena().resident_bytes(),
            workers: self.workers,
            replicas: self.replicas.len(),
            queries_executed: self.queries_executed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_entries: self.cache.len(),
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            cache_bytes_estimate: cache_bytes_estimate(&self.cache),
        }
    }

    /// Renders the full Prometheus exposition: the server registry (the
    /// cumulative request-latency histogram), a scrape-time registry built
    /// from the server's atomics / per-shard cache tallies / per-replica
    /// counters, and the process-global registry (index probe depth, WAL
    /// and snapshot gauges). The three hold disjoint family names, so the
    /// concatenation is a valid exposition.
    fn render_metrics(&self) -> String {
        let mut out = self.registry.render();
        let scrape = ssr_obs::Registry::new();
        scrape
            .counter(
                "ssr_queries_executed_total",
                "Queries executed by the worker pool (cache misses only).",
            )
            .add(self.queries_executed.load(Ordering::Relaxed));
        scrape
            .counter(
                "ssr_queries_answered_total",
                "Queries answered with outcomes, cache hits included.",
            )
            .add(self.queries_answered.load(Ordering::Relaxed));
        scrape
            .counter("ssr_cache_hits_total", "Result-cache lookup hits.")
            .add(self.cache_hits.load(Ordering::Relaxed));
        scrape
            .counter("ssr_cache_misses_total", "Result-cache lookup misses.")
            .add(self.cache_misses.load(Ordering::Relaxed));
        scrape
            .counter(
                "ssr_overload_rejections_total",
                "Requests rejected because the admission queue was full.",
            )
            .add(self.rejected_overload.load(Ordering::Relaxed));
        scrape
            .gauge("ssr_queue_depth", "Query jobs waiting for a worker.")
            .set(self.queue.len() as i64);
        scrape
            .counter(
                "ssr_worker_panics_total",
                "Query jobs whose execution panicked (caught; worker kept serving).",
            )
            .add(self.worker_panics.load(Ordering::Relaxed));
        scrape
            .counter(
                "ssr_connection_timeouts_total",
                "Connections dropped because a read stalled past the timeout.",
            )
            .add(self.connection_timeouts.load(Ordering::Relaxed));
        scrape
            .gauge("ssr_uptime_ms", "Milliseconds since the server bound.")
            .set(self.started.elapsed().as_millis() as i64);
        scrape
            .gauge("ssr_cache_entries", "Resident result-cache entries.")
            .set(self.cache.len() as i64);
        scrape
            .gauge(
                "ssr_cache_bytes_estimate",
                "Estimated resident bytes of the result cache.",
            )
            .set(cache_bytes_estimate(&self.cache) as i64);
        for (i, stats) in self.cache.shard_stats().iter().enumerate() {
            let label = Some(("shard", i.to_string()));
            scrape
                .counter_with(
                    "ssr_cache_shard_hits_total",
                    "Result-cache hits per shard.",
                    label.clone(),
                )
                .add(stats.hits);
            scrape
                .counter_with(
                    "ssr_cache_shard_misses_total",
                    "Result-cache misses per shard.",
                    label.clone(),
                )
                .add(stats.misses);
            scrape
                .counter_with(
                    "ssr_cache_shard_evictions_total",
                    "Entries dropped by per-shard eviction.",
                    label,
                )
                .add(stats.evicted);
        }
        for (i, replica) in self.replicas.iter().enumerate() {
            let label = Some(("replica", i.to_string()));
            scrape
                .counter_with(
                    "ssr_replica_distance_calls_total",
                    "Query-time distance evaluations inside the index, per replica.",
                    label.clone(),
                )
                .add(replica.query_distance_counter().get());
            scrape
                .counter_with(
                    "ssr_replica_dp_cells_total",
                    "Query-time DP cells evaluated inside the index, per replica.",
                    label,
                )
                .add(replica.query_dp_cell_counter().get());
        }
        out.push_str(&scrape.render());
        out.push_str(&ssr_obs::global().render());
        out
    }

    /// Flips the shutdown flag, closes the queue and nudges the accept loop
    /// awake with a throwaway self-connection. Idempotent.
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        // `accept` has no timeout; a self-connect is the portable wake-up.
        drop(TcpStream::connect(self.local_addr));
    }

    /// Starts a graceful drain: raises the `ssr_draining` gauge, closes the
    /// admission queue (in-flight jobs finish; new queries are answered
    /// [`WireError::Draining`]) and lets the last worker to run dry complete
    /// the shutdown. Idempotent.
    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        self.draining_gauge.set(1);
        self.queue.close();
    }
}

/// A running query server. Dropping the handle does **not** stop the server;
/// call [`Server::shutdown`] (or send [`Request::Shutdown`] over the wire).
pub struct Server<E: Element, D: SequenceDistance<E>> {
    shared: Arc<Shared<E, D>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl<E, D> Server<E, D>
where
    E: Element + StorableElement + Send + Sync + 'static,
    D: SequenceDistance<E> + Send + Sync + 'static,
{
    /// Binds `addr`, builds `config.replicas` read-only replicas of `db` and
    /// starts the accept loop plus the worker pool. Returns once the socket
    /// is listening — [`Server::local_addr`] is immediately connectable.
    pub fn bind(
        db: SubsequenceDatabase<E, D>,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let workers = resolve_threads(config.workers);
        let mut replicas = Vec::with_capacity(config.replicas.max(1));
        replicas.push(db);
        for _ in 1..config.replicas.max(1) {
            replicas.push(replicas[0].clone_replica());
        }
        let registry = ssr_obs::Registry::new();
        let request_duration = registry.histogram(
            "ssr_request_duration_us",
            "Server-side wall clock of each Query request, in microseconds.",
        );
        let draining_gauge = registry.gauge(
            "ssr_draining",
            "1 while the server drains in-flight work before exiting.",
        );
        let shared = Arc::new(Shared {
            replicas,
            queue: BoundedQueue::new(config.queue_depth),
            cache: ShardedMemo::new(config.cache_shards),
            workers,
            config,
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            active_workers: AtomicUsize::new(workers),
            worker_panics: AtomicU64::new(0),
            connection_timeouts: AtomicU64::new(0),
            local_addr,
            queries_executed: AtomicU64::new(0),
            queries_answered: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            rejected_overload: AtomicU64::new(0),
            started: Instant::now(),
            registry,
            request_duration,
            draining_gauge,
            trace_ids: AtomicU64::new(1),
        });

        let mut threads = Vec::with_capacity(workers + 1);
        for worker_id in 0..workers {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("ssr-worker-{worker_id}"))
                    .spawn(move || worker_loop(&shared, worker_id))?,
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("ssr-accept".to_string())
                    .spawn(move || accept_loop(&listener, &shared))?,
            );
        }
        Ok(Server { shared, threads })
    }

    /// The bound address (with the OS-assigned port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The server's counter snapshot, as [`Request::Stats`] would report.
    pub fn stats(&self) -> ServerStatsSnapshot {
        self.shared.stats_snapshot()
    }

    /// Stops accepting, drains admitted jobs and joins every server thread.
    /// Open connections die on their next read (reset or timeout).
    pub fn shutdown(self) {
        self.shared.begin_shutdown();
        for handle in self.threads {
            let _ = handle.join();
        }
    }

    /// Gracefully drains and then stops: in-flight and already-admitted
    /// jobs finish, new queries are refused with [`WireError::Draining`]
    /// (probes still answer), and once the last worker runs dry the server
    /// shuts down. Blocks until every server thread has exited. This is
    /// what a wire [`Request::Shutdown`] triggers remotely.
    pub fn drain(self) {
        self.shared.begin_drain();
        for handle in self.threads {
            let _ = handle.join();
        }
    }

    /// Blocks until the server stops some other way — a wire
    /// [`Request::Shutdown`], typically. This is `ssr serve`'s foreground
    /// mode: bind, print the address, then park here.
    pub fn wait(self) {
        for handle in self.threads {
            let _ = handle.join();
        }
    }
}

fn accept_loop<E, D>(listener: &TcpListener, shared: &Arc<Shared<E, D>>)
where
    E: Element + StorableElement + Send + Sync + 'static,
    D: SequenceDistance<E> + Send + Sync + 'static,
{
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Chaos hook: a fired `serve.accept` drops the fresh connection on
        // the floor, as an accept-time resource failure would.
        if ssr_fault::evaluate("serve.accept").is_some() {
            continue;
        }
        // Node-level kill switch: while this named node is "killed", every
        // fresh connection dies unanswered — the client sees the reset a
        // crashed process would produce, but the port stays bound so a
        // revive is an instant restart.
        if let Some(name) = &shared.config.node_name {
            if ssr_fault::node_killed(name) {
                continue;
            }
        }
        let shared = Arc::clone(shared);
        // Connection threads are detached: they exit on client disconnect,
        // read timeout or queue closure, and hold nothing but the shared
        // state, so shutdown never needs to join them.
        let _ = std::thread::Builder::new()
            .name("ssr-conn".to_string())
            .spawn(move || connection_loop(stream, &shared));
    }
}

/// Per-connection read→dispatch→respond loop. Frame-level damage answers a
/// typed error and closes (the stream offset is untrustworthy); payload-level
/// damage answers a typed error and keeps the connection usable.
fn connection_loop<E, D>(mut stream: TcpStream, shared: &Arc<Shared<E, D>>)
where
    E: Element + StorableElement + Send + Sync,
    D: SequenceDistance<E> + Send + Sync,
{
    if stream.set_read_timeout(shared.config.read_timeout).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    loop {
        // Chaos hook: a fired `serve.frame_read` behaves like the peer
        // vanishing mid-frame — the connection closes without an answer.
        if ssr_fault::evaluate("serve.frame_read").is_some() {
            return;
        }
        // A killed node abandons persistent connections too: a client that
        // connected before the "crash" must not keep getting answers.
        if let Some(name) = &shared.config.node_name {
            if ssr_fault::node_killed(name) {
                return;
            }
        }
        let payload = match read_frame(&mut stream, shared.config.max_frame_len) {
            Ok(Some(payload)) => payload,
            // Clean EOF between frames: the client hung up.
            Ok(None) => return,
            Err(StorageError::Io(err))
                if matches!(
                    err.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // The peer stalled past the read timeout (slowloris or a
                // dead link). Count it and answer a typed refusal
                // best-effort — the write side usually still works — then
                // close: the stream offset cannot be trusted any more.
                shared.connection_timeouts.fetch_add(1, Ordering::Relaxed);
                let error = Response::Error(WireError::Malformed(
                    "read timed out mid-frame; closing connection".into(),
                ));
                let _ = respond(&mut stream, &error);
                return;
            }
            Err(StorageError::Io(_)) => return,
            Err(err) => {
                let error = Response::Error(WireError::from_storage(&err));
                let _ = respond(&mut stream, &error);
                return;
            }
        };
        // Re-check the kill switch *after* the read: a thread parked in
        // `read_frame` when the kill landed wakes holding a request — a
        // crashed process would never answer it, so neither do we.
        if let Some(name) = &shared.config.node_name {
            if ssr_fault::node_killed(name) {
                return;
            }
        }
        let request = match Request::<E>::decode_payload(&payload) {
            Ok(decoded) => decoded,
            Err(err) => {
                let error = Response::Error(WireError::from_storage(&err));
                if respond(&mut stream, &error).is_err() {
                    return;
                }
                continue;
            }
        };
        let response = match request {
            Request::Ping => Response::Pong,
            Request::Stats => Response::Stats(shared.stats_snapshot()),
            Request::Metrics => Response::Metrics(shared.render_metrics()),
            Request::Shutdown => {
                // Shutdown over the wire is a *drain*: ack, stop admitting,
                // let in-flight work finish; the last worker to run dry
                // completes the shutdown.
                let _ = respond(&mut stream, &Response::ShuttingDown);
                shared.begin_drain();
                return;
            }
            // Probes above still answer during a drain; only new query
            // batches are refused, with the typed retry-elsewhere error.
            Request::Query { .. } if shared.draining.load(Ordering::SeqCst) => {
                Response::Error(WireError::Draining)
            }
            Request::Query { spec, queries } => match check_spec(&spec) {
                Err(refusal) => Response::Error(refusal),
                Ok(()) => {
                    let started = Instant::now();
                    let response = answer_query(shared, spec, queries);
                    shared
                        .request_duration
                        .observe(started.elapsed().as_micros() as u64);
                    response
                }
            },
        };
        if respond(&mut stream, &response).is_err() {
            return;
        }
    }
}

/// Longest Type III sweep a request may ask for, in `ε` rounds.
const MAX_SWEEP_ROUNDS: f64 = 1024.0;

/// Refuses, before admission, a spec no worker should be handed: a radius
/// that is negative or not finite, or a Type III sweep whose step is not
/// positive (the engine asserts on it) or that would run for more than
/// [`MAX_SWEEP_ROUNDS`] rounds.
fn check_spec(spec: &QuerySpec) -> Result<(), WireError> {
    let radius_ok = |r: f64| r.is_finite() && r >= 0.0;
    let ok = match *spec {
        QuerySpec::Type1 { epsilon } | QuerySpec::Type2 { epsilon } => radius_ok(epsilon),
        QuerySpec::Type3 {
            epsilon_max,
            epsilon_increment,
        } => {
            radius_ok(epsilon_max)
                && radius_ok(epsilon_increment)
                && epsilon_max / epsilon_increment <= MAX_SWEEP_ROUNDS
        }
    };
    if ok {
        Ok(())
    } else {
        Err(WireError::Malformed(format!("unusable radii in {spec:?}")))
    }
}

fn respond(stream: &mut TcpStream, response: &Response) -> Result<(), StorageError> {
    // Chaos hook: a fired `serve.frame_write` fails the response write, as
    // a peer resetting the connection mid-reply would.
    if ssr_fault::evaluate("serve.frame_write").is_some() {
        return Err(StorageError::Io(ssr_fault::injected_io_error(
            "serve.frame_write",
        )));
    }
    write_frame(stream, &response.encode_payload())?;
    stream.flush().map_err(StorageError::Io)
}

/// Splits a request batch into cache hits and misses, admits the misses as
/// one job and reassembles outcomes in request order.
fn answer_query<E, D>(shared: &Arc<Shared<E, D>>, spec: QuerySpec, queries: Vec<Vec<E>>) -> Response
where
    E: Element + StorableElement + Send + Sync,
    D: SequenceDistance<E>,
{
    // Server-side spans (cache probe, admission wait) ride into the global
    // trace ring whenever the slow-query log is on. Request trace ids are a
    // monotonic tally — distinct from the engine's per-batch slot ids.
    let mut trace = shared
        .config
        .slow_query_ms
        .map(|_| ssr_obs::TraceBuf::new(shared.trace_ids.fetch_add(1, Ordering::Relaxed)));
    let probe_started = Instant::now();
    let keys: Vec<CacheKey> = queries.iter().map(|q| cache_key(q, &spec)).collect();
    let mut slots: Vec<Option<CachedOutcome>> = Vec::with_capacity(queries.len());
    let mut hit_flags: Vec<bool> = Vec::with_capacity(queries.len());
    let mut miss_indices: Vec<usize> = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        match shared.cache.get(key) {
            Some(hit) => {
                slots.push(Some(hit));
                hit_flags.push(true);
            }
            None => {
                slots.push(None);
                hit_flags.push(false);
                miss_indices.push(i);
            }
        }
    }
    let hits = (queries.len() - miss_indices.len()) as u64;
    shared.cache_hits.fetch_add(hits, Ordering::Relaxed);
    shared
        .cache_misses
        .fetch_add(miss_indices.len() as u64, Ordering::Relaxed);
    if let Some(trace) = trace.as_mut() {
        trace.record("cache_probe", probe_started.elapsed().as_nanos() as u64);
    }

    if !miss_indices.is_empty() {
        let mut job_queries = Vec::with_capacity(miss_indices.len());
        let mut job_keys = Vec::with_capacity(miss_indices.len());
        let mut queries = queries;
        // Drain back-to-front so earlier indices stay valid.
        for &i in miss_indices.iter().rev() {
            job_queries.push(Sequence::new(std::mem::take(&mut queries[i])));
            job_keys.push(keys[i].clone());
        }
        job_queries.reverse();
        job_keys.reverse();
        let (reply_tx, reply_rx) = mpsc::channel();
        let job = QueryJob {
            spec,
            queries: job_queries,
            keys: job_keys,
            reply: reply_tx,
        };
        let admission_started = Instant::now();
        match shared.queue.try_push(job) {
            Ok(()) => {}
            Err(PushError::Full) => {
                shared.rejected_overload.fetch_add(1, Ordering::Relaxed);
                return Response::Error(WireError::Overloaded);
            }
            Err(PushError::Closed) => {
                // A drain closes the queue before connections see the flag;
                // answer the typed drain refusal in that window.
                if shared.draining.load(Ordering::SeqCst) {
                    return Response::Error(WireError::Draining);
                }
                return Response::Error(WireError::Internal("server is shutting down".into()));
            }
        }
        let fresh = match reply_rx.recv() {
            Ok(fresh) => fresh,
            Err(_) => {
                return Response::Error(WireError::Internal(
                    "worker pool stopped before the job completed".into(),
                ))
            }
        };
        if let Some(trace) = trace.as_mut() {
            // Queue wait plus worker execution, as the connection sees it.
            trace.record("admission", admission_started.elapsed().as_nanos() as u64);
        }
        debug_assert_eq!(fresh.len(), miss_indices.len());
        for (slot, outcome) in miss_indices.into_iter().zip(fresh) {
            slots[slot] = Some(outcome);
        }
    }

    let outcomes: Vec<WireOutcome> = slots
        .into_iter()
        .zip(hit_flags)
        .map(|(slot, cached)| {
            let executed = slot.expect("every slot is filled by a hit or the job reply");
            WireOutcome {
                cached,
                matches: executed.0.clone(),
                stats: executed.1,
            }
        })
        .collect();
    shared
        .queries_answered
        .fetch_add(outcomes.len() as u64, Ordering::Relaxed);
    if let Some(trace) = trace.as_ref() {
        trace.flush_to(ssr_obs::trace_ring());
    }
    Response::Outcomes(outcomes)
}

/// Executes admitted jobs on this worker's replica until the queue closes.
///
/// Each job runs inside `catch_unwind`: a panicking query (or a fired
/// `serve.worker` failpoint) drops that job's reply channel — the waiting
/// connection answers [`WireError::Internal`] — and the worker moves on to
/// the next job instead of dying, so one poisoned input cannot shrink the
/// pool. The last worker to exit during a drain completes the shutdown.
fn worker_loop<E, D>(shared: &Arc<Shared<E, D>>, worker_id: usize)
where
    E: Element + Send + Sync,
    D: SequenceDistance<E>,
{
    let db = &shared.replicas[worker_id % shared.replicas.len()];
    while let Some(job) = shared.queue.pop() {
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if ssr_fault::evaluate("serve.worker").is_some() {
                panic!("failpoint 'serve.worker' fired: injected worker panic");
            }
            execute_job(shared, db, job)
        }));
        if ran.is_err() {
            shared.worker_panics.fetch_add(1, Ordering::Relaxed);
        }
    }
    if shared.active_workers.fetch_sub(1, Ordering::SeqCst) == 1
        && shared.draining.load(Ordering::SeqCst)
    {
        shared.begin_shutdown();
    }
}

fn execute_job<E, D>(shared: &Arc<Shared<E, D>>, db: &SubsequenceDatabase<E, D>, job: QueryJob<E>)
where
    E: Element + Send + Sync,
    D: SequenceDistance<E>,
{
    let engine = QueryEngine::new(db)
        .with_threads(1)
        .with_slow_query_log(shared.config.slow_query_ms);
    let outcomes: Vec<CachedOutcome> = match job.spec {
        QuerySpec::Type1 { epsilon } => engine
            .batch_type1(&job.queries, epsilon)
            .outcomes
            .into_iter()
            .map(|o| Arc::new((o.result, o.stats)))
            .collect(),
        QuerySpec::Type2 { epsilon } => engine
            .batch_type2(&job.queries, epsilon)
            .outcomes
            .into_iter()
            .map(|o| Arc::new((o.result.into_iter().collect(), o.stats)))
            .collect(),
        QuerySpec::Type3 {
            epsilon_max,
            epsilon_increment,
        } => engine
            .batch_type3(&job.queries, epsilon_max, epsilon_increment)
            .outcomes
            .into_iter()
            .map(|o| Arc::new((o.result.into_iter().collect(), o.stats)))
            .collect(),
    };
    shared
        .queries_executed
        .fetch_add(outcomes.len() as u64, Ordering::Relaxed);
    for (key, outcome) in job.keys.iter().zip(&outcomes) {
        shared.cache.insert_evicting(
            key.clone(),
            Arc::clone(outcome),
            shared.config.cache_shard_capacity,
        );
    }
    let _ = job.reply.send(outcomes);
}

/// A blocking client speaking the wire protocol — the counterpart the
/// parity tests drive.
pub struct Client<E> {
    stream: TcpStream,
    max_frame_len: usize,
    _marker: PhantomData<E>,
}

impl<E: StorableElement> Client<E> {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            max_frame_len: ServeConfig::default().max_frame_len,
            _marker: PhantomData,
        })
    }

    /// Sends one request and blocks for its response. A closed connection
    /// surfaces as [`StorageError::Truncated`].
    pub fn request(&mut self, request: &Request<E>) -> Result<Response, StorageError> {
        write_frame(&mut self.stream, &request.encode_payload())?;
        self.stream.flush().map_err(StorageError::Io)?;
        match read_frame(&mut self.stream, self.max_frame_len)? {
            Some(payload) => Response::decode_payload(&payload),
            None => Err(StorageError::Truncated {
                context: "server closed the connection",
            }),
        }
    }

    /// The underlying stream, for tests that need byte-level control.
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}
