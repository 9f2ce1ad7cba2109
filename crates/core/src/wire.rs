//! The query server's wire protocol: a length-prefixed binary codec over the
//! shared [`ssr_storage::frame`] framing.
//!
//! Every message on the socket is one frame — `[u32 len][u32 crc][payload]`
//! — so the transport inherits the WAL's audited truncation/corruption
//! story: a flipped byte anywhere in a frame fails its CRC, a lying length
//! prefix is refused before the payload is read, and nothing in the decode
//! path can panic on hostile bytes. Inside the frame, payloads reuse the
//! snapshot codec ([`ssr_storage::Writer`] / [`ssr_storage::Reader`]), whose
//! `take_*` accessors are bounds-checked and whose length prefixes are
//! sanity-capped against the remaining buffer.
//!
//! Payload layout: `[version u8][kind u8][body]`, with exact-consumption
//! demanded after the body (`expect_empty`). A `Query` body leads with the
//! element tag so a server can refuse a mismatched element type *before*
//! attempting to decode elements of the wrong shape.
//!
//! **One version.** A payload whose version byte is not [`WIRE_VERSION`] is
//! refused with the typed [`WireError::UnsupportedVersion`], in either
//! direction; no peer older than the current version was ever deployed, so
//! nothing is negotiated and every body has exactly one layout.
//!
//! The module is pure codec — no sockets. [`crate::serve`] owns the IO.

use ssr_storage::{Decode, Encode, Reader, StorableElement, StorageError, Writer};

use crate::query::{QueryStats, SubsequenceMatch};

/// The wire protocol version: what every payload leads with, and the only
/// one decoded.
pub const WIRE_VERSION: u8 = 3;

/// Consumes the version byte, refusing any other than [`WIRE_VERSION`].
fn take_version(r: &mut Reader<'_>) -> Result<(), StorageError> {
    match r.take_u8()? {
        WIRE_VERSION => Ok(()),
        other => Err(StorageError::UnsupportedVersion(u32::from(other))),
    }
}

const REQ_PING: u8 = 0;
const REQ_STATS: u8 = 1;
const REQ_SHUTDOWN: u8 = 2;
const REQ_QUERY: u8 = 3;
const REQ_METRICS: u8 = 4;

const RESP_PONG: u8 = 0;
const RESP_STATS: u8 = 1;
const RESP_SHUTTING_DOWN: u8 = 2;
const RESP_OUTCOMES: u8 = 3;
const RESP_ERROR: u8 = 4;
const RESP_METRICS: u8 = 5;

const SPEC_TYPE1: u8 = 0;
const SPEC_TYPE2: u8 = 1;
const SPEC_TYPE3: u8 = 2;

const ERR_OVERLOADED: u8 = 0;
const ERR_UNSUPPORTED_VERSION: u8 = 1;
const ERR_MALFORMED: u8 = 2;
const ERR_ELEMENT_MISMATCH: u8 = 3;
const ERR_INTERNAL: u8 = 4;
const ERR_DRAINING: u8 = 5;

/// Which of the paper's three query types a request asks for, with its
/// radii. One spec applies to every query sequence in the request — the
/// server fans the batch out as a single [`crate::QueryEngine`] call.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum QuerySpec {
    /// Type I: all similar pairs within `epsilon`.
    Type1 {
        /// Range-query radius ε.
        epsilon: f64,
    },
    /// Type II: the longest similar subsequence within `epsilon`.
    Type2 {
        /// Range-query radius ε.
        epsilon: f64,
    },
    /// Type III: the nearest pair found by an ε-sweep.
    Type3 {
        /// Upper bound of the ε-sweep.
        epsilon_max: f64,
        /// Sweep step.
        epsilon_increment: f64,
    },
}

impl QuerySpec {
    /// Stable one-byte tag, part of the result-cache key.
    pub(crate) fn tag(&self) -> u8 {
        match self {
            QuerySpec::Type1 { .. } => SPEC_TYPE1,
            QuerySpec::Type2 { .. } => SPEC_TYPE2,
            QuerySpec::Type3 { .. } => SPEC_TYPE3,
        }
    }

    /// The spec's radii as raw bits, part of the result-cache key (bit
    /// equality, so `-0.0` and `0.0` key differently — exactness over
    /// cleverness in a cache key).
    pub(crate) fn radius_bits(&self) -> (u64, u64) {
        match self {
            QuerySpec::Type1 { epsilon } | QuerySpec::Type2 { epsilon } => (epsilon.to_bits(), 0),
            QuerySpec::Type3 {
                epsilon_max,
                epsilon_increment,
            } => (epsilon_max.to_bits(), epsilon_increment.to_bits()),
        }
    }
}

impl Encode for QuerySpec {
    fn encode(&self, w: &mut Writer) {
        match self {
            QuerySpec::Type1 { epsilon } => {
                w.put_u8(SPEC_TYPE1);
                w.put_f64(*epsilon);
            }
            QuerySpec::Type2 { epsilon } => {
                w.put_u8(SPEC_TYPE2);
                w.put_f64(*epsilon);
            }
            QuerySpec::Type3 {
                epsilon_max,
                epsilon_increment,
            } => {
                w.put_u8(SPEC_TYPE3);
                w.put_f64(*epsilon_max);
                w.put_f64(*epsilon_increment);
            }
        }
    }
}

impl Decode for QuerySpec {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StorageError> {
        match r.take_u8()? {
            SPEC_TYPE1 => Ok(QuerySpec::Type1 {
                epsilon: r.take_f64()?,
            }),
            SPEC_TYPE2 => Ok(QuerySpec::Type2 {
                epsilon: r.take_f64()?,
            }),
            SPEC_TYPE3 => Ok(QuerySpec::Type3 {
                epsilon_max: r.take_f64()?,
                epsilon_increment: r.take_f64()?,
            }),
            tag => Err(StorageError::Malformed(format!(
                "unknown query spec tag {tag}"
            ))),
        }
    }
}

/// A client-to-server message.
#[derive(Clone, PartialEq, Debug)]
pub enum Request<E> {
    /// Liveness probe; answered with [`Response::Pong`] without queueing.
    Ping,
    /// Server counters; answered with [`Response::Stats`] without queueing.
    Stats,
    /// Ask the server to stop accepting connections and drain.
    Shutdown,
    /// A batch of query sequences, all executed under one [`QuerySpec`].
    Query {
        /// The query spec applied to every sequence in the batch.
        spec: QuerySpec,
        /// The query sequences' elements, one `Vec` per query.
        queries: Vec<Vec<E>>,
    },
    /// The server's telemetry in Prometheus text exposition; answered with
    /// [`Response::Metrics`] without queueing.
    Metrics,
}

impl<E: StorableElement> Request<E> {
    /// Encodes the request into a raw (unframed) payload.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(WIRE_VERSION);
        match self {
            Request::Ping => w.put_u8(REQ_PING),
            Request::Stats => w.put_u8(REQ_STATS),
            Request::Shutdown => w.put_u8(REQ_SHUTDOWN),
            Request::Query { spec, queries } => {
                w.put_u8(REQ_QUERY);
                w.put_str(E::TAG);
                spec.encode(&mut w);
                queries.encode(&mut w);
            }
            Request::Metrics => w.put_u8(REQ_METRICS),
        }
        w.into_bytes()
    }

    /// Decodes a request payload, demanding exact consumption. A version or
    /// element mismatch surfaces as a typed error before any element is
    /// decoded.
    pub fn decode_payload(payload: &[u8]) -> Result<Self, StorageError> {
        let mut r = Reader::new(payload);
        take_version(&mut r)?;
        let request = match r.take_u8()? {
            REQ_PING => Request::Ping,
            REQ_STATS => Request::Stats,
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_QUERY => {
                let tag = r.take_str()?;
                if tag != E::TAG {
                    return Err(StorageError::ElementMismatch {
                        expected: E::TAG.to_string(),
                        found: tag,
                    });
                }
                let spec = QuerySpec::decode(&mut r)?;
                let queries = Vec::<Vec<E>>::decode(&mut r)?;
                Request::Query { spec, queries }
            }
            REQ_METRICS => Request::Metrics,
            kind => {
                return Err(StorageError::Malformed(format!(
                    "unknown request kind {kind}"
                )))
            }
        };
        r.expect_empty("wire request")?;
        Ok(request)
    }
}

/// One query's served outcome: the verified matches (Type II/III report
/// zero or one), the query's work accounting, and whether the server's
/// result cache answered it without executing.
#[derive(Clone, PartialEq, Debug)]
pub struct WireOutcome {
    /// Whether the server's result cache supplied this outcome.
    pub cached: bool,
    /// Verified matches; empty or a single entry for Type II/III.
    pub matches: Vec<SubsequenceMatch>,
    /// The work the query performed when it was (first) executed.
    pub stats: QueryStats,
}

fn encode_match(m: &SubsequenceMatch, w: &mut Writer) {
    w.put_usize(m.sequence.0);
    w.put_usize(m.db_range.start);
    w.put_usize(m.db_range.end);
    w.put_usize(m.query_range.start);
    w.put_usize(m.query_range.end);
    w.put_f64(m.distance);
}

fn decode_match(r: &mut Reader<'_>) -> Result<SubsequenceMatch, StorageError> {
    Ok(SubsequenceMatch {
        sequence: ssr_sequence::SequenceId(r.take_usize()?),
        db_range: r.take_usize()?..r.take_usize()?,
        query_range: r.take_usize()?..r.take_usize()?,
        distance: r.take_f64()?,
    })
}

fn encode_stats(s: &QueryStats, w: &mut Writer) {
    w.put_usize(s.segments);
    w.put_u64(s.index_distance_calls);
    w.put_usize(s.segment_matches);
    w.put_usize(s.unique_windows);
    w.put_usize(s.consecutive_windows);
    w.put_usize(s.candidates);
    w.put_u64(s.verification_calls);
    w.put_u64(s.dp_cells_evaluated);
    w.put_u64(s.pruned_by_lower_bound);
    w.put_bool(s.budget_exhausted);
}

fn decode_stats(r: &mut Reader<'_>) -> Result<QueryStats, StorageError> {
    Ok(QueryStats {
        segments: r.take_usize()?,
        index_distance_calls: r.take_u64()?,
        segment_matches: r.take_usize()?,
        unique_windows: r.take_usize()?,
        consecutive_windows: r.take_usize()?,
        candidates: r.take_usize()?,
        verification_calls: r.take_u64()?,
        dp_cells_evaluated: r.take_u64()?,
        pruned_by_lower_bound: r.take_u64()?,
        budget_exhausted: r.take_bool()?,
    })
}

impl Encode for WireOutcome {
    fn encode(&self, w: &mut Writer) {
        w.put_bool(self.cached);
        w.put_usize(self.matches.len());
        for m in &self.matches {
            encode_match(m, w);
        }
        encode_stats(&self.stats, w);
    }
}

impl Decode for WireOutcome {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StorageError> {
        let cached = r.take_bool()?;
        // 6 machine words + f64 per match under the 4-byte-usize floor the
        // codec assumes; 8 is a safe minimum to cap a lying count.
        let count = r.take_len(8)?;
        let mut matches = Vec::with_capacity(count);
        for _ in 0..count {
            matches.push(decode_match(r)?);
        }
        let stats = decode_stats(r)?;
        Ok(WireOutcome {
            cached,
            matches,
            stats,
        })
    }
}

/// A snapshot of the server's counters, answered to [`Request::Stats`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ServerStatsSnapshot {
    /// Stored sequences (tombstoned ones included).
    pub sequences: usize,
    /// Indexed windows.
    pub windows: usize,
    /// Resident bytes of the shared element arena.
    pub arena_bytes: usize,
    /// Worker threads executing queries.
    pub workers: usize,
    /// Read-only database replicas the workers rotate over.
    pub replicas: usize,
    /// Queries executed (cache misses that ran the engine).
    pub queries_executed: u64,
    /// Queries answered straight from the result cache.
    pub cache_hits: u64,
    /// Result-cache misses (equals `queries_executed` plus failed batches).
    pub cache_misses: u64,
    /// Entries currently resident in the result cache.
    pub cache_entries: usize,
    /// Query batches rejected with [`WireError::Overloaded`].
    pub rejected_overload: u64,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Estimated resident bytes of the result cache (keys plus cached
    /// outcomes).
    pub cache_bytes_estimate: u64,
}

fn encode_stats_snapshot(s: &ServerStatsSnapshot, w: &mut Writer) {
    w.put_usize(s.sequences);
    w.put_usize(s.windows);
    w.put_usize(s.arena_bytes);
    w.put_usize(s.workers);
    w.put_usize(s.replicas);
    w.put_u64(s.queries_executed);
    w.put_u64(s.cache_hits);
    w.put_u64(s.cache_misses);
    w.put_usize(s.cache_entries);
    w.put_u64(s.rejected_overload);
    w.put_u64(s.uptime_ms);
    w.put_u64(s.cache_bytes_estimate);
}

fn decode_stats_snapshot(r: &mut Reader<'_>) -> Result<ServerStatsSnapshot, StorageError> {
    Ok(ServerStatsSnapshot {
        sequences: r.take_usize()?,
        windows: r.take_usize()?,
        arena_bytes: r.take_usize()?,
        workers: r.take_usize()?,
        replicas: r.take_usize()?,
        queries_executed: r.take_u64()?,
        cache_hits: r.take_u64()?,
        cache_misses: r.take_u64()?,
        cache_entries: r.take_usize()?,
        rejected_overload: r.take_u64()?,
        uptime_ms: r.take_u64()?,
        cache_bytes_estimate: r.take_u64()?,
    })
}

/// A typed refusal. The connection stays usable after any of these — the
/// server answers with the error and keeps reading frames (framing-level
/// damage additionally closes the connection, since the stream offset can no
/// longer be trusted).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The admission queue was full; retry later.
    Overloaded,
    /// The client spoke a different [`WIRE_VERSION`].
    UnsupportedVersion(u8),
    /// The frame decoded but its payload did not.
    Malformed(String),
    /// The request's element tag does not match the served database.
    ElementMismatch {
        /// The element tag the server was built with.
        expected: String,
        /// The element tag the request carried.
        found: String,
    },
    /// The server failed internally (e.g. a worker disappeared mid-drain).
    Internal(String),
    /// The server is draining: it finishes in-flight work but refuses new
    /// query batches. Retry against another replica or after the restart.
    Draining,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Overloaded => write!(f, "server overloaded: admission queue full"),
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported wire version {v} (expected {WIRE_VERSION})")
            }
            WireError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            WireError::ElementMismatch { expected, found } => {
                write!(f, "element mismatch: server holds {expected}, got {found}")
            }
            WireError::Internal(msg) => write!(f, "internal server error: {msg}"),
            WireError::Draining => write!(f, "server is draining: not accepting new queries"),
        }
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// Maps a decode failure onto the wire-visible error taxonomy.
    pub fn from_storage(err: &StorageError) -> WireError {
        match err {
            StorageError::UnsupportedVersion(v) => {
                WireError::UnsupportedVersion(u8::try_from(*v).unwrap_or(u8::MAX))
            }
            StorageError::ElementMismatch { expected, found } => WireError::ElementMismatch {
                expected: expected.clone(),
                found: found.clone(),
            },
            other => WireError::Malformed(other.to_string()),
        }
    }
}

impl Encode for WireError {
    fn encode(&self, w: &mut Writer) {
        match self {
            WireError::Overloaded => w.put_u8(ERR_OVERLOADED),
            WireError::UnsupportedVersion(v) => {
                w.put_u8(ERR_UNSUPPORTED_VERSION);
                w.put_u8(*v);
            }
            WireError::Malformed(msg) => {
                w.put_u8(ERR_MALFORMED);
                w.put_str(msg);
            }
            WireError::ElementMismatch { expected, found } => {
                w.put_u8(ERR_ELEMENT_MISMATCH);
                w.put_str(expected);
                w.put_str(found);
            }
            WireError::Internal(msg) => {
                w.put_u8(ERR_INTERNAL);
                w.put_str(msg);
            }
            WireError::Draining => w.put_u8(ERR_DRAINING),
        }
    }
}

impl Decode for WireError {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StorageError> {
        match r.take_u8()? {
            ERR_OVERLOADED => Ok(WireError::Overloaded),
            ERR_UNSUPPORTED_VERSION => Ok(WireError::UnsupportedVersion(r.take_u8()?)),
            ERR_MALFORMED => Ok(WireError::Malformed(r.take_str()?)),
            ERR_ELEMENT_MISMATCH => Ok(WireError::ElementMismatch {
                expected: r.take_str()?,
                found: r.take_str()?,
            }),
            ERR_INTERNAL => Ok(WireError::Internal(r.take_str()?)),
            ERR_DRAINING => Ok(WireError::Draining),
            tag => Err(StorageError::Malformed(format!(
                "unknown wire error tag {tag}"
            ))),
        }
    }
}

/// A server-to-client message.
#[derive(Clone, PartialEq, Debug)]
pub enum Response {
    /// Liveness answer to [`Request::Ping`].
    Pong,
    /// Counter snapshot answering [`Request::Stats`].
    Stats(ServerStatsSnapshot),
    /// Acknowledgement of [`Request::Shutdown`]; the server drains and stops.
    ShuttingDown,
    /// One outcome per query sequence of a [`Request::Query`], in order.
    Outcomes(Vec<WireOutcome>),
    /// The request was refused; see [`WireError`].
    Error(WireError),
    /// The server's telemetry as Prometheus text exposition, answering
    /// [`Request::Metrics`].
    Metrics(String),
}

impl Response {
    /// Encodes the response into a raw (unframed) payload.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(WIRE_VERSION);
        match self {
            Response::Pong => w.put_u8(RESP_PONG),
            Response::Stats(stats) => {
                w.put_u8(RESP_STATS);
                encode_stats_snapshot(stats, &mut w);
            }
            Response::ShuttingDown => w.put_u8(RESP_SHUTTING_DOWN),
            Response::Outcomes(outcomes) => {
                w.put_u8(RESP_OUTCOMES);
                outcomes.encode(&mut w);
            }
            Response::Error(err) => {
                w.put_u8(RESP_ERROR);
                err.encode(&mut w);
            }
            Response::Metrics(text) => {
                w.put_u8(RESP_METRICS);
                w.put_str(text);
            }
        }
        w.into_bytes()
    }

    /// Decodes a response payload, demanding exact consumption.
    pub fn decode_payload(payload: &[u8]) -> Result<Self, StorageError> {
        let mut r = Reader::new(payload);
        take_version(&mut r)?;
        let response = match r.take_u8()? {
            RESP_PONG => Response::Pong,
            RESP_STATS => Response::Stats(decode_stats_snapshot(&mut r)?),
            RESP_SHUTTING_DOWN => Response::ShuttingDown,
            RESP_OUTCOMES => Response::Outcomes(Vec::<WireOutcome>::decode(&mut r)?),
            RESP_ERROR => Response::Error(WireError::decode(&mut r)?),
            RESP_METRICS => Response::Metrics(r.take_str()?),
            kind => {
                return Err(StorageError::Malformed(format!(
                    "unknown response kind {kind}"
                )))
            }
        };
        r.expect_empty("wire response")?;
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_sequence::{SequenceId, Symbol};

    fn sym(text: &str) -> Vec<Symbol> {
        text.chars().map(Symbol::from_char).collect()
    }

    fn sample_outcome() -> WireOutcome {
        WireOutcome {
            cached: true,
            matches: vec![SubsequenceMatch {
                sequence: SequenceId(3),
                db_range: 10..25,
                query_range: 2..18,
                distance: 2.5,
            }],
            stats: QueryStats {
                segments: 4,
                index_distance_calls: 123,
                segment_matches: 7,
                unique_windows: 6,
                consecutive_windows: 3,
                candidates: 2,
                verification_calls: 2,
                dp_cells_evaluated: 4567,
                pruned_by_lower_bound: 1,
                budget_exhausted: false,
            },
        }
    }

    #[test]
    fn request_roundtrip() {
        let requests: Vec<Request<Symbol>> = vec![
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::Query {
                spec: QuerySpec::Type3 {
                    epsilon_max: 4.0,
                    epsilon_increment: 1.0,
                },
                queries: vec![sym("ACDEFG"), sym("")],
            },
            Request::Metrics,
        ];
        for request in requests {
            let payload = request.encode_payload();
            assert_eq!(payload[0], WIRE_VERSION);
            let decoded = Request::<Symbol>::decode_payload(&payload).unwrap();
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn response_roundtrip() {
        let responses = vec![
            Response::Pong,
            Response::Stats(ServerStatsSnapshot {
                sequences: 10,
                windows: 400,
                arena_bytes: 8649,
                workers: 4,
                replicas: 2,
                queries_executed: 17,
                cache_hits: 5,
                cache_misses: 17,
                cache_entries: 12,
                rejected_overload: 1,
                uptime_ms: 90_000,
                cache_bytes_estimate: 4096,
            }),
            Response::ShuttingDown,
            Response::Outcomes(vec![sample_outcome()]),
            Response::Metrics("# TYPE ssr_requests_total counter\nssr_requests_total 3\n".into()),
            Response::Error(WireError::Overloaded),
            Response::Error(WireError::ElementMismatch {
                expected: "symbol".into(),
                found: "pitch".into(),
            }),
            Response::Error(WireError::Malformed("bad".into())),
            Response::Error(WireError::UnsupportedVersion(9)),
            Response::Error(WireError::Internal("worker gone".into())),
            Response::Error(WireError::Draining),
        ];
        for response in responses {
            let payload = response.encode_payload();
            let decoded = Response::decode_payload(&payload).unwrap();
            assert_eq!(decoded, response);
        }
    }

    #[test]
    fn version_and_kind_are_checked() {
        // One version: its neighbours on both sides are refused by number,
        // requests and responses alike.
        for version in [0, 1, 2, WIRE_VERSION + 1, u8::MAX] {
            let mut payload = Request::<Symbol>::Ping.encode_payload();
            payload[0] = version;
            assert!(matches!(
                Request::<Symbol>::decode_payload(&payload),
                Err(StorageError::UnsupportedVersion(v)) if v == u32::from(version)
            ));
            let mut payload = Response::Error(WireError::Draining).encode_payload();
            payload[0] = version;
            assert!(matches!(
                Response::decode_payload(&payload),
                Err(StorageError::UnsupportedVersion(v)) if v == u32::from(version)
            ));
        }

        let mut payload = Request::<Symbol>::Ping.encode_payload();
        payload[1] = 200;
        assert!(matches!(
            Request::<Symbol>::decode_payload(&payload),
            Err(StorageError::Malformed(_))
        ));
    }

    #[test]
    fn element_tag_is_checked_before_elements() {
        let request: Request<ssr_sequence::Pitch> = Request::Query {
            spec: QuerySpec::Type1 { epsilon: 1.0 },
            queries: vec![vec![]],
        };
        let payload = request.encode_payload();
        assert!(matches!(
            Request::<Symbol>::decode_payload(&payload),
            Err(StorageError::ElementMismatch { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let mut payload = Request::<Symbol>::Ping.encode_payload();
        payload.push(0);
        assert!(matches!(
            Request::<Symbol>::decode_payload(&payload),
            Err(StorageError::TrailingBytes { .. })
        ));
    }
}
