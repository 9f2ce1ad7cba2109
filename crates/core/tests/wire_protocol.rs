//! Hostile-bytes battery for the serve wire protocol, mirroring
//! `wal_corruption.rs`: a valid framed request is subjected to truncation at
//! **every byte prefix** and a bit flip at **every position**, first through
//! the pure decoders and then over a live TCP connection. The invariant is
//! the ISSUE's: malformed frames always yield a *typed* protocol error —
//! never a panic, never a hang, never a silently wrong decode.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use ssr_core::serve::{ServeConfig, Server};
use ssr_core::wire::{QuerySpec, Request, Response, WireError};
use ssr_core::{FrameworkConfig, SubsequenceDatabase};
use ssr_distance::Levenshtein;
use ssr_sequence::{Sequence, Symbol};
use ssr_storage::{decode_frame, frame_bytes, read_frame, write_frame, StorageError};

fn sym(text: &str) -> Vec<Symbol> {
    text.chars().map(Symbol::from_char).collect()
}

fn sample_request() -> Request<Symbol> {
    Request::Query {
        spec: QuerySpec::Type2 { epsilon: 2.0 },
        queries: vec![sym("ACDEFGHIKLMNPQRSTVWY"), sym("ACACACAC")],
    }
}

fn sample_frame() -> Vec<u8> {
    frame_bytes(&sample_request().encode_payload()).expect("valid payload frames")
}

#[test]
fn every_frame_truncation_is_a_typed_error() {
    let frame = sample_frame();
    for cut in 0..frame.len() {
        let err = decode_frame(&frame[..cut]).expect_err("strict prefix must not decode");
        assert!(
            matches!(
                err,
                StorageError::Truncated { .. }
                    | StorageError::TrailingBytes { .. }
                    | StorageError::Malformed(_)
                    | StorageError::ChecksumMismatch { .. }
            ),
            "cut at {cut}: unexpected error {err:?}"
        );
    }
}

#[test]
fn every_frame_bit_flip_is_a_typed_error() {
    let frame = sample_frame();
    for pos in 0..frame.len() {
        for bit in 0..8 {
            let mut damaged = frame.clone();
            damaged[pos] ^= 1 << bit;
            // The length prefix no longer matches the buffer, the CRC no
            // longer matches the payload, or the payload CRC-mismatches:
            // always an error, never a silent decode of flipped bytes.
            let err = decode_frame(&damaged).expect_err("flipped frame must not decode");
            assert!(
                matches!(
                    err,
                    StorageError::Truncated { .. }
                        | StorageError::TrailingBytes { .. }
                        | StorageError::Malformed(_)
                        | StorageError::ChecksumMismatch { .. }
                ),
                "flip at {pos}.{bit}: unexpected error {err:?}"
            );
        }
    }
}

#[test]
fn every_payload_truncation_is_a_typed_error() {
    let payload = sample_request().encode_payload();
    for cut in 0..payload.len() {
        // Every strict prefix is missing bytes of some field (the decoder
        // demands exact consumption), so `Ok` here would be a codec hole.
        assert!(
            Request::<Symbol>::decode_payload(&payload[..cut]).is_err(),
            "payload prefix {cut} decoded"
        );
    }
}

#[test]
fn every_payload_bit_flip_decodes_or_errors_but_never_panics() {
    let payload = sample_request().encode_payload();
    for pos in 0..payload.len() {
        for bit in 0..8 {
            let mut damaged = payload.clone();
            damaged[pos] ^= 1 << bit;
            // A flip can land in a float radius or an element and still form
            // a *different valid* request — that is the frame CRC's job to
            // catch, not the payload codec's. The payload decoder's contract
            // is narrower: typed error or clean decode, no panic, no huge
            // allocation (length prefixes are capped against the buffer).
            let _ = Request::<Symbol>::decode_payload(&damaged);
        }
    }
}

fn tiny_server() -> Server<Symbol, Levenshtein> {
    let config = FrameworkConfig::new(8).with_max_shift(1);
    let db = SubsequenceDatabase::builder(config, Levenshtein::new())
        .add_sequence(Sequence::new(sym("MMMMMMMMACDEFGHIKLMNPQRSTVWYMMMMMMMM")))
        .build()
        .expect("tiny database builds");
    Server::bind(
        db,
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            read_timeout: Some(Duration::from_secs(5)),
            ..ServeConfig::default()
        },
    )
    .expect("server binds")
}

/// Sends raw bytes, half-closes the write side (so a server blocked on a
/// lying length prefix sees EOF instead of waiting forever) and returns the
/// server's framed answer, if any. The read timeout converts any residual
/// hang into a test failure rather than a stuck suite.
fn send_raw(addr: std::net::SocketAddr, bytes: &[u8]) -> Option<Response> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(bytes).expect("send");
    stream.flush().unwrap();
    // Best-effort: the server may already have answered and reset the
    // connection, in which case the half-close finds it gone.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    match read_frame(&mut stream, 16 * 1024 * 1024) {
        Ok(Some(payload)) => {
            Some(Response::decode_payload(&payload).expect("server answers are well-formed"))
        }
        // The server may also just close on frame-level damage — either a
        // clean FIN or, when it closes with our damaged bytes still unread,
        // an RST surfacing as a reset/EOF error. Both count as "no answer".
        Ok(None) => None,
        Err(StorageError::Io(err)) => match err.kind() {
            std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof => None,
            kind => panic!("read failed ({kind:?}) — a hang converted to timeout?"),
        },
        Err(err) => panic!("server sent a damaged frame: {err}"),
    }
}

#[test]
fn live_truncation_battery_yields_typed_errors_and_no_hangs() {
    let server = tiny_server();
    let addr = server.local_addr();
    let frame = sample_frame();

    // Sub-sample prefixes to keep the live battery fast: every cut inside
    // the 8-byte header, then every fourth cut through the payload.
    let cuts: Vec<usize> = (1..frame.len()).filter(|&c| c <= 8 || c % 4 == 0).collect();
    for cut in cuts {
        match send_raw(addr, &frame[..cut]) {
            None => {}
            Some(Response::Error(_)) => {}
            Some(other) => panic!("cut {cut}: unexpected success {other:?}"),
        }
    }

    // The server survived the whole battery: a valid request still answers.
    let mut client = ssr_core::Client::<Symbol>::connect(addr).expect("connect");
    match client.request(&sample_request()).expect("valid request") {
        Response::Outcomes(outcomes) => assert_eq!(outcomes.len(), 2),
        other => panic!("expected outcomes, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn live_flip_battery_yields_typed_errors_and_no_hangs() {
    let server = tiny_server();
    let addr = server.local_addr();
    let frame = sample_frame();

    // Every header byte plus a stride through the payload, one bit each.
    let positions: Vec<usize> = (0..frame.len()).filter(|&p| p < 8 || p % 4 == 0).collect();
    for pos in positions {
        let mut damaged = frame.clone();
        damaged[pos] ^= 0x10;
        match send_raw(addr, &damaged) {
            None => {}
            Some(Response::Error(_)) => {}
            Some(other) => panic!("flip at {pos}: unexpected success {other:?}"),
        }
    }

    let mut client = ssr_core::Client::<Symbol>::connect(addr).expect("connect");
    assert!(matches!(
        client.request(&Request::Ping).expect("ping"),
        Response::Pong
    ));
    server.shutdown();
}

#[test]
fn payload_damage_keeps_the_connection_usable() {
    let server = tiny_server();
    let addr = server.local_addr();

    // A frame whose CRC is valid but whose payload has an unknown request
    // kind: the frame boundary is trustworthy, so the server must answer a
    // typed error and keep serving on the *same* connection.
    let bogus = frame_bytes(&[ssr_core::WIRE_VERSION, 250]).unwrap();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&bogus).unwrap();
    let payload = read_frame(&mut stream, 1 << 20).unwrap().expect("answer");
    match Response::decode_payload(&payload).unwrap() {
        Response::Error(WireError::Malformed(_)) => {}
        other => panic!("expected malformed, got {other:?}"),
    }

    // Same socket, now a valid request.
    write_frame(&mut stream, &Request::<Symbol>::Ping.encode_payload()).unwrap();
    let payload = read_frame(&mut stream, 1 << 20).unwrap().expect("answer");
    assert!(matches!(
        Response::decode_payload(&payload).unwrap(),
        Response::Pong
    ));

    // There is one wire version: the ones before it and the one after are
    // refused by number, and the connection survives each refusal.
    for version in [1, 2, ssr_core::WIRE_VERSION + 1] {
        let mut ping = Request::<Symbol>::Ping.encode_payload();
        ping[0] = version;
        write_frame(&mut stream, &ping).unwrap();
        let payload = read_frame(&mut stream, 1 << 20).unwrap().expect("answer");
        assert_eq!(
            payload[0],
            ssr_core::WIRE_VERSION,
            "answered in the one version"
        );
        match Response::decode_payload(&payload).unwrap() {
            Response::Error(WireError::UnsupportedVersion(v)) => assert_eq!(v, version),
            other => panic!("expected unsupported version {version}, got {other:?}"),
        }
    }

    // A wrong element tag is likewise a typed, connection-preserving error.
    let mismatched: Request<ssr_sequence::Pitch> = Request::Query {
        spec: QuerySpec::Type1 { epsilon: 1.0 },
        queries: vec![vec![]],
    };
    write_frame(&mut stream, &mismatched.encode_payload()).unwrap();
    let payload = read_frame(&mut stream, 1 << 20).unwrap().expect("answer");
    match Response::decode_payload(&payload).unwrap() {
        Response::Error(WireError::ElementMismatch { expected, found }) => {
            assert_eq!(expected, "symbol");
            assert_eq!(found, "pitch");
        }
        other => panic!("expected element mismatch, got {other:?}"),
    }
    drop(stream);
    server.shutdown();
}

#[test]
fn oversized_length_prefix_is_refused_without_reading_the_payload() {
    let server = tiny_server();
    let addr = server.local_addr();

    // A header promising a 1 GiB payload. The server must refuse from the
    // length prefix alone — responding (or closing) immediately instead of
    // trying to read or allocate a gigabyte.
    let mut hostile = Vec::new();
    hostile.extend_from_slice(&(1u32 << 30).to_le_bytes());
    hostile.extend_from_slice(&0u32.to_le_bytes());
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&hostile).unwrap();
    // Deliberately NOT half-closing: the refusal must not depend on EOF.
    match read_frame(&mut stream, 1 << 20) {
        Ok(Some(payload)) => {
            assert!(matches!(
                Response::decode_payload(&payload).unwrap(),
                Response::Error(_)
            ));
        }
        Ok(None) => {}
        Err(err) => panic!("expected a typed refusal, got {err}"),
    }
    server.shutdown();
}

#[test]
fn unusable_radii_are_refused_before_admission() {
    let server = tiny_server();
    let mut client = ssr_core::Client::<Symbol>::connect(server.local_addr()).expect("connect");
    let sweep = |epsilon_max, epsilon_increment| QuerySpec::Type3 {
        epsilon_max,
        epsilon_increment,
    };
    let hostile = [
        // A step the engine would assert on …
        sweep(4.0, 0.0),
        sweep(4.0, -1.0),
        sweep(4.0, f64::NAN),
        sweep(0.0, 0.0),
        // … and sweeps that would pin a worker in the growth loop.
        sweep(f64::INFINITY, 1.0),
        sweep(4.0, f64::INFINITY),
        sweep(1e12, 1e-6),
        sweep(f64::NAN, 1.0),
        sweep(-1.0, 1.0),
        QuerySpec::Type1 { epsilon: f64::NAN },
        QuerySpec::Type1 { epsilon: -0.5 },
        QuerySpec::Type2 {
            epsilon: f64::INFINITY,
        },
        QuerySpec::Type2 {
            epsilon: f64::NEG_INFINITY,
        },
    ];
    for spec in hostile {
        let request = Request::Query {
            spec,
            queries: vec![sym("ACDEFGHIKLMNPQRSTVWY")],
        };
        match client.request(&request).expect("a typed answer") {
            Response::Error(WireError::Malformed(_)) => {}
            other => panic!("{spec:?}: expected a malformed refusal, got {other:?}"),
        }
    }
    // Nothing reached a worker, and the same connection still serves a sweep
    // at the edge of what is allowed.
    match client.request(&Request::Stats).expect("stats") {
        Response::Stats(stats) => assert_eq!(stats.queries_executed, 0),
        other => panic!("expected stats, got {other:?}"),
    }
    let request = Request::Query {
        spec: sweep(1024.0, 1.0),
        queries: vec![sym("ACDEFGHIKLMNPQRSTVWY")],
    };
    match client.request(&request).expect("valid sweep") {
        Response::Outcomes(outcomes) => assert_eq!(outcomes.len(), 1),
        other => panic!("expected outcomes, got {other:?}"),
    }
    server.shutdown();
}
