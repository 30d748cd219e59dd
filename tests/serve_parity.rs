//! Serving parity: the serving snapshot must answer every query
//! byte-identically to the batch path, over the trait and over the wire,
//! under one reader or many.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::OnceLock;

use proptest::prelude::*;
use taxi_traces::core::{
    QueryEngine, QueryRequest, Study, StudyConfig, StudyOutput,
};
use taxi_traces::geo::CellId;
use taxi_traces::serve::{run_load, LoadSpec, ServeOptions, Server, Snapshot};
use taxi_traces::timebase::Timestamp;
use taxi_traces::traces::TripId;

fn config() -> StudyConfig {
    StudyConfig::scaled(7, 0.1)
}

/// The batch path's object: a plain study output.
fn batch() -> &'static StudyOutput {
    static OUT: OnceLock<StudyOutput> = OnceLock::new();
    OUT.get_or_init(|| Study::new(config()).run().expect("study runs"))
}

/// The serving path's object. The study is a pure function of its seed,
/// so re-running the pipeline yields the identical output the batch
/// static holds — which is exactly what the parity assertions verify.
fn snapshot() -> &'static Snapshot {
    static SNAP: OnceLock<Snapshot> = OnceLock::new();
    SNAP.get_or_init(|| Snapshot::from_output(Study::new(config()).run().expect("study runs")))
}

/// Maps proptest-chosen indexes onto the study's real domain, with
/// deliberate misses and inverted windows mixed in.
fn request_from(kind: usize, a: usize, b: usize) -> QueryRequest {
    let out = batch();
    match kind % 4 {
        0 => {
            let times: Vec<i64> =
                out.transitions.iter().map(|t| t.start_time.secs()).collect();
            match a % 3 {
                0 => QueryRequest::OdFlow { window: None },
                // Arbitrary (possibly inverted) window over real times.
                _ => QueryRequest::OdFlow {
                    window: Some((
                        Timestamp::from_secs(times[a % times.len()]),
                        Timestamp::from_secs(times[b % times.len()]),
                    )),
                },
            }
        }
        1 => {
            let cells: Vec<CellId> = snapshot().grid().cells.keys().copied().collect();
            let cell = if a.is_multiple_of(8) {
                CellId { ix: 9_999, iy: 9_999 }
            } else {
                cells[b % cells.len()]
            };
            QueryRequest::CellSpeed { cell }
        }
        2 => {
            let sessions = out.store.sessions();
            let trip = if a.is_multiple_of(8) {
                TripId(u64::MAX)
            } else {
                sessions[b % sessions.len()].id
            };
            QueryRequest::TripLookup { trip }
        }
        _ => {
            let pairs: Vec<&str> = out.transitions.iter().map(|t| t.pair.as_str()).collect();
            QueryRequest::GridStats {
                pair: if a.is_multiple_of(2) { None } else { Some(pairs[b % pairs.len()].to_string()) },
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every request answers byte-identically through the batch output
    /// and the serving snapshot — including typed errors for inverted
    /// windows.
    #[test]
    fn snapshot_answers_match_batch_byte_for_byte(
        kind in 0usize..4,
        a in 0usize..10_000,
        b in 0usize..10_000,
    ) {
        let req = request_from(kind, a, b);
        let from_batch = batch().query(&req).map(|r| r.to_json());
        let from_snapshot = snapshot().query(&req).map(|r| r.to_json());
        prop_assert_eq!(from_batch, from_snapshot);
    }
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    // A shedding server answers and closes before reading the request;
    // the write may then hit a closed peer, but the response bytes are
    // still in the receive buffer — so tolerate the broken pipe.
    let _ = write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    let mut raw = String::new();
    BufReader::new(stream).read_to_string(&mut raw).expect("read");
    let (head, body) = raw.split_once("\r\n\r\n").expect("framed response");
    let status = head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status");
    (status, body.to_string())
}

/// The HTTP front end serves the same bytes the trait returns, for all
/// four query kinds, and rejects an inverted window with a typed 400.
#[test]
fn http_responses_equal_in_process_answers() {
    let server = Server::start(
        Snapshot::from_output(Study::new(config()).run().expect("study runs")),
        0,
        2,
        taxi_traces::obs::Registry::new(),
    )
    .expect("server starts");
    let snap = server.snapshot();
    let first_trip = snap.output().store.sessions()[0].id.0;
    let (&cell, _) = snap.grid().cells.iter().next().expect("populated grid");
    let mut cases = vec![
        ("/od_flow".to_string(), QueryRequest::OdFlow { window: None }),
        (
            format!("/cell_speed?ix={}&iy={}", cell.ix, cell.iy),
            QueryRequest::CellSpeed { cell },
        ),
        (format!("/trip?id={first_trip}"), QueryRequest::TripLookup { trip: TripId(first_trip) }),
        ("/grid_stats".to_string(), QueryRequest::GridStats { pair: None }),
    ];
    let pairs = snap.output().pairs();
    assert!(!pairs.is_empty(), "the study has direction pairs");
    for pair in pairs.into_iter().chain(["NOPE".to_string()]) {
        cases.push((
            format!("/grid_stats?pair={pair}"),
            QueryRequest::GridStats { pair: Some(pair) },
        ));
    }
    for (path, req) in cases {
        let (status, body) = http_get(server.addr(), &path);
        assert_eq!(status, 200, "{path}");
        let expected = snap.query(&req).expect("valid query").to_json();
        assert_eq!(body, expected, "{path}: HTTP bytes must equal the trait's answer");
    }
    let (status, body) = http_get(server.addr(), "/od_flow?from=10&to=5");
    assert_eq!(status, 400);
    assert!(body.contains("empty time range"), "{body}");
    let (status, _) = http_get(server.addr(), "/no_such_route");
    assert_eq!(status, 404);
    server.shutdown();
}

/// The bodies a snapshot encodes at open travel with it: after a swap to
/// another seed's snapshot, `/grid_stats?pair=` serves the new snapshot's
/// bytes, not the old ones.
#[test]
fn swapped_snapshot_serves_its_own_bodies() {
    let server = Server::start(
        Snapshot::from_output(Study::new(config()).run().expect("study runs")),
        0,
        2,
        taxi_traces::obs::Registry::new(),
    )
    .expect("server starts");
    let old = server.snapshot();
    let next = Snapshot::from_output(
        Study::new(StudyConfig::scaled(8, 0.1)).run().expect("study runs"),
    );
    server.swap(next);
    let new = server.snapshot();
    let mut changed = 0;
    for pair in new.output().pairs() {
        let path = format!("/grid_stats?pair={pair}");
        let req = QueryRequest::GridStats { pair: Some(pair) };
        let (status, body) = http_get(server.addr(), &path);
        assert_eq!(status, 200, "{path}");
        assert_eq!(body, new.query(&req).expect("valid query").to_json(), "{path}");
        if body != old.query(&req).expect("valid query").to_json() {
            changed += 1;
        }
    }
    assert!(changed > 0, "the two seeds must give different per-pair grids");
    server.shutdown();
}

/// Many concurrent readers, zero locks on the read path: a seeded load
/// over N client threads completes without errors and produces the same
/// mix and response fingerprints as a single-threaded replay of the same
/// plan domain.
#[test]
fn concurrent_readers_agree_with_sequential_replay() {
    let registry = taxi_traces::obs::Registry::new();
    let server = Server::start(
        Snapshot::from_output(Study::new(config()).run().expect("study runs")),
        0,
        4,
        registry.clone(),
    )
    .expect("server starts");
    let snap = server.snapshot();
    let spec = LoadSpec { seed: 99, clients: 4, requests_per_client: 30 };
    let concurrent = run_load(server.addr(), &snap, &spec);
    assert_eq!(concurrent.requests, 120);
    assert_eq!(concurrent.errors, 0, "no request may fail");
    // Same plan, replayed under a fresh thread interleaving: the
    // fingerprints must be identical because they are order- and
    // thread-independent by construction.
    let replay = run_load(server.addr(), &snap, &spec);
    assert_eq!(concurrent.mix_fingerprint, replay.mix_fingerprint);
    assert_eq!(concurrent.response_fingerprint, replay.response_fingerprint);
    let counters = registry.snapshot();
    assert!(counters.counter("serve.requests_total").unwrap_or(0) >= 240);
    server.shutdown();
}

/// Header hardening: a request that exceeds the 64-line header-drain cap
/// is answered with a typed 431 (and counted in `serve.oversize_total`)
/// before the connection closes — not silently dropped, which would look
/// like a network fault and invite a retry of the same oversized request.
#[test]
fn oversized_headers_refused_with_typed_431() {
    let registry = taxi_traces::obs::Registry::new();
    let server = Server::start(
        Snapshot::from_output(Study::new(config()).run().expect("study runs")),
        0,
        2,
        registry.clone(),
    )
    .expect("server starts");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let _ = write!(stream, "GET /healthz HTTP/1.1\r\n");
    for i in 0..80 {
        let _ = write!(stream, "X-Pad-{i}: x\r\n");
    }
    let _ = write!(stream, "\r\n");
    let mut raw = String::new();
    BufReader::new(stream).read_to_string(&mut raw).expect("read");
    let (head, body) = raw.split_once("\r\n\r\n").expect("framed response");
    let status: u16 =
        head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status");
    assert_eq!(status, 431);
    assert!(body.contains("too many header lines"), "{body}");
    let counters = registry.snapshot();
    assert_eq!(counters.counter("serve.oversize_total"), Some(1));
    // The refused request never reached the parser, so it is not work done.
    assert_eq!(counters.counter("serve.requests_total"), Some(0));
    server.shutdown();
}

/// Admission control: with the in-flight cap forced to zero, every
/// request is shed with a typed 503 and counted in `serve.shed_total` —
/// the server degrades by refusing, never by queueing without bound.
#[test]
fn over_capacity_requests_shed_with_typed_503() {
    let registry = taxi_traces::obs::Registry::new();
    let server = Server::start_with(
        Snapshot::from_output(Study::new(config()).run().expect("study runs")),
        0,
        2,
        registry.clone(),
        ServeOptions { max_inflight: 0 },
    )
    .expect("server starts");
    for _ in 0..5 {
        let (status, body) = http_get(server.addr(), "/healthz");
        assert_eq!(status, 503);
        assert!(body.contains("over capacity"), "{body}");
    }
    let counters = registry.snapshot();
    assert_eq!(counters.counter("serve.shed_total"), Some(5));
    // Shed requests never reach the request counter: they are refused
    // before parsing, so the serving metrics stay honest about work done.
    assert_eq!(counters.counter("serve.requests_total"), Some(0));
    server.shutdown();
}
