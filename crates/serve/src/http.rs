//! Minimal hand-rolled HTTP/1.1 front end over a snapshot cell.
//!
//! Deliberately dependency-free (std `TcpListener` only): the service
//! needs exactly "parse a GET line, answer canonical JSON", and a full
//! framework would drag in an async runtime the workspace doesn't have.
//! `N` worker threads share one listener via `try_clone`; each owns an
//! [`EpochReader`](crate::EpochReader) so the per-request snapshot access is a single atomic
//! load — no locks on the read path. Metrics handles (atomic counters /
//! histogram cells) are pre-registered at startup for the same reason.
//! A query's body comes from `Snapshot::body`: parameter-free answers
//! are bytes the snapshot encoded at open, the rest are answered and
//! encoded per request.
//!
//! Routes (all GET, `Connection: close`):
//!
//! | path          | params                | answer                     |
//! |---------------|-----------------------|----------------------------|
//! | `/od_flow`    | `from`,`to` (optional)| [`QueryRequest::OdFlow`]   |
//! | `/cell_speed` | `ix`,`iy`             | [`QueryRequest::CellSpeed`]|
//! | `/trip`       | `id`                  | [`QueryRequest::TripLookup`]|
//! | `/grid_stats` | `pair` (optional)     | [`QueryRequest::GridStats`]|
//! | `/metrics`    |                       | obs JSON snapshot          |
//! | `/healthz`    |                       | liveness + epoch           |

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use taxitrace_core::{escape_json, QueryRequest};
use taxitrace_geo::CellId;
use taxitrace_obs::{render_json, Counter, Histogram, Registry};
use taxitrace_timebase::Timestamp;
use taxitrace_traces::TripId;

use crate::epoch::EpochCell;
use crate::snapshot::Snapshot;

/// Latency histogram bounds, microseconds.
const LATENCY_BOUNDS_US: [f64; 10] =
    [50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0, 25000.0, 50000.0];

/// Per-connection read and write deadlines. A peer that trickles its
/// request (slow loris) or never drains the response is cut off here
/// rather than pinning a worker.
const IO_DEADLINE: Duration = Duration::from_secs(5);

/// Most header lines a request may send before it is refused with a
/// typed 431 (counted in `serve.oversize_total`): each line costs a
/// timed read, so unbounded headers would turn the read deadline into
/// `lines x deadline`.
const MAX_HEADER_LINES: usize = 64;

/// Server hardening knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Admission cap: connections being served simultaneously across all
    /// workers. Anything over it is shed with a typed 503 (and counted
    /// in `serve.shed_total`) instead of queueing without bound.
    pub max_inflight: usize,
}

impl ServeOptions {
    /// Default cap: double the worker count — full utilization plus a
    /// bounded accept backlog, never an unbounded queue.
    pub fn for_workers(workers: usize) -> Self {
        Self { max_inflight: workers.max(1) * 2 }
    }
}

/// Pre-registered metric handles: registration takes the registry mutex
/// once at startup, after which every increment is a plain atomic — the
/// request path never re-enters the registry.
#[derive(Debug, Clone)]
pub(crate) struct ServeMetrics {
    requests_total: Counter,
    od_flow: Counter,
    cell_speed: Counter,
    trip_lookup: Counter,
    grid_stats: Counter,
    errors_total: Counter,
    shed_total: Counter,
    oversize_total: Counter,
    latency_us: Histogram,
    epoch_refreshes: Counter,
}

impl ServeMetrics {
    pub(crate) fn new(reg: &Registry) -> Self {
        Self {
            requests_total: reg.counter("serve.requests_total"),
            od_flow: reg.counter("serve.requests.od_flow"),
            cell_speed: reg.counter("serve.requests.cell_speed"),
            trip_lookup: reg.counter("serve.requests.trip_lookup"),
            grid_stats: reg.counter("serve.requests.grid_stats"),
            errors_total: reg.counter("serve.errors_total"),
            shed_total: reg.counter("serve.shed_total"),
            oversize_total: reg.counter("serve.oversize_total"),
            latency_us: reg.histogram("serve.latency_us", &LATENCY_BOUNDS_US),
            epoch_refreshes: reg.counter("serve.epoch_refreshes"),
        }
    }
}

/// A running HTTP server: N worker threads accepting on one ephemeral
/// listener, serving the snapshot currently in the [`EpochCell`].
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    cell: Arc<EpochCell<Snapshot>>,
    registry: Registry,
    shutdown: Arc<AtomicBool>,
    swaps: Counter,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `127.0.0.1:port` (0 = ephemeral) and starts `workers`
    /// accept loops over `snapshot`. Metrics land in `registry` under
    /// the `serve.*` names.
    pub fn start(
        snapshot: Snapshot,
        port: u16,
        workers: usize,
        registry: Registry,
    ) -> std::io::Result<Server> {
        Server::start_with(snapshot, port, workers, registry, ServeOptions::for_workers(workers))
    }

    /// [`Server::start`] with explicit hardening knobs.
    pub fn start_with(
        snapshot: Snapshot,
        port: u16,
        workers: usize,
        registry: Registry,
        options: ServeOptions,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let cell = Arc::new(EpochCell::new(Arc::new(snapshot)));
        let shutdown = Arc::new(AtomicBool::new(false));
        let inflight = Arc::new(AtomicU64::new(0));
        let metrics = ServeMetrics::new(&registry);
        let swaps = registry.counter("serve.snapshot_swaps");
        registry.gauge("serve.workers").set(workers as f64);
        registry.gauge("serve.max_inflight").set(options.max_inflight as f64);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers.max(1) {
            let listener = listener.try_clone()?;
            let cell = Arc::clone(&cell);
            let shutdown = Arc::clone(&shutdown);
            let inflight = Arc::clone(&inflight);
            let metrics = metrics.clone();
            let registry = registry.clone();
            handles.push(std::thread::spawn(move || {
                worker_loop(
                    listener,
                    &cell,
                    &shutdown,
                    &inflight,
                    options.max_inflight as u64,
                    &metrics,
                    &registry,
                );
            }));
        }
        Ok(Server { addr, cell, registry, shutdown, swaps, workers: handles })
    }

    /// The bound address (ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry the `serve.*` metrics land in.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The current snapshot, for in-process queries through the same
    /// [`QueryEngine`](taxitrace_core::QueryEngine) answers the HTTP
    /// workers serve.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.cell.load()
    }

    /// Publishes a new snapshot; readers pick it up on their next
    /// request. Returns the new epoch.
    pub fn swap(&self, snapshot: Snapshot) -> u64 {
        self.swaps.inc();
        self.cell.swap(Arc::new(snapshot))
    }

    /// Stops accepting, wakes every worker and joins them.
    pub fn shutdown(self) {
        // sync(shutdown): Release pairs with the workers' Acquire load
        // after the wake connection unblocks accept.
        self.shutdown.store(true, Ordering::Release);
        // One wake connection per worker: each blocked accept returns
        // once, observes the flag and exits.
        for _ in 0..self.workers.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for h in self.workers {
            let _ = h.join();
        }
    }
}

fn worker_loop(
    listener: TcpListener,
    cell: &EpochCell<Snapshot>,
    shutdown: &AtomicBool,
    inflight: &AtomicU64,
    max_inflight: u64,
    metrics: &ServeMetrics,
    registry: &Registry,
) {
    let mut reader = cell.reader();
    for conn in listener.incoming() {
        // sync(shutdown): Acquire pairs with shutdown()'s Release store.
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // Admission gate: over the cap, shed with a typed 503 instead of
        // queueing without bound. sync(inflight): plain occupancy count;
        // Relaxed RMWs are exact, no ordering needed against the work.
        let occupied = inflight.fetch_add(1, Ordering::Relaxed);
        if occupied >= max_inflight {
            metrics.shed_total.inc();
            shed(stream);
        } else {
            let refreshes_before = reader.refreshes();
            handle_conn(stream, &mut reader, metrics, registry);
            let refreshed = reader.refreshes() - refreshes_before;
            if refreshed > 0 {
                metrics.epoch_refreshes.add(refreshed);
            }
        }
        // sync(inflight): release the admission slot.
        inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Refuses a connection with a typed 503. The request is drained
/// (bounded, never parsed) before responding so the close is a clean
/// FIN — closing with unread data would RST and could discard the 503
/// on the peer's side.
fn shed(stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(IO_DEADLINE));
    let _ = stream.set_write_timeout(Some(IO_DEADLINE));
    let mut buf = BufReader::new(stream);
    let mut line = String::new();
    for _ in 0..MAX_HEADER_LINES {
        line.clear();
        match buf.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line == "\r\n" || line == "\n" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }
    let mut stream = buf.into_inner();
    respond(&mut stream, 503, &err_json("over capacity, retry later"));
}

fn handle_conn(
    stream: TcpStream,
    reader: &mut crate::epoch::EpochReader<'_, Snapshot>,
    metrics: &ServeMetrics,
    registry: &Registry,
) {
    let _ = stream.set_read_timeout(Some(IO_DEADLINE));
    let _ = stream.set_write_timeout(Some(IO_DEADLINE));
    let mut buf = BufReader::new(stream);
    let mut line = String::new();
    if buf.read_line(&mut line).is_err() || line.is_empty() {
        return;
    }
    // Drain headers (ignored: every request is a parameterless GET),
    // bounded so a drip-fed header stream cannot hold the worker past
    // `MAX_HEADER_LINES` read deadlines.
    let mut header = String::new();
    for drained in 0.. {
        if drained >= MAX_HEADER_LINES {
            // Tell the client why before closing: a silent drop looks
            // like a network fault and invites a retry of the same
            // oversized request.
            metrics.oversize_total.inc();
            let mut stream = buf.into_inner();
            respond(&mut stream, 431, &err_json("too many header lines"));
            return;
        }
        header.clear();
        match buf.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header == "\r\n" || header == "\n" => break,
            Ok(_) => continue,
            Err(_) => return,
        }
    }
    let mut stream = buf.into_inner();

    let target = match parse_request_line(&line) {
        Some(t) => t,
        None => {
            metrics.errors_total.inc();
            respond(&mut stream, 400, &err_json("malformed request line"));
            return;
        }
    };
    let (path, params) = split_target(&target);
    metrics.requests_total.inc();
    match path {
        "/healthz" => {
            reader.get();
            let body = format!("{{\"ok\":true,\"epoch\":{}}}", reader.epoch());
            respond(&mut stream, 200, &body);
        }
        "/metrics" => {
            // Diagnostics, not a query kind: snapshotting the registry
            // takes its mutexes, the four query routes never do.
            respond(&mut stream, 200, &render_json(&registry.snapshot()));
        }
        _ => match parse_query(path, &params) {
            Err(NotFound) => {
                metrics.errors_total.inc();
                respond(&mut stream, 404, &err_json("no such route"));
            }
            Ok(Err(msg)) => {
                metrics.errors_total.inc();
                respond(&mut stream, 400, &err_json(&msg));
            }
            Ok(Ok(req)) => {
                count_kind(metrics, &req);
                // lint:allow(determinism): request latency is wall-clock telemetry, not pipeline state
                let t0 = std::time::Instant::now();
                let result = reader.get().body(&req);
                metrics.latency_us.observe(t0.elapsed().as_secs_f64() * 1e6);
                match result {
                    Ok(body) => respond(&mut stream, 200, &body),
                    Err(e) => {
                        metrics.errors_total.inc();
                        respond(&mut stream, 400, &err_json(&e.to_string()));
                    }
                }
            }
        },
    }
}

fn count_kind(metrics: &ServeMetrics, req: &QueryRequest) {
    match req {
        QueryRequest::OdFlow { .. } => metrics.od_flow.inc(),
        QueryRequest::CellSpeed { .. } => metrics.cell_speed.inc(),
        QueryRequest::TripLookup { .. } => metrics.trip_lookup.inc(),
        QueryRequest::GridStats { .. } => metrics.grid_stats.inc(),
    }
}

/// Marker: the path names no route.
struct NotFound;

/// Maps a route + params to a typed request. Outer `Err` = unknown
/// route (404), inner `Err` = bad parameters (400).
fn parse_query(
    path: &str,
    params: &[(String, String)],
) -> Result<Result<QueryRequest, String>, NotFound> {
    let get = |k: &str| params.iter().find(|(p, _)| p == k).map(|(_, v)| v.as_str());
    let parse_i64 = |k: &str| -> Result<Option<i64>, String> {
        match get(k) {
            None => Ok(None),
            Some(v) => v
                .parse::<i64>()
                .map(Some)
                .map_err(|_| format!("parameter {k:?} is not an integer: {v:?}")),
        }
    };
    match path {
        "/od_flow" => Ok((|| {
            let window = match (parse_i64("from")?, parse_i64("to")?) {
                (None, None) => None,
                (Some(f), Some(t)) => {
                    Some((Timestamp::from_secs(f), Timestamp::from_secs(t)))
                }
                _ => return Err("od_flow needs both `from` and `to`, or neither".into()),
            };
            Ok(QueryRequest::OdFlow { window })
        })()),
        "/cell_speed" => Ok((|| {
            let (ix, iy) = match (parse_i64("ix")?, parse_i64("iy")?) {
                (Some(ix), Some(iy)) => (ix, iy),
                _ => return Err("cell_speed needs `ix` and `iy`".into()),
            };
            let (ix, iy) = (
                i32::try_from(ix).map_err(|_| "ix out of range".to_string())?,
                i32::try_from(iy).map_err(|_| "iy out of range".to_string())?,
            );
            Ok(QueryRequest::CellSpeed { cell: CellId { ix, iy } })
        })()),
        "/trip" => Ok((|| {
            let id = get("id").ok_or_else(|| "trip needs `id`".to_string())?;
            let id = id
                .parse::<u64>()
                .map_err(|_| format!("parameter \"id\" is not an integer: {id:?}"))?;
            Ok(QueryRequest::TripLookup { trip: TripId(id) })
        })()),
        "/grid_stats" => {
            Ok(Ok(QueryRequest::GridStats { pair: get("pair").map(str::to_string) }))
        }
        _ => Err(NotFound),
    }
}

/// `GET /path?k=v HTTP/1.1` → `/path?k=v`. Only GET is served.
fn parse_request_line(line: &str) -> Option<String> {
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next(), parts.next()) {
        (Some("GET"), Some(target), Some(_)) => Some(target.to_string()),
        _ => None,
    }
}

fn split_target(target: &str) -> (&str, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target, Vec::new()),
        Some((path, qs)) => {
            let params = qs
                .split('&')
                .filter(|kv| !kv.is_empty())
                .map(|kv| match kv.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (kv.to_string(), String::new()),
                })
                .collect();
            (path, params)
        }
    }
}

fn err_json(msg: &str) -> String {
    format!("{{\"error\":\"{}\"}}", escape_json(msg))
}

fn respond(stream: &mut TcpStream, status: u16, body: &str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    // Head and body in one buffer, sent with one write.
    let _ = stream.write_all(&[head.as_bytes(), body.as_bytes()].concat());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_line_parsing() {
        assert_eq!(
            parse_request_line("GET /od_flow?from=0&to=9 HTTP/1.1\r\n").as_deref(),
            Some("/od_flow?from=0&to=9")
        );
        assert!(parse_request_line("POST / HTTP/1.1\r\n").is_none());
        assert!(parse_request_line("garbage\r\n").is_none());
    }

    #[test]
    fn target_splitting() {
        let (path, params) = split_target("/cell_speed?ix=3&iy=-2");
        assert_eq!(path, "/cell_speed");
        assert_eq!(
            params,
            vec![("ix".to_string(), "3".to_string()), ("iy".to_string(), "-2".to_string())]
        );
        assert_eq!(split_target("/healthz"), ("/healthz", Vec::new()));
    }

    #[test]
    fn query_routing() {
        assert!(matches!(
            parse_query("/trip", &[("id".into(), "7".into())]),
            Ok(Ok(QueryRequest::TripLookup { trip: TripId(7) }))
        ));
        assert!(matches!(parse_query("/nope", &[]), Err(NotFound)));
        assert!(matches!(parse_query("/trip", &[]), Ok(Err(_))));
        assert!(matches!(
            parse_query("/od_flow", &[("from".into(), "1".into())]),
            Ok(Err(_))
        ));
        assert!(matches!(
            parse_query("/cell_speed", &[("ix".into(), "x".into()), ("iy".into(), "0".into())]),
            Ok(Err(_))
        ));
    }
}
