//! Seeded closed-loop load generator.
//!
//! `run_load` drives N client threads against a running [`crate::Server`],
//! each issuing its share of a deterministic query mix drawn from the
//! snapshot's own domain (real trip ids, real cells, real direction
//! pairs, plus deliberate misses). The mix is planned up front from
//! forked [`Rng`] streams, so the **mix fingerprint** — and, because
//! answers are canonical JSON over immutable data, the **response
//! fingerprint** — are identical across runs, thread interleavings and
//! client counts. Fingerprints are per-request FNV-1a hashes combined
//! with wrapping addition (commutative, and unlike XOR repeated
//! request/response pairs don't cancel out).

use std::collections::BTreeSet;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

use taxitrace_core::fnv1a;
use taxitrace_traces::Rng;

use crate::snapshot::Snapshot;

/// Parameters of one load run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadSpec {
    /// Root seed; client `i` plans its requests from `fork(i)`.
    pub seed: u64,
    /// Concurrent closed-loop clients (threads).
    pub clients: usize,
    /// Requests each client issues sequentially.
    pub requests_per_client: usize,
}

/// Outcome of a load run: request and error counts plus the determinism
/// fingerprints.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    pub seed: u64,
    pub clients: usize,
    pub requests: usize,
    /// Non-200 responses (0 in a healthy run — every planned request is
    /// well-formed).
    pub errors: usize,
    /// Wrapping sum of FNV-1a hashes of every request path. Depends only
    /// on `(seed, clients, requests_per_client, snapshot domain)`.
    pub mix_fingerprint: u64,
    /// Wrapping sum of FNV-1a hashes of every response body. Equal across
    /// runs because answers are canonical JSON over an immutable
    /// snapshot.
    pub response_fingerprint: u64,
}

/// Plans one client's request paths from its forked rng stream. Sampling
/// only touches the snapshot's immutable domain, so the plan is a pure
/// function of `(rng stream, snapshot)`.
fn plan_requests(rng: &mut Rng, snapshot: &Snapshot, n: usize) -> Vec<String> {
    let output = snapshot.output();
    let sessions = output.store.sessions();
    let cells: Vec<_> = snapshot.grid().cells.keys().copied().collect();
    let pairs: Vec<&str> = output
        .transitions
        .iter()
        .map(|t| t.pair.as_str())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let (t_min, t_max) = output
        .transitions
        .iter()
        .map(|t| t.start_time.secs())
        .fold((i64::MAX, i64::MIN), |(lo, hi), t| (lo.min(t), hi.max(t)));

    let mut plan = Vec::with_capacity(n);
    for _ in 0..n {
        // Mix: mostly the cheap point lookups, a steady trickle of the
        // expensive full-grid scan.
        let path = match rng.weighted(&[0.30, 0.30, 0.25, 0.15]) {
            0 => {
                if output.transitions.is_empty() || rng.chance(0.4) {
                    "/od_flow".to_string()
                } else {
                    let a = t_min + rng.below((t_max - t_min).max(1) as usize) as i64;
                    let b = t_min + rng.below((t_max - t_min).max(1) as usize) as i64;
                    // Ordered window: inverted ranges are a typed 400 and
                    // belong in the error tests, not the throughput mix.
                    format!("/od_flow?from={}&to={}", a.min(b), a.max(b) + 1)
                }
            }
            1 => {
                if cells.is_empty() || rng.chance(0.1) {
                    // Deliberate miss: answers `row: null`.
                    "/cell_speed?ix=99999&iy=99999".to_string()
                } else {
                    let c = cells[rng.below(cells.len())];
                    format!("/cell_speed?ix={}&iy={}", c.ix, c.iy)
                }
            }
            2 => {
                if sessions.is_empty() || rng.chance(0.1) {
                    format!("/trip?id={}", u64::MAX)
                } else {
                    format!("/trip?id={}", sessions[rng.below(sessions.len())].id.0)
                }
            }
            _ => {
                if pairs.is_empty() || rng.chance(0.5) {
                    "/grid_stats".to_string()
                } else {
                    format!("/grid_stats?pair={}", pairs[rng.below(pairs.len())])
                }
            }
        };
        plan.push(path);
    }
    plan
}

/// One blocking HTTP GET; returns `(status, body)`.
fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: taxitrace\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = String::new();
    BufReader::new(stream).read_to_string(&mut raw)?;
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    Ok((status, body.to_string()))
}

/// Runs the closed-loop load against `addr`. The snapshot is only used
/// for domain sampling; every answer comes back over HTTP.
pub fn run_load(addr: SocketAddr, snapshot: &Snapshot, spec: &LoadSpec) -> LoadReport {
    // Plan everything before spawning: determinism cannot depend on
    // thread scheduling.
    let plans: Vec<Vec<String>> = (0..spec.clients)
        .map(|i| {
            let mut rng = Rng::new(spec.seed).fork(i as u64);
            plan_requests(&mut rng, snapshot, spec.requests_per_client)
        })
        .collect();
    let mix_fingerprint = plans
        .iter()
        .flatten()
        .fold(0u64, |acc, p| acc.wrapping_add(fnv1a(p.as_bytes())));

    let mut handles = Vec::with_capacity(plans.len());
    for plan in plans {
        handles.push(std::thread::spawn(move || {
            let mut fp = 0u64;
            let mut errors = 0usize;
            for path in &plan {
                match http_get(addr, path) {
                    Ok((200, body)) => fp = fp.wrapping_add(fnv1a(body.as_bytes())),
                    _ => errors += 1,
                }
            }
            (plan.len(), fp, errors)
        }));
    }
    let mut requests = 0usize;
    let mut response_fingerprint = 0u64;
    let mut errors = 0usize;
    for h in handles {
        let (n, fp, errs) = h.join().unwrap_or((0, 0, usize::MAX));
        requests += n;
        response_fingerprint = response_fingerprint.wrapping_add(fp);
        errors = errors.saturating_add(errs);
    }
    LoadReport {
        seed: spec.seed,
        clients: spec.clients,
        requests,
        errors,
        mix_fingerprint,
        response_fingerprint,
    }
}
