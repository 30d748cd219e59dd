//! The serve workload: a cold start of the read service over a store
//! file, then the seeded request mix, open loop at a fixed rate and closed
//! loop at full load. Every 200 body is checked against the in-process
//! answer of the same snapshot.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

use taxitrace_core::{QueryEngine, QueryRequest, StudyConfig};
use taxitrace_geo::CellId;
use taxitrace_obs::Registry;
use taxitrace_serve::{Server, Snapshot};
use taxitrace_timebase::Timestamp;
use taxitrace_traces::{Rng, TripId};

use crate::loadgen::http_get;

/// The routes of the mix, each with its own latency and cost row. The
/// `pair` form of `/grid_stats` recomputes a per-pair grid per request,
/// so it is kept apart from the cached all-pairs form.
pub const ROUTES: [&str; 6] = [
    "od_flow",
    "od_flow_window",
    "cell_speed",
    "trip",
    "grid_stats",
    "grid_stats_pair",
];

/// One request of the mix: its route (index into [`ROUTES`]), HTTP path,
/// and the body the snapshot answers in process.
#[derive(Debug)]
pub struct Planned {
    pub route: usize,
    pub path: String,
    pub request: QueryRequest,
    pub expected: String,
}

/// Share of each route of [`ROUTES`] in the mix: `repro serve-bench`'s
/// 30% O-D flow (40% of it without a window), 30% cell speed, 25% trip
/// lookups and 15% grid stats (half of it per pair).
const SHARES: [f64; 6] = [0.12, 0.18, 0.30, 0.25, 0.075, 0.075];

/// The request mix, `n` requests long, drawn from the snapshot's own
/// domain with `seed` (with deliberate misses: unknown cells and trips).
/// Each route gets exactly its share, in seeded order, so every seed and
/// every whole cycle of the plan carries the same amount of each kind of
/// work.
pub fn plan(snapshot: &Snapshot, seed: u64, n: usize) -> Result<Vec<Planned>, String> {
    let output = snapshot.output();
    let sessions = output.store.sessions();
    let cells: Vec<CellId> = snapshot.grid().cells.keys().copied().collect();
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
    if sessions.is_empty() || cells.is_empty() || pairs.is_empty() {
        return Err("snapshot has no trips, cells or pairs to query".into());
    }
    let mut rng = Rng::new(seed).fork(0x5E12_E000);
    let mut routes: Vec<usize> = Vec::with_capacity(n);
    for (route, share) in SHARES.iter().enumerate() {
        let count = if route + 1 == SHARES.len() {
            n - routes.len()
        } else {
            (share * n as f64).round() as usize
        };
        routes.extend(std::iter::repeat_n(route, count));
    }
    for i in (1..routes.len()).rev() {
        routes.swap(i, rng.below(i + 1));
    }
    let mut out = Vec::with_capacity(n);
    for route in routes {
        let (path, request) = match route {
            0 => (
                "/od_flow".to_string(),
                QueryRequest::OdFlow { window: None },
            ),
            1 => {
                let a = t_min + rng.below((t_max - t_min).max(1) as usize) as i64;
                let b = t_min + rng.below((t_max - t_min).max(1) as usize) as i64;
                let (from, to) = (a.min(b), a.max(b) + 1);
                let window = Some((Timestamp::from_secs(from), Timestamp::from_secs(to)));
                (
                    format!("/od_flow?from={from}&to={to}"),
                    QueryRequest::OdFlow { window },
                )
            }
            2 => {
                let cell = if rng.chance(0.1) {
                    CellId {
                        ix: 99_999,
                        iy: 99_999,
                    }
                } else {
                    cells[rng.below(cells.len())]
                };
                let path = format!("/cell_speed?ix={}&iy={}", cell.ix, cell.iy);
                (path, QueryRequest::CellSpeed { cell })
            }
            3 => {
                let id = if rng.chance(0.1) {
                    u64::MAX
                } else {
                    sessions[rng.below(sessions.len())].id.0
                };
                (
                    format!("/trip?id={id}"),
                    QueryRequest::TripLookup { trip: TripId(id) },
                )
            }
            4 => (
                "/grid_stats".to_string(),
                QueryRequest::GridStats { pair: None },
            ),
            _ => {
                let pair = pairs[rng.below(pairs.len())].to_string();
                (
                    format!("/grid_stats?pair={pair}"),
                    QueryRequest::GridStats { pair: Some(pair) },
                )
            }
        };
        let expected = snapshot
            .query(&request)
            .map_err(|e| format!("{path}: in-process query failed: {e}"))?
            .to_json();
        out.push(Planned {
            route,
            path,
            request,
            expected,
        });
    }
    Ok(out)
}

/// A started server and the time its cold start took.
pub struct ColdStart {
    pub server: Server,
    pub setup_s: f64,
    pub open_s: f64,
}

/// Cold start of the read service: open the store file into a snapshot
/// (decode, clean, O-D, match and fuse, grid), start `workers` HTTP
/// workers, and wait for the first 200 on `/healthz`.
pub fn cold_start(store: &Path, cfg: &StudyConfig, workers: usize) -> Result<ColdStart, String> {
    let start = Instant::now();
    let snapshot = Snapshot::open(store, cfg.clone()).map_err(|e| format!("open: {e}"))?;
    let open_s = start.elapsed().as_secs_f64();
    let server =
        Server::start(snapshot, 0, workers, Registry::new()).map_err(|e| format!("start: {e}"))?;
    let addr = server.addr();
    let mut tries = 0;
    while !matches!(http_get(addr, "/healthz"), Ok((200, _, _))) {
        tries += 1;
        if tries > 1000 {
            server.shutdown();
            return Err("server never answered /healthz".into());
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    Ok(ColdStart {
        server,
        setup_s: start.elapsed().as_secs_f64(),
        open_s,
    })
}

/// Checks a served 200 body against the plan; a mismatch is remembered
/// (first one only) and makes the run incorrect.
pub struct BodyCheck<'a> {
    plan: &'a [Planned],
    mismatch: std::sync::Mutex<Option<String>>,
}

impl<'a> BodyCheck<'a> {
    pub fn new(plan: &'a [Planned]) -> Self {
        Self {
            plan,
            mismatch: std::sync::Mutex::new(None),
        }
    }

    pub fn path(&self, j: usize) -> String {
        self.plan[j % self.plan.len()].path.clone()
    }

    pub fn check(&self, j: usize, body: &str) -> bool {
        let p = &self.plan[j % self.plan.len()];
        match crate::gate::check_body(&p.path, &p.expected, body) {
            Ok(()) => true,
            Err(e) => {
                let mut first = self.mismatch.lock().expect("body-check mutex poisoned");
                first.get_or_insert(e);
                false
            }
        }
    }

    pub fn mismatch(self) -> Option<String> {
        self.mismatch
            .into_inner()
            .expect("body-check mutex poisoned")
    }
}

/// Builds the store file a serve run opens: the study's simulated
/// sessions for `seed`, persisted as a v3 store.
pub fn prepare_store(seed: u64, path: &Path) -> Result<(), String> {
    let sim = taxitrace_core::Study::new(crate::study::config(seed))
        .simulate()
        .map_err(|e| format!("simulate: {e}"))?;
    sim.save_store(path).map_err(|e| format!("save store: {e}"))
}

/// Sequential requests of one route over fresh connections; returns the
/// client-side latencies in microseconds and the connect times.
pub fn route_latencies(
    addr: SocketAddr,
    plan: &[Planned],
    route: usize,
    n: usize,
    check: &BodyCheck<'_>,
) -> (Vec<f64>, Vec<f64>) {
    let of_route: Vec<usize> = (0..plan.len())
        .filter(|&j| plan[j].route == route)
        .collect();
    let mut latencies = Vec::with_capacity(n);
    let mut connects = Vec::with_capacity(n);
    for k in 0..n {
        let j = of_route[k % of_route.len()];
        let start = Instant::now();
        let res = http_get(addr, &plan[j].path);
        latencies.push(start.elapsed().as_secs_f64() * 1e6);
        match res {
            Ok((200, body, connect)) => {
                check.check(j, &body);
                connects.push(connect.as_secs_f64() * 1e6);
            }
            _ => {
                let mut first = check.mismatch.lock().expect("body-check mutex poisoned");
                first.get_or_insert(format!("{}: no 200", plan[j].path));
            }
        }
    }
    (latencies, connects)
}
