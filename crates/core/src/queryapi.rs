//! The unified query surface: one typed request/response pair answered
//! identically by the batch path ([`StudyOutput`]) and the serving layer
//! (`taxitrace-serve`'s snapshot).
//!
//! The four query kinds are the paper's "information discovery" products
//! reshaped as point lookups: O-D flow summaries (Table 4's population),
//! per-cell speeds (Fig. 6), raw trip lookups (Table 1) and the full §V
//! grid analysis (Table 5). Everything funnels through [`answer`], so an
//! HTTP reply and an in-process call over the same data are guaranteed to
//! agree byte-for-byte — the serving parity proptest pins exactly that.
//!
//! Grid answers are lookups in a [`GridIndex`], which holds the all-pairs
//! analysis and one per direction pair from a single binning pass. The
//! serving snapshot builds it once at open, so no request bins points.

use std::collections::BTreeMap;
use std::fmt;

use taxitrace_geo::CellId;
use taxitrace_timebase::Timestamp;
use taxitrace_traces::{TaxiId, TripId};

use crate::experiment::StudyOutput;
use crate::gridstats::{CellStat, GridIndex};

/// A query that can never match: the caller asked for something
/// contradictory, which is refused instead of answered with an empty result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryError {
    /// A range filter is inverted (min > max). `field` names the filter
    /// ("time"); `min`/`max` are the offending bounds (seconds).
    EmptyRange { field: &'static str, min: f64, max: f64 },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::EmptyRange { field, min, max } => write!(
                f,
                "empty {field} range: min {min} exceeds max {max}"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// A typed query against study results.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryRequest {
    /// Per-direction-pair flow summary, optionally restricted to
    /// transitions starting in the half-open window `[from, to)`.
    OdFlow { window: Option<(Timestamp, Timestamp)> },
    /// One grid cell's speed/feature aggregate (all pairs).
    CellSpeed { cell: CellId },
    /// One raw trip by id.
    TripLookup { trip: TripId },
    /// The full §V grid analysis, optionally for one direction pair.
    GridStats { pair: Option<String> },
}

/// One row of an O-D flow answer: a direction pair with its transition
/// count, point count and harmonic mean speed (total distance over total
/// travel time, the paper's trip-level speed notion).
#[derive(Debug, Clone, PartialEq)]
pub struct OdFlowRow {
    pub pair: String,
    pub transitions: usize,
    pub points: usize,
    pub mean_speed_kmh: f64,
}

/// One grid cell's aggregate, keyed by cell indexes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpeedRow {
    pub cell: CellId,
    /// Measured point speeds in the cell.
    pub n: usize,
    pub mean_speed_kmh: f64,
    pub traffic_lights: usize,
    pub bus_stops: usize,
    pub pedestrian_crossings: usize,
}

/// Summary of one stored trip (the session-level Table 1 columns).
#[derive(Debug, Clone, PartialEq)]
pub struct TripSummary {
    pub trip: TripId,
    pub taxi: TaxiId,
    pub start_secs: i64,
    pub end_secs: i64,
    pub points: usize,
    pub distance_m: f64,
    pub fuel_ml: f64,
}

/// A typed answer; variants mirror [`QueryRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResponse {
    /// Rows sorted by pair name (deterministic across runs and threads).
    OdFlow { rows: Vec<OdFlowRow> },
    /// `None` when the cell holds no measurements.
    CellSpeed { row: Option<CellSpeedRow> },
    /// `None` when no trip has that id.
    TripLookup { trip: Option<TripSummary> },
    /// Cells sorted by id plus the study-area feature totals.
    GridStats { cells: Vec<CellSpeedRow>, feature_totals: [usize; 3] },
}

/// Anything that can answer the unified queries. Implemented by
/// [`StudyOutput`] (batch path) and by `taxitrace-serve`'s snapshot
/// (serving path, with its [`GridIndex`] built once at open).
pub trait QueryEngine {
    /// Answers one typed request. Contradictory requests (an inverted
    /// time window) are a typed error rather than an empty result.
    fn query(&self, req: &QueryRequest) -> Result<QueryResponse, QueryError>;
}

impl QueryEngine for StudyOutput {
    fn query(&self, req: &QueryRequest) -> Result<QueryResponse, QueryError> {
        // The batch path builds the grid index per call; the serving
        // snapshot passes the one it built at open into the same `answer`.
        answer(self, &self.grid_index(), req)
    }
}

/// Answers `req` against a study output plus its grid index
/// ([`StudyOutput::grid_index`]). The one implementation behind every
/// [`QueryEngine`], so the batch and serving paths cannot drift. Grid
/// answers are lookups in `grid`: no request bins a point.
pub fn answer(
    output: &StudyOutput,
    grid: &GridIndex,
    req: &QueryRequest,
) -> Result<QueryResponse, QueryError> {
    match req {
        QueryRequest::OdFlow { window } => {
            if let Some((from, to)) = window {
                if from > to {
                    return Err(QueryError::EmptyRange {
                        field: "time",
                        min: from.secs() as f64,
                        max: to.secs() as f64,
                    });
                }
            }
            let mut by_pair: BTreeMap<&str, (usize, usize, f64, f64)> = BTreeMap::new();
            for t in &output.transitions {
                if let Some((from, to)) = window {
                    if t.start_time < *from || t.start_time >= *to {
                        continue;
                    }
                }
                let e = by_pair.entry(&t.pair).or_insert((0, 0, 0.0, 0.0));
                e.0 += 1;
                e.1 += t.points.len();
                e.2 += t.dist_km;
                e.3 += t.time_h;
            }
            let rows = by_pair
                .into_iter()
                .map(|(pair, (transitions, points, dist_km, time_h))| OdFlowRow {
                    pair: pair.to_string(),
                    transitions,
                    points,
                    mean_speed_kmh: if time_h > 0.0 { dist_km / time_h } else { 0.0 },
                })
                .collect();
            Ok(QueryResponse::OdFlow { rows })
        }
        QueryRequest::CellSpeed { cell } => Ok(QueryResponse::CellSpeed {
            row: grid.all.cells.get(cell).map(|s| cell_row(*cell, s)),
        }),
        QueryRequest::TripLookup { trip } => Ok(QueryResponse::TripLookup {
            trip: output.store.get(*trip).map(|s| TripSummary {
                trip: s.id,
                taxi: s.taxi,
                start_secs: s.start_time.secs(),
                end_secs: s.end_time.secs(),
                points: s.points.len(),
                distance_m: s.total_distance_m,
                fuel_ml: s.total_fuel_ml,
            }),
        }),
        QueryRequest::GridStats { pair } => {
            // A pair without transitions has no cells, as `grid_stats`
            // gives it.
            let stats = match pair {
                None => Some(&grid.all),
                Some(p) => grid.by_pair.get(p),
            };
            Ok(QueryResponse::GridStats {
                cells: stats.map_or_else(Vec::new, |s| {
                    s.cells.iter().map(|(c, s)| cell_row(*c, s)).collect()
                }),
                feature_totals: grid.all.feature_totals,
            })
        }
    }
}

fn cell_row(cell: CellId, s: &CellStat) -> CellSpeedRow {
    CellSpeedRow {
        cell,
        n: s.n,
        mean_speed_kmh: s.mean_speed,
        traffic_lights: s.traffic_lights,
        bus_stops: s.bus_stops,
        pedestrian_crossings: s.pedestrian_crossings,
    }
}

impl QueryResponse {
    /// Canonical JSON rendering — the exact bytes the HTTP front end
    /// serves and the load generator fingerprints. Hand-rolled and
    /// deterministic: rows are pre-sorted, floats use Rust's shortest
    /// round-trip formatting.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        match self {
            QueryResponse::OdFlow { rows } => {
                s.push_str("{\"kind\":\"od_flow\",\"rows\":[");
                for (i, r) in rows.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&format!(
                        "{{\"pair\":\"{}\",\"transitions\":{},\"points\":{},\"mean_speed_kmh\":{}}}",
                        escape_json(&r.pair),
                        r.transitions,
                        r.points,
                        json_f64(r.mean_speed_kmh)
                    ));
                }
                s.push_str("]}");
            }
            QueryResponse::CellSpeed { row } => {
                s.push_str("{\"kind\":\"cell_speed\",\"row\":");
                match row {
                    None => s.push_str("null"),
                    Some(r) => push_cell_row(&mut s, r),
                }
                s.push('}');
            }
            QueryResponse::TripLookup { trip } => {
                s.push_str("{\"kind\":\"trip_lookup\",\"trip\":");
                match trip {
                    None => s.push_str("null"),
                    Some(t) => s.push_str(&format!(
                        "{{\"id\":{},\"taxi\":{},\"start_secs\":{},\"end_secs\":{},\
                         \"points\":{},\"distance_m\":{},\"fuel_ml\":{}}}",
                        t.trip.0,
                        t.taxi.0,
                        t.start_secs,
                        t.end_secs,
                        t.points,
                        json_f64(t.distance_m),
                        json_f64(t.fuel_ml)
                    )),
                }
                s.push('}');
            }
            QueryResponse::GridStats { cells, feature_totals } => {
                s.push_str("{\"kind\":\"grid_stats\",\"cells\":[");
                for (i, r) in cells.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    push_cell_row(&mut s, r);
                }
                s.push_str(&format!(
                    "],\"feature_totals\":[{},{},{}]}}",
                    feature_totals[0], feature_totals[1], feature_totals[2]
                ));
            }
        }
        s
    }
}

fn push_cell_row(s: &mut String, r: &CellSpeedRow) {
    s.push_str(&format!(
        "{{\"ix\":{},\"iy\":{},\"n\":{},\"mean_speed_kmh\":{},\"traffic_lights\":{},\
         \"bus_stops\":{},\"pedestrian_crossings\":{}}}",
        r.cell.ix,
        r.cell.iy,
        r.n,
        json_f64(r.mean_speed_kmh),
        r.traffic_lights,
        r.bus_stops,
        r.pedestrian_crossings
    ));
}

/// JSON has no NaN/Infinity literals; non-finite aggregates render null.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out() -> &'static StudyOutput {
        crate::experiment::test_output()
    }

    #[test]
    fn od_flow_rows_are_sorted_and_consistent() {
        let resp = out().query(&QueryRequest::OdFlow { window: None }).unwrap();
        let QueryResponse::OdFlow { rows } = &resp else { panic!("wrong variant") };
        assert!(!rows.is_empty());
        let pairs: Vec<&str> = rows.iter().map(|r| r.pair.as_str()).collect();
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        assert_eq!(pairs, sorted, "rows must come back pair-sorted");
        let total: usize = rows.iter().map(|r| r.transitions).sum();
        assert_eq!(total, out().transitions.len());
    }

    #[test]
    fn od_flow_window_filters_and_validates() {
        let o = out();
        let t0 = o.transitions.iter().map(|t| t.start_time).min().unwrap();
        let t1 = o.transitions.iter().map(|t| t.start_time).max().unwrap();
        let all = o.query(&QueryRequest::OdFlow { window: Some((t0, Timestamp::from_secs(t1.secs() + 1))) }).unwrap();
        let QueryResponse::OdFlow { rows } = &all else { panic!() };
        assert_eq!(rows.iter().map(|r| r.transitions).sum::<usize>(), o.transitions.len());
        // Inverted window is a typed error, not an empty result.
        let err = o
            .query(&QueryRequest::OdFlow { window: Some((t1, t0)) })
            .unwrap_err();
        assert!(matches!(err, QueryError::EmptyRange { field: "time", .. }));
    }

    #[test]
    fn cell_speed_agrees_with_grid_stats() {
        let o = out();
        let stats = o.grid_stats(None);
        let (&cell, stat) = stats.cells.iter().next().unwrap();
        let resp = o.query(&QueryRequest::CellSpeed { cell }).unwrap();
        let QueryResponse::CellSpeed { row: Some(row) } = resp else { panic!("hit expected") };
        assert_eq!(row.n, stat.n);
        assert_eq!(row.mean_speed_kmh, stat.mean_speed);
        // A far-away cell misses cleanly.
        let miss = o
            .query(&QueryRequest::CellSpeed { cell: CellId { ix: 9999, iy: 9999 } })
            .unwrap();
        assert_eq!(miss, QueryResponse::CellSpeed { row: None });
    }

    #[test]
    fn trip_lookup_round_trips_store_sessions() {
        let o = out();
        let first = &o.store.sessions()[0];
        let resp = o.query(&QueryRequest::TripLookup { trip: first.id }).unwrap();
        let QueryResponse::TripLookup { trip: Some(t) } = resp else { panic!("hit expected") };
        assert_eq!(t.taxi, first.taxi);
        assert_eq!(t.points, first.points.len());
        let miss = o
            .query(&QueryRequest::TripLookup { trip: TripId(u64::MAX) })
            .unwrap();
        assert_eq!(miss, QueryResponse::TripLookup { trip: None });
    }

    #[test]
    fn json_rendering_is_canonical() {
        let o = out();
        let resp = o.query(&QueryRequest::GridStats { pair: None }).unwrap();
        let json = resp.to_json();
        assert!(json.starts_with("{\"kind\":\"grid_stats\""));
        assert!(json.ends_with('}'));
        assert_eq!(json, resp.to_json(), "rendering must be deterministic");
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }
}
