//! Incremental map-matching (Brakatsoulas et al., VLDB'05), as used by the
//! paper, with look-ahead and road-direction awareness.

use taxitrace_roadnet::{EdgeId, RoadGraph};
use taxitrace_traces::RoutePoint;

use crate::candidates::{CandidateIndex, ScoredCandidate};
use crate::path::{element_path_blind, element_path_budgeted};
use crate::scratch::MatchScratch;
use crate::types::{MatchConfig, MatchedPoint, MatchedTrace};

/// Connectivity score between the previously matched edge and a candidate
/// edge: same edge 1.0, edges sharing a junction 0.8, two hops 0.5,
/// otherwise 0.1 (a jump — possible, but expensive, so only a strong
/// distance/heading advantage can force it).
fn connectivity(graph: &RoadGraph, prev: Option<EdgeId>, cand: EdgeId) -> f64 {
    let Some(prev) = prev else { return 1.0 };
    if prev == cand {
        return 1.0;
    }
    let pe = graph.edge(prev);
    let ce = graph.edge(cand);
    let shares = |a: &taxitrace_roadnet::Edge, b: &taxitrace_roadnet::Edge| {
        a.from == b.from || a.from == b.to || a.to == b.from || a.to == b.to
    };
    if shares(pe, ce) {
        return 0.8;
    }
    // Two hops: some edge incident to prev's endpoints touches cand.
    for node in [pe.from, pe.to] {
        for &(_, nb) in graph.neighbors(node) {
            if nb == ce.from || nb == ce.to {
                return 0.5;
            }
        }
    }
    0.1
}

fn combined(config: &MatchConfig, sc: &ScoredCandidate, conn: f64) -> f64 {
    config.w_dist * sc.s_dist + config.w_head * sc.s_head + config.w_conn * conn
}

/// Matches a trace with the incremental algorithm.
///
/// For every point, candidates within the radius are scored on distance,
/// orientation (direction-constrained) and connectivity to the previous
/// match; with `lookahead > 0` the score adds the best achievable score of
/// the following point(s) given the candidate, which resolves junction
/// ambiguities that a greedy matcher gets wrong.
pub fn match_trace(
    graph: &RoadGraph,
    index: &CandidateIndex,
    points: &[RoutePoint],
    config: &MatchConfig,
) -> MatchedTrace {
    match_trace_with(&mut MatchScratch::new(), graph, index, points, config)
}

/// Pre-optimisation reference of [`match_trace`]: identical matching, but
/// gaps are filled by blind per-query Dijkstra with per-query allocation —
/// the behaviour the goal-directed routing core replaced. Kept for benches.
pub fn match_trace_reference(
    graph: &RoadGraph,
    index: &CandidateIndex,
    points: &[RoutePoint],
    config: &MatchConfig,
) -> MatchedTrace {
    let (matched, unmatched) = match_points(graph, index, points, config);
    let elements = element_path_blind(graph, &matched, config.gap_fill);
    MatchedTrace { points: matched, elements, unmatched }
}

/// [`match_trace`] with caller-owned scratch, reused across traces.
pub fn match_trace_with(
    scratch: &mut MatchScratch,
    graph: &RoadGraph,
    index: &CandidateIndex,
    points: &[RoutePoint],
    config: &MatchConfig,
) -> MatchedTrace {
    let (matched, unmatched, candidates_scored) =
        match_points_counted(graph, index, points, config);
    scratch.traces += 1;
    scratch.candidates_scored += candidates_scored;
    scratch.points_matched += matched.len() as u64;
    scratch.points_unmatched += unmatched as u64;
    let elements = element_path_budgeted(
        scratch,
        graph,
        &matched,
        config.gap_fill,
        config.gap_fill_max_expansions,
    );
    MatchedTrace { points: matched, elements, unmatched }
}

/// The per-point scoring loop shared by every `match_trace` variant.
fn match_points(
    graph: &RoadGraph,
    index: &CandidateIndex,
    points: &[RoutePoint],
    config: &MatchConfig,
) -> (Vec<MatchedPoint>, usize) {
    let (matched, unmatched, _) = match_points_counted(graph, index, points, config);
    (matched, unmatched)
}

/// [`match_points`] that also reports how many candidates were scored,
/// for the matcher's observability counters.
fn match_points_counted(
    graph: &RoadGraph,
    index: &CandidateIndex,
    points: &[RoutePoint],
    config: &MatchConfig,
) -> (Vec<MatchedPoint>, usize, u64) {
    let mut matched = Vec::with_capacity(points.len());
    let mut unmatched = 0usize;
    let mut prev_edge: Option<EdgeId> = None;

    // Pre-compute candidate lists once (shared with the look-ahead).
    let cand_lists: Vec<Vec<ScoredCandidate>> = points
        .iter()
        .map(|p| index.scored_candidates(p.pos, p.heading_deg, p.speed_kmh, config))
        .collect();
    let candidates_scored: u64 = cand_lists.iter().map(|c| c.len() as u64).sum();

    for (i, point) in points.iter().enumerate() {
        let _ = point;
        let cands = &cand_lists[i];
        if cands.is_empty() {
            unmatched += 1;
            continue;
        }
        let mut best: Option<(f64, &ScoredCandidate)> = None;
        for sc in cands.iter().take(config.max_candidates) {
            let cand_edge = index.candidate(sc.candidate).edge;
            let mut score = combined(config, sc, connectivity(graph, prev_edge, cand_edge));
            // Look-ahead: the best continuation from this candidate.
            let mut look_edge = cand_edge;
            for d in 1..=config.lookahead {
                let Some(next) = cand_lists.get(i + d) else { break };
                if next.is_empty() {
                    break;
                }
                let mut best_next = 0.0f64;
                let mut best_next_edge = look_edge;
                for nsc in next.iter().take(config.max_candidates) {
                    let nedge = index.candidate(nsc.candidate).edge;
                    let s = combined(
                        config,
                        nsc,
                        connectivity(graph, Some(look_edge), nedge),
                    );
                    if s > best_next {
                        best_next = s;
                        best_next_edge = nedge;
                    }
                }
                score += 0.5f64.powi(d as i32) * best_next;
                look_edge = best_next_edge;
            }
            if best.as_ref().is_none_or(|(b, _)| score > *b) {
                best = Some((score, sc));
            }
        }
        // lint:allow(panic-free-library): loop above ran >= once (checked)
        let (_, sc) = best.expect("candidate list non-empty");
        let cand = index.candidate(sc.candidate);
        matched.push(MatchedPoint {
            point_index: i,
            element: cand.element,
            edge: cand.edge,
            distance_m: sc.distance_m,
            offset_m: sc.offset_m,
        });
        prev_edge = Some(cand.edge);
    }

    (matched, unmatched, candidates_scored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxitrace_geo::{GeoPoint, Point};
    use taxitrace_roadnet::synth::{generate, OuluConfig};
    use taxitrace_roadnet::{dijkstra, CostModel, ElementId};
    use taxitrace_timebase::Timestamp;
    use taxitrace_traces::{PointTruth, TaxiId, TripId};

    fn pt(i: usize, pos: Point, heading: f64, speed: f64) -> RoutePoint {
        RoutePoint {
            point_id: i as u64,
            trip_id: TripId(1),
            taxi: TaxiId(1),
            geo: GeoPoint::new(25.0, 65.0),
            pos,
            timestamp: Timestamp::from_secs(i as i64 * 15),
            speed_kmh: speed,
            heading_deg: heading,
            fuel_ml: 0.0,
            truth: PointTruth { seq: i as u32, element: None },
        }
    }

    /// Sample a real route from the synthetic city and check the matcher
    /// recovers its element sequence from clean on-route points.
    #[test]
    fn recovers_route_elements_from_on_route_points() {
        let city = generate(&OuluConfig::default());
        let index = CandidateIndex::new(&city.graph, &city.elements);
        let from = city.od_roads[0].outer_node;
        let to = city.od_roads[1].outer_node;
        let route =
            dijkstra::astar(&city.graph, from, to, CostModel::TravelTime).unwrap();
        let line = route.polyline(&city.graph).unwrap();
        let truth: Vec<ElementId> = route.element_ids(&city.graph);

        // Sample every ~80 m with headings along the line.
        let mut points = Vec::new();
        let n = (line.length() / 80.0) as usize;
        for k in 0..=n {
            let off = line.length() * k as f64 / n as f64;
            points.push(pt(k, line.point_at(off), line.heading_at(off), 35.0));
        }
        let config = MatchConfig::default();
        let matched = match_trace(&city.graph, &index, &points, &config);
        assert_eq!(matched.unmatched, 0);
        // Every matched element must be on the true route.
        let on_route = matched
            .points
            .iter()
            .filter(|m| truth.contains(&m.element))
            .count();
        let frac = on_route as f64 / matched.points.len() as f64;
        assert!(frac > 0.95, "on-route fraction {frac}");
        // The gap-filled element path must cover most of the truth.
        let covered = truth
            .iter()
            .filter(|e| matched.elements.contains(e))
            .count() as f64
            / truth.len() as f64;
        assert!(covered > 0.85, "covered {covered}");
    }

    #[test]
    fn off_map_points_counted_unmatched() {
        let city = generate(&OuluConfig::default());
        let index = CandidateIndex::new(&city.graph, &city.elements);
        let config = MatchConfig::default();
        let points = vec![
            pt(0, Point::new(50_000.0, 50_000.0), 0.0, 30.0),
            pt(1, Point::new(0.0, 0.0), 90.0, 30.0),
        ];
        let matched = match_trace(&city.graph, &index, &points, &config);
        assert_eq!(matched.unmatched, 1);
        assert_eq!(matched.points.len(), 1);
    }

    #[test]
    fn empty_trace() {
        let city = generate(&OuluConfig::default());
        let index = CandidateIndex::new(&city.graph, &city.elements);
        let matched = match_trace(&city.graph, &index, &[], &MatchConfig::default());
        assert!(matched.points.is_empty());
        assert!(matched.elements.is_empty());
        assert_eq!(matched.matched_fraction(), 1.0);
    }
}
