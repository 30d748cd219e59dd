//! Gap filling: turning per-point matches into a contiguous traffic-element
//! sequence, using Dijkstra "to fill the gaps, when data points are too far
//! from each other" (§IV-E; pgRouting's role in the paper's stack).

use taxitrace_geo::Point;
use taxitrace_roadnet::{dijkstra, Edge, ElementId, NodeId, RoadGraph};

use crate::scratch::MatchScratch;
use crate::types::MatchedPoint;

/// Builds the travel-order element sequence from per-point matches using
/// one-shot scratch space. Prefer [`element_path_with`] on hot paths — it
/// reuses the A* search arrays across traces.
pub fn element_path(graph: &RoadGraph, matched: &[MatchedPoint], gap_fill: bool) -> Vec<ElementId> {
    element_path_with(&mut MatchScratch::new(), graph, matched, gap_fill)
}

/// Builds the travel-order element sequence from per-point matches.
///
/// Consecutive matches on the same edge are walked along the edge's element
/// chain; transitions between edges that share a junction need no filling;
/// farther transitions are routed (goal-directed A* over `scratch.search`)
/// when `gap_fill` is on (otherwise the sequence simply jumps).
pub fn element_path_with(
    scratch: &mut MatchScratch,
    graph: &RoadGraph,
    matched: &[MatchedPoint],
    gap_fill: bool,
) -> Vec<ElementId> {
    element_path_budgeted(scratch, graph, matched, gap_fill, u64::MAX)
}

/// [`element_path_with`] with a per-query node-expansion budget on the
/// gap-fill router. A budget-exhausted query degrades gracefully: the
/// element sequence jumps the gap (same as `gap_fill = false` for that one
/// transition), the fallback is counted in
/// [`MatchScratch::gaps_budget_exhausted`].
pub fn element_path_budgeted(
    scratch: &mut MatchScratch,
    graph: &RoadGraph,
    matched: &[MatchedPoint],
    gap_fill: bool,
    max_expansions: u64,
) -> Vec<ElementId> {
    element_path_inner(graph, matched, gap_fill, &mut |exit, entry| {
        let search = &mut scratch.search;
        let model = dijkstra::CostModel::Distance;
        match dijkstra::astar_bounded(search, graph, exit, entry, model, max_expansions) {
            dijkstra::SearchOutcome::Found(route) => Some(route.element_ids(graph)),
            dijkstra::SearchOutcome::Unreachable => None,
            dijkstra::SearchOutcome::BudgetExhausted { .. } => {
                scratch.gaps_budget_exhausted += 1;
                None
            }
        }
    })
}

/// Pre-optimisation reference of [`element_path`]: blind Dijkstra per gap
/// with per-query allocation. Kept as the behavioural reference
/// [`crate::incremental::match_trace_reference`] runs on, which the
/// matching bench compares against the optimised path.
pub fn element_path_blind(
    graph: &RoadGraph,
    matched: &[MatchedPoint],
    gap_fill: bool,
) -> Vec<ElementId> {
    element_path_inner(graph, matched, gap_fill, &mut |exit, entry| {
        dijkstra::shortest_path(graph, exit, entry, dijkstra::CostModel::Distance)
            .map(|route| route.element_ids(graph))
    })
}

fn element_path_inner(
    graph: &RoadGraph,
    matched: &[MatchedPoint],
    gap_fill: bool,
    route: &mut dyn FnMut(NodeId, NodeId) -> Option<Vec<ElementId>>,
) -> Vec<ElementId> {
    let mut out: Vec<ElementId> = Vec::new();
    let mut push = |out: &mut Vec<ElementId>, e: ElementId| {
        if out.last() != Some(&e) {
            out.push(e);
        }
    };

    let mut prev: Option<&MatchedPoint> = None;
    for m in matched {
        let Some(p) = prev else {
            push(&mut out, m.element);
            prev = Some(m);
            continue;
        };
        if p.element == m.element {
            prev = Some(m);
            continue;
        }
        if p.edge == m.edge {
            // Walk the edge's element chain between the two elements.
            let edge = graph.edge(m.edge);
            let i1 = elem_index(edge, p.element);
            let i2 = elem_index(edge, m.element);
            if let (Some(i1), Some(i2)) = (i1, i2) {
                if i1 < i2 {
                    for e in &edge.elements[i1 + 1..=i2] {
                        push(&mut out, *e);
                    }
                } else {
                    for e in edge.elements[i2..i1].iter().rev() {
                        push(&mut out, *e);
                    }
                }
            } else {
                push(&mut out, m.element);
            }
        } else {
            let e1 = graph.edge(p.edge);
            let e2 = graph.edge(m.edge);
            if let Some(shared) = shared_node(e1, e2) {
                // Adjacent edges: walk out of e1 towards the junction and
                // into e2 away from it.
                walk_to_node(e1, p.element, shared, &mut out, &mut push);
                walk_from_node(e2, m.element, shared, &mut out, &mut push);
            } else if gap_fill {
                let exit = nearest_endpoint(graph, e1, midpoint(e2));
                let entry = nearest_endpoint(graph, e2, graph.node_point(exit));
                walk_to_node(e1, p.element, exit, &mut out, &mut push);
                if let Some(route_elements) = route(exit, entry) {
                    for &e in &route_elements {
                        push(&mut out, e);
                    }
                }
                walk_from_node(e2, m.element, entry, &mut out, &mut push);
            } else {
                push(&mut out, m.element);
            }
        }
        push(&mut out, m.element);
        prev = Some(m);
    }
    out
}

fn elem_index(edge: &Edge, e: ElementId) -> Option<usize> {
    edge.elements.iter().position(|&x| x == e)
}

fn shared_node(a: &Edge, b: &Edge) -> Option<NodeId> {
    [a.from, a.to].into_iter().find(|&n| n == b.from || n == b.to)
}

fn midpoint(e: &Edge) -> Point {
    e.geometry.point_at(e.length_m / 2.0)
}

fn nearest_endpoint(graph: &RoadGraph, e: &Edge, target: Point) -> NodeId {
    let df = graph.node_point(e.from).distance_sq(target);
    let dt = graph.node_point(e.to).distance_sq(target);
    if df <= dt {
        e.from
    } else {
        e.to
    }
}

/// Pushes the elements of `edge` from `from_elem` (exclusive) out to the
/// `node` end (inclusive).
fn walk_to_node(
    edge: &Edge,
    from_elem: ElementId,
    node: NodeId,
    out: &mut Vec<ElementId>,
    push: &mut impl FnMut(&mut Vec<ElementId>, ElementId),
) {
    let Some(i) = elem_index(edge, from_elem) else { return };
    if node == edge.to {
        for e in &edge.elements[i + 1..] {
            push(out, *e);
        }
    } else {
        for e in edge.elements[..i].iter().rev() {
            push(out, *e);
        }
    }
}

/// Pushes the elements of `edge` from the `node` end up to `to_elem`
/// (exclusive — the caller pushes the target element itself).
fn walk_from_node(
    edge: &Edge,
    to_elem: ElementId,
    node: NodeId,
    out: &mut Vec<ElementId>,
    push: &mut impl FnMut(&mut Vec<ElementId>, ElementId),
) {
    let Some(i) = elem_index(edge, to_elem) else { return };
    if node == edge.from {
        for e in &edge.elements[..i] {
            push(out, *e);
        }
    } else {
        for e in edge.elements[i + 1..].iter().rev() {
            push(out, *e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxitrace_geo::{GeoPoint, LocalProjection, Polyline};
    use taxitrace_roadnet::{FlowDirection, FunctionalClass, TrafficElement};

    fn elem(id: u64, pts: &[(f64, f64)]) -> TrafficElement {
        TrafficElement {
            id: ElementId(id),
            geometry: Polyline::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect())
                .unwrap(),
            class: FunctionalClass::Local,
            speed_limit_kmh: 40.0,
            flow: FlowDirection::Both,
        }
    }

    /// A straight street split into 3 elements between two junctions, plus
    /// stubs, and a second street after a missing middle (gap).
    fn setup() -> (RoadGraph, Vec<TrafficElement>) {
        let els = vec![
            elem(1, &[(0.0, 0.0), (100.0, 0.0)]),
            elem(2, &[(100.0, 0.0), (200.0, 0.0)]),
            elem(3, &[(200.0, 0.0), (300.0, 0.0)]),
            // stubs at junctions
            elem(10, &[(0.0, 0.0), (0.0, 50.0)]),
            elem(11, &[(0.0, 0.0), (0.0, -50.0)]),
            elem(12, &[(300.0, 0.0), (300.0, 50.0)]),
            elem(13, &[(300.0, 0.0), (300.0, -50.0)]),
            // continuation east
            elem(4, &[(300.0, 0.0), (400.0, 0.0)]),
            elem(14, &[(400.0, 0.0), (400.0, 50.0)]),
            elem(15, &[(400.0, 0.0), (400.0, -50.0)]),
        ];
        let g = RoadGraph::build(&els, LocalProjection::new(GeoPoint::new(25.0, 65.0)))
            .unwrap();
        (g, els)
    }

    fn mp(i: usize, g: &RoadGraph, e: u64, off: f64) -> MatchedPoint {
        let edge = g.edge_of_element(ElementId(e)).unwrap();
        MatchedPoint { point_index: i, element: ElementId(e), edge, distance_m: 2.0, offset_m: off }
    }

    #[test]
    fn same_edge_walks_intermediate_elements() {
        let (g, _els) = setup();
        // Matched on element 1 then element 3 (element 2 skipped by sampling).
        let matched = vec![mp(0, &g, 1, 50.0), mp(1, &g, 3, 50.0)];
        let path = element_path(&g, &matched, true);
        assert_eq!(path, vec![ElementId(1), ElementId(2), ElementId(3)]);
    }

    #[test]
    fn same_edge_reverse_direction() {
        let (g, _els) = setup();
        let matched = vec![mp(0, &g, 3, 50.0), mp(1, &g, 1, 50.0)];
        let path = element_path(&g, &matched, true);
        assert_eq!(path, vec![ElementId(3), ElementId(2), ElementId(1)]);
    }

    #[test]
    fn adjacent_edges_join_at_junction() {
        let (g, _els) = setup();
        // Element 2 (middle of first edge) then element 4 (next edge).
        let matched = vec![mp(0, &g, 2, 50.0), mp(1, &g, 4, 50.0)];
        let path = element_path(&g, &matched, true);
        assert_eq!(path, vec![ElementId(2), ElementId(3), ElementId(4)]);
    }

    #[test]
    fn dedup_consecutive() {
        let (g, _els) = setup();
        let matched = vec![mp(0, &g, 1, 10.0), mp(1, &g, 1, 60.0), mp(2, &g, 2, 10.0)];
        let path = element_path(&g, &matched, true);
        assert_eq!(path, vec![ElementId(1), ElementId(2)]);
    }

    #[test]
    fn empty_matches() {
        let (g, _els) = setup();
        assert!(element_path(&g, &[], true).is_empty());
    }

    /// A zero expansion budget forces the gap-fill fallback: the element
    /// sequence jumps the gap and the fallback is counted. Lifting the
    /// budget on the same scratch routes the gap again.
    #[test]
    fn exhausted_budget_falls_back_to_a_jump() {
        let (g, _els) = setup();
        let matched = vec![mp(0, &g, 10, 25.0), mp(1, &g, 14, 25.0)];
        let mut scratch = MatchScratch::new();
        let starved = element_path_budgeted(&mut scratch, &g, &matched, true, 0);
        assert_eq!(scratch.gaps_budget_exhausted, 1);
        // The fallback equals gap_fill = false for that transition.
        let unfilled = element_path(&g, &matched, false);
        assert_eq!(starved, unfilled);
        let full = element_path_budgeted(&mut scratch, &g, &matched, true, u64::MAX);
        assert_eq!(full, element_path(&g, &matched, true));
        assert_eq!(scratch.gaps_budget_exhausted, 1, "no new fallbacks");
    }

    /// A generous budget is observationally identical to unbudgeted fill.
    #[test]
    fn generous_budget_matches_unbudgeted() {
        let (g, _els) = setup();
        let matched = vec![mp(0, &g, 10, 25.0), mp(1, &g, 14, 25.0)];
        let mut scratch = MatchScratch::new();
        let budgeted = element_path_budgeted(&mut scratch, &g, &matched, true, 250_000);
        assert_eq!(budgeted, element_path(&g, &matched, true));
        assert_eq!(scratch.gaps_budget_exhausted, 0);
    }
}
