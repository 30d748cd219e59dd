//! Shortest paths over the road graph: goal-directed A* and a plain
//! Dijkstra reference.
//!
//! The paper uses "the Dijkstra Shortest Path algorithm from pgRouting … to
//! fill the gaps, when data points are too far from each other" during
//! map-matching. Our fleet simulator additionally uses weighted variants for
//! free route choice (taxi drivers pick routes "based on their own silent
//! knowledge", which we model as perturbed edge costs).
//!
//! The hot path is [`astar`]/[`astar_with`]: same results as
//! [`shortest_path`], bit for bit — including which of several equal-cost
//! paths is returned — but expanding far fewer nodes on goal-directed
//! queries, and (via [`SearchState`]) without per-query allocation. The
//! plain Dijkstra is kept as the reference implementation that the A*
//! variants are tested against.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use taxitrace_geo::{Point, Polyline};

use crate::{Edge, EdgeId, NodeId, RoadGraph};

/// Edge cost model for shortest paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostModel {
    /// Minimise travelled metres.
    Distance,
    /// Minimise free-flow travel time (length / speed limit).
    TravelTime,
}

impl CostModel {
    /// Cost of one edge under this model.
    #[inline]
    pub fn cost(&self, e: &Edge) -> f64 {
        match self {
            CostModel::Distance => e.length_m,
            // km/h → m/s.
            CostModel::TravelTime => e.length_m / (e.speed_limit_kmh / 3.6),
        }
    }
}

/// A shortest path through the road graph.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutePath {
    /// Visited vertices, source first.
    pub nodes: Vec<NodeId>,
    /// Traversed edges (`nodes.len() - 1` of them).
    pub edges: Vec<EdgeId>,
    /// Total cost under the query's model.
    pub cost: f64,
    /// Total length in metres.
    pub length_m: f64,
}

impl RoutePath {
    /// Merged geometry of the path, oriented source → target.
    ///
    /// Returns `None` for a trivial path (source == target, no edges).
    pub fn polyline(&self, graph: &RoadGraph) -> Option<Polyline> {
        Polyline::join(self.edges.iter().zip(&self.nodes).map(|(&eid, &at)| {
            let e = graph.edge(eid);
            (&e.geometry, e.from != at)
        }))
    }

    /// Traffic-element id sequence of the path, in travel order.
    pub fn element_ids(&self, graph: &RoadGraph) -> Vec<crate::ElementId> {
        let mut out = Vec::new();
        for (i, &eid) in self.edges.iter().enumerate() {
            let e = graph.edge(eid);
            if e.from == self.nodes[i] {
                out.extend(e.elements.iter().copied());
            } else {
                out.extend(e.elements.iter().rev().copied());
            }
        }
        out
    }
}

#[derive(Debug, PartialEq)]
struct QueueItem {
    cost: f64,
    node: NodeId,
}

impl Eq for QueueItem {}

impl Ord for QueueItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on cost; ties broken by node id for determinism.
        // `total_cmp` matches `partial_cmp` for the finite non-negative
        // costs produced here and cannot panic on a rogue NaN weight.
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for QueueItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Shortest path with a caller-supplied edge weight.
///
/// `weight` must return a non-negative cost for every edge; the simulator
/// passes randomly perturbed costs here to model individual route choice.
pub fn shortest_path_weighted(
    graph: &RoadGraph,
    from: NodeId,
    to: NodeId,
    mut weight: impl FnMut(&Edge) -> f64,
) -> Option<RoutePath> {
    let n = graph.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[from.0 as usize] = 0.0;
    heap.push(QueueItem { cost: 0.0, node: from });

    while let Some(QueueItem { cost, node }) = heap.pop() {
        if node == to {
            break;
        }
        if cost > dist[node.0 as usize] {
            continue; // stale entry
        }
        for &(eid, nb) in graph.neighbors(node) {
            let w = weight(graph.edge(eid));
            debug_assert!(w >= 0.0, "negative edge weight");
            let next = cost + w;
            if next < dist[nb.0 as usize] {
                dist[nb.0 as usize] = next;
                prev[nb.0 as usize] = Some((node, eid));
                heap.push(QueueItem { cost: next, node: nb });
            }
        }
    }

    if dist[to.0 as usize].is_infinite() {
        return None;
    }
    // Reconstruct.
    let mut nodes = vec![to];
    let mut edges = Vec::new();
    let mut cur = to;
    while cur != from {
        let Some((p, e)) = prev[cur.0 as usize] else {
            debug_assert!(false, "reachable node {cur:?} has no predecessor");
            return None;
        };
        nodes.push(p);
        edges.push(e);
        cur = p;
    }
    nodes.reverse();
    edges.reverse();
    let length_m = edges.iter().map(|&e| graph.edge(e).length_m).sum();
    Some(RoutePath { nodes, edges, cost: dist[to.0 as usize], length_m })
}

/// Shortest path under a standard [`CostModel`].
pub fn shortest_path(
    graph: &RoadGraph,
    from: NodeId,
    to: NodeId,
    model: CostModel,
) -> Option<RoutePath> {
    shortest_path_weighted(graph, from, to, |e| model.cost(e))
}

/// Shrink factor applied to every heuristic so float rounding in `g + h`
/// can never push an estimate above the true remaining cost. The slack it
/// buys per edge (`1e-9 ×` edge weight) dwarfs the ~1 ulp accumulation of
/// the additions, keeping the heuristic strictly consistent *as computed*.
const HEURISTIC_SHRINK: f64 = 1.0 - 1e-9;

/// A* queue entry ordered as a min-heap on `(f, g, node)`.
///
/// The `g` tie-break is load-bearing for exactness: the goal enters the
/// heap with `h = 0`, i.e. `g = f`, the largest possible `g` among entries
/// with equal `f`. Ordering equal-`f` entries by ascending `g` therefore
/// pops the goal *last* in its cost class, guaranteeing every node with
/// `f ≤ C*` — in particular every predecessor that ties on an optimal
/// path — has been expanded before the search terminates.
#[derive(Debug, Clone, PartialEq)]
struct AstarItem {
    f: f64,
    g: f64,
    node: NodeId,
}

impl Eq for AstarItem {}

impl Ord for AstarItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // See `QueueItem::cmp`: total order without a panic path.
        other
            .f
            .total_cmp(&self.f)
            .then_with(|| other.g.total_cmp(&self.g))
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for AstarItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable A* scratch space with generation-stamped entries.
///
/// A search normally needs `dist`/`prev` arrays the size of the whole
/// graph, re-zeroed per query — an O(|V|) tax on queries that touch a few
/// hundred nodes. Here every slot carries the generation that last wrote
/// it; bumping the generation invalidates all slots in O(1), and a slot
/// whose stamp disagrees with the current generation reads as "unvisited".
/// Hold one `SearchState` per worker thread and route queries through
/// [`astar_with`] to eliminate per-query allocation entirely.
#[derive(Debug, Default, Clone)]
pub struct SearchState {
    generation: u32,
    stamp: Vec<u32>,
    dist: Vec<f64>,
    prev: Vec<Option<(NodeId, EdgeId)>>,
    heap: BinaryHeap<AstarItem>,
    expanded: u64,
    expanded_total: u64,
}

impl SearchState {
    pub fn new() -> Self {
        Self::default()
    }

    /// Nodes expanded (popped non-stale) by the most recent query.
    pub fn expanded(&self) -> u64 {
        self.expanded
    }

    /// Nodes expanded over every query this state has run.
    pub fn expanded_total(&self) -> u64 {
        self.expanded_total + self.expanded
    }

    /// Starts a new query over a graph of `n` nodes: grows the arrays if
    /// needed and invalidates all previous entries in O(1).
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, f64::INFINITY);
            self.prev.resize(n, None);
        }
        self.generation = match self.generation.checked_add(1) {
            Some(g) => g,
            None => {
                // Generation wrapped: all stamps are stale by definition,
                // reset them so stamp 0 < generation 1 reads unvisited.
                self.stamp.fill(0);
                1
            }
        };
        self.heap.clear();
        self.expanded_total += self.expanded;
        self.expanded = 0;
    }

    #[inline]
    fn dist_of(&self, n: NodeId) -> f64 {
        let i = n.0 as usize;
        if self.stamp[i] == self.generation {
            self.dist[i]
        } else {
            f64::INFINITY
        }
    }

    #[inline]
    fn record(&mut self, n: NodeId, dist: f64, prev: Option<(NodeId, EdgeId)>) {
        let i = n.0 as usize;
        self.stamp[i] = self.generation;
        self.dist[i] = dist;
        self.prev[i] = prev;
    }

    /// Canonical equal-cost tie-break, matching what plain Dijkstra's pop
    /// order produces implicitly: among predecessors achieving the same
    /// `dist[nb]`, keep the one with the smallest `(dist, node id)`; for
    /// several equal-cost edges from that same predecessor, keep the first
    /// in adjacency order (the incumbent).
    #[inline]
    fn tie_update(&mut self, nb: NodeId, cand_dist: f64, cand: NodeId, edge: EdgeId) {
        let i = nb.0 as usize;
        if let Some((held, _)) = self.prev[i] {
            let held_key = (self.dist_of(held), held.0);
            if (cand_dist, cand.0) < held_key {
                self.prev[i] = Some((cand, edge));
            }
        }
    }
}

/// How a budgeted search ended.
///
/// [`astar_bounded`] distinguishes "the goal is unreachable" from "the
/// search ran out of budget before deciding": callers fall back
/// differently (an unreachable pair can be cached forever, an exhausted
/// budget is a property of the budget, not the graph).
#[derive(Debug, Clone, PartialEq)]
pub enum SearchOutcome {
    /// The optimal path, identical to an unbudgeted [`astar_with`] run.
    Found(RoutePath),
    /// The search space was exhausted without reaching the goal; no
    /// budget was hit. The pair is genuinely disconnected.
    Unreachable,
    /// The expansion budget ran out before the goal was settled.
    BudgetExhausted {
        /// Nodes expanded when the search gave up (== the budget).
        expanded: u64,
    },
}

impl SearchOutcome {
    /// The found path, if any — collapses the two failure modes.
    pub fn into_path(self) -> Option<RoutePath> {
        match self {
            SearchOutcome::Found(path) => Some(path),
            SearchOutcome::Unreachable | SearchOutcome::BudgetExhausted { .. } => None,
        }
    }
}

/// Goal-directed shortest path under a standard [`CostModel`], reusing
/// `state` across calls.
///
/// Exactly equivalent to [`shortest_path`] — same cost, same node and
/// edge sequence even when several optimal paths tie — while expanding
/// only nodes whose optimistic estimate does not exceed the optimum.
pub fn astar_with(
    state: &mut SearchState,
    graph: &RoadGraph,
    from: NodeId,
    to: NodeId,
    model: CostModel,
) -> Option<RoutePath> {
    astar_bounded(state, graph, from, to, model, u64::MAX).into_path()
}

/// [`astar_with`] with a hard cap on node expansions.
///
/// With `max_expansions = u64::MAX` the behaviour (including the exact
/// tie-break sequence and the `expanded` counters) is bit-identical to
/// [`astar_with`]. With a finite budget the search stops as soon as it
/// would expand node number `max_expansions + 1`, returning
/// [`SearchOutcome::BudgetExhausted`] instead of looping unbounded on
/// adversarial inputs.
pub fn astar_bounded(
    state: &mut SearchState,
    graph: &RoadGraph,
    from: NodeId,
    to: NodeId,
    model: CostModel,
    max_expansions: u64,
) -> SearchOutcome {
    // Admissible lower bound per metre of straight-line displacement:
    // a metre of distance costs at least 1.0 under `Distance`, and at
    // least 1/v_max seconds under `TravelTime` (no edge is faster than
    // the network-wide speed-limit maximum, and no path is shorter than
    // the straight line).
    let h_scale = match model {
        CostModel::Distance => 1.0,
        CostModel::TravelTime => {
            let v_max_ms = graph.max_speed_limit_kmh() / 3.6;
            if v_max_ms > 0.0 {
                1.0 / v_max_ms
            } else {
                0.0
            }
        }
    };
    astar_weighted_bounded(state, graph, from, to, |e| model.cost(e), h_scale, max_expansions)
}

/// Goal-directed shortest path under a standard [`CostModel`] with
/// one-shot scratch space. Prefer [`astar_with`] on hot paths.
pub fn astar(graph: &RoadGraph, from: NodeId, to: NodeId, model: CostModel) -> Option<RoutePath> {
    astar_with(&mut SearchState::new(), graph, from, to, model)
}

/// Goal-directed shortest path with a caller-supplied edge weight and an
/// admissibility scale for the straight-line heuristic.
///
/// `h_scale` must satisfy `weight(e) ≥ h_scale × straight-line length of
/// e` for every edge, so that `h_scale × straight-line distance to goal`
/// never overestimates the remaining cost. Pass `0.0` to disable the
/// heuristic entirely (plain Dijkstra order with reusable state). The
/// simulator passes perturbed travel-time weights with
/// `h_scale = min over edges of weight(e) / length(e)`.
pub fn astar_weighted_with(
    state: &mut SearchState,
    graph: &RoadGraph,
    from: NodeId,
    to: NodeId,
    weight: impl FnMut(&Edge) -> f64,
    h_scale: f64,
) -> Option<RoutePath> {
    astar_weighted_bounded(state, graph, from, to, weight, h_scale, u64::MAX).into_path()
}

/// [`astar_weighted_with`] with a hard cap on node expansions; see
/// [`astar_bounded`] for the budget semantics.
pub fn astar_weighted_bounded(
    state: &mut SearchState,
    graph: &RoadGraph,
    from: NodeId,
    to: NodeId,
    mut weight: impl FnMut(&Edge) -> f64,
    h_scale: f64,
    max_expansions: u64,
) -> SearchOutcome {
    debug_assert!(h_scale >= 0.0, "heuristic scale must be non-negative");
    state.begin(graph.num_nodes());
    let goal: Point = graph.node_point(to);
    let scale = h_scale * HEURISTIC_SHRINK;
    let h = |n: NodeId| graph.node_point(n).distance(goal) * scale;

    state.record(from, 0.0, None);
    state.heap.push(AstarItem { f: h(from), g: 0.0, node: from });

    while let Some(AstarItem { g, node, .. }) = state.heap.pop() {
        if node == to {
            break;
        }
        if g > state.dist_of(node) {
            continue; // stale entry
        }
        if state.expanded >= max_expansions {
            // The next expansion would blow the budget: give up before
            // settling another node so `expanded` never exceeds the cap.
            state.heap.clear();
            return SearchOutcome::BudgetExhausted { expanded: state.expanded };
        }
        state.expanded += 1;
        for &(eid, nb) in graph.neighbors(node) {
            let w = weight(graph.edge(eid));
            debug_assert!(w >= 0.0, "negative edge weight");
            let next = g + w;
            let cur = state.dist_of(nb);
            if next < cur {
                state.record(nb, next, Some((node, eid)));
                state.heap.push(AstarItem { f: next + h(nb), g: next, node: nb });
            } else if next == cur {
                state.tie_update(nb, g, node, eid);
            }
        }
    }
    state.heap.clear();

    if !state.dist_of(to).is_finite() {
        return SearchOutcome::Unreachable;
    }
    // Reconstruct, identically to the Dijkstra reference.
    let mut nodes = vec![to];
    let mut edges = Vec::new();
    let mut cur = to;
    while cur != from {
        let Some((p, e)) = state.prev[cur.0 as usize] else {
            debug_assert!(false, "reachable node {cur:?} has no predecessor");
            return SearchOutcome::Unreachable;
        };
        nodes.push(p);
        edges.push(e);
        cur = p;
    }
    nodes.reverse();
    edges.reverse();
    let length_m = edges.iter().map(|&e| graph.edge(e).length_m).sum();
    SearchOutcome::Found(RoutePath { nodes, edges, cost: state.dist_of(to), length_m })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ElementId, FlowDirection, FunctionalClass, TrafficElement};
    use taxitrace_geo::{GeoPoint, LocalProjection, Point, Polyline};

    fn elem(id: u64, pts: &[(f64, f64)], flow: FlowDirection, limit: f64) -> TrafficElement {
        TrafficElement {
            id: ElementId(id),
            geometry: Polyline::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect())
                .unwrap(),
            class: FunctionalClass::Local,
            speed_limit_kmh: limit,
            flow,
        }
    }

    fn proj() -> LocalProjection {
        LocalProjection::new(GeoPoint::new(25.4651, 65.0121))
    }

    /// A square with a diagonal shortcut that has a low speed limit:
    ///
    /// ```text
    /// (0,100) --- (100,100)
    ///    |      /    |
    /// (0,0) ---- (100,0)
    /// ```
    fn square() -> RoadGraph {
        let mut els = vec![
            elem(1, &[(0.0, 0.0), (100.0, 0.0)], FlowDirection::Both, 50.0),
            elem(2, &[(100.0, 0.0), (100.0, 100.0)], FlowDirection::Both, 50.0),
            elem(3, &[(0.0, 0.0), (0.0, 100.0)], FlowDirection::Both, 50.0),
            elem(4, &[(0.0, 100.0), (100.0, 100.0)], FlowDirection::Both, 50.0),
            elem(5, &[(0.0, 0.0), (100.0, 100.0)], FlowDirection::Both, 10.0),
        ];
        els.extend(corner_stubs(10));
        RoadGraph::build(&els, proj()).unwrap()
    }

    /// Short dead-end stubs at the four square corners so every corner is a
    /// junction (otherwise degree-2 corners merge into chains).
    fn corner_stubs(base_id: u64) -> Vec<TrafficElement> {
        [(0.0, 0.0), (100.0, 0.0), (0.0, 100.0), (100.0, 100.0)]
            .iter()
            .enumerate()
            .map(|(k, &(x, y))| {
                elem(
                    base_id + k as u64,
                    &[(x, y), (x - 10.0, y - 10.0)],
                    FlowDirection::Both,
                    30.0,
                )
            })
            .collect()
    }

    #[test]
    fn distance_prefers_diagonal() {
        let g = square();
        let a = g.nearest_node(Point::new(0.0, 0.0));
        let b = g.nearest_node(Point::new(100.0, 100.0));
        let p = shortest_path(&g, a, b, CostModel::Distance).unwrap();
        assert_eq!(p.edges.len(), 1);
        assert!((p.length_m - 141.42).abs() < 0.1);
    }

    #[test]
    fn travel_time_avoids_slow_diagonal() {
        let g = square();
        let a = g.nearest_node(Point::new(0.0, 0.0));
        let b = g.nearest_node(Point::new(100.0, 100.0));
        let p = shortest_path(&g, a, b, CostModel::TravelTime).unwrap();
        // Around: 200 m at 50 km/h = 14.4 s; diagonal: 141 m at 10 km/h = 50.9 s.
        assert_eq!(p.edges.len(), 2);
        assert!((p.length_m - 200.0).abs() < 1e-6);
    }

    #[test]
    fn trivial_path() {
        let g = square();
        let a = g.nearest_node(Point::new(0.0, 0.0));
        let p = shortest_path(&g, a, a, CostModel::Distance).unwrap();
        assert!(p.edges.is_empty());
        assert_eq!(p.cost, 0.0);
        assert!(p.polyline(&g).is_none());
    }

    #[test]
    fn unreachable_returns_none() {
        // Two disconnected components.
        let els = vec![
            elem(1, &[(0.0, 0.0), (100.0, 0.0)], FlowDirection::Both, 50.0),
            elem(2, &[(1000.0, 0.0), (1100.0, 0.0)], FlowDirection::Both, 50.0),
        ];
        let g = RoadGraph::build(&els, proj()).unwrap();
        let a = g.nearest_node(Point::new(0.0, 0.0));
        let b = g.nearest_node(Point::new(1100.0, 0.0));
        assert!(shortest_path(&g, a, b, CostModel::Distance).is_none());
    }

    #[test]
    fn bounded_search_distinguishes_unreachable_from_exhausted() {
        let els = vec![
            elem(1, &[(0.0, 0.0), (100.0, 0.0)], FlowDirection::Both, 50.0),
            elem(2, &[(1000.0, 0.0), (1100.0, 0.0)], FlowDirection::Both, 50.0),
        ];
        let g = RoadGraph::build(&els, proj()).unwrap();
        let a = g.nearest_node(Point::new(0.0, 0.0));
        let b = g.nearest_node(Point::new(1100.0, 0.0));
        let mut state = SearchState::new();
        assert_eq!(
            astar_bounded(&mut state, &g, a, b, CostModel::Distance, u64::MAX),
            SearchOutcome::Unreachable
        );
        assert_eq!(
            astar_bounded(&mut state, &g, a, b, CostModel::Distance, 0),
            SearchOutcome::BudgetExhausted { expanded: 0 }
        );
    }

    #[test]
    fn tiny_budget_exhausts_instead_of_searching() {
        let g = square();
        let a = g.nearest_node(Point::new(0.0, 0.0));
        let b = g.nearest_node(Point::new(100.0, 100.0));
        let mut state = SearchState::new();
        let out = astar_bounded(&mut state, &g, a, b, CostModel::TravelTime, 1);
        assert_eq!(out, SearchOutcome::BudgetExhausted { expanded: 1 });
        assert_eq!(state.expanded(), 1);
    }

    #[test]
    fn huge_budget_is_bit_identical_to_unbounded() {
        let g = square();
        let mut state = SearchState::new();
        for a in 0..g.num_nodes() {
            for b in 0..g.num_nodes() {
                let (a, b) = (NodeId(a as u32), NodeId(b as u32));
                let unbounded = astar_with(&mut state, &g, a, b, CostModel::Distance);
                let bounded =
                    astar_bounded(&mut state, &g, a, b, CostModel::Distance, u64::MAX)
                        .into_path();
                assert_eq!(unbounded, bounded);
            }
        }
    }

    #[test]
    fn one_way_respected() {
        // One-way ring: can go clockwise only. Corner stubs make every
        // corner a junction.
        let mut els = vec![
            elem(1, &[(0.0, 0.0), (100.0, 0.0)], FlowDirection::WithDigitization, 50.0),
            elem(2, &[(100.0, 0.0), (100.0, 100.0)], FlowDirection::WithDigitization, 50.0),
            elem(3, &[(100.0, 100.0), (0.0, 100.0)], FlowDirection::WithDigitization, 50.0),
            elem(4, &[(0.0, 100.0), (0.0, 0.0)], FlowDirection::WithDigitization, 50.0),
        ];
        els.extend(corner_stubs(10));
        let els = els;
        let g = RoadGraph::build(&els, proj()).unwrap();
        let a = g.nearest_node(Point::new(0.0, 0.0));
        let b = g.nearest_node(Point::new(0.0, 100.0));
        let p = shortest_path(&g, a, b, CostModel::Distance).unwrap();
        // Direct edge is one-way the wrong way; must go around: 300 m.
        assert!((p.length_m - 300.0).abs() < 1e-6);
    }

    #[test]
    fn polyline_is_contiguous() {
        let g = square();
        let a = g.nearest_node(Point::new(0.0, 100.0));
        let b = g.nearest_node(Point::new(100.0, 0.0));
        let p = shortest_path(&g, a, b, CostModel::Distance).unwrap();
        let line = p.polyline(&g).unwrap();
        assert_eq!(line.start(), Point::new(0.0, 100.0));
        assert_eq!(line.end(), Point::new(100.0, 0.0));
        assert!((line.length() - p.length_m).abs() < 1e-9);
    }

    #[test]
    fn element_ids_in_travel_order() {
        let g = square();
        let a = g.nearest_node(Point::new(0.0, 100.0));
        let b = g.nearest_node(Point::new(100.0, 100.0));
        let p = shortest_path(&g, a, b, CostModel::Distance).unwrap();
        assert_eq!(p.element_ids(&g), vec![ElementId(4)]);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // Floyd–Warshall triple loop
    fn matches_brute_force_on_small_graphs() {
        // Exhaustive check against Floyd-Warshall on the square.
        let g = square();
        let n = g.num_nodes();
        let mut d = vec![vec![f64::INFINITY; n]; n];
        for (i, row) in d.iter_mut().enumerate() {
            row[i] = 0.0;
        }
        for e in g.edges() {
            let (f, t) = (e.from.0 as usize, e.to.0 as usize);
            if e.forward_ok {
                d[f][t] = d[f][t].min(e.length_m);
            }
            if e.backward_ok {
                d[t][f] = d[t][f].min(e.length_m);
            }
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    let via = d[i][k] + d[k][j];
                    if via < d[i][j] {
                        d[i][j] = via;
                    }
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                let got = shortest_path(&g, NodeId(i as u32), NodeId(j as u32), CostModel::Distance);
                match got {
                    Some(p) => assert!((p.cost - d[i][j]).abs() < 1e-6, "{i}->{j}"),
                    None => assert!(d[i][j].is_infinite(), "{i}->{j}"),
                }
            }
        }
    }

    /// Asserts A* and the Dijkstra reference agree bit-for-bit: same
    /// reachability, same cost bits, same node and edge sequence.
    fn assert_same_route(
        state: &mut SearchState,
        g: &RoadGraph,
        a: NodeId,
        b: NodeId,
        model: CostModel,
    ) {
        let reference = shortest_path(g, a, b, model);
        let fast = astar_with(state, g, a, b, model);
        match (reference, fast) {
            (None, None) => {}
            (Some(r), Some(f)) => {
                assert_eq!(
                    r.cost.to_bits(),
                    f.cost.to_bits(),
                    "cost differs {a:?}->{b:?} under {model:?}: {} vs {}",
                    r.cost,
                    f.cost
                );
                assert_eq!(r.nodes, f.nodes, "node sequence differs {a:?}->{b:?} {model:?}");
                assert_eq!(r.edges, f.edges, "edge sequence differs {a:?}->{b:?} {model:?}");
                assert_eq!(r.length_m.to_bits(), f.length_m.to_bits());
            }
            (r, f) => panic!(
                "reachability differs {a:?}->{b:?} {model:?}: dijkstra={} astar={}",
                r.is_some(),
                f.is_some()
            ),
        }
    }

    #[test]
    fn astar_matches_dijkstra_exactly_on_square() {
        let g = square();
        let mut state = SearchState::new();
        for i in 0..g.num_nodes() {
            for j in 0..g.num_nodes() {
                for model in [CostModel::Distance, CostModel::TravelTime] {
                    assert_same_route(&mut state, &g, NodeId(i as u32), NodeId(j as u32), model);
                }
            }
        }
    }

    #[test]
    fn astar_matches_dijkstra_exactly_on_grid_city() {
        // The synthetic city is a regular 150 m grid: equal-cost ties are
        // the norm, not the exception, so this exercises the canonical
        // tie-breaking that keeps A* output byte-identical to Dijkstra's.
        let city = crate::synth::generate(&crate::synth::OuluConfig::default());
        let g = &city.graph;
        let n = g.num_nodes() as u32;
        let mut state = SearchState::new();
        let mut pair = 0u32;
        for a in (0..n).step_by(23) {
            for b in (0..n).step_by(17) {
                let model = if pair.is_multiple_of(2) { CostModel::Distance } else { CostModel::TravelTime };
                assert_same_route(&mut state, g, NodeId(a), NodeId(b), model);
                pair += 1;
            }
        }
        assert!(pair > 100, "expected a meaningful sample, got {pair} pairs");
    }

    #[test]
    fn weighted_astar_matches_weighted_dijkstra() {
        // Deterministic per-edge perturbation standing in for the
        // simulator's log-normal route noise.
        let city = crate::synth::generate(&crate::synth::OuluConfig::default());
        let g = &city.graph;
        let noise = |e: &Edge| 1.0 + 0.5 * (((e.id.0 as u64).wrapping_mul(2654435761) % 97) as f64 / 97.0);
        let weight = |e: &Edge| CostModel::TravelTime.cost(e) * noise(e);
        let h_scale = g
            .edges()
            .iter()
            .map(|e| weight(e) / e.length_m)
            .fold(f64::INFINITY, f64::min);
        let mut state = SearchState::new();
        for (a, b) in [(0u32, 140u32), (3, 77), (55, 199), (120, 4), (60, 61)] {
            let a = NodeId(a % g.num_nodes() as u32);
            let b = NodeId(b % g.num_nodes() as u32);
            let reference = shortest_path_weighted(g, a, b, weight);
            let fast = astar_weighted_with(&mut state, g, a, b, weight, h_scale);
            match (reference, fast) {
                (None, None) => {}
                (Some(r), Some(f)) => {
                    assert_eq!(r.cost.to_bits(), f.cost.to_bits());
                    assert_eq!(r.nodes, f.nodes);
                    assert_eq!(r.edges, f.edges);
                }
                _ => panic!("weighted reachability differs {a:?}->{b:?}"),
            }
        }
    }

    #[test]
    fn astar_expands_fewer_nodes_than_dijkstra_order() {
        let city = crate::synth::generate(&crate::synth::OuluConfig::default());
        let g = &city.graph;
        // Cross-city query along one axis: the straight-line bound is
        // tight there, which is the typical gap-fill shape (successive
        // match candidates sit along the travelled road). On a perfect
        // grid a corner-to-corner diagonal is instead the worst case for
        // an l2 heuristic (every monotone staircase ties), so that shape
        // gains much less.
        let a = g.nearest_node(Point::new(-1000.0, 0.0));
        let b = g.nearest_node(Point::new(1000.0, 0.0));
        let mut state = SearchState::new();
        astar_with(&mut state, g, a, b, CostModel::Distance).expect("connected city");
        let goal_directed = state.expanded();
        // h_scale = 0 degrades A* to Dijkstra's expansion order.
        astar_weighted_with(&mut state, g, a, b, |e| CostModel::Distance.cost(e), 0.0)
            .expect("connected city");
        let blind = state.expanded();
        assert!(
            goal_directed * 2 < blind,
            "expected goal direction to at least halve expansions: {goal_directed} vs {blind}"
        );
    }

    #[test]
    fn search_state_reuse_is_clean_across_queries() {
        // Back-to-back queries through one state must match fresh-state
        // results: the generation stamp isolates queries completely.
        let g = square();
        let mut reused = SearchState::new();
        let pairs: Vec<(u32, u32)> =
            (0..g.num_nodes() as u32).flat_map(|i| [(i, 0), (0, i), (i, i)]).collect();
        for &(a, b) in &pairs {
            let fresh = astar(&g, NodeId(a), NodeId(b), CostModel::TravelTime);
            let warm = astar_with(&mut reused, &g, NodeId(a), NodeId(b), CostModel::TravelTime);
            assert_eq!(fresh.is_some(), warm.is_some());
            if let (Some(f), Some(w)) = (fresh, warm) {
                assert_eq!(f.cost.to_bits(), w.cost.to_bits());
                assert_eq!(f.nodes, w.nodes);
                assert_eq!(f.edges, w.edges);
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::synth::{generate, OuluConfig};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// A* returns the same cost as the Dijkstra reference — and a
        /// valid path achieving it — on random synthetic cities under
        /// both cost models.
        #[test]
        fn astar_equals_dijkstra_on_random_cities(
            seed in 0u64..10_000,
            pairs in proptest::collection::vec((0u32..100_000, 0u32..100_000), 8..20),
        ) {
            let city = generate(&OuluConfig { seed, ..OuluConfig::default() });
            let g = &city.graph;
            let n = g.num_nodes() as u32;
            let mut state = SearchState::new();
            for &(raw_a, raw_b) in &pairs {
                let (a, b) = (NodeId(raw_a % n), NodeId(raw_b % n));
                for model in [CostModel::Distance, CostModel::TravelTime] {
                    let reference = shortest_path(g, a, b, model);
                    let fast = astar_with(&mut state, g, a, b, model);
                    prop_assert_eq!(reference.is_some(), fast.is_some());
                    if let (Some(r), Some(f)) = (reference, fast) {
                        prop_assert_eq!(r.cost.to_bits(), f.cost.to_bits());
                        prop_assert_eq!(r.nodes, f.nodes);
                        prop_assert_eq!(r.edges, f.edges);
                        // The returned path is well-formed: consecutive
                        // nodes joined by the listed edges, cost equal to
                        // the sum of edge costs.
                        let mut acc = 0.0f64;
                        for (i, &eid) in f.edges.iter().enumerate() {
                            let e = g.edge(eid);
                            let ok = (e.from == f.nodes[i] && e.to == f.nodes[i + 1])
                                || (e.to == f.nodes[i] && e.from == f.nodes[i + 1]);
                            prop_assert!(ok, "edge {eid:?} does not join nodes {i},{}", i + 1);
                            acc += model.cost(e);
                        }
                        prop_assert!((acc - f.cost).abs() <= 1e-9 * acc.max(1.0));
                    }
                }
            }
        }
    }
}
