use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};
use taxitrace_geo::{BBox, GeoPoint, LocalProjection, Point, Polyline};

use crate::{
    ElementId, EndpointKey, EndpointTable, FunctionalClass, TrafficElement,
};

/// Vertex identifier in the road graph.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct NodeId(pub u32);

/// Edge identifier in the road graph.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct EdgeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Error during graph construction.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// No traffic elements were supplied.
    Empty,
    /// A chain of one-way elements had inconsistent directions, leaving the
    /// edge impassable both ways.
    ImpassableChain { elements: Vec<ElementId> },
    /// An internal chain-walking invariant did not hold — the endpoint
    /// table and the element list disagree. Indicates corrupt input rather
    /// than a recoverable condition, but callers still get a clean error.
    Inconsistent(&'static str),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Empty => write!(f, "no traffic elements supplied"),
            GraphError::ImpassableChain { elements } => {
                write!(f, "element chain {elements:?} is impassable in both directions")
            }
            GraphError::Inconsistent(what) => {
                write!(f, "inconsistent road-network input: {what}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A road-graph edge: a chain of traffic elements between two junctions
/// merged into a single geometry, exactly as the paper's Table 1 constructs
/// "single elements created from an array of smaller traffic elements".
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Edge {
    pub id: EdgeId,
    pub from: NodeId,
    pub to: NodeId,
    /// Contributing traffic-element ids, in chain order from `from` to `to`.
    pub elements: Vec<ElementId>,
    /// Merged centre-line geometry, oriented from `from` to `to`.
    pub geometry: Polyline,
    /// Total length in metres.
    pub length_m: f64,
    /// Most restrictive speed limit along the chain, km/h.
    pub speed_limit_kmh: f64,
    /// Most significant functional class along the chain.
    pub class: FunctionalClass,
    /// Whether traffic may traverse from `from` to `to`.
    pub forward_ok: bool,
    /// Whether traffic may traverse from `to` to `from`.
    pub backward_ok: bool,
}

impl Edge {
    /// Whether the edge carries traffic in both directions.
    #[inline]
    pub fn is_two_way(&self) -> bool {
        self.forward_ok && self.backward_ok
    }
}

/// One row of the paper's Table 1: a junction pair with the contributing
/// element ids, in `EPSG:4326`.
#[derive(Debug, Clone, PartialEq)]
pub struct JunctionPair {
    pub junction1: GeoPoint,
    pub elements: Vec<ElementId>,
    pub junction2: GeoPoint,
}

impl fmt::Display for JunctionPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ids: Vec<String> = self.elements.iter().map(|e| e.to_string()).collect();
        write!(f, "{} {{{}}} {}", self.junction1, ids.join(","), self.junction2)
    }
}

/// The reconstructed road-network graph `G = {V, E}` of §IV-A.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoadGraph {
    nodes: Vec<Point>,
    edges: Vec<Edge>,
    /// Outgoing adjacency respecting one-way restrictions:
    /// `out[node] = [(edge, neighbour)]`.
    out: Vec<Vec<(EdgeId, NodeId)>>,
    /// Which edge a traffic element was merged into.
    element_edge: HashMap<ElementId, EdgeId>,
    /// Projection between the planar frame and WGS-84.
    projection: LocalProjection,
    /// Fastest speed limit in the network (km/h), cached at build time for
    /// the A* travel-time heuristic.
    max_speed_limit_kmh: f64,
}

impl RoadGraph {
    /// Reconstructs the graph from traffic elements (§IV-A map preparation).
    ///
    /// Endpoints are classified with [`EndpointTable`]; chains of elements
    /// joined at intermediate points are merged into single edges between
    /// junction/dead-end vertices. Deterministic: vertices and edges are
    /// numbered in sorted endpoint-key order.
    pub fn build(
        elements: &[TrafficElement],
        projection: LocalProjection,
    ) -> Result<Self, GraphError> {
        if elements.is_empty() {
            return Err(GraphError::Empty);
        }
        let table = EndpointTable::build(elements);

        // Collect vertex keys (junctions + dead ends) in deterministic order.
        let mut vertex_keys: Vec<EndpointKey> = table
            .iter()
            .filter(|(_, kind)| kind.is_graph_vertex())
            .map(|(k, _)| k)
            .collect();
        vertex_keys.sort_unstable();
        let mut node_of: HashMap<EndpointKey, NodeId> =
            HashMap::with_capacity(vertex_keys.len());
        let mut nodes = Vec::with_capacity(vertex_keys.len());
        for key in &vertex_keys {
            node_of.insert(*key, NodeId(nodes.len() as u32));
            nodes.push(key.point());
        }

        let mut visited = vec![false; elements.len()];
        let mut edges: Vec<Edge> = Vec::new();
        let mut element_edge = HashMap::with_capacity(elements.len());

        // Walk chains starting from every vertex.
        for key in &vertex_keys {
            let info = table
                .info(*key)
                .ok_or(GraphError::Inconsistent("vertex key missing from endpoint table"))?;
            let mut starts: Vec<(usize, bool)> = info.incident.clone();
            starts.sort_unstable_by_key(|&(i, end)| (elements[i].id, end));
            for (elem_idx, at_end) in starts {
                if visited[elem_idx] {
                    continue;
                }
                let edge = Self::walk_chain(
                    elements,
                    &table,
                    &node_of,
                    &mut visited,
                    elem_idx,
                    at_end,
                    EdgeId(edges.len() as u32),
                )?;
                for eid in &edge.elements {
                    element_edge.insert(*eid, edge.id);
                }
                edges.push(edge);
            }
        }

        // Any still-unvisited elements form pure intermediate-point loops
        // (rare in real maps; we promote one endpoint to a vertex).
        let mut extra: Vec<usize> = (0..elements.len()).filter(|&i| !visited[i]).collect();
        extra.sort_unstable_by_key(|&i| elements[i].id);
        for elem_idx in extra {
            if visited[elem_idx] {
                continue;
            }
            let key = EndpointKey::of(elements[elem_idx].start());
            let node = *node_of.entry(key).or_insert_with(|| {
                nodes.push(key.point());
                NodeId((nodes.len() - 1) as u32)
            });
            let _ = node;
            let edge = Self::walk_chain(
                elements,
                &table,
                &node_of,
                &mut visited,
                elem_idx,
                false,
                EdgeId(edges.len() as u32),
            )?;
            for eid in &edge.elements {
                element_edge.insert(*eid, edge.id);
            }
            edges.push(edge);
        }

        // Adjacency.
        let mut out: Vec<Vec<(EdgeId, NodeId)>> = vec![Vec::new(); nodes.len()];
        for e in &edges {
            if e.forward_ok {
                out[e.from.0 as usize].push((e.id, e.to));
            }
            if e.backward_ok {
                out[e.to.0 as usize].push((e.id, e.from));
            }
        }

        let max_speed_limit_kmh =
            edges.iter().map(|e| e.speed_limit_kmh).fold(0.0f64, f64::max);
        Ok(Self { nodes, edges, out, element_edge, projection, max_speed_limit_kmh })
    }

    /// Walks one chain starting at element `elem_idx`, entering at its
    /// digitisation `start` (`at_end == false`) or `end` (`at_end == true`),
    /// until the far side reaches a graph vertex.
    #[allow(clippy::too_many_arguments)]
    fn walk_chain(
        elements: &[TrafficElement],
        table: &EndpointTable,
        node_of: &HashMap<EndpointKey, NodeId>,
        visited: &mut [bool],
        elem_idx: usize,
        at_end: bool,
        edge_id: EdgeId,
    ) -> Result<Edge, GraphError> {
        let mut chain: Vec<(usize, bool)> = Vec::new(); // (element, reversed?)
        let mut cur = elem_idx;
        // `reversed == true` means we traverse the element from its
        // digitisation end towards its start.
        let mut reversed = at_end;
        let start_key = if at_end {
            EndpointKey::of(elements[elem_idx].end())
        } else {
            EndpointKey::of(elements[elem_idx].start())
        };
        loop {
            visited[cur] = true;
            chain.push((cur, reversed));
            let far = if reversed { elements[cur].start() } else { elements[cur].end() };
            let far_key = EndpointKey::of(far);
            if let Some(kind) = table.kind(far_key) {
                if kind.is_graph_vertex() {
                    break;
                }
            }
            // Intermediate point: continue with the other incident element.
            let info = table
                .info(far_key)
                .ok_or(GraphError::Inconsistent("chain endpoint missing from endpoint table"))?;
            let next = info
                .incident
                .iter()
                .copied()
                .find(|&(i, _)| i != cur && !visited[i]);
            let Some((next_idx, next_at_end)) = next else {
                // A loop closed back on itself: stop here; the far point
                // will have been promoted or the chain ends.
                break;
            };
            cur = next_idx;
            reversed = next_at_end;
        }

        let (&(first_idx, first_rev), &(last_idx, last_rev)) =
            match (chain.first(), chain.last()) {
                (Some(first), Some(last)) => (first, last),
                _ => return Err(GraphError::Inconsistent("chain walk produced no elements")),
            };
        let _ = (first_idx, first_rev);
        let end_key = if last_rev {
            EndpointKey::of(elements[last_idx].start())
        } else {
            EndpointKey::of(elements[last_idx].end())
        };

        let from = *node_of
            .get(&start_key)
            .ok_or(GraphError::Inconsistent("chain start is not a graph vertex"))?;
        // The end may be an intermediate point only in the degenerate loop
        // case; fall back to the start node then.
        let to = node_of.get(&end_key).copied().unwrap_or(from);

        // Merge geometry and attributes.
        let mut ids = Vec::with_capacity(chain.len());
        let mut speed_limit = f64::INFINITY;
        let mut class = FunctionalClass::Local;
        let mut forward_ok = true;
        let mut backward_ok = true;
        for &(i, rev) in &chain {
            let e = &elements[i];
            ids.push(e.id);
            speed_limit = speed_limit.min(e.speed_limit_kmh);
            if e.class.level() < class.level() {
                class = e.class;
            }
            // Traversal in chain direction is "forward" for the edge.
            let (fwd, bwd) = if rev {
                (e.allows_backward(), e.allows_forward())
            } else {
                (e.allows_forward(), e.allows_backward())
            };
            forward_ok &= fwd;
            backward_ok &= bwd;
        }
        if !forward_ok && !backward_ok {
            return Err(GraphError::ImpassableChain { elements: ids });
        }
        let parts = chain.iter().map(|&(i, rev)| (&elements[i].geometry, rev));
        let Some(geometry) = Polyline::join(parts) else {
            return Err(GraphError::Inconsistent("chain walk produced no geometry"));
        };
        let length_m = geometry.length();
        Ok(Edge {
            id: edge_id,
            from,
            to,
            elements: ids,
            geometry,
            length_m,
            speed_limit_kmh: speed_limit,
            class,
            forward_ok,
            backward_ok,
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Vertex position in the planar frame.
    #[inline]
    pub fn node_point(&self, n: NodeId) -> Point {
        self.nodes[n.0 as usize]
    }

    /// All vertices.
    #[inline]
    pub fn nodes(&self) -> &[Point] {
        &self.nodes
    }

    /// Edge by id.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.0 as usize]
    }

    /// All edges.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Outgoing `(edge, neighbour)` pairs from `n`, honouring one-way
    /// restrictions.
    #[inline]
    pub fn neighbors(&self, n: NodeId) -> &[(EdgeId, NodeId)] {
        &self.out[n.0 as usize]
    }

    /// The edge a traffic element was merged into.
    #[inline]
    pub fn edge_of_element(&self, e: ElementId) -> Option<EdgeId> {
        self.element_edge.get(&e).copied()
    }

    /// The planar ↔ WGS-84 projection of this map.
    #[inline]
    pub fn projection(&self) -> &LocalProjection {
        &self.projection
    }

    /// Fastest speed limit anywhere in the network (km/h). Zero for a
    /// graph with no edges.
    #[inline]
    pub fn max_speed_limit_kmh(&self) -> f64 {
        self.max_speed_limit_kmh
    }

    /// Bounding box of all vertices and edge geometries.
    pub fn bbox(&self) -> BBox {
        self.edges
            .iter()
            .fold(BBox::from_points(&self.nodes), |b, e| b.union(e.geometry.bbox()))
    }

    /// The graph vertex closest to `p`.
    pub fn nearest_node(&self, p: Point) -> NodeId {
        // `build` rejects empty inputs, so a constructed graph always has
        // nodes; an impossible empty list falls back to node 0.
        self.nodes
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.distance_sq(p).total_cmp(&b.distance_sq(p)))
            .map_or(NodeId(0), |(i, _)| NodeId(i as u32))
    }

    /// Emits the paper's Table 1 rows: one junction pair per edge,
    /// coordinates in `EPSG:4326`.
    pub fn junction_pairs(&self) -> Vec<JunctionPair> {
        self.edges
            .iter()
            .map(|e| JunctionPair {
                junction1: self.projection.unproject(self.node_point(e.from)),
                elements: e.elements.clone(),
                junction2: self.projection.unproject(self.node_point(e.to)),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowDirection, FunctionalClass};

    fn elem(id: u64, pts: &[(f64, f64)], flow: FlowDirection) -> TrafficElement {
        TrafficElement {
            id: ElementId(id),
            geometry: Polyline::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect())
                .unwrap(),
            class: FunctionalClass::Local,
            speed_limit_kmh: 40.0,
            flow,
        }
    }

    fn projection() -> LocalProjection {
        LocalProjection::new(GeoPoint::new(25.4651, 65.0121))
    }

    /// Cross with one arm split into two elements:
    ///
    /// ```text
    ///            (0,100)
    ///               |
    /// (-100,0) -- (0,0) -- (100,0) -- (200,0)
    ///               |           [e4: intermediate at (100,0)]
    ///            (0,-100)
    /// ```
    fn cross() -> Vec<TrafficElement> {
        vec![
            elem(1, &[(0.0, 0.0), (100.0, 0.0)], FlowDirection::Both),
            elem(2, &[(0.0, 0.0), (-100.0, 0.0)], FlowDirection::Both),
            elem(3, &[(0.0, 0.0), (0.0, 100.0)], FlowDirection::Both),
            elem(4, &[(100.0, 0.0), (200.0, 0.0)], FlowDirection::Both),
            elem(5, &[(0.0, -100.0), (0.0, 0.0)], FlowDirection::Both),
        ]
    }

    #[test]
    fn merges_chain_into_single_edge() {
        let g = RoadGraph::build(&cross(), projection()).unwrap();
        // Vertices: the centre junction + 4 dead ends = 5; (100,0) is
        // intermediate and merged away.
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 4);
        // One of the edges contains both element 1 and element 4.
        let merged = g
            .edges()
            .iter()
            .find(|e| e.elements.len() == 2)
            .expect("one merged edge");
        assert_eq!(merged.elements, vec![ElementId(1), ElementId(4)]);
        assert_eq!(merged.length_m, 200.0);
        assert_eq!(g.edge_of_element(ElementId(4)), Some(merged.id));
    }

    #[test]
    fn one_way_chain_direction() {
        // Two one-way elements digitised tip-to-tail east.
        let els = vec![
            elem(1, &[(0.0, 0.0), (100.0, 0.0)], FlowDirection::WithDigitization),
            elem(2, &[(100.0, 0.0), (200.0, 0.0)], FlowDirection::WithDigitization),
            // A cross element so (0,0) is a junction.
            elem(3, &[(0.0, 0.0), (0.0, 100.0)], FlowDirection::Both),
            elem(4, &[(0.0, 0.0), (0.0, -100.0)], FlowDirection::Both),
        ];
        let g = RoadGraph::build(&els, projection()).unwrap();
        let e = g
            .edges()
            .iter()
            .find(|e| e.elements.contains(&ElementId(1)))
            .unwrap();
        assert_eq!(e.elements.len(), 2);
        // One-way only in one direction.
        assert!(e.forward_ok ^ e.backward_ok);
        // Traffic must flow from (0,0) towards (200,0).
        let (src, dst) = if e.forward_ok { (e.from, e.to) } else { (e.to, e.from) };
        assert_eq!(g.node_point(src), Point::new(0.0, 0.0));
        assert_eq!(g.node_point(dst), Point::new(200.0, 0.0));
    }

    #[test]
    fn one_way_reversed_digitisation() {
        // Element 2 digitised against travel; flow marked accordingly so the
        // chain is still consistently one-way eastbound.
        let els = vec![
            elem(1, &[(0.0, 0.0), (100.0, 0.0)], FlowDirection::WithDigitization),
            elem(2, &[(200.0, 0.0), (100.0, 0.0)], FlowDirection::AgainstDigitization),
            elem(3, &[(0.0, 0.0), (0.0, 100.0)], FlowDirection::Both),
            elem(4, &[(0.0, 0.0), (0.0, -100.0)], FlowDirection::Both),
        ];
        let g = RoadGraph::build(&els, projection()).unwrap();
        let e = g
            .edges()
            .iter()
            .find(|e| e.elements.contains(&ElementId(2)))
            .unwrap();
        assert!(e.forward_ok ^ e.backward_ok);
    }

    #[test]
    fn impassable_chain_rejected() {
        // Two one-way elements pointing at each other through an
        // intermediate point: impassable both ways.
        let els = vec![
            elem(1, &[(0.0, 0.0), (100.0, 0.0)], FlowDirection::WithDigitization),
            elem(2, &[(200.0, 0.0), (100.0, 0.0)], FlowDirection::WithDigitization),
            elem(3, &[(0.0, 0.0), (0.0, 100.0)], FlowDirection::Both),
            elem(4, &[(0.0, 0.0), (0.0, -100.0)], FlowDirection::Both),
        ];
        assert!(matches!(
            RoadGraph::build(&els, projection()),
            Err(GraphError::ImpassableChain { .. })
        ));
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(
            RoadGraph::build(&[], projection()),
            Err(GraphError::Empty)
        ));
    }

    #[test]
    fn junction_pairs_match_table1_shape() {
        let g = RoadGraph::build(&cross(), projection()).unwrap();
        let pairs = g.junction_pairs();
        assert_eq!(pairs.len(), g.num_edges());
        let merged = pairs.iter().find(|p| p.elements.len() == 2).unwrap();
        let rendered = merged.to_string();
        assert!(rendered.starts_with("POINT("), "{rendered}");
        assert!(rendered.contains("{1,4}") || rendered.contains("{4,1}"), "{rendered}");
    }

    #[test]
    fn adjacency_is_symmetric_for_two_way() {
        let g = RoadGraph::build(&cross(), projection()).unwrap();
        let centre = g.nearest_node(Point::new(0.0, 0.0));
        assert_eq!(g.neighbors(centre).len(), 4);
        for &(eid, nb) in g.neighbors(centre) {
            assert!(g
                .neighbors(nb)
                .iter()
                .any(|&(e2, n2)| e2 == eid && n2 == centre));
        }
    }

    #[test]
    fn nearest_node() {
        let g = RoadGraph::build(&cross(), projection()).unwrap();
        let n = g.nearest_node(Point::new(190.0, 10.0));
        assert_eq!(g.node_point(n), Point::new(200.0, 0.0));
    }

    #[test]
    fn deterministic_construction() {
        let a = RoadGraph::build(&cross(), projection()).unwrap();
        let b = RoadGraph::build(&cross(), projection()).unwrap();
        let ids_a: Vec<_> = a.edges().iter().map(|e| e.elements.clone()).collect();
        let ids_b: Vec<_> = b.edges().iter().map(|e| e.elements.clone()).collect();
        assert_eq!(ids_a, ids_b);
    }
}
