//! Cross-crate property tests: invariants that must hold for arbitrary
//! inputs, exercised through the public API.

use proptest::prelude::*;
use taxi_traces::geo::{GeoPoint, LocalProjection, Point, Polyline};
use taxi_traces::roadnet::{
    ElementId, FlowDirection, FunctionalClass, RoadGraph, TrafficElement,
};
use taxi_traces::store::codec;
use taxi_traces::timebase::Timestamp;
use taxi_traces::traces::{CustomerTripTruth, PointTruth, RawTrip, RoutePoint, TaxiId, TripId};

fn proj() -> LocalProjection {
    LocalProjection::new(GeoPoint::new(25.4651, 65.0121))
}

/// Builds a connected "ladder" street network from arbitrary block lengths:
/// two parallel horizontal streets with rungs, guaranteeing junctions.
fn ladder(blocks: &[f64]) -> Vec<TrafficElement> {
    let mut els = Vec::new();
    let mut id = 1u64;
    let mut x = 0.0;
    let mk = |id: &mut u64, a: (f64, f64), b: (f64, f64)| {
        let e = TrafficElement {
            id: ElementId(*id),
            geometry: Polyline::new(vec![Point::new(a.0, a.1), Point::new(b.0, b.1)])
                .expect("two distinct points"),
            class: FunctionalClass::Local,
            speed_limit_kmh: 40.0,
            flow: FlowDirection::Both,
        };
        *id += 1;
        e
    };
    // First rung.
    els.push(mk(&mut id, (0.0, 0.0), (0.0, 100.0)));
    for &len in blocks {
        let nx = x + len;
        els.push(mk(&mut id, (x, 0.0), (nx, 0.0)));
        els.push(mk(&mut id, (x, 100.0), (nx, 100.0)));
        els.push(mk(&mut id, (nx, 0.0), (nx, 100.0)));
        x = nx;
    }
    // Dead-end stubs at the four outer corners so they are graph vertices
    // (a stub-less single-block ladder would be a junction-free cycle).
    for &(cx, cy, dy) in
        &[(0.0, 0.0, -1.0), (0.0, 100.0, 1.0), (x, 0.0, -1.0), (x, 100.0, 1.0)]
    {
        els.push(mk(&mut id, (cx, cy), (cx, cy + dy * 20.0)));
    }
    els
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Graph construction invariants on arbitrary ladder networks: every
    /// element lands on exactly one edge, edge lengths equal their geometry,
    /// and adjacency is symmetric for two-way streets.
    #[test]
    fn graph_construction_invariants(
        blocks in proptest::collection::vec(30f64..300.0, 1..12)
    ) {
        let els = ladder(&blocks);
        let graph = RoadGraph::build(&els, proj()).expect("ladder is well-formed");

        // Every element maps to exactly one edge, and each edge's element
        // list is disjoint from the others.
        let mut seen = std::collections::HashSet::new();
        for e in graph.edges() {
            for el in &e.elements {
                prop_assert!(seen.insert(*el), "element {el} appears twice");
                prop_assert_eq!(graph.edge_of_element(*el), Some(e.id));
            }
            prop_assert!((e.length_m - e.geometry.length()).abs() < 1e-6);
            prop_assert!(e.is_two_way());
        }
        prop_assert_eq!(seen.len(), els.len());

        // Symmetric adjacency.
        for n in 0..graph.num_nodes() as u32 {
            let node = taxi_traces::roadnet::NodeId(n);
            for &(eid, nb) in graph.neighbors(node) {
                prop_assert!(graph
                    .neighbors(nb)
                    .iter()
                    .any(|&(e2, n2)| e2 == eid && n2 == node));
            }
        }
    }

    /// Dijkstra optimality sanity on ladders: the distance between the two
    /// ends never exceeds the straight-rail length plus one rung, and path
    /// length equals the sum of its edge lengths.
    #[test]
    fn dijkstra_path_consistency(
        blocks in proptest::collection::vec(30f64..300.0, 1..12)
    ) {
        use taxi_traces::roadnet::dijkstra::{shortest_path, CostModel};
        let els = ladder(&blocks);
        let graph = RoadGraph::build(&els, proj()).expect("ladder");
        let a = graph.nearest_node(Point::new(0.0, 0.0));
        let total: f64 = blocks.iter().sum();
        let b = graph.nearest_node(Point::new(total, 100.0));
        let p = shortest_path(&graph, a, b, CostModel::Distance).expect("connected");
        let edge_sum: f64 = p.edges.iter().map(|&e| graph.edge(e).length_m).sum();
        prop_assert!((p.length_m - edge_sum).abs() < 1e-6);
        prop_assert!(p.length_m <= total + 100.0 + 1e-6);
        prop_assert!(p.length_m >= (total * total + 100.0 * 100.0).sqrt() - 1e-6);
    }

    /// The binary codec round-trips arbitrary sessions bit-for-bit.
    #[test]
    fn codec_round_trips_arbitrary_sessions(
        seed_pts in proptest::collection::vec(
            (0i64..100_000, -1e4f64..1e4, -1e4f64..1e4, 0f64..120.0), 0..60),
        taxi in 1u16..8,
        trip in 0u64..1_000_000,
        with_truth in proptest::bool::ANY,
    ) {
        let points: Vec<RoutePoint> = seed_pts
            .iter()
            .enumerate()
            .map(|(i, &(t, x, y, v))| RoutePoint {
                point_id: i as u64,
                trip_id: TripId(trip),
                taxi: TaxiId(taxi),
                geo: GeoPoint::new(25.0 + x / 1e5, 65.0 + y / 1e5),
                pos: Point::new(x, y),
                timestamp: Timestamp::from_secs(t),
                speed_kmh: v,
                heading_deg: (i as f64 * 37.0) % 360.0,
                fuel_ml: i as f64 * 0.7,
                truth: PointTruth {
                    seq: i as u32,
                    element: if i % 3 == 0 { Some(ElementId(i as u64)) } else { None },
                },
            })
            .collect();
        let truth_trips = if with_truth && !points.is_empty() {
            vec![CustomerTripTruth {
                start_seq: 0,
                end_seq: (points.len() - 1) as u32,
                origin: taxi_traces::roadnet::NodeId(1),
                destination: taxi_traces::roadnet::NodeId(2),
                elements: vec![ElementId(9), ElementId(10)],
                od_pair: Some(("T".into(), "S".into())),
            }]
        } else {
            Vec::new()
        };
        let session = RawTrip {
            id: TripId(trip),
            taxi: TaxiId(taxi),
            start_time: Timestamp::from_secs(0),
            end_time: Timestamp::from_secs(100_000),
            points,
            total_time: taxi_traces::timebase::Duration::from_secs(100_000),
            total_distance_m: 12_345.678,
            total_fuel_ml: 987.654,
            truth_trips,
        };
        let dir = std::env::temp_dir().join("taxitrace_prop_codec");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("s{trip}_{taxi}.tts"));
        codec::save_sessions(&path, std::slice::from_ref(&session)).expect("save");
        let back = codec::load(&path, &taxi_traces::store::LoadOptions::strict())
            .expect("load")
            .sessions;
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(back.len(), 1);
        prop_assert_eq!(&back[0], &session);
    }
}
