//! Cross-crate integration: the full pipeline from simulation to analysis,
//! checking the invariants each stage must hand to the next.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use taxi_traces::core::{mixed_model, Study, StudyConfig, StudyOutput, Table4};
use taxi_traces::geo::Point;

fn output() -> &'static StudyOutput {
    static OUT: OnceLock<StudyOutput> = OnceLock::new();
    OUT.get_or_init(|| Study::new(StudyConfig::scaled(42, 0.1)).run().expect("study runs"))
}

#[test]
fn store_matches_simulated_fleet() {
    let out = output();
    let sessions = out.store.sessions();
    assert_eq!(sessions.len(), out.cleaning.sessions);
    let points: usize = sessions.iter().map(|s| s.points.len()).sum();
    assert_eq!(points, out.cleaning.raw_points);
    let taxis: BTreeSet<_> = sessions.iter().map(|s| s.taxi).collect();
    assert_eq!(taxis.len(), 7);
}

#[test]
fn segments_are_subsets_of_sessions() {
    let out = output();
    for seg in out.segments.iter().take(200) {
        let session = out.store.get(seg.trip_id).expect("segment's session stored");
        assert_eq!(session.taxi, seg.taxi);
        // Every segment point exists in the session.
        let first = &seg.points[0];
        assert!(
            session.points.iter().any(|p| p.truth.seq == first.truth.seq),
            "segment points come from the session"
        );
    }
}

#[test]
fn funnel_totals_are_consistent() {
    let out = output();
    let total_segments: usize = out.funnel().iter().map(|r| r.segments_total).sum();
    assert_eq!(total_segments, out.segments.len());
    let post: usize = out.funnel().iter().map(|r| r.post_filtered).sum();
    assert_eq!(post, out.transitions.len());
}

#[test]
fn transitions_connect_od_roads() {
    let out = output();
    for t in &out.transitions {
        let (from_name, to_name) = t.pair.split_once('-').expect("pair label");
        let from = out
            .city
            .od_roads
            .iter()
            .find(|r| r.name == from_name)
            .expect("named road");
        let to = out
            .city
            .od_roads
            .iter()
            .find(|r| r.name == to_name)
            .expect("named road");
        // Transition endpooints lie near the respective roads.
        let start = t.points.first().expect("points").pos;
        let end = t.points.last().expect("points").pos;
        // Crossing indices mark the point *before* the corridor-entry step;
        // with event-based sampling that point can trail the corridor by up
        // to one emission interval (~350 m).
        assert!(from.axis.distance_to_point(start) < 600.0, "{}: start", t.pair);
        assert!(to.axis.distance_to_point(end) < 600.0, "{}: end", t.pair);
        // And the route passes the centre.
        assert!(
            t.points.iter().any(|p| out.city.center_area.contains(p.pos)),
            "{}: goes through the centre",
            t.pair
        );
    }
}

#[test]
fn matched_elements_exist_in_city() {
    let out = output();
    for t in &out.transitions {
        for e in &t.elements {
            assert!(
                out.city.graph.edge_of_element(*e).is_some(),
                "matched element {e} is on the map"
            );
        }
    }
}

#[test]
fn analyses_run_on_pipeline_output() {
    let out = output();
    let t4 = Table4::compute(out);
    assert!(!t4.rows.is_empty());
    let grid = out.grid_stats(None);
    assert!(!grid.cells.is_empty());
    let t5 = grid.table5();
    assert_eq!(t5.classes.len(), 4);
    let m = mixed_model(out).expect("lmm fits");
    assert!(m.cells.len() > 5);
    // Fitted cells are exactly the populated grid cells.
    assert_eq!(m.cells.len(), grid.cells.len());
}

#[test]
fn crowd_zone_slows_nearby_cells() {
    let out = output();
    let grid = out.grid_stats(None);
    let zone_b = Point::new(550.0, -40.0);
    let mut in_zone = Vec::new();
    let mut far = Vec::new();
    for (cell, stat) in &grid.cells {
        let c = grid.grid.cell_center(*cell);
        if c.distance(zone_b) < 300.0 {
            in_zone.push(stat.mean_speed);
        } else if c.distance(zone_b) > 900.0 && c.distance(Point::new(0.0, 0.0)) < 1500.0 {
            far.push(stat.mean_speed);
        }
    }
    if !in_zone.is_empty() && !far.is_empty() {
        let mz = in_zone.iter().sum::<f64>() / in_zone.len() as f64;
        let mf = far.iter().sum::<f64>() / far.len() as f64;
        assert!(mz < mf, "crowd-zone cells {mz:.1} vs elsewhere {mf:.1} km/h");
    }
}
