use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use taxitrace_cleaning::TripSegment;
use taxitrace_geo::{BBox, Corridor, Point};
use taxitrace_roadnet::synth::SyntheticCity;
use taxitrace_traces::TaxiId;

/// One named O-D road with its thick geometry.
#[derive(Debug, Clone)]
pub struct OdEndpoint {
    pub name: String,
    pub corridor: Corridor,
}

/// §IV-D selection parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OdConfig {
    /// Half width of the thick geometry, metres.
    pub thick_half_width_m: f64,
    /// Maximum acute angle (degrees) between the route step and the O-D
    /// road axis for a crossing to count — routes must *travel along* the
    /// road, not merely cross it.
    pub max_angle_deg: f64,
    /// The central area transitions must pass through.
    pub center_area: BBox,
    /// Post filter: the segment's first/last route point must lie within
    /// this distance of the origin/destination road axis, metres.
    pub post_filter_dist_m: f64,
    /// The ordered pairs retained by the post filter (paper: T-L, L-T,
    /// T-S, S-T).
    pub studied_pairs: Vec<(String, String)>,
}

impl OdConfig {
    /// Paper-like defaults for a given central area.
    pub fn new(center_area: BBox) -> Self {
        Self {
            thick_half_width_m: 120.0,
            max_angle_deg: 40.0,
            center_area,
            post_filter_dist_m: 300.0,
            studied_pairs: vec![
                ("T".into(), "L".into()),
                ("L".into(), "T".into()),
                ("T".into(), "S".into()),
                ("S".into(), "T".into()),
            ],
        }
    }
}

/// One origin → destination transition extracted from a trip segment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// Index of the source segment in the analyzed slice.
    pub segment_index: usize,
    pub taxi: TaxiId,
    pub from: String,
    pub to: String,
    /// Point index (within the segment) of the origin crossing.
    pub origin_point: usize,
    /// Point index of the destination crossing.
    pub destination_point: usize,
    /// Funnel survival flags.
    pub within_center: bool,
    pub post_filtered: bool,
}

impl Transition {
    /// "T-S"-style direction label.
    pub fn pair_label(&self) -> String {
        format!("{}-{}", self.from, self.to)
    }
}

/// One row of Table 3.
///
/// Per the paper's §IV-D narration, the published "Trip segments (total)"
/// column already counts only segments that intersect a thick O-D road at a
/// valid angle; we additionally keep the full cleaned-segment count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FunnelRow {
    pub taxi: u16,
    /// All cleaned trip segments of the taxi.
    pub segments_total: usize,
    /// Segments intersecting ≥ 1 thick road at a valid angle
    /// (the paper's column 2).
    pub any_crossing: usize,
    /// Segments intersecting ≥ 2 *different* thick roads
    /// (the paper's "Filtered and cleaned" column).
    pub filtered_cleaned: usize,
    pub transitions_total: usize,
    pub within_center: usize,
    pub post_filtered: usize,
}

/// The §IV-D analyzer.
#[derive(Debug, Clone)]
pub struct OdAnalyzer {
    endpoints: Vec<OdEndpoint>,
    config: OdConfig,
}

impl OdAnalyzer {
    /// Builds the analyzer from explicit endpoints.
    pub fn new(endpoints: Vec<OdEndpoint>, config: OdConfig) -> Self {
        Self { endpoints, config }
    }

    /// Builds the analyzer for a synthetic city's named roads.
    pub fn from_city(city: &SyntheticCity) -> Self {
        let config = OdConfig::new(city.center_area);
        let endpoints = city
            .od_roads
            .iter()
            .map(|r| OdEndpoint {
                name: r.name.clone(),
                corridor: Corridor::new(r.axis.clone(), config.thick_half_width_m),
            })
            .collect();
        Self { endpoints, config }
    }

    /// The configured endpoints.
    pub fn endpoints(&self) -> &[OdEndpoint] {
        &self.endpoints
    }

    /// The selection parameters.
    pub fn config(&self) -> &OdConfig {
        &self.config
    }

    /// Analyzes segments and returns every extracted transition with its
    /// funnel-survival flags. Only segments producing a transition appear.
    pub fn transitions(&self, segments: &[TripSegment]) -> Vec<Transition> {
        self.scan(segments).0
    }

    /// One corridor scan of every segment: the extracted transitions (as
    /// [`Self::transitions`]) and, per segment, the number of distinct
    /// thick roads it crosses at a valid angle (as [`Self::roads_crossed`]),
    /// which [`Self::funnel`] takes.
    pub fn scan(&self, segments: &[TripSegment]) -> (Vec<Transition>, Vec<usize>) {
        let mut out = Vec::new();
        let mut roads_crossed = Vec::with_capacity(segments.len());
        for (si, seg) in segments.iter().enumerate() {
            let positions: Vec<Point> = seg.points.iter().map(|p| p.pos).collect();
            // Valid (angle-filtered) crossings per endpoint.
            let mut crossings: Vec<(usize, usize)> = Vec::new(); // (endpoint, point idx)
            let mut roads = 0;
            for (ei, ep) in self.endpoints.iter().enumerate() {
                let before = crossings.len();
                for c in ep.corridor.crossings(&positions) {
                    if c.angle_deg <= self.config.max_angle_deg {
                        crossings.push((ei, c.point_index));
                    }
                }
                if crossings.len() > before {
                    roads += 1;
                }
            }
            roads_crossed.push(roads);
            if crossings.is_empty() {
                continue;
            }
            crossings.sort_by_key(|&(_, pi)| pi);
            // Ordered transition: the first crossing is the origin; the
            // last crossing of a *different* endpoint is the destination.
            let (origin_ep, origin_pi) = crossings[0];
            let dest = crossings
                .iter()
                .rev()
                .find(|&&(ei, _)| ei != origin_ep)
                .copied();
            let Some((dest_ep, dest_pi)) = dest else { continue };
            if dest_pi <= origin_pi {
                continue;
            }

            let within_center = positions[origin_pi..=dest_pi]
                .iter()
                .any(|p| self.config.center_area.contains(*p));

            let from = self.endpoints[origin_ep].name.clone();
            let to = self.endpoints[dest_ep].name.clone();
            let pair_ok = self
                .config
                .studied_pairs
                .iter()
                .any(|(a, b)| *a == from && *b == to);
            let start_ok = self.endpoints[origin_ep]
                .corridor
                .axis()
                .distance_to_point(positions[0])
                <= self.config.post_filter_dist_m;
            let end_ok = self.endpoints[dest_ep]
                .corridor
                .axis()
                // lint:allow(panic-free-library): segments keep >= 2 points
                .distance_to_point(*positions.last().expect("segment non-empty"))
                <= self.config.post_filter_dist_m;
            let post_filtered = within_center && pair_ok && start_ok && end_ok;

            out.push(Transition {
                segment_index: si,
                taxi: seg.taxi,
                from,
                to,
                origin_point: origin_pi,
                destination_point: dest_pi,
                within_center,
                post_filtered,
            });
        }
        (out, roads_crossed)
    }

    /// Number of distinct thick roads a segment crosses at a valid angle
    /// (one segment's entry of [`Self::scan`]'s counts, scanned alone).
    pub fn roads_crossed(&self, seg: &TripSegment) -> usize {
        let positions: Vec<Point> = seg.points.iter().map(|p| p.pos).collect();
        self.endpoints
            .iter()
            .filter(|ep| {
                ep.corridor
                    .crossings(&positions)
                    .iter()
                    .any(|c| c.angle_deg <= self.config.max_angle_deg)
            })
            .count()
    }

    /// Reproduces Table 3: one funnel row per taxi. `roads_crossed` and
    /// `transitions` are what [`Self::scan`] returned for the same
    /// `segments`.
    pub fn funnel(
        &self,
        segments: &[TripSegment],
        roads_crossed: &[usize],
        transitions: &[Transition],
    ) -> Vec<FunnelRow> {
        let mut rows: BTreeMap<u16, FunnelRow> = BTreeMap::new();
        for (seg, &crossed) in segments.iter().zip(roads_crossed) {
            let row = rows
                .entry(seg.taxi.0)
                .or_insert_with(|| FunnelRow { taxi: seg.taxi.0, ..Default::default() });
            row.segments_total += 1;
            if crossed >= 1 {
                row.any_crossing += 1;
            }
            if crossed >= 2 {
                row.filtered_cleaned += 1;
            }
        }
        for t in transitions {
            let row = rows
                .entry(t.taxi.0)
                .or_insert_with(|| FunnelRow { taxi: t.taxi.0, ..Default::default() });
            row.transitions_total += 1;
            if t.within_center {
                row.within_center += 1;
            }
            if t.post_filtered {
                row.post_filtered += 1;
            }
        }
        rows.into_values().collect()
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use taxitrace_geo::{GeoPoint, Polyline};
    use taxitrace_timebase::Timestamp;
    use taxitrace_traces::{PointTruth, RoutePoint, TripId};

    fn analyzer() -> OdAnalyzer {
        let center =
            BBox::from_corners(Point::new(-1000.0, -1000.0), Point::new(1000.0, 1000.0));
        let ep = |name: &str, a: (f64, f64), b: (f64, f64)| OdEndpoint {
            name: name.into(),
            corridor: Corridor::new(
                Polyline::new(vec![Point::new(a.0, a.1), Point::new(b.0, b.1)]).unwrap(),
                120.0,
            ),
        };
        OdAnalyzer::new(
            vec![
                ep("T", (0.0, -2000.0), (0.0, -2450.0)),
                ep("S", (2000.0, 0.0), (2450.0, 0.0)),
                ep("L", (-2000.0, 1500.0), (-2450.0, 1800.0)),
            ],
            OdConfig::new(center),
        )
    }

    fn segment_from(path: Vec<(f64, f64)>) -> TripSegment {
        let points: Vec<RoutePoint> = path
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| RoutePoint {
                point_id: i as u64,
                trip_id: TripId(1),
                taxi: TaxiId(1),
                geo: GeoPoint::new(25.0, 65.0),
                pos: Point::new(x, y),
                timestamp: Timestamp::from_secs(i as i64 * 30),
                speed_kmh: 30.0,
                heading_deg: 0.0,
                fuel_ml: 0.0,
                truth: PointTruth { seq: i as u32, element: None },
            })
            .collect();
        TripSegment {
            trip_id: TripId(1),
            taxi: TaxiId(1),
            start_time: Timestamp::from_secs(0),
            points,
        }
    }

    proptest! {
        /// Transition invariants for arbitrary trajectories: origin before
        /// destination, distinct roads, valid point indices, and funnel
        /// flag implication (post-filtered ⇒ within centre).
        #[test]
        fn transition_invariants(
            path in proptest::collection::vec((-2600f64..2600.0, -2600f64..2600.0), 2..40)
        ) {
            let a = analyzer();
            let seg = segment_from(path);
            for t in a.transitions(std::slice::from_ref(&seg)) {
                prop_assert!(t.origin_point < t.destination_point);
                prop_assert!(t.destination_point < seg.points.len());
                prop_assert!(t.from != t.to);
                if t.post_filtered {
                    prop_assert!(t.within_center);
                }
            }
            // roads_crossed is consistent with transitions existing, and
            // the one-pass scan counts exactly what it counts.
            let crossed = a.roads_crossed(&seg);
            let (transitions, counts) = a.scan(std::slice::from_ref(&seg));
            prop_assert_eq!(counts, vec![crossed]);
            if !transitions.is_empty() {
                prop_assert!(crossed >= 2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxitrace_geo::{GeoPoint, Polyline};
    use taxitrace_timebase::Timestamp;
    use taxitrace_traces::{PointTruth, RoutePoint, TripId};

    fn endpoint(name: &str, a: (f64, f64), b: (f64, f64)) -> OdEndpoint {
        OdEndpoint {
            name: name.into(),
            corridor: Corridor::new(
                Polyline::new(vec![Point::new(a.0, a.1), Point::new(b.0, b.1)]).unwrap(),
                120.0,
            ),
        }
    }

    fn analyzer() -> OdAnalyzer {
        // T: vertical road at x=0, y in [-2450, -2000];
        // S: horizontal road at y=0, x in [2000, 2450].
        let center = BBox::from_corners(Point::new(-1000.0, -1000.0), Point::new(1000.0, 1000.0));
        OdAnalyzer::new(
            vec![
                endpoint("T", (0.0, -2000.0), (0.0, -2450.0)),
                endpoint("S", (2000.0, 0.0), (2450.0, 0.0)),
                endpoint("L", (-2000.0, 1500.0), (-2450.0, 1800.0)),
            ],
            OdConfig::new(center),
        )
    }

    fn segment(taxi: u16, path: &[(f64, f64)]) -> TripSegment {
        let points: Vec<RoutePoint> = path
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| RoutePoint {
                point_id: i as u64,
                trip_id: TripId(1),
                taxi: TaxiId(taxi),
                geo: GeoPoint::new(25.0, 65.0),
                pos: Point::new(x, y),
                timestamp: Timestamp::from_secs(i as i64 * 30),
                speed_kmh: 30.0,
                heading_deg: 0.0,
                fuel_ml: 0.0,
                truth: PointTruth { seq: i as u32, element: None },
            })
            .collect();
        TripSegment {
            trip_id: TripId(1),
            taxi: TaxiId(taxi),
            start_time: Timestamp::from_secs(0),
            points,
        }
    }

    /// A trip driving T → centre → S along the roads.
    fn t_to_s() -> TripSegment {
        segment(
            1,
            &[
                (0.0, -2400.0),
                (0.0, -2100.0), // along T road northbound (angle 0)
                (0.0, -1500.0),
                (0.0, -500.0),
                (0.0, 0.0), // city centre
                (500.0, 0.0),
                (1500.0, 0.0),
                (2100.0, 0.0), // along S road eastbound
                (2440.0, 0.0),
            ],
        )
    }

    #[test]
    fn extracts_ordered_transition() {
        let a = analyzer();
        let segs = vec![t_to_s()];
        let ts = a.transitions(&segs);
        assert_eq!(ts.len(), 1);
        let t = &ts[0];
        assert_eq!(t.from, "T");
        assert_eq!(t.to, "S");
        assert!(t.within_center);
        assert!(t.post_filtered);
        assert_eq!(t.pair_label(), "T-S");
    }

    #[test]
    fn reverse_trip_gives_reverse_pair() {
        let a = analyzer();
        let mut path: Vec<(f64, f64)> = t_to_s().points.iter().map(|p| (p.pos.x, p.pos.y)).collect();
        path.reverse();
        let ts = a.transitions(&[segment(1, &path)]);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].pair_label(), "S-T");
    }

    #[test]
    fn perpendicular_crossing_rejected_by_angle() {
        let a = analyzer();
        // Crosses the T road sideways (driving east at y=-2200), then
        // reaches S properly.
        let seg = segment(
            1,
            &[
                (-500.0, -2200.0),
                (0.0, -2200.0), // 90° across T
                (500.0, -2200.0),
                (2100.0, 0.0),
                (2440.0, 0.0),
            ],
        );
        let ts = a.transitions(&[seg]);
        // Only S is validly crossed → no transition.
        assert!(ts.is_empty());
    }

    #[test]
    fn bypass_outside_center_flagged() {
        let a = analyzer();
        // T → S around the outside (never enters the centre box).
        let seg = segment(
            1,
            &[
                (0.0, -2400.0),
                (0.0, -2100.0),
                (800.0, -1800.0),
                (1800.0, -1200.0),
                (1900.0, -150.0),
                (2100.0, 0.0), // approaches S roughly along the road
                (2440.0, 0.0),
            ],
        );
        let ts = a.transitions(&[seg]);
        assert_eq!(ts.len(), 1);
        assert!(!ts[0].within_center);
        assert!(!ts[0].post_filtered);
    }

    #[test]
    fn unstudied_pair_not_post_filtered() {
        let a = analyzer();
        // S → L is a transition but not one of the four studied pairs.
        let seg = segment(
            1,
            &[
                (2440.0, 0.0),
                (2100.0, 0.0),
                (500.0, 0.0),
                (0.0, 0.0),
                (-1000.0, 800.0),
                (-2100.0, 1570.0),
                (-2400.0, 1790.0),
            ],
        );
        let ts = a.transitions(&[seg]);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].pair_label(), "S-L");
        assert!(ts[0].within_center);
        assert!(!ts[0].post_filtered);
    }

    #[test]
    fn segment_far_from_everything_ignored() {
        let a = analyzer();
        let seg = segment(1, &[(9000.0, 9000.0), (9100.0, 9000.0), (9200.0, 9000.0)]);
        assert!(a.transitions(std::slice::from_ref(&seg)).is_empty());
        assert_eq!(a.roads_crossed(&seg), 0);
    }

    #[test]
    fn funnel_is_monotonic() {
        let a = analyzer();
        let segs = vec![
            t_to_s(),
            segment(1, &[(9000.0, 9000.0), (9100.0, 9000.0), (9200.0, 9100.0), (9300.0, 9100.0), (9400.0, 9200.0)]),
            segment(2, &[(0.0, -2400.0), (0.0, -2100.0), (0.0, -1500.0)]),
        ];
        let (transitions, crossed) = a.scan(&segs);
        let rows = a.funnel(&segs, &crossed, &transitions);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.filtered_cleaned <= r.segments_total);
            assert!(r.transitions_total <= r.filtered_cleaned.max(r.transitions_total));
            assert!(r.within_center <= r.transitions_total);
            assert!(r.post_filtered <= r.within_center);
        }
        let taxi1 = rows.iter().find(|r| r.taxi == 1).unwrap();
        assert_eq!(taxi1.segments_total, 2);
        assert_eq!(taxi1.transitions_total, 1);
        assert_eq!(taxi1.post_filtered, 1);
    }
}
